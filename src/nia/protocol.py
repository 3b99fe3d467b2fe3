"""Sequential learning protocol over an agent DAG.

Agents are processed in topological order; each fits a logistic model on its
local feature columns plus its parents' logit columns and publishes its own
logit column ``design @ weights``. The fit's loss is that column's loss, so
each agent has one record, the ``FitResult`` its fit returned. An agent's
design is a ``Design`` that refers to the dataset's feature columns and its
parents' columns, so no agent's design is ever copied whole. ``walk`` keeps
a published column only until its last reader has been fitted, so a run
holds the graph's frontier of columns and one sigmoid column that each fit
hands to the next, not n * D reals; a caller that needs every column takes
each one as it is published (the logit dump spills them to disk). Each fit
records the sup-norm of its residual moments, so the orthogonality suite
needs no kept column. ``nia.population`` runs the n = inf protocol on the
same walk.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .data import Dataset
from .errors import MissingParent, NotConvergedWarning
from .graph import AgentGraph, check_feature_range
from .logistic import Design, FitCarry, FitOptions, FitResult, fit_logistic


@dataclass(frozen=True)
class ProtocolTrace:
    """Per-agent fits of one protocol run.

    ``models[a]`` is agent a's ``FitResult`` as the fit returned it: its
    ``weights`` are the local feature weights (ascending feature index) then
    the parent logit weights (declared parent order), and its ``loss`` is
    bitwise ``bce_loss(design @ weights, labels)``. ``logits`` is always
    empty: the run's columns live in ``walk``'s frontier and reach a caller
    through ``publish``. The field stays because the benchmark's tracer
    reads it.
    """

    order: tuple[int, ...]
    models: dict[int, FitResult]
    logits: dict[int, np.ndarray]

    @property
    def sink_id(self) -> int:
        """Last agent in the topological order."""
        return self.order[-1]

    @property
    def all_converged(self) -> bool:
        return all(m.converged for m in self.models.values())

    def loss_path(self) -> np.ndarray:
        """Losses arranged by topological position."""
        return np.array([self.models[a].loss for a in self.order])


def agent_design(
    dataset: Dataset,
    graph: AgentGraph,
    agent_id: int,
    columns: Mapping[int, np.ndarray],
) -> Design:
    """Design of one agent, by reference: its local feature columns of
    ``dataset.features`` in ascending index order, then its parents'
    published columns ``columns[p]`` in declared parent order.
    ``np.asarray`` of it is the n x m matrix, column-major. After a run,
    ``columns`` is the dict that ``run_protocol(..., publish=columns.__setitem__)``
    filled."""
    parents = graph.parents_of(agent_id)
    for parent in parents:
        if parent not in columns:
            raise MissingParent(f"agent {agent_id} needs logits of agent {parent}")
    idx = tuple(l - 1 for l in sorted(graph.feature_set(agent_id)))
    return Design(dataset.features, idx, tuple(columns[p] for p in parents))


def walk(graph: AgentGraph, step: Callable[[int, Mapping[int, object]], object]) -> None:
    """Call ``step(agent_id, states)`` once per agent in ``graph.topo_order``.

    ``states`` maps each earlier agent read by this agent or a later one to
    what its step returned, so it holds every parent of ``agent_id``. A
    state lives until the step of its last reader returns, and a state no
    agent reads is never kept, so memory is bounded by the graph's frontier
    (one state on a path), not by its depth."""
    # Later agents in the topological order overwrite earlier ones, so each
    # state maps to its last reader; states nobody reads have no entry.
    last_reader = {p: a for a in graph.topo_order for p in graph.parents_of(a)}
    states: dict[int, object] = {}
    for agent_id in graph.topo_order:
        state = step(agent_id, states)
        for parent in graph.parents_of(agent_id):
            if last_reader[parent] == agent_id:
                del states[parent]
        if agent_id in last_reader:
            states[agent_id] = state


def run_protocol(
    dataset: Dataset,
    graph: AgentGraph,
    opts: FitOptions | None = None,
    publish: Callable[[int, np.ndarray], object] | None = None,
) -> ProtocolTrace:
    """Execute the sequential protocol and return its trace.

    An agent with parents starts its fit at pass-through of its lowest-loss
    parent (weight 1 on that column, 0 elsewhere; ties go to the first
    declared parent). That point is always feasible and its loss is the
    parent's, so by descent an agent never ends worse than its best parent
    beyond solver slack. Agents without parents start at zero.

    Agents that fail to converge are recorded (converged=False) and their
    capped weights are still used downstream; the run never aborts on an
    unconverged fit. Results are deterministic for fixed inputs under a fixed
    threading configuration.

    The run is ``walk`` with a fit step whose state is the published column.
    ``publish(agent_id, column)``, when given, is how a caller sees every
    column: it is called once per agent, before the next fit, with an array
    the run owns, so the callee must not modify it.

    Each fit leaves its final state in one ``FitCarry`` passed to every fit,
    and the run publishes the fit's own final logits. Each fit writes its
    sigmoid over the array the fit before it left; an agent starting at
    pass-through of the column fitted just before it (on a path, every one)
    first reuses that fit's loss and sigmoid. Results are bitwise the same.
    """
    opts = opts or FitOptions()
    check_feature_range(graph, dataset.d, "dataset")
    trace = ProtocolTrace(order=graph.topo_order, models={}, logits={})
    carry = FitCarry()

    def fit(agent_id: int, columns: Mapping[int, np.ndarray]) -> np.ndarray:
        design = agent_design(dataset, graph, agent_id, columns)
        parents = graph.parents_of(agent_id)
        start = None
        if parents:
            start = np.zeros(design.shape[1])
            best = np.argmin([trace.models[p].loss for p in parents])
            start[len(design.idx) + int(best)] = 1.0
        trace.models[agent_id] = fit_logistic(design, dataset.labels, opts, start, carry)
        if publish is not None:
            publish(agent_id, carry.logits)
        return carry.logits

    walk(graph, fit)
    return trace


def sink_excess_loss(trace: ProtocolTrace, global_fit: FitResult) -> float:
    """Final-agent loss minus the all-features fit's loss.

    Warns (NotConvergedWarning), with the fit's message, when either side
    is unconverged; the value is then still returned. Since the global fit
    spans a superset feature space, the result is bounded below by minus the
    solver slack.
    """
    sink = trace.sink_id
    for name, fit in ((f"sink agent {sink}", trace.models[sink]), ("global fit", global_fit)):
        if not fit.converged:
            warnings.warn(
                f"{name} did not converge (grad_norm={fit.grad_norm:.3g})"
                + (f": {fit.message}" if fit.message else ""),
                NotConvergedWarning,
                stacklevel=2,
            )
    return trace.models[sink].loss - global_fit.loss
