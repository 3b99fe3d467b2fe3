"""Agent DAGs: construction, deterministic topological order, path coverage."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import CycleDetected, IndexOutOfRange, InvalidDimension, InvalidGraph, NotAPath


@dataclass(frozen=True)
class AgentGraph:
    """Immutable DAG of agents with per-agent feature index sets.

    Agent ids are 1..num_agents and feature indices are 1-based in every
    external interface. ``topo_order`` is deterministic: Kahn's algorithm
    with ties broken by ascending agent id.
    """

    num_agents: int
    feature_sets: tuple[frozenset[int], ...]
    parents: tuple[tuple[int, ...], ...]
    topo_order: tuple[int, ...]

    def feature_set(self, agent_id: int) -> frozenset[int]:
        return self.feature_sets[agent_id - 1]

    def parents_of(self, agent_id: int) -> tuple[int, ...]:
        return self.parents[agent_id - 1]

    def sinks(self) -> tuple[int, ...]:
        """Agents with no outgoing edges, in ascending id order."""
        has_child = set()
        for child in range(1, self.num_agents + 1):
            has_child.update(self.parents_of(child))
        return tuple(a for a in range(1, self.num_agents + 1) if a not in has_child)

    def is_path(self) -> bool:
        """True iff the graph is a simple path: one source, every other
        agent has exactly one parent, and edges follow the topo order."""
        order = self.topo_order
        return self.parents_of(order[0]) == () and all(
            self.parents_of(b) == (a,) for a, b in zip(order, order[1:])
        )


def checked_int(value, where: str) -> int:
    """``int(value)``, so "2", 2.0 and numpy integers are 2; a fractional
    number or a boolean raises InvalidGraph naming it rather than being
    converted."""
    try:
        out = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or (not isinstance(value, (str, bytes)) and out != value):
        raise InvalidGraph(f"{where} must be an integer, got {value!r}")
    return out


class CoverageResult(NamedTuple):
    ok: bool
    first_violation: int | None


def build_agent_graph(
    edges: Iterable[tuple[int, int]],
    feature_sets: Iterable[Iterable[int]],
    d: int,
) -> AgentGraph:
    """Validate and assemble an agent DAG.

    ``edges`` are (parent id, child id) pairs; the number of agents is the
    length of ``feature_sets``. Parents are kept in the order their edges
    appear. Raises CycleDetected on cyclic edge relations, IndexOutOfRange
    for agent ids outside 1..N or feature indices outside 1..d, and
    InvalidGraph on a repeated edge or a fractional id or index.
    """
    sets: list[frozenset[int]] = []
    for i, s in enumerate(feature_sets, start=1):
        fs = frozenset(checked_int(x, f"agent {i} feature index") for x in s)
        bad = [x for x in fs if not 1 <= x <= d]
        if bad:
            raise IndexOutOfRange(f"agent {i}: feature indices {sorted(bad)} outside 1..{d}")
        sets.append(fs)
    n = len(sets)
    if n == 0:
        raise InvalidDimension("graph must contain at least one agent")

    parents: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for parent, child in edges:
        parent, child = checked_int(parent, "edge end"), checked_int(child, "edge end")
        for a in (parent, child):
            if not 1 <= a <= n:
                raise IndexOutOfRange(f"agent id {a} outside 1..{n}")
        if parent == child:
            raise CycleDetected(f"self-loop on agent {parent}")
        if (parent, child) in seen:
            raise InvalidGraph(f"duplicate edge ({parent}, {child})")
        seen.add((parent, child))
        parents[child - 1].append(parent)

    topo = _topological_order(n, parents)
    return AgentGraph(
        num_agents=n,
        feature_sets=tuple(sets),
        parents=tuple(tuple(p) for p in parents),
        topo_order=topo,
    )


def _topological_order(n: int, parents: list[list[int]]) -> tuple[int, ...]:
    children: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for child in range(1, n + 1):
        for p in parents[child - 1]:
            children[p - 1].append(child)
            indeg[child - 1] += 1
    ready = [a for a in range(1, n + 1) if indeg[a - 1] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        a = heapq.heappop(ready)
        order.append(a)
        for c in children[a - 1]:
            indeg[c - 1] -= 1
            if indeg[c - 1] == 0:
                heapq.heappush(ready, c)
    if len(order) < n:
        stuck = sorted(a for a in range(1, n + 1) if indeg[a - 1] > 0)
        raise CycleDetected(f"edge relation has a cycle through agents {stuck}")
    return tuple(order)


def check_m_coverage(graph: AgentGraph, m: int, d: int) -> CoverageResult:
    """Check the window coverage condition on a path graph.

    Every window of ``m`` consecutive path agents must jointly observe all
    ``d`` features. Returns (True, None) when covered, otherwise
    (False, start) with the smallest 1-based starting index of a violating
    window. Raises NotAPath for non-path graphs.
    """
    if not graph.is_path():
        raise NotAPath("coverage is defined on simple paths only")
    if not 1 <= m <= graph.num_agents:
        raise InvalidDimension(f"window {m} outside 1..{graph.num_agents}")
    full = frozenset(range(1, d + 1))
    order = graph.topo_order
    for start in range(graph.num_agents - m + 1):
        window: set[int] = set()
        for a in order[start : start + m]:
            window |= graph.feature_set(a)
        if window != full:
            return CoverageResult(False, start + 1)
    return CoverageResult(True, None)


def cyclic_path_assignment(k: int, depth: int) -> AgentGraph:
    """Path of ``depth`` agents observing k features in repeating cyclic
    order: agent i holds the single feature ((i-1) mod k) + 1."""
    if k < 2:
        raise InvalidDimension(f"cyclic assignment needs k >= 2, got {k}")
    if depth < 1:
        raise InvalidDimension(f"path length must be >= 1, got {depth}")
    edges = [(i, i + 1) for i in range(1, depth)]
    sets = [{(i - 1) % k + 1} for i in range(1, depth + 1)]
    return build_agent_graph(edges, sets, d=k)
