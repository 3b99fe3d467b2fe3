"""The n = inf protocol: every agent fits on the population, not a sample.

With latents Z ~ N(0, I_k), features x = B Z and labels Bernoulli(sigmoid(beta . Z)),
|beta| = 1, Stein's lemma gives a predictor u . Z the loss
L(u) = E[softplus(|u| G)] - (u . beta) E[G sigmoid(G)], G ~ N(0, 1). So on any DAG
an agent publishes ``link_scale(r)`` P beta / r, where P beta, of norm r, projects
beta onto its feature rows of B and its parents' predictors: the direction that a
squared-loss agent of Kearns, Roth and Ryu publishes. It is a step of ``walk``.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidDimension, NonFinite
from .graph import AgentGraph, check_feature_range
from .instances import gauss_hermite_expectation, link_scale
from .logistic import sigmoid, stable_softplus
from .protocol import walk


class PopulationAgent(NamedTuple):
    """One agent at n = inf: r = |P beta|, its logistic excess L(u) - L(beta)
    and its KRR excess 1 - r^2, both floored at 0 against rounding."""

    r: float
    excess: float
    krr_excess: float


def population_loss(u, beta) -> float:
    """L(u), the BCE of the logit u . Z when labels are Bernoulli(sigmoid(beta . Z))."""
    u, beta = np.asarray(u, dtype=float), np.asarray(beta, dtype=float)
    if u.shape != beta.shape:
        raise DimensionMismatch(f"u has shape {u.shape} but beta has shape {beta.shape}")
    label_term = float(u @ beta) * gauss_hermite_expectation(lambda g: g * sigmoid(g))
    return gauss_hermite_expectation(stable_softplus, sd=float(np.linalg.norm(u))) - label_term


def population_protocol(
    graph: AgentGraph, B, beta, publish: Callable[[int, np.ndarray], object] | None = None
) -> dict[int, PopulationAgent]:
    """The exact n = inf protocol on ``graph`` for features x = B Z (B is d x k):
    each agent's ``PopulationAgent``, in topological order. An agent with
    r <= 1e-12 publishes the zero column and has r = 0. ``publish(agent_id, u)``,
    when given, sees every predictor u as it is published; the array is the
    run's own, so the callee must not modify it."""
    B, beta = np.asarray(B, dtype=float), np.asarray(beta, dtype=float)
    if B.ndim != 2 or beta.shape != B.shape[1:]:
        raise DimensionMismatch(f"need B d x k and beta of length k, got {B.shape}, {beta.shape}")
    if not (np.isfinite(B).all() and np.isfinite(beta).all()):
        raise NonFinite("B and beta must be finite")
    if abs(np.linalg.norm(beta) - 1.0) > 1e-12:
        raise InvalidDimension(f"beta must have unit norm, got {np.linalg.norm(beta)!r}")
    check_feature_range(graph, B.shape[0], "B")
    optimum = population_loss(beta, beta)
    agents: dict[int, PopulationAgent] = {}

    def project(agent_id: int, states: Mapping[int, np.ndarray]) -> np.ndarray:
        columns = [B[f - 1] for f in sorted(graph.feature_set(agent_id))]
        columns += [states[p] for p in graph.parents_of(agent_id)]
        u, r = np.zeros(beta.size), 0.0
        if columns:
            span = np.column_stack(columns)
            proj = span @ np.linalg.lstsq(span, beta, rcond=None)[0]
            norm = float(np.linalg.norm(proj))
            if norm > 1e-12:  # exact mode: a smaller projection is the zero column
                u, r = link_scale(norm) * proj / norm, norm
        excess = population_loss(u, beta) - optimum
        agents[agent_id] = PopulationAgent(r, max(excess, 0.0), max(1.0 - r * r, 0.0))
        if publish is not None:
            publish(agent_id, u)
        return u

    walk(graph, project)
    return agents
