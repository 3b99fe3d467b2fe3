"""Bernoulli KL machinery and loss-gap bound calculators.

The loss of any logistic predictor decomposes against the optimum of its
feature subspace as L(q) = L(p*) + D(p*||q); the KL term dominates twice the
mean squared probability gap. These identities, together with window
coverage, yield the residual and convergence bounds computed here.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .errors import DomainError, InvalidDimension, LengthMismatch
from .logistic import (
    _ChunkedMean,
    _fit_rows,
    _libm,
    bce_loss,
    sigmoid,
    stable_softplus,
)


def _check_probability(name: str, value: np.ndarray) -> None:
    if np.any(value < 0.0) or np.any(value > 1.0) or not np.all(np.isfinite(value)):
        raise DomainError(f"{name} must lie in [0, 1]")


def _rel_entr(x, y) -> np.ndarray:
    """x log(x / y) elementwise, branch for branch scipy.special.rel_entr's,
    with the C library's log and log1p (``_libm``)."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    out = np.where((x == 0.0) & (y >= 0.0), 0.0, np.inf)
    out[np.isnan(x) | np.isnan(y)] = np.nan
    pos = (x > 0.0) & (y > 0.0)
    xp, yp = x[pos], y[pos]
    with np.errstate(over="ignore"):  # an overflowing ratio takes log x - log y
        ratio = xp / yp
    near = (ratio > 0.5) & (ratio < 2.0)
    normal = ~near & (ratio > np.finfo(np.float64).tiny) & (ratio < np.inf)
    far = ~(near | normal)
    logs = np.empty_like(ratio)
    logs[near] = _libm(np.log1p, (xp[near] - yp[near]) / yp[near])
    logs[normal] = _libm(np.log, ratio[normal])
    logs[far] = _libm(np.log, xp[far]) - _libm(np.log, yp[far])
    out[pos] = xp * logs
    return out


def bernoulli_kl_pointwise(p_col, q_col) -> np.ndarray:
    """Elementwise Bernoulli KL between two probability columns.

    Uses the 0 log 0 = 0 convention; an entry is +inf only where q is
    degenerate and p places mass where q does not.
    """
    p = np.asarray(p_col, dtype=np.float64).ravel()
    q = np.asarray(q_col, dtype=np.float64).ravel()
    if p.shape[0] != q.shape[0]:
        raise LengthMismatch(f"{p.shape[0]} vs {q.shape[0]} probabilities")
    if p.shape[0] == 0:
        raise LengthMismatch("empty inputs")
    _check_probability("p_col", p)
    _check_probability("q_col", q)
    return _rel_entr(p, q) + _rel_entr(1.0 - p, 1.0 - q)


def expected_kl_from_logits(z_p, z_q) -> float:
    """Expected Bernoulli KL with both columns given as logits.

    Pointwise KL(sigma(a) || sigma(b)) = sigma(a)(a - b) - softplus(a)
    + softplus(b), which avoids forming probabilities near 0 or 1. The mean
    is a ``_ChunkedMean`` of rows formed one row block at a time.
    """
    a = np.asarray(z_p, dtype=np.float64).ravel()
    b = np.asarray(z_q, dtype=np.float64).ravel()
    if a.shape[0] != b.shape[0]:
        raise LengthMismatch(f"{a.shape[0]} vs {b.shape[0]} logits")
    n, step = a.shape[0], _fit_rows(0)
    total = _ChunkedMean(n)
    for lo in range(0, n, step):
        ab, bb = a[lo : lo + step], b[lo : lo + step]
        total.add(sigmoid(ab) * (ab - bb) - stable_softplus(ab) + stable_softplus(bb), lo)
    return total.mean()


def verify_decomposition(labels, star_logits, comparators: Iterable) -> float:
    """Worst empirical residual |L(q) - L(p*) - D(p*||q)| over the comparator
    logit columns q, consumed one at a time (0.0 if there are none).

    ``star_logits`` must come from a converged unregularized fit and each q
    from any linear predictor on the same columns; the residual then scales
    with the solver's gradient tolerance (exactly 0 at exact stationarity).
    The star column's sigmoid and softplus are evaluated once; each
    comparator's terms are formed one row block at a time, so each residual
    is bitwise that of ``bce_loss`` and ``expected_kl_from_logits``."""
    zs = np.asarray(star_logits, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    ls = bce_loss(zs, y)  # raises LengthMismatch on a wrong length
    sig_s, sp_s = sigmoid(zs), stable_softplus(zs)
    n, step = zs.shape[0], _fit_rows(0)
    worst = 0.0
    for q in comparators:
        zq = np.asarray(q, dtype=np.float64).ravel()
        if zq.shape[0] != n:
            raise LengthMismatch("comparator columns must match the label count")
        lq, kl = _ChunkedMean(n), _ChunkedMean(n)
        for lo in range(0, n, step):
            b = slice(lo, lo + step)
            qb = zq[b]
            sp_q = stable_softplus(qb)
            lq.add(sp_q - y[b] * qb, lo)
            kl.add(sig_s[b] * (zs[b] - qb) - sp_s[b] + sp_q, lo)
        worst = max(worst, abs(lq.mean() - ls - kl.mean()))
    return worst


def residual_bound_rhs(b_g: float, b_x: float, k: int, epsilon: float) -> float:
    """B_g * B_X * sqrt(k * epsilon / 2) for a covered path of length k."""
    if b_g < 0 or b_x < 0 or k < 0 or epsilon < 0:
        raise InvalidDimension("residual bound arguments must be nonnegative")
    return float(b_g * b_x * np.sqrt(k * epsilon / 2.0))


def convergence_bound_rhs(b_pstar: float, b_x: float, m: int, depth: int) -> float:
    """B_pstar * B_X * M / sqrt(D) for a depth-D path with window M."""
    if m < 1:
        raise InvalidDimension(f"window must be >= 1, got {m}")
    if depth < m:
        raise InvalidDimension(f"depth {depth} smaller than window {m}")
    if b_pstar < 0 or b_x < 0:
        raise InvalidDimension("bound factors must be nonnegative")
    return float(b_pstar * b_x * m / np.sqrt(depth))


class StableBlock(NamedTuple):
    index: int
    drop: float


def stable_block(losses, m: int) -> StableBlock:
    """Find the disjoint length-m block with the smallest total loss drop.

    The path is split into K = floor(D / m) leading blocks; block b covers
    path positions (b-1)*m+1 .. b*m (1-based) and its drop is the loss at
    its first agent minus the loss at its last. Returns the 1-based index of
    the minimal block and its drop; ties go to the earliest block. By
    pigeonhole the returned drop is at most losses[0] / K plus solver slack.
    """
    arr = np.asarray(losses, dtype=np.float64).ravel()
    if m < 1 or arr.shape[0] < m:
        raise InvalidDimension(f"window {m} invalid for {arr.shape[0]} losses")
    k_blocks = arr.shape[0] // m
    best_idx, best_drop = 1, np.inf
    for b in range(k_blocks):
        drop = float(arr[b * m] - arr[b * m + m - 1])
        if drop < best_drop:
            best_idx, best_drop = b + 1, drop
    return StableBlock(best_idx, best_drop)


def feature_second_moment_bound(features) -> float:
    """Empirical B_X: max over columns of sqrt(mean(x_l^2)).

    One column at a time, through one length-n scratch array, so the value
    is the same for either memory order and no n x d temporary is made."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] == 0:
        raise InvalidDimension("need a nonempty 2-d feature matrix")
    sq = np.empty(x.shape[0])
    return float(np.sqrt(max(np.mean(np.square(col, out=sq)) for col in x.T)))
