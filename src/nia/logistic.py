"""Binary cross-entropy evaluation and damped-Newton logistic regression.

All losses and gradients are empirical means over the supplied rows. The
solver is a plain Newton iteration with a step-halving line search, started
from a caller-supplied point (the protocol passes its best parent's
pass-through) or from zero; per-agent problems in this package are
low-dimensional, so Newton reaches gradient sup-norms near machine
precision, which the identity-verification suites require.

sigmoid, softplus and the loss all derive from e = exp(-|z|), so each Newton
iterate evaluates one exponential over the rows. The public ``sigmoid`` and
``stable_softplus`` are bitwise equal to their masked two-branch forms, which
keeps generated datasets bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, LengthMismatch, NonFinite

# Fits whose weight norm passes this cap are reported unconverged; empirical
# BCE has no finite minimizer on separable data.
WEIGHT_NORM_CAP = 1e4

# The line search tries step lengths 1, 1/2, 1/4, ... down to _MIN_STEP.
_ARMIJO_C1 = 1e-4
_STEP_SHRINK = 0.5
_MIN_STEP = 1e-12

# Rows per block of the Hessian sum and the loss's scratch up to width 4; wider
# designs take proportionally fewer, so Hessian temporaries stay in cache.
_BLOCK_ROWS = 1 << 14


def _softplus_exp(z: np.ndarray, e: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Write e = exp(-|z|) into ``e`` and softplus(z) = max(z, 0) + log1p(e)
    into ``out``, with one exponential and scratch ``work``; returns ``out``.

    The sigmoid follows from the same e (``_sigmoid_from_exp``), so a Newton
    iterate needs a single exponential for its loss, gradient and Hessian.
    The identity softplus(z) - softplus(-z) = z holds exactly by branch
    structure.
    """
    np.exp(np.copysign(z, -1.0, out=e), out=e)
    return np.add(np.log1p(e, out=out), np.maximum(z, 0.0, out=work), out=out)


def _sigmoid_from_exp(z: np.ndarray, e: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Write sigmoid(z) into ``out`` (may be ``e``; ``work`` is scratch) given
    e = exp(-|z|): 1 / (1 + e) for z >= 0, e / (1 + e) below; neither overflows.

    The numerator is max(e, [z >= 0]), which equals ``where(z >= 0, 1, e)``
    because e <= 1 (NaN stays NaN) and costs a fraction of the masked select.
    """
    np.maximum(e, np.greater_equal(z, 0.0, out=work), out=work)
    return np.divide(work, np.add(e, 1.0, out=out), out=out)


def stable_softplus(z):
    """log(1 + exp(z)) without overflow for any finite z, computed as
    max(z, 0) + log1p(exp(-|z|))."""
    z = np.asarray(z, dtype=np.float64)
    out = _softplus_exp(z, np.empty_like(z), np.empty_like(z), np.empty_like(z))
    return out if out.ndim else float(out)


def sigmoid(z):
    """1 / (1 + exp(-z)) evaluated on the non-overflowing branch."""
    z = np.asarray(z, dtype=np.float64)
    out = _sigmoid_from_exp(z, np.exp(-np.abs(z)), np.empty_like(z), np.empty_like(z))
    return out if out.ndim else float(out)


def bce_loss(logits, labels) -> float:
    """Mean binary cross-entropy: (1/n) sum softplus(z_i) - y_i z_i."""
    z = np.asarray(logits, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    if z.shape[0] != y.shape[0]:
        raise LengthMismatch(f"{z.shape[0]} logits vs {y.shape[0]} labels")
    if z.shape[0] == 0:
        raise LengthMismatch("empty inputs")
    return float(np.mean(stable_softplus(z) - y * z))


@dataclass(frozen=True)
class FitOptions:
    """Termination parameters for fit_logistic.

    The objective is unregularized empirical BCE, whose gradient is the
    residual moments, so exact residual orthogonality is the stationarity
    condition. There is no bias term: the protocol's predictors are linear in
    their design columns, and a caller that wants a bias appends an all-ones
    column to the design.

    These fields are also the ``solver`` section of an experiment config,
    so their defaults here are the config defaults.
    """

    grad_tol: float = 1e-10
    max_iters: int = 100

    def __post_init__(self) -> None:
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class FitResult:
    """One fit's weights and final state. ``grad_norm`` is the sup-norm of
    the gradient, ``residual_moments(design, design @ weights, labels)``."""

    weights: np.ndarray
    loss: float
    grad_norm: float
    iterations: int
    converged: bool
    message: str = ""
    l1_norm: float = field(init=False)

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64).ravel()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "l1_norm", float(np.abs(w).sum()))


def residual_moments(design, logits, labels) -> np.ndarray:
    """Per-column empirical mean of x_l * (sigmoid(z) - y).

    At an exact BCE optimum these moments vanish; they are the gradient
    components of the empirical loss.
    """
    x = np.asarray(design, dtype=np.float64)
    z = np.asarray(logits, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    if x.ndim != 2 or x.shape[0] != z.shape[0] or z.shape[0] != y.shape[0]:
        raise DimensionMismatch(
            f"design {x.shape}, logits {z.shape[0]}, labels {y.shape[0]} do not align"
        )
    return x.T @ (sigmoid(z) - y) / x.shape[0]


@dataclass
class FitCarry:
    """The final logits ``design @ weights`` of the last fit given this
    object, their sigmoid (None if its line search stalled, since the search
    overwrote that array), its loss and its labels (held, not copied)."""

    logits: np.ndarray | None = None
    sigmoid: np.ndarray | None = None
    loss: float = 0.0
    labels: np.ndarray | None = None


def fit_logistic(
    design, labels, opts: FitOptions | None = None, start=None, carry: FitCarry | None = None
) -> FitResult:
    """Minimize empirical BCE over linear logits on the design columns.

    The logits are ``design @ weights`` with no bias term; append an
    all-ones column to the design to fit one. Damped Newton from ``start``
    (default the zero vector, one entry per column): take the minimum-norm
    solution of H step = -grad, halve it until the Armijo condition holds
    (with a rounding-slack term so steps near machine precision are not
    rejected), stop when the gradient sup-norm reaches ``grad_tol``. A
    ``start`` that is already optimal returns with zero iterations. A
    zero-column design converges immediately at the log(2) baseline.

    Every step is the minimum-norm one because design columns can be
    collinear: in a multi-parent DAG a parent's logit column can be an exact
    linear combination of the agent's own features, which makes H singular.
    The minimum-norm step gives the dependent directions no weight, so the
    fit converges where an exact solve would return huge weights. A step that
    does not descend, or whose line search finds no Armijo point, is
    replaced by steepest descent; if no progress is possible the result is
    returned with converged=False and a diagnostic message rather than
    raising.

    Each iterate costs one exponential over the rows: the line search keeps
    the accepted candidate's loss and exp(-|z|), from which the next
    gradient and Hessian follow. Every iterate's logits are the product
    ``design @ weights`` itself (at width 1 one multiply, bitwise the same),
    not an update of the previous logits, so ``loss`` is bitwise
    ``bce_loss(design @ result.weights, labels)`` for any float64 design:
    the fit's loss is the loss of the column a caller publishes.

    A ``carry`` receives the fit's final logits, their sigmoid, its loss and
    its labels, so a caller can publish those logits as they are. The next
    fit given it takes the loss and uses the sigmoid array as its own (no
    copy) when its start logits ``design @ start`` and its labels are bitwise
    the carried ones, as at pass-through of the column the last fit
    published; otherwise it evaluates both. Results are bitwise the same.
    """
    opts = opts or FitOptions()
    x = np.asarray(design, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(labels, dtype=np.float64).ravel()
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"{x.shape[0]} rows vs {y.shape[0]} labels")
    if x.shape[0] < 1:
        raise DimensionMismatch("need at least one row")
    if not np.isfinite(x).all() or not np.isfinite(y).all():
        raise NonFinite("design or labels contain non-finite values")

    n, m = x.shape
    if start is None:
        theta = np.zeros(m)
    else:
        theta = np.array(start, dtype=np.float64).ravel()
        if theta.shape[0] != m:
            raise DimensionMismatch(f"start has {theta.shape[0]} entries, design has {m} columns")
        if not np.isfinite(theta).all():
            raise NonFinite("start contains non-finite values")

    def product(th: np.ndarray, out: np.ndarray) -> np.ndarray:
        # A width-1 matmul takes longer than the elementwise multiply.
        return np.multiply(x[:, 0], th[0], out=out) if m == 1 else np.matmul(x, th, out=out)

    def mean_bce(z: np.ndarray, e: np.ndarray, rows: np.ndarray) -> float:
        # Bitwise bce_loss(z, y); fills e with exp(-|z|).
        for b, work in blocks:
            _softplus_exp(z[b], e[b], rows[b], work)
            rows[b] -= np.multiply(y[b], z[b], out=work)
        return float(np.mean(rows))

    # Four row-length arrays serve the whole fit, because touching fresh
    # pages costs about as much as the arithmetic; the loss takes its scratch
    # one row block at a time. z and e hold the current logits and their
    # sigmoid p, zc and ec the line-search candidate's logits and exp(-|z|);
    # an accepted candidate swaps places with the current pair. Between those
    # uses zc is scratch (the sigmoid's, p - y, the Hessian weights) and e
    # holds the candidate's softplus rows.
    work = np.empty(min(n, _BLOCK_ROWS * 4 // max(m, 4)))
    blocks = [(slice(i, i + len(work)), work[: n - i]) for i in range(0, n, len(work))]
    z = product(theta, np.empty(n))
    e = None
    if carry is not None:
        reuse = carry.sigmoid is not None and np.array_equal(carry.logits, z)
        if reuse and np.array_equal(carry.labels, y):
            e, loss = carry.sigmoid, carry.loss
        carry.logits = carry.sigmoid = None
    zc, ec = np.empty(n), np.empty(n)
    if e is None:
        e = np.empty(n)
        loss = mean_bce(z, e, zc)
        _sigmoid_from_exp(z, e, e, zc)

    converged, message = False, "max_iters reached"
    for it in range(opts.max_iters + 1):
        grad = x.T @ np.subtract(e, y, out=zc) / n
        grad_norm = float(np.max(np.abs(grad), initial=0.0))
        if grad_norm <= opts.grad_tol:
            converged, message = True, ""
            break
        if float(np.linalg.norm(theta)) > WEIGHT_NORM_CAP:
            message = f"weight norm exceeded {WEIGHT_NORM_CAP:g}; data may be separable"
            break
        if it == opts.max_iters:
            break

        w = np.multiply(e, np.subtract(1.0, e, out=zc), out=zc)
        hess = sum((x[b].T * w[b]) @ x[b] for b, _ in blocks) / n
        # Minimum-norm step: collinear columns leave the Hessian singular,
        # and lstsq gives the dependent directions no weight.
        step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        slope = float(grad @ step)
        # Steepest descent when the Newton direction does not descend (a zero
        # Hessian from saturated logits) or when no halved length of it
        # descends (a near-zero Hessian makes it huge).
        directions = [(step, slope)] if slope < 0 else []
        directions.append((-grad, -float(grad @ grad)))

        slack = 4.0 * np.finfo(np.float64).eps * (1.0 + abs(loss))
        accepted = False
        for step, slope in directions:
            t = 1.0
            while not accepted and t >= _MIN_STEP:
                cand = theta + t * step
                lc = mean_bce(product(cand, zc), ec, e)
                accepted = lc <= loss + _ARMIJO_C1 * t * slope + slack
                t *= _STEP_SHRINK
            if accepted:
                theta, loss = cand, lc
                z, zc, e, ec = zc, z, ec, e
                _sigmoid_from_exp(z, e, e, zc)
                break
        if not accepted:
            e = None
            message = "line search stalled; Hessian may be singular"
            break

    if carry is not None:
        carry.logits, carry.sigmoid, carry.loss, carry.labels = z, e, loss, y
    return FitResult(theta, loss, grad_norm, it, converged, message)
