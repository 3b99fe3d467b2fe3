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

# Rows per block of a pass over a design up to width 4 (see _block_rows).
_BLOCK_ROWS = 1 << 14


def _libm(ufunc: np.ufunc, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.log or np.log1p of ``a`` by the C library, as a reversed view of
    ``out`` (new if None): numpy's AVX-512 loops, an ulp off on some arguments,
    take only forward strides and leave a reversed input to the C library. The
    scipy bitwise tests of ``_ndtri`` and ``_rel_entr`` catch a numpy that doesn't."""
    return ufunc(a[::-1], out=out)[::-1]


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


def _block_rows(width: int) -> int:
    """Rows per block of a pass over a design of ``width`` columns. A power
    of two, so the product over a column-major design, block by block, is
    bitwise the product over the whole design (BLAS takes the same kernel
    paths on every block); halved above width 4, where the Hessian's matmul
    runs faster on blocks that stay in cache."""
    return _BLOCK_ROWS if width <= 4 else _BLOCK_ROWS // 2


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
    components of the empirical loss, summed over the row blocks of
    ``fit_logistic`` in its order, so a fit's ``grad_norm`` is bitwise their
    sup-norm at its final logits.
    """
    x = np.asarray(design, dtype=np.float64)
    z = np.asarray(logits, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    if x.ndim != 2 or x.shape[0] != z.shape[0] or z.shape[0] != y.shape[0]:
        raise DimensionMismatch(
            f"design {x.shape}, logits {z.shape[0]}, labels {y.shape[0]} do not align"
        )
    r = sigmoid(z) - y
    moments = np.zeros(x.shape[1])
    step = _block_rows(x.shape[1])
    for start in range(0, x.shape[0], step):
        moments += x[start : start + step].T @ r[start : start + step]
    return moments / x.shape[0]


@dataclass(frozen=True)
class Design:
    """The n x m design matrix ``[features[:, idx], *columns]``, held by
    reference: columns ``idx`` (0-based) of the n x d ``features``, in either
    memory order, then the length-n ``columns``.

    ``fit_logistic`` gathers it one row block at a time, so the whole matrix
    is never stored; ``np.asarray(design)`` builds it, column-major, with the
    same gather. The arrays are not copied, so the caller must not write to
    them while the design is in use.
    """

    features: np.ndarray
    idx: tuple[int, ...]
    columns: tuple[np.ndarray, ...] = ()

    def __post_init__(self) -> None:
        n, d = self.features.shape
        if not all(0 <= j < d for j in self.idx):
            raise DimensionMismatch(f"feature indices {self.idx} out of range for d={d}")
        if any(np.shape(c) != (n,) for c in self.columns):
            raise DimensionMismatch(f"every column must have shape ({n},)")

    @property
    def shape(self) -> tuple[int, int]:
        return self.features.shape[0], len(self.idx) + len(self.columns)

    def gather(self, start: int, stop: int, out: np.ndarray) -> np.ndarray:
        """Rows start:stop of the design, transposed, copied into the first
        stop - start columns of the (m, >= stop - start) array ``out``;
        returns that (m, stop - start) view."""
        block = out[:, : stop - start]
        for i, j in enumerate(self.idx):
            block[i] = self.features[start:stop, j]
        for i, column in enumerate(self.columns, start=len(self.idx)):
            block[i] = column[start:stop]
        return block

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        n, m = self.shape
        return self.gather(0, n, np.empty((m, n))).T.astype(dtype or np.float64, copy=False)


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

    ``design`` is an n x m array (a 1-D array is one column) or a ``Design``.
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

    The design is never copied whole. The start and each line-search
    candidate take one pass over row blocks (``_block_rows``): a
    ``Design``'s block is gathered into one reused buffer (an array's is a
    view of it), and the pass forms the block's logits, exp(-|z|), loss rows,
    sigmoid, gradient and Hessian, so each iterate costs one exponential over
    the rows. The logits are the product ``design @ weights`` itself (at
    width 1 one multiply, bitwise the same), not an update of the previous
    logits, and the loss is the mean of the full-length loss rows, so
    ``loss`` is bitwise ``bce_loss(design @ result.weights, labels)``: the
    fit's loss is the loss of the column a caller publishes.

    A ``carry`` receives the fit's final logits, their sigmoid, its loss and
    its labels, so a caller can publish those logits as they are. The next
    fit given it, from a ``start``, takes the loss and uses the sigmoid array
    as its own (no copy) when its start logits ``design @ start`` and its
    labels are bitwise the carried ones, as at pass-through of the column the
    last fit published; otherwise it evaluates both. Results are bitwise the
    same.
    """
    opts = opts or FitOptions()
    # block_of(start, stop) is rows start:stop of the design, transposed.
    if isinstance(design, Design):
        n, m = design.shape
        buf = np.empty((m, min(n, _block_rows(m))))

        def block_of(start: int, stop: int) -> np.ndarray:
            return design.gather(start, stop, buf)

    else:
        x = np.asarray(design, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        n, m = x.shape

        def block_of(start: int, stop: int) -> np.ndarray:
            return x[start:stop].T

    y = np.asarray(labels, dtype=np.float64).ravel()
    if n != y.shape[0]:
        raise DimensionMismatch(f"{n} rows vs {y.shape[0]} labels")
    if n < 1:
        raise DimensionMismatch("need at least one row")
    if not np.isfinite(y).all():
        raise NonFinite("design or labels contain non-finite values")

    if start is None:
        theta = np.zeros(m)
    else:
        theta = np.array(start, dtype=np.float64).ravel()
        if theta.shape[0] != m:
            raise DimensionMismatch(f"start has {theta.shape[0]} entries, design has {m} columns")
        if not np.isfinite(theta).all():
            raise NonFinite("start contains non-finite values")

    rows = min(n, _block_rows(m))
    xw = np.empty((m, rows))  # a block's rows weighted for the Hessian
    eb, work = np.empty((2, rows))

    def evaluate(th, z, sig, loss_rows, check=False):
        """One pass at weights ``th``: writes the logits into ``z`` and,
        unless ``loss_rows`` is None, the loss rows and sigmoid(z) into
        ``loss_rows`` and ``sig`` (else ``sig`` already holds sigmoid(z));
        returns the mean loss (None without loss rows), gradient and Hessian.
        ``check`` rejects a non-finite design entry."""
        grad, hess = np.zeros(m), np.zeros((m, m))
        for lo in range(0, n, rows):
            b = slice(lo, min(lo + rows, n))
            xt = block_of(lo, b.stop)
            if check and not np.isfinite(xt).all():
                raise NonFinite("design or labels contain non-finite values")
            zb, pb = z[b], sig[b]
            e, wk = eb[: len(zb)], work[: len(zb)]
            # A width-1 matmul takes longer than the elementwise multiply.
            if m == 1:
                np.multiply(xt[0], th[0], out=zb)
            else:
                np.matmul(xt.T, th, out=zb)
            if loss_rows is not None:
                _softplus_exp(zb, e, loss_rows[b], wk)
                loss_rows[b] -= np.multiply(y[b], zb, out=wk)
                _sigmoid_from_exp(zb, e, pb, wk)
            grad += xt @ np.subtract(pb, y[b], out=wk)
            np.multiply(pb, np.subtract(1.0, pb, out=e), out=e)
            hess += np.multiply(xt, e, out=xw[:, : len(zb)]) @ xt.T
        loss = None if loss_rows is None else float(np.mean(loss_rows))
        return loss, grad / n, hess / n

    # Four row-length arrays serve the whole fit, because touching fresh
    # pages costs about as much as the arithmetic. z and s hold the current
    # logits and their sigmoid, zc and sc a line-search candidate's; an
    # accepted candidate swaps places with the current pair. A pass's loss
    # rows are written over s (over zc at the start), whose values the
    # current gradient and Hessian no longer need.
    z, zc, sc = (np.empty(n) for _ in range(3))
    s = loss = None
    if carry is not None:
        if start is not None and carry.sigmoid is not None and np.array_equal(carry.labels, y):
            s = carry.sigmoid
            _, grad, hess = evaluate(theta, z, s, None, check=True)
            if np.array_equal(carry.logits, z):
                loss = carry.loss
        carry.logits = carry.sigmoid = None
    if loss is None:
        s = np.empty(n) if s is None else s
        loss, grad, hess = evaluate(theta, z, s, zc, check=True)

    converged, message = False, "max_iters reached"
    for it in range(opts.max_iters + 1):
        grad_norm = float(np.max(np.abs(grad), initial=0.0))
        if grad_norm <= opts.grad_tol:
            converged, message = True, ""
            break
        if float(np.linalg.norm(theta)) > WEIGHT_NORM_CAP:
            message = f"weight norm exceeded {WEIGHT_NORM_CAP:g}; data may be separable"
            break
        if it == opts.max_iters:
            break

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
                lc, gc, hc = evaluate(cand, zc, sc, s)
                accepted = lc <= loss + _ARMIJO_C1 * t * slope + slack
                t *= _STEP_SHRINK
            if accepted:
                theta, loss, grad, hess = cand, lc, gc, hc
                z, zc, s, sc = zc, z, sc, s
                break
        if not accepted:
            s = None
            message = "line search stalled; Hessian may be singular"
            break

    if carry is not None:
        carry.logits, carry.sigmoid, carry.loss, carry.labels = z, s, loss, y
    return FitResult(theta, loss, grad_norm, it, converged, message)
