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

from .data import block_rows
from .errors import DimensionMismatch, InvalidConfig, LengthMismatch, NonFinite

# The message of a fit stopped because its labels are separable.
SEPARABLE = "labels are linearly separable, so the loss has no minimizer"

# The line search tries step lengths 1, 1/2, 1/4, ... down to _MIN_STEP.
_ARMIJO_C1 = 1e-4
_STEP_SHRINK = 0.5
_MIN_STEP = 1e-12

# Rows per partial sum of a mean over rows (``_ChunkedMean``); a power of two,
# so every power-of-two row block at least this long holds whole chunks.
_CHUNK = 256


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


class _ChunkedMean:
    """The mean of n rows that arrive in blocks, formed as the sum of the
    sums of consecutive ``_CHUNK``-row chunks; each chunk sum is bitwise
    ``np.add.reduce`` of its chunk, and a short last chunk is summed alone.
    Every mean of loss or KL rows in this package is one, so it does not
    depend on how a pass splits the rows into blocks, and no pass needs a
    full-length array of rows to sum."""

    def __init__(self, n: int) -> None:
        self.n, self.sums = n, np.empty(-(-n // _CHUNK))

    def add(self, rows: np.ndarray, start: int) -> None:
        """Take the contiguous row block ``rows``, rows ``start`` (a
        multiple of ``_CHUNK``) onwards of the whole."""
        i, full = start // _CHUNK, len(rows) - len(rows) % _CHUNK
        k = full // _CHUNK
        np.add.reduce(rows[:full].reshape(k, _CHUNK), axis=1, out=self.sums[i : i + k])
        if full < len(rows):
            self.sums[i + k] = np.add.reduce(rows[full:])

    def mean(self) -> float:
        return float(np.add.reduce(self.sums) / self.n)


def bce_loss(logits, labels) -> float:
    """Mean binary cross-entropy: (1/n) sum softplus(z_i) - y_i z_i, a
    ``_ChunkedMean`` of rows formed one row block at a time."""
    z = np.asarray(logits, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    if z.shape[0] != y.shape[0]:
        raise LengthMismatch(f"{z.shape[0]} logits vs {y.shape[0]} labels")
    n = z.shape[0]
    if n == 0:
        raise LengthMismatch("empty inputs")
    step = _fit_rows(0)
    total = _ChunkedMean(n)
    for lo in range(0, n, step):
        zb = z[lo : lo + step]
        total.add(stable_softplus(zb) - y[lo : lo + step] * zb, lo)
    return total.mean()


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
        if not 0 < self.grad_tol < np.inf:
            raise InvalidConfig(f"grad_tol must be positive and finite, got {self.grad_tol}")
        if self.max_iters < 1:
            raise InvalidConfig("max_iters must be >= 1")


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


def _fit_rows(m: int) -> int:
    """Rows per block of a fit over m columns and of ``residual_moments``,
    and (m = 0) of the loss and KL passes over logits alone: ``block_rows``
    of a design row and four more values, rounded down to a power of two and
    at least ``_CHUNK``, so a block holds whole chunks. The blocks set the
    order of a fit's gradient and Hessian sums, so its weights' bits, and
    the four values per row are kept for them."""
    return max(_CHUNK, 1 << (block_rows(m + 4).bit_length() - 1))


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
    if x.shape[0] == 0:
        raise LengthMismatch("empty inputs")
    moments = np.zeros(x.shape[1])
    step = _fit_rows(x.shape[1])
    for start in range(0, x.shape[0], step):
        b = slice(start, start + step)
        moments += x[b].T @ (sigmoid(z[b]) - y[b])
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
        if np.ndim(self.features) != 2:
            raise DimensionMismatch(f"features must be 2-D, got shape {np.shape(self.features)}")
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
    object, their sigmoid, its loss and the labels argument it was given
    (held, not copied). The next fit given it writes over the sigmoid array."""

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

    A fit whose mean loss falls below log(2) / (2n), at its start too, stops
    unconverged with the message ``SEPARABLE``, whatever its gradient and
    the design's scale: its logits then separate the labels, and BCE has no
    minimizer.

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
    candidate take one pass over row blocks of ``_fit_rows(m)`` rows, a
    power of two: BLAS then takes the same kernel paths on every block, so the
    blocked product over a column-major design is bitwise the whole one. A
    ``Design``'s block is gathered into one reused buffer (an array's is a
    view of it), and the pass forms the block's logits, exp(-|z|), loss rows,
    sigmoid, gradient and Hessian, so each iterate costs one exponential over
    the rows. The logits are the product ``design @ weights`` itself (at
    width 1 one multiply, bitwise the same), not an update of the previous
    logits, and the loss is the ``_ChunkedMean`` of the blocks' loss rows,
    as ``bce_loss`` forms it, so ``loss`` is bitwise
    ``bce_loss(design @ result.weights, labels)``: the fit's loss is the
    loss of the column a caller publishes. The fit holds two row arrays, the
    logits and sigmoid of the last point evaluated; a line search that
    stalls evaluates the fit's final point once more to leave them there.

    A ``carry`` receives the fit's final logits, their sigmoid, its loss and
    its labels, so a caller can publish those logits as they are. The next
    fit given it takes the sigmoid array as its own, and takes the loss and
    the sigmoid's values when, decided before any pass, ``design`` is a
    ``Design``, ``start`` is pass-through of one of its extra columns (weight
    1 on it, 0 elsewhere) and that column is the carried logits array, and
    ``labels`` is the carried labels array: then ``design @ start`` is
    bitwise the carried logits. Otherwise it evaluates both, once. Results
    are bitwise the same.
    """
    opts = opts or FitOptions()
    if not isinstance(design, Design):
        design = np.asarray(design, dtype=np.float64)
        if design.ndim == 1:
            design = design[:, None]
    n, m = design.shape
    rows = min(n, _fit_rows(m))
    # block_of(start, stop) is rows start:stop of the design, transposed.
    if isinstance(design, Design):
        buf = np.empty((m, rows))

        def block_of(start: int, stop: int) -> np.ndarray:
            return design.gather(start, stop, buf)

    else:

        def block_of(start: int, stop: int) -> np.ndarray:
            return design[start:stop].T

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

    xw = np.empty((m, rows))  # a block's rows weighted for the Hessian
    eb, work = np.empty((2, rows))
    total = _ChunkedMean(n)

    def evaluate(th, with_loss=True, check=False):
        """One pass at weights ``th``: writes the logits into ``z`` and, with
        the loss, sigmoid(z) into ``s`` (else ``s`` already holds it);
        returns the mean loss (None without), gradient and Hessian. ``check``
        rejects a non-finite design entry."""
        grad, hess = np.zeros(m), np.zeros((m, m))
        for lo in range(0, n, rows):
            b = slice(lo, min(lo + rows, n))
            xt = block_of(lo, b.stop)
            if check and not np.isfinite(xt).all():
                raise NonFinite("design or labels contain non-finite values")
            zb, pb = z[b], s[b]
            e, wk = eb[: len(zb)], work[: len(zb)]
            # A width-1 matmul takes longer than the elementwise multiply.
            if m == 1:
                np.multiply(xt[0], th[0], out=zb)
            else:
                np.matmul(xt.T, th, out=zb)
            if with_loss:
                # The block's loss rows are summed in pb, then its sigmoid
                # takes their place.
                _softplus_exp(zb, e, pb, wk)
                pb -= np.multiply(y[b], zb, out=wk)
                total.add(pb, lo)
                _sigmoid_from_exp(zb, e, pb, wk)
            grad += xt @ np.subtract(pb, y[b], out=wk)
            np.multiply(pb, np.subtract(1.0, pb, out=e), out=e)
            hess += np.multiply(xt, e, out=xw[:, : len(zb)]) @ xt.T
        loss = total.mean() if with_loss else None
        return loss, grad / n, hess / n

    # Two row arrays serve the whole fit, because touching fresh pages costs
    # about as much as the arithmetic: z and s hold the logits and sigmoid
    # of the last point evaluated, so a rejected line-search candidate
    # writes over the current point's. z is new, since the caller may
    # publish it; a carried sigmoid array serves as s.
    z = np.empty(n)
    s = loss = None
    if carry is not None:
        # The carried sigmoid is reused when theta passes through extra
        # column j of a Design and that column is the carried logits: design
        # @ theta is then bitwise it.
        s, hot = carry.sigmoid, np.flatnonzero(theta)
        j = hot[0] - len(design.idx) if hot.size == 1 and isinstance(design, Design) else -1
        through = j >= 0 and theta[hot[0]] == 1.0 and design.columns[j] is carry.logits
        if s is not None and carry.labels is labels and through:
            loss = carry.loss
        carry.logits = carry.sigmoid = None
    s = np.empty(n) if s is None or s.shape != (n,) else s
    fresh, grad, hess = evaluate(theta, with_loss=loss is None, check=True)
    loss = fresh if loss is None else loss

    converged, message = False, "max_iters reached"
    for it in range(opts.max_iters + 1):
        grad_norm = float(np.max(np.abs(grad), initial=0.0))
        # A row on the wrong side of the boundary, or on it, costs at least
        # log 2 by itself, so a total loss below that puts every label
        # strictly on its own side; half of log 2 leaves room for rounding.
        if loss * n < 0.5 * np.log(2.0):
            message = SEPARABLE
            break
        if grad_norm <= opts.grad_tol:
            converged, message = True, ""
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
                lc, gc, hc = evaluate(cand)
                accepted = lc <= loss + _ARMIJO_C1 * t * slope + slack
                t *= _STEP_SHRINK
            if accepted:
                theta, loss, grad, hess = cand, lc, gc, hc
                break
        if not accepted:
            evaluate(theta)  # z and s hold the last rejected candidate's
            message = "line search stalled; Hessian may be singular"
            break

    if carry is not None:
        carry.logits, carry.sigmoid, carry.loss, carry.labels = z, s, loss, labels
    return FitResult(theta, loss, grad_norm, it, converged, message)
