"""Hard-instance generator and closed-form lower-bound analytics.

The generated distribution chains k standard-normal latents through a
differencing map (x_1 = Z_1, x_i = Z_i - Z_{i-1}), labels are Bernoulli of
sigmoid(Z_k), and the optimal logit is the feature prefix sum Z_k. Analytics
cover the per-pass relevance sets, the variance-minimizing pass-predictor
coefficients, the n = inf logistic link scale and the optimal logit scaling
factor it gives, the 1/(p+1) excess-loss shape these imply, and the loss of
a noisy logit that the lower bound's noise argument rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.random import Generator, Philox

from .data import Dataset, block_rows
from .errors import InvalidDimension
from .logistic import _libm, sigmoid, stable_softplus

QUADRATURE_NODES = 200

MAX_SEED = 2**128 - 1  # seeds key Philox streams, whose keys are 128-bit

# Cephes ndtri, the inverse normal CDF behind scipy.special.ndtri: its
# constants and rational approximations, coefficients highest degree first.
# Each denominator's leading 1 (cephes p1evl) is written out; 1 * z is exact.
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242
# Central branch, |u - 1/2| <= 1/2 - exp(-2): in y^2 with y = u - 1/2.
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# Tails in z = 1/x, x = sqrt(-2 log y): 2 <= x < 8 ...
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# ... and x >= 8, that is y <= exp(-32).
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


@dataclass(frozen=True)
class HardInstanceSpec:
    """Latent dimension, sample count, and RNG seed for the generator."""

    k: int
    n: int
    seed: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise InvalidDimension(f"latent dimension must be >= 2, got {self.k}")
        if self.n < 1:
            raise InvalidDimension(f"sample count must be >= 1, got {self.n}")
        if not 0 <= self.seed <= MAX_SEED:
            raise InvalidDimension(f"seed must be an integer in [0, 2**128 - 1], got {self.seed}")


def _uniform_open(rng: Generator, shape) -> np.ndarray:
    # Shift the 53-bit uniform off 0 so the inverse CDF stays finite. The
    # shift rounds the largest draw, 1 - 2**-53, up to 1.0, so clamp back
    # below 1; every other value keeps its bits.
    u = rng.random(shape)
    u += 2.0 ** -54
    return np.minimum(u, np.nextafter(1.0, 0.0), out=u)


def _polevl(z: np.ndarray, coef, out: np.ndarray) -> np.ndarray:
    """Horner's rule in cephes polevl's order: one multiply, then one add,
    per coefficient after the first."""
    np.multiply(z, coef[0], out=out)
    for c in coef[1:-1]:
        np.add(out, c, out=out)
        np.multiply(out, z, out=out)
    return np.add(out, coef[-1], out=out)


def _ndtri_tail(
    t: np.ndarray, x: np.ndarray, x0: np.ndarray, num: np.ndarray, den: np.ndarray
) -> np.ndarray:
    """Cephes ndtri of the values ``t`` below exp(-2) or above
    1 - exp(-2), into ``x0``; ``t`` and the other buffers are scratch."""
    flip = t > 0.5
    np.subtract(1.0, t, out=t, where=flip)
    np.multiply(_libm(np.log, t, num), -2.0, out=x)
    np.sqrt(x, out=x)
    np.divide(_libm(np.log, x, num), x, out=x0)
    np.subtract(x, x0, out=x0)
    far = x >= 8.0 if x.max() >= 8.0 else None
    z = np.divide(1.0, x, out=x)
    _polevl(z, _NDTRI_P1, num)
    _polevl(z, _NDTRI_Q1, den)
    if far is not None:
        zf = z[far]
        num[far] = _polevl(zf, _NDTRI_P2, np.empty_like(zf))
        den[far] = _polevl(zf, _NDTRI_Q2, np.empty_like(zf))
    np.multiply(z, num, out=num)
    np.divide(num, den, out=num)
    np.subtract(x0, num, out=x0)
    np.logical_not(flip, out=flip)
    return np.negative(x0, out=x0, where=flip)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """scipy.special.ndtri of every u in (0, 1), written over the
    C-contiguous array ``u``.

    A numpy transcription of cephes ndtri: its coefficients, its Horner
    order and its branches. For exp(-2) < u <= 1 - exp(-2) it is a rational
    function in (u - 1/2)^2 times u - 1/2, which carries the sign. Below
    that, it is a rational tail in x = sqrt(-2 log u), negated, with other
    coefficients for x >= 8; above, the same tail on 1 - u. Values go
    through in blocks of ``block_rows(5)``, the five float64 scratch rows,
    allocated once.
    """
    flat = u.reshape(-1)
    step = block_rows(5)
    size = min(flat.size, step)
    y, y2, num, den, vals = np.empty((5, size))
    tail, above = np.empty((2, size), dtype=bool)
    for start in range(0, flat.size, step):
        block = flat[start : start + step]
        m = block.size
        np.less_equal(block, _EXP_M2, out=tail[:m])
        np.greater(block, 1.0 - _EXP_M2, out=above[:m])
        idx = np.flatnonzero(np.logical_or(tail[:m], above[:m], out=tail[:m]))
        k = idx.size
        np.take(block, idx, out=vals[:k])
        # The central branch on every value; the tail ones are replaced below.
        yb, y2b, p, q = y[:m], y2[:m], num[:m], den[:m]
        np.subtract(block, 0.5, out=yb)
        np.multiply(yb, yb, out=y2b)
        _polevl(y2b, _NDTRI_P0, p)
        _polevl(y2b, _NDTRI_Q0, q)
        np.multiply(y2b, p, out=p)
        np.divide(p, q, out=p)
        np.multiply(yb, p, out=p)
        np.add(yb, p, out=p)
        np.multiply(p, _SQRT_2PI, out=block)
        if k:
            block[idx] = _ndtri_tail(vals[:k], y[:k], y2[:k], num[:k], den[:k])
    return flat.reshape(u.shape)


def standard_normals(rng: Generator, shape) -> np.ndarray:
    """Standard normals by the inverse normal CDF of counter-based uniforms,
    bit-reproducible for a fixed generator stream.

    The inverse CDF is a numpy port of cephes ``ndtri``. It is bitwise equal
    to ``scipy.special.ndtri`` wherever numpy's log of a reversed view is the
    C library's log (checked with numpy 2.4 and scipy 1.17 on x86-64 Linux
    with glibc; the tests compare the two on 1.6e7 draws), so the bytes are
    those the package drew when it called scipy.
    """
    return _ndtri(_uniform_open(rng, shape))


def generate_hard_instance(spec: HardInstanceSpec) -> Dataset:
    """Sample the chained-latent dataset for ``spec``.

    Draw order is fixed (first the n x k latent block Z, row by row, then n
    label uniforms) on a Philox stream keyed by the seed, so bytes are
    reproducible from (seed, k, n) across platforms. Z is drawn in row
    blocks, which give the same values, into a column-major array; the
    labels are formed from its last column one row block at a time, and Z is
    then differenced into the features in place, so only the features and
    labels are returned; the latents are ``standard_normals`` of the
    stream's first n x k uniforms.
    """
    rng = Generator(Philox(key=spec.seed))
    features = np.empty((spec.n, spec.k), order="F")
    rows = block_rows(spec.k)
    for start in range(0, spec.n, rows):
        block = features[start : start + rows]
        block[...] = standard_normals(rng, block.shape)
    # 0.0/1.0 labels, written over the uniforms they come from, one row
    # block of sigmoid(Z_k) at a time.
    labels = _uniform_open(rng, spec.n)
    for start in range(0, spec.n, rows):
        b = slice(start, start + rows)
        np.less(labels[b], sigmoid(features[b, -1]), out=labels[b])
    # Last column first, so each difference still reads Z_{i-1}.
    for i in range(spec.k - 1, 0, -1):
        features[:, i] -= features[:, i - 1]
    return Dataset(features=features, labels=labels)


def relevance_set(k: int, p: int) -> frozenset[int]:
    """Feature indices the end-of-pass-p optimal predictor can depend on:
    the last p features {k-p+1, ..., k}.

    The pass-p analysis c*(p) (Z_k + xi / sqrt(p)) needs a Z_{k-p} term, so
    it describes passes p <= k-1 only. At p = k the set is every feature and
    no longer constrains the predictor; p > k is rejected.
    """
    if k < 2:
        raise InvalidDimension(f"need k >= 2, got {k}")
    if not 1 <= p <= k:
        raise InvalidDimension(f"pass index {p} outside 1..{k}")
    return frozenset(range(k - p + 1, k + 1))


@dataclass(frozen=True)
class PassPredictor:
    """Linear predictor over the pass-p relevance set in the scaled form
    z = c * (Z_k + xi / sqrt(p)).

    ``coefficients`` are c_0..c_{p-1} on features x_k down to x_{k-p+1};
    ``residual_variance`` is Var(z - c Z_k).
    """

    coefficients: np.ndarray
    residual_variance: float


def optimal_pass_coefficients(p: int, c: float) -> PassPredictor:
    """Variance-minimizing coefficients for a fixed leading scale c.

    With alpha_j the consecutive coefficient differences, the residual
    variance sum(alpha_j^2) + (sum(alpha_j) + c)^2 is minimized by equal
    alpha_j summing to -c (p-1) / p, i.e. c_j = c (1 - j/p), giving residual
    variance c^2 / p.
    """
    if p < 1:
        raise InvalidDimension(f"pass index must be >= 1, got {p}")
    if not np.isfinite(c):
        raise InvalidDimension("scale c must be finite")
    j = np.arange(p, dtype=np.float64)
    coeffs = c * (1.0 - j / p)
    return PassPredictor(coefficients=coeffs, residual_variance=c * c / p)


def numeric_pass_coefficients(p: int, c: float) -> tuple[float, float]:
    """Direct check of the closed form: minimize the residual variance
    sum(alpha_j^2) + (sum(alpha_j) + c)^2 over the p-1 coefficient
    differences by one least-squares solve of [I; 1^T] alpha ~ [0; -c],
    whose squared residual is exactly that variance. Returns (sum of
    differences, minimal residual variance); p = 1 has no differences and
    gives (0, c^2)."""
    if p < 1:
        raise InvalidDimension(f"pass index must be >= 1, got {p}")
    design = np.vstack([np.eye(p - 1), np.ones((1, p - 1))])
    target = np.zeros(p)
    target[-1] = -c
    alpha = np.linalg.lstsq(design, target, rcond=None)[0]
    s = float(np.sum(alpha))
    return s, float(alpha @ alpha + (s + c) ** 2)


@cache
def _hermite_nodes() -> tuple[np.ndarray, np.ndarray]:
    """The QUADRATURE_NODES-point Gauss-Hermite rule, built once; read-only
    because every caller shares it."""
    # Imported here: numpy.polynomial loads every polynomial family, and
    # only the quadrature analytics of `verify` need this one rule.
    from numpy.polynomial.hermite import hermgauss

    t, w = hermgauss(QUADRATURE_NODES)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def gauss_hermite_expectation(f, sd: float = 1.0) -> float:
    """E[f(X)] for X ~ N(0, sd^2) by Gauss-Hermite quadrature."""
    t, w = _hermite_nodes()
    return float(np.sum(w * f(np.sqrt(2.0) * sd * t)) / np.sqrt(np.pi))


def scaling_gradient(c: float, p: int) -> float:
    """Derivative in c of the loss of z = c(Z + xi/sqrt(p)) with unit-variance
    xi: -E[Z sigmoid(Z)] + E[S sigmoid(c S)] where S ~ N(0, 1 + 1/p)."""
    if p < 1:
        raise InvalidDimension(f"pass index must be >= 1, got {p}")
    second = gauss_hermite_expectation(lambda x: x * sigmoid(c * x), sd=np.sqrt(1.0 + 1.0 / p))
    return -gauss_hermite_expectation(lambda x: x * sigmoid(x)) + second


def _centered_sigmoid(x):
    """sigmoid(x) - 1/2 as tanh(x/2)/2, which does not cancel at small x."""
    return 0.5 * np.tanh(0.5 * x)


def _sigmoid_slope(x):
    """sigmoid'(x) = sigmoid(x) sigmoid(-x)."""
    return sigmoid(x) * sigmoid(-x)


def link_scale(r: float) -> float:
    """Scale s of the n = inf logistic fit whose best reachable direction has
    projection norm r: the root in [0, 1] of the link (the loss derivative in
    s) E[G sigmoid(s G)] - r E[G sigmoid(G)], G ~ N(0, 1), on the Gauss-Hermite
    rule; 0.0 at r = 0 and 1.0 for r >= 1 (a norm that rounds to 1 or above).

    Newton's method from s = 4 E[G sigmoid(G)] r, the root's small-r limit.
    Each node's term G (sigmoid(s G) - 1/2) is increasing and concave in
    s >= 0, so the link lies below its tangent at 0: the start is at or below
    the root and the iterates rise to it. The link is summed over
    G (c(s G) - r c(G)) with c = ``_centered_sigmoid``, so it keeps its
    relative accuracy at small s. A rise of one ulp or less is rounding and
    ends the loop, within five iterations on a dense grid of r in [1e-300, 1)."""
    if not (np.isfinite(r) and r >= 0.0):
        raise InvalidDimension(f"projection norm must be finite and >= 0, got {r}")
    if r == 0.0 or r >= 1.0:
        return min(float(r), 1.0)
    s = 4.0 * r * gauss_hermite_expectation(lambda g: g * _centered_sigmoid(g))
    while True:
        link = gauss_hermite_expectation(lambda g: g * (_centered_sigmoid(s * g) - r * _centered_sigmoid(g)))
        slope = gauss_hermite_expectation(lambda g: g * g * _sigmoid_slope(s * g))
        s_next = s - link / slope
        if s_next <= np.nextafter(s, 2.0):
            return s
        s = s_next


def optimal_scaling_factor(p: int) -> float:
    """Loss-minimizing scale c for the pass-p predictor form, the root of
    ``scaling_gradient`` on (0, 1): r link_scale(r) with r = sqrt(p / (p + 1)),
    since Z + xi/sqrt(p) has standard deviation 1/r."""
    if p < 1:
        raise InvalidDimension(f"pass index must be >= 1, got {p}")
    r = float(np.sqrt(p / (p + 1.0)))
    return r * link_scale(r)


def noise_monotonicity_check(c: float, variances) -> list[float]:
    """BCE of the logit z = c Z + sqrt(v) xi at each noise variance v, with
    labels Bernoulli(sigmoid(Z)) and Z, xi independent standard normals.

    z is N(0, c^2 + v) and xi is independent of the label, so the loss is
    L(v) = E[softplus(sqrt(c^2 + v) G)] - c E[G sigmoid(G)], G ~ N(0, 1),
    one ``gauss_hermite_expectation`` per variance and one for the label
    term. L rises strictly with v, since
    d/ds E[softplus(s G)] = s E[sigmoid'(s G)] > 0, and equal variances give
    bitwise equal losses."""
    if not np.isfinite(c):
        raise InvalidDimension("scale c must be finite")
    for v in variances:
        if not 0.0 <= v < np.inf:
            raise InvalidDimension(f"noise variance must be finite and >= 0, got {v}")
    label_term = c * gauss_hermite_expectation(lambda g: g * sigmoid(g))
    return [
        gauss_hermite_expectation(stable_softplus, sd=np.sqrt(c * c + v)) - label_term
        for v in variances
    ]
