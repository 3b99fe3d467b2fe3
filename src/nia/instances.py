"""Hard-instance generator and closed-form lower-bound analytics.

The generated distribution chains k standard-normal latents through a
differencing map (x_1 = Z_1, x_i = Z_i - Z_{i-1}), labels are Bernoulli of
sigmoid(Z_k), and the optimal logit is the feature prefix sum Z_k. Analytics
cover the per-pass relevance sets, the variance-minimizing pass-predictor
coefficients, the optimal logit scaling factor, and the 1/(p+1) excess-loss
shape these imply.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtri

from .data import Dataset
from .errors import InvalidDimension, QuadratureFailure
from .logistic import sigmoid, stable_softplus

DEFAULT_QUADRATURE_NODES = 200

# Rows per block of the noise Monte Carlo, so its memory does not grow with
# the sample count.
_MC_BLOCK_ROWS = 1 << 16


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
        if self.seed < 0:
            raise InvalidDimension("seed must be a non-negative integer")


def _uniform_open(rng: np.random.Generator, shape) -> np.ndarray:
    # Shift the 53-bit uniform off 0 so the inverse CDF stays finite. The
    # shift rounds the largest draw, 1 - 2**-53, up to 1.0, so clamp back
    # below 1; every other value keeps its bits.
    u = rng.random(shape)
    u += 2.0 ** -54
    return np.minimum(u, np.nextafter(1.0, 0.0), out=u)


def standard_normals(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normals via the inverse-CDF map (scipy's ndtri rational
    approximation) applied to counter-based uniforms; bit-reproducible for a
    fixed generator stream."""
    u = _uniform_open(rng, shape)
    return ndtri(u, out=u)


def generate_hard_instance(spec: HardInstanceSpec) -> Dataset:
    """Sample the chained-latent dataset for ``spec``.

    Draw order is fixed (first the n x k latent block Z, then n label
    uniforms) on a Philox stream keyed by the seed, so bytes are reproducible
    from (seed, k, n) across platforms. Z is differenced into the features in
    place, so only the features and labels are returned; the latents are
    ``standard_normals`` of the stream's first n x k uniforms.
    """
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    features = standard_normals(rng, (spec.n, spec.k))
    prob = sigmoid(features[:, -1])
    # Last column first, so each difference still reads Z_{i-1}.
    for i in range(spec.k - 1, 0, -1):
        features[:, i] -= features[:, i - 1]
    u = _uniform_open(rng, spec.n)
    # 0.0/1.0 labels, written over the uniforms they come from.
    labels = np.less(u, prob, out=u)
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
    ``residual_variance`` is Var(z - c Z_k) and ``noise_variance_scaled`` is
    its p / c^2 multiple (the variance of xi), which equals 1 at the
    variance-minimizing coefficients.
    """

    p: int
    c: float
    coefficients: np.ndarray
    residual_variance: float
    noise_variance_scaled: float


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
    residual_variance = c * c / p
    scaled = p * residual_variance / (c * c) if c != 0.0 else float("nan")
    return PassPredictor(
        p=p,
        c=float(c),
        coefficients=coeffs,
        residual_variance=residual_variance,
        noise_variance_scaled=scaled,
    )


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


@lru_cache(maxsize=8)
def _hermite_nodes(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights, built once per node count; read-only
    because every caller shares them."""
    t, w = np.polynomial.hermite.hermgauss(nodes)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def gauss_hermite_expectation(f, sd: float = 1.0, nodes: int = DEFAULT_QUADRATURE_NODES) -> float:
    """E[f(X)] for X ~ N(0, sd^2) by Gauss-Hermite quadrature."""
    t, w = _hermite_nodes(nodes)
    return float(np.sum(w * f(np.sqrt(2.0) * sd * t)) / np.sqrt(np.pi))


def sigmoid_moment(u: float, nodes: int = DEFAULT_QUADRATURE_NODES) -> float:
    """h(u) = E[X sigmoid(X)] for X ~ N(0, u^2); strictly increasing in u."""
    return gauss_hermite_expectation(lambda x: x * sigmoid(x), sd=u, nodes=nodes)


def scaling_gradient(c: float, p: int, nodes: int = DEFAULT_QUADRATURE_NODES) -> float:
    """Derivative in c of the loss of z = c(Z + xi/sqrt(p)) with unit-variance
    xi: -E[Z sigmoid(Z)] + E[S sigmoid(c S)] where S ~ N(0, 1 + 1/p)."""
    if p < 1:
        raise InvalidDimension(f"pass index must be >= 1, got {p}")
    s_sd = float(np.sqrt(1.0 + 1.0 / p))
    second = gauss_hermite_expectation(lambda x: x * sigmoid(c * x), sd=s_sd, nodes=nodes)
    return -sigmoid_moment(1.0, nodes) + second


def optimal_scaling_factor(p: int, nodes: int = DEFAULT_QUADRATURE_NODES) -> float:
    """Loss-minimizing scale c for the pass-p predictor form: the root of the
    loss derivative ``scaling_gradient`` on (0, 1).

    The root is found by the Illinois variant of regula falsi (Dowell and
    Jarratt, BIT 1971) on the bracket [0, 1]: each step takes the secant
    point of the bracket ends and keeps the sub-bracket whose ends differ in
    sign; when the same end is kept twice running, its stored derivative is
    halved, so both ends close in and convergence is superlinear. The search
    stops at an exact zero of the derivative or once the bracket is at most
    1e-12 wide, and returns the last secant point (about ten derivative
    evaluations per root, the two bracket ends included).

    The derivative must be negative at 0 and positive at 1; a bracket that
    fails to change sign raises QuadratureFailure instead of being patched,
    since it would falsify the scaling analysis.
    """
    lo, hi = 0.0, 1.0
    g_lo = scaling_gradient(lo, p, nodes)
    g_hi = scaling_gradient(hi, p, nodes)
    if not (g_lo < 0.0 < g_hi):
        raise QuadratureFailure(
            f"loss derivative does not bracket a root on [0, 1]: g(0)={g_lo:.3e}, g(1)={g_hi:.3e}"
        )
    kept = 0  # -1: the last step moved lo (kept hi), +1: it moved hi
    while True:
        c = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        g = scaling_gradient(c, p, nodes)
        if g == 0.0:
            return c
        if g < 0.0:
            lo, g_lo = c, g
            if kept == -1:
                g_hi *= 0.5
            kept = -1
        else:
            hi, g_hi = c, g
            if kept == 1:
                g_lo *= 0.5
            kept = 1
        if hi - lo <= 1e-12:
            return c


@dataclass(frozen=True)
class NoiseComparison:
    """Common-random-number Monte Carlo losses at two noise variances, with
    the standard error of their paired difference."""

    loss_small: float
    loss_large: float
    std_error: float

    @property
    def margin_se(self) -> float:
        """Loss increase in units of its standard error."""
        if self.std_error == 0.0:
            return 0.0
        return (self.loss_large - self.loss_small) / self.std_error


def noise_monotonicity_check(
    c: float,
    pairs,
    n_mc: int,
    seed: int,
) -> list[NoiseComparison]:
    """Estimate the loss of z = c Z + xi at each (v_small, v_large) noise
    variance pair with one shared (Z, xi) stream; one comparison per pair.

    The per-sample loss is the label-conditional mean -sigmoid(Z) z
    + softplus(z), so the only Monte Carlo noise comes from (Z, xi). Equal
    variances give exactly equal losses; a larger variance gives a strictly
    larger loss in expectation.

    Z takes the first n_mc uniforms of a Philox stream keyed by ``seed`` and
    xi the next n_mc. Both are drawn and used in blocks of 65536 rows, and
    each distinct variance is evaluated once per block, so memory does not
    grow with n_mc. Block means and sums of squared deviations are merged
    with Chan, Golub and LeVeque's pairwise rule; the per-sample losses are
    those of a whole-array computation, and only the order of summation
    differs, which moves the means and standard errors in their last bits.
    """
    if not np.isfinite(c):
        raise InvalidDimension("scale c must be finite")
    pairs = list(pairs)
    if not pairs:
        raise InvalidDimension("need at least one variance pair")
    for v_small, v_large in pairs:
        if not 0.0 <= v_small <= v_large:
            raise InvalidDimension(f"need 0 <= v_small <= v_large, got {v_small}, {v_large}")
    if n_mc < 2:
        raise InvalidDimension("need at least two Monte Carlo samples")
    variances = sorted({v for pair in pairs for v in pair})
    index = {v: i for i, v in enumerate(variances)}
    pair_index = [(index[a], index[b]) for a, b in pairs]
    # Running means of the loss at each variance, then of each pair's paired
    # difference; m2 (sums of squared deviations) is read for the differences.
    mean = np.zeros(len(variances) + len(pairs))
    m2 = np.zeros_like(mean)

    z_rng = np.random.Generator(np.random.Philox(key=seed))
    xi_bits = np.random.Philox(key=seed)
    # advance() counts blocks of four draws; the remainder is drawn off.
    xi_bits.advance(n_mc // 4)
    xi_bits.random_raw(n_mc % 4)
    xi_rng = np.random.Generator(xi_bits)
    for start in range(0, n_mc, _MC_BLOCK_ROWS):
        rows = min(_MC_BLOCK_ROWS, n_mc - start)
        z_lat = standard_normals(z_rng, rows)
        xi = standard_normals(xi_rng, rows)
        sig = sigmoid(z_lat)
        losses = np.empty((len(variances), rows))
        for i, v in enumerate(variances):
            z = c * z_lat + np.sqrt(v) * xi
            np.add(-sig * z, stable_softplus(z), out=losses[i])
        b_mean = np.empty_like(mean)
        b_m2 = np.zeros_like(m2)
        b_mean[: len(variances)] = losses.mean(axis=1)
        for r, (i, j) in enumerate(pair_index, start=len(variances)):
            diff = losses[j] - losses[i]
            b_mean[r] = diff.mean()
            diff -= b_mean[r]
            b_m2[r] = np.square(diff, out=diff).sum()
        # Merge this block's moments into those of the first ``start`` rows.
        delta = b_mean - mean
        mean += delta * (rows / (start + rows))
        m2 += b_m2 + delta * delta * (start * rows / (start + rows))

    se = np.sqrt(m2[len(variances):] / (n_mc - 1)) / np.sqrt(n_mc)
    return [
        NoiseComparison(
            loss_small=float(mean[i]), loss_large=float(mean[j]), std_error=float(s)
        )
        for (i, j), s in zip(pair_index, se)
    ]


def predicted_excess_curve(k: int, passes) -> np.ndarray:
    """Unnormalized excess-loss shape 1/(p+1) per pass; experiments fit a
    single multiplicative constant against measured values.

    The shape is a lower-bound shape, not a two-sided prediction, and it is
    derived only for integer passes p <= k-1 (see ``relevance_set``). Beyond
    that every feature has entered and the protocol's excess decays faster
    than 1/(p+1). The values for p >= k are still returned, unchanged.
    """
    if k < 2:
        raise InvalidDimension(f"need k >= 2, got {k}")
    ps = np.asarray(list(passes), dtype=np.float64)
    if ps.size == 0 or np.any(ps < 1):
        raise InvalidDimension("pass indices must all be >= 1")
    return 1.0 / (ps + 1.0)
