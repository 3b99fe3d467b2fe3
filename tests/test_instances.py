"""Hard-instance generator and lower-bound closed forms."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtri

import nia.data
import nia.instances
from nia import (
    HardInstanceSpec,
    InvalidDimension,
    generate_hard_instance,
    link_scale,
    noise_monotonicity_check,
    optimal_pass_coefficients,
    optimal_scaling_factor,
    relevance_set,
    scaling_gradient,
    sigmoid,
)
from nia.experiments import NOISE_SCALE, NOISE_VARIANCE_PAIRS
from nia.instances import (
    MAX_SEED,
    QUADRATURE_NODES,
    _hermite_nodes,
    _ndtri,
    _uniform_open,
    gauss_hermite_expectation,
    numeric_pass_coefficients,
    standard_normals,
)
from nia.logistic import stable_softplus


def _latents(spec: HardInstanceSpec) -> np.ndarray:
    """The generator's n x k latent block Z, rebuilt from the first draws of
    its documented stream."""
    return standard_normals(np.random.Generator(np.random.Philox(key=spec.seed)), (spec.n, spec.k))


class TestGenerator:
    def test_differencing_map(self):
        spec = HardInstanceSpec(k=2, n=500, seed=1)
        ds = generate_hard_instance(spec)
        z = _latents(spec)
        assert np.array_equal(ds.features[:, 0], z[:, 0])
        assert np.allclose(ds.features[:, 1], z[:, 1] - z[:, 0], rtol=0, atol=0)

    def test_prefix_sums_recover_every_latent(self):
        spec = HardInstanceSpec(k=5, n=2000, seed=2)
        ds = generate_hard_instance(spec)
        z = _latents(spec)
        prefix = np.cumsum(ds.features, axis=1)
        scale = np.maximum(1.0, np.abs(z))
        assert np.max(np.abs(prefix - z) / scale) <= 1e-12

    def test_labels_binary(self):
        ds = generate_hard_instance(HardInstanceSpec(k=3, n=1000, seed=3))
        assert set(np.unique(ds.labels)) <= {0.0, 1.0}

    def test_reproducible_from_seed(self):
        a = generate_hard_instance(HardInstanceSpec(k=3, n=400, seed=9))
        b = generate_hard_instance(HardInstanceSpec(k=3, n=400, seed=9))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = generate_hard_instance(HardInstanceSpec(k=3, n=400, seed=1))
        b = generate_hard_instance(HardInstanceSpec(k=3, n=400, seed=2))
        assert not np.array_equal(a.features, b.features)

    def test_k_below_two_rejected(self):
        with pytest.raises(InvalidDimension):
            HardInstanceSpec(k=1, n=10, seed=0)

    def test_seed_range_is_the_philox_key_range(self):
        assert MAX_SEED == 2**128 - 1
        assert generate_hard_instance(HardInstanceSpec(k=2, n=5, seed=MAX_SEED)).n == 5
        for seed in (-1, MAX_SEED + 1):
            with pytest.raises(InvalidDimension, match="seed"):
                HardInstanceSpec(k=2, n=5, seed=seed)

    def test_feature_variances(self):
        # Var(x_1) = 1 and Var(Z_i - Z_{i-1}) = 2, Monte Carlo at n = 1e6.
        ds = generate_hard_instance(HardInstanceSpec(k=4, n=1_000_000, seed=5))
        variances = ds.features.var(axis=0)
        assert abs(variances[0] - 1.0) <= 0.01
        assert np.max(np.abs(variances[1:] - 2.0)) <= 0.01

    def test_label_law_in_equal_mass_bins(self):
        spec = HardInstanceSpec(k=4, n=1_000_000, seed=5)
        ds = generate_hard_instance(spec)
        zk = _latents(spec)[:, -1]
        order = np.argsort(zk)
        worst = 0.0
        for chunk in np.array_split(order, 20):
            observed = float(np.mean(ds.labels[chunk]))
            predicted = float(sigmoid(np.mean(zk[chunk])))
            worst = max(worst, abs(observed - predicted))
        assert worst <= 0.01

    def test_memory_is_features_and_labels(self):
        tracemalloc.start()
        try:
            ds = generate_hard_instance(HardInstanceSpec(k=8, n=100_000, seed=1))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        data = ds.features.nbytes + ds.labels.nbytes
        # Z is differenced into the features in place, so only label-length
        # temporaries come on top; a separate latent block would double it.
        assert peak <= 1.5 * data
        assert kept <= 1.05 * data

    def test_largest_uniform_stays_below_one(self):
        class Stub:
            def random(self, shape):
                return np.full(shape, self.value)

        stub = Stub()
        stub.value = 1.0 - 2.0 ** -53  # the largest draw of Generator.random
        assert np.all(_uniform_open(stub, 3) < 1.0)
        assert np.all(np.isfinite(standard_normals(stub, 3)))
        for value in (0.0, 0.5, 0.75 + 2.0 ** -53, 1.0 - 2.0 ** -52):
            stub.value = value
            assert _uniform_open(stub, 1)[0] == value + 2.0 ** -54

    @pytest.mark.parametrize(
        "k,n,seed,digest",
        [
            (4, 10_000, 1, "1d0767e44edc5cf6c8c271eeaf9a8e03a45a66b791cea6b5b07f9c9c3a11db3f"),
            (8, 3_000, 2, "ee424b39a92131973df10fda10f4c7b3d61cc64d3a5dd38e499ca903be9f928e"),
        ],
    )
    def test_bytes_are_pinned(self, k, n, seed, digest):
        # sha256 of the feature bytes, then the label bytes, recorded while the
        # generator still called scipy.special.ndtri.
        ds = generate_hard_instance(HardInstanceSpec(k=k, n=n, seed=seed))
        h = hashlib.sha256(ds.features.tobytes())
        h.update(ds.labels.tobytes())
        assert h.hexdigest() == digest

    def test_bytes_do_not_depend_on_block_budget(self, monkeypatch):
        # Under the default budget these 1000 rows are one block; under a
        # budget of three rows of k values, the draws, the inverse CDF and the
        # finiteness check go three rows (or values) at a time.
        spec = HardInstanceSpec(k=5, n=1_000, seed=3)
        default = generate_hard_instance(spec)
        monkeypatch.setattr(nia.data, "BLOCK_BYTES", 8 * spec.k * 3)
        assert nia.data.block_rows(spec.k) == 3
        small = generate_hard_instance(spec)
        assert small.features.tobytes() == default.features.tobytes()
        assert small.labels.tobytes() == default.labels.tobytes()


class TestNdtri:
    # scipy.special.ndtri is the oracle: the port must give its bits.

    @pytest.mark.parametrize("key", [5, 7, 11, 13])
    def test_stream_matches_scipy_bitwise(self, key):
        n = 4_000_000
        got = standard_normals(np.random.Generator(np.random.Philox(key=key)), n)
        u = _uniform_open(np.random.Generator(np.random.Philox(key=key)), n)
        assert np.array_equal(got.view(np.int64), ndtri(u, out=u).view(np.int64))

    def test_edges_match_scipy_bitwise(self):
        # The ends of _uniform_open's range (2**-54 takes the x >= 8 tail), the
        # centre, the branch points at exp(-2) and 1 - exp(-2), the x = 8
        # switch at exp(-32), and their neighbours inside (0, 1).
        points = [2.0 ** -54, 1.0 - 2.0 ** -53, 0.5, math.exp(-2.0), 1.0 - math.exp(-2.0),
                  math.exp(-32.0), 1.0 - math.exp(-32.0)]
        near = {float(v) for p in points for v in (np.nextafter(p, 0.0), p, np.nextafter(p, 1.0))}
        u = np.array(sorted(v for v in near if 0.0 < v < 1.0))
        assert u.size == 20  # 1 - 2**-53 has no neighbour above in (0, 1)
        assert np.array_equal(_ndtri(u.copy()).view(np.int64), ndtri(u).view(np.int64))

    def test_two_dimensional_shape_is_kept(self):
        u = _uniform_open(np.random.Generator(np.random.Philox(key=3)), (40_000, 3))
        got = _ndtri(u.copy())
        assert got.shape == (40_000, 3)
        assert np.array_equal(got.view(np.int64), ndtri(u).view(np.int64))


class TestRelevanceSet:
    def test_first_pass_sees_only_last_feature(self):
        assert relevance_set(4, 1) == frozenset({4})

    def test_full_pass_sees_everything(self):
        assert relevance_set(4, 4) == frozenset({1, 2, 3, 4})

    def test_intermediate(self):
        assert relevance_set(5, 3) == frozenset({3, 4, 5})

    def test_pass_beyond_dimension_rejected(self):
        with pytest.raises(InvalidDimension):
            relevance_set(4, 5)


class TestOptimalPassCoefficients:
    def test_single_pass(self):
        pp = optimal_pass_coefficients(1, 0.7)
        assert np.allclose(pp.coefficients, [0.7])
        assert pp.residual_variance == pytest.approx(0.49, rel=1e-14)

    def test_two_passes_unit_scale(self):
        pp = optimal_pass_coefficients(2, 1.0)
        # Coefficient differences sum to -1/2 and the residual variance is 1/2.
        assert np.allclose(pp.coefficients, [1.0, 0.5])
        assert float(np.diff(pp.coefficients).sum()) == pytest.approx(-0.5, rel=1e-14)
        assert pp.residual_variance == pytest.approx(0.5, rel=1e-14)

    def test_closed_form_matches_numeric_minimization(self):
        for p in (2, 3, 4, 5, 6):
            for c in (0.3, 0.7, 1.0):
                pp = optimal_pass_coefficients(p, c)
                s_num, var_num = numeric_pass_coefficients(p, c)
                assert abs(s_num - (-c * (p - 1) / p)) <= 1e-9
                assert abs(var_num - pp.residual_variance) <= 1e-9

    def test_numeric_check_single_pass_has_no_differences(self):
        assert numeric_pass_coefficients(1, 0.7) == (0.0, 0.7 * 0.7)

    def test_numeric_check_matches_closed_form_at_64_passes(self):
        for c in (0.3, 0.7, 1.0):
            s_num, var_num = numeric_pass_coefficients(64, c)
            assert abs(s_num - (-c * 63 / 64)) <= 1e-9
            assert abs(var_num - optimal_pass_coefficients(64, c).residual_variance) <= 1e-9

    def test_coefficient_length_matches_pass(self):
        for p in (1, 2, 5):
            assert optimal_pass_coefficients(p, 0.5).coefficients.shape == (p,)


def _quad_expectation(f, sd, epsabs=1.49e-8, epsrel=1.49e-8):
    # Independent oracle for the Gauss-Hermite path: adaptive quadrature.
    val, _ = quad(
        lambda x: f(x) * math.exp(-0.5 * (x / sd) ** 2) / (sd * math.sqrt(2 * math.pi)),
        -12 * sd,
        12 * sd,
        epsabs=epsabs,
        epsrel=epsrel,
        limit=200,
    )
    return val


class TestOptimalScalingFactor:
    def test_gradient_sign_at_bracket_ends(self):
        for p in (1, 2, 8):
            assert scaling_gradient(0.0, p) < 0
            assert scaling_gradient(1.0, p) > 0

    def test_root_confirmed_by_adaptive_quadrature(self):
        for p in (1, 3):
            c = optimal_scaling_factor(p)
            s_sd = math.sqrt(1.0 + 1.0 / p)
            oracle = -_quad_expectation(lambda x: x * sigmoid(x), 1.0) + _quad_expectation(
                lambda x: x * sigmoid(c * x), s_sd
            )
            assert abs(oracle) <= 1e-9

    def test_in_unit_interval_and_increasing(self):
        values = [optimal_scaling_factor(p) for p in (1, 2, 4, 8, 16, 64)]
        assert all(0.0 < c < 1.0 for c in values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_gradient_residual_tiny_at_root(self):
        for p in (1, 2, 4, 8, 16, 64):
            c = optimal_scaling_factor(p)
            assert abs(scaling_gradient(c, p)) <= 1e-10

    # link_scale evaluates the link and its slope by gauss_hermite_expectation
    # over the integrands _centered_sigmoid and _sigmoid_slope; the tests below
    # patch those.
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8, 16, 64])
    def test_root_takes_few_gradient_evaluations(self, monkeypatch, p):
        calls = []

        def counted(f, sd=1.0):
            calls.append(sd)
            return gauss_hermite_expectation(f, sd)

        monkeypatch.setattr(nia.instances, "gauss_hermite_expectation", counted)
        optimal_scaling_factor(p)
        assert len(calls) <= 15

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8, 16, 64])
    def test_root_matches_brent(self, p):
        # Brent's method to the same absolute width is the reference; the
        # package itself does not import scipy.optimize.
        reference = brentq(scaling_gradient, 0.0, 1.0, args=(p,), xtol=1e-12)
        assert abs(optimal_scaling_factor(p) - reference) <= 1e-12

    def test_linear_gradient_root(self, monkeypatch):
        # With the linear link sigmoid(x) = 1/2 + x/4 the link root is r, so
        # c = r^2 = p / (p + 1).
        monkeypatch.setattr(nia.instances, "_centered_sigmoid", lambda x: x / 4)
        monkeypatch.setattr(nia.instances, "_sigmoid_slope", lambda x: np.full_like(x, 0.25))
        assert abs(optimal_scaling_factor(2) - 2 / 3) <= 1e-15

    def test_is_link_scale_at_the_pass_norm(self):
        for p in (1, 2, 4, 8, 16, 64):
            r = math.sqrt(p / (p + 1))
            assert optimal_scaling_factor(p) == r * link_scale(r)

    def test_pass_index_below_one_rejected(self):
        with pytest.raises(InvalidDimension):
            optimal_scaling_factor(0)

    def test_cached_nodes_match_fresh_sum_and_are_read_only(self):
        def f(x):
            return x * sigmoid(0.7 * x)

        t, w = np.polynomial.hermite.hermgauss(QUADRATURE_NODES)
        fresh = float(np.sum(w * f(np.sqrt(2.0) * 1.3 * t)) / np.sqrt(np.pi))
        for _ in range(2):  # the first call fills the cache, the second reads it
            assert gauss_hermite_expectation(f, sd=1.3) == fresh
        cached_t, cached_w = _hermite_nodes()
        assert not cached_t.flags.writeable and not cached_w.flags.writeable
        with pytest.raises(ValueError):
            cached_w[0] = 0.0


class TestLinkScale:
    # c*(p) for p = 1, 2, 4, 8, 16, 64, as optimal_scaling_factor returned
    # them while it ran its own root loop on scaling_gradient.
    PREVIOUS_C = (
        0.45200130664867033, 0.6223693386292077, 0.7670829768725346,
        0.8681205950684607, 0.9293802383173877, 0.9813516664439245,
    )

    def test_matches_previous_scaling_factors(self):
        for p, c in zip((1, 2, 4, 8, 16, 64), self.PREVIOUS_C):
            r = math.sqrt(p / (p + 1))
            assert abs(r * link_scale(r) - c) <= 2e-15

    def test_root_confirmed_by_adaptive_quadrature(self):
        moment = _quad_expectation(lambda x: x * sigmoid(x), 1.0)
        for r in (0.3, 0.7):
            s = link_scale(r)
            assert abs(_quad_expectation(lambda x: x * sigmoid(s * x), 1.0) - r * moment) <= 1e-9

    def test_increasing_in_r(self):
        values = [link_scale(r) for r in (0.0, 0.05, 0.2, 0.4, 0.6, 0.8, 0.95, 0.999, 1.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_edge_values(self):
        assert link_scale(0.0) == 0.0
        for r in (1.0, np.nextafter(1.0, 2.0), 1.5):
            assert link_scale(r) == 1.0

    @pytest.mark.parametrize("r", [-1e-300, -0.5, math.nan, math.inf, -math.inf])
    def test_negative_or_non_finite_rejected(self, r):
        with pytest.raises(InvalidDimension):
            link_scale(r)

    @pytest.mark.parametrize("r", [1e-300, 1e-20, 1e-13, 1e-12, 1e-9])
    def test_small_norm_keeps_relative_accuracy(self, r):
        # Below the quadrature's resolution the link is s/4 - r E[G sigmoid(G)],
        # so s / r tends to 4 E[G sigmoid(G)] = 0.826484.
        limit = 4 * gauss_hermite_expectation(lambda g: g * sigmoid(g))
        assert abs(link_scale(r) / r / limit - 1) <= 1e-12

    def test_newton_takes_at_most_five_iterations(self, monkeypatch):
        # One evaluation for the start, then a link and a slope per iteration.
        calls = []

        def counted(f, sd=1.0):
            calls.append(sd)
            return gauss_hermite_expectation(f, sd)

        monkeypatch.setattr(nia.instances, "gauss_hermite_expectation", counted)
        grid = np.concatenate(
            [np.geomspace(1e-300, 1e-3, 200), np.linspace(1e-3, 0.999, 800), 1 - np.geomspace(1e-16, 1e-3, 200)]
        )
        worst = 0
        for r in grid:
            calls.clear()
            s = link_scale(float(r))
            assert 0.0 < s < 1.0
            worst = max(worst, len(calls))
        assert worst <= 11

    @pytest.mark.parametrize("r", [1 - 2.0 ** -53, 1 - 2.0 ** -52])
    def test_norm_just_below_one_brackets(self, r):
        # moment - r * moment would round to 0 here; the bracket end at 1
        # stays positive and the root lies within one ulp of 1.
        assert 1.0 - 1e-15 <= link_scale(r) < 1.0

def _monte_carlo_losses(c, variances, seed, blocks=4, rows=100_000):
    """Independent oracle: BCE of z = c Z + sqrt(v) xi on sampled labels
    y ~ Bernoulli(sigmoid(Z)), over ``blocks`` Philox blocks of ``rows``
    draws; returns (means, standard errors), one each per variance."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    total = np.zeros(len(variances))
    total_sq = np.zeros(len(variances))
    for _ in range(blocks):
        z_lat = rng.standard_normal(rows)
        xi = rng.standard_normal(rows)
        y = rng.random(rows) < sigmoid(z_lat)
        for i, v in enumerate(variances):
            z = c * z_lat + math.sqrt(v) * xi
            loss = stable_softplus(z) - y * z
            total[i] += loss.sum()
            total_sq[i] += np.square(loss).sum()
    n = blocks * rows
    mean = total / n
    var = (total_sq - n * mean * mean) / (n - 1)
    return mean, np.sqrt(var / n)


def _softplus(x):
    return math.log1p(math.exp(-abs(x))) + max(x, 0.0)


class TestNoiseMonotonicity:
    C = NOISE_SCALE
    VARIANCES = sorted({v for pair in NOISE_VARIANCE_PAIRS for v in pair})

    @pytest.mark.parametrize("v", VARIANCES)
    def test_matches_adaptive_quadrature(self, v):
        tight = {"epsabs": 1e-13, "epsrel": 0.0}
        label_term = self.C * _quad_expectation(lambda x: x * sigmoid(x), 1.0, **tight)
        oracle = _quad_expectation(_softplus, math.sqrt(self.C**2 + v), **tight) - label_term
        (loss,) = noise_monotonicity_check(self.C, [v])
        assert abs(loss - oracle) <= 1e-12

    def test_matches_sampled_labels_within_four_standard_errors(self):
        losses = noise_monotonicity_check(self.C, self.VARIANCES)
        mean, se = _monte_carlo_losses(self.C, self.VARIANCES, seed=7)
        assert np.all(se > 0)
        assert np.all(np.abs(losses - mean) <= 4 * se)

    def test_zero_noise_unit_scale_recovers_bayes_loss(self):
        (loss,) = noise_monotonicity_check(1.0, [0.0])
        bayes = _quad_expectation(
            lambda z: -sigmoid(z) * z + _softplus(z), 1.0, epsabs=1e-13, epsrel=0.0
        )
        assert loss == pytest.approx(bayes, abs=1e-12)

    def test_noise_increases_loss(self):
        losses = noise_monotonicity_check(self.C, [0.0, 0.01, 0.25, 0.5, 1.0, 4.0, 100.0])
        assert all(b > a for a, b in zip(losses, losses[1:]))

    def test_equal_variances_equal_losses(self):
        small, large = noise_monotonicity_check(self.C, [0.5, 0.5])
        assert small == large

    @pytest.mark.parametrize("c", [float("nan"), float("inf")])
    def test_non_finite_scale_rejected(self, c):
        with pytest.raises(InvalidDimension, match="finite"):
            noise_monotonicity_check(c, [0.5, 1.0])

    @pytest.mark.parametrize("pairs", [pytest.param([(-0.5, 0.5)], id="pairs2")])
    def test_empty_or_decreasing_pairs_rejected(self, pairs):
        # A pair holding a negative variance is rejected once its variances
        # are flattened; empty and decreasing pair lists are the suite's to judge.
        with pytest.raises(InvalidDimension, match="noise variance"):
            noise_monotonicity_check(0.8, [v for pair in pairs for v in pair])

    def test_invalid_variances_rejected(self):
        for v in (-0.5, -1e-300, float("nan"), float("inf")):
            with pytest.raises(InvalidDimension, match="noise variance"):
                noise_monotonicity_check(self.C, [0.5, v])
