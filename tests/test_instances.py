"""Hard-instance generator and lower-bound closed forms."""

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import nia.instances
from nia import (
    HardInstanceSpec,
    InvalidDimension,
    QuadratureFailure,
    generate_hard_instance,
    noise_monotonicity_check,
    optimal_pass_coefficients,
    optimal_scaling_factor,
    predicted_excess_curve,
    relevance_set,
    scaling_gradient,
    sigmoid,
    sigmoid_moment,
)
from nia.experiments import NOISE_VARIANCE_PAIRS
from nia.instances import (
    DEFAULT_QUADRATURE_NODES,
    _hermite_nodes,
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
        assert pp.noise_variance_scaled == pytest.approx(1.0, rel=1e-14)

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
                assert pp.noise_variance_scaled == pytest.approx(1.0, rel=1e-12)

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


def _quad_expectation(f, sd):
    # Independent oracle for the Gauss-Hermite path: adaptive quadrature.
    val, _ = quad(
        lambda x: f(x) * math.exp(-0.5 * (x / sd) ** 2) / (sd * math.sqrt(2 * math.pi)),
        -12 * sd,
        12 * sd,
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

    def test_bracket_without_sign_change_raises(self, monkeypatch):
        monkeypatch.setattr(nia.instances, "scaling_gradient", lambda c, p, nodes: 1.0 + c)
        with pytest.raises(QuadratureFailure, match="bracket"):
            optimal_scaling_factor(2)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8, 16, 64])
    def test_root_takes_few_gradient_evaluations(self, monkeypatch, p):
        calls = []

        def counted(c, p, nodes):
            calls.append(c)
            return scaling_gradient(c, p, nodes)

        monkeypatch.setattr(nia.instances, "scaling_gradient", counted)
        optimal_scaling_factor(p)
        assert len(calls) <= 15

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8, 16, 64])
    def test_root_matches_brent(self, p):
        # Brent's method to the same absolute width is the reference; the
        # package itself does not import scipy.optimize.
        reference = brentq(scaling_gradient, 0.0, 1.0, args=(p, DEFAULT_QUADRATURE_NODES), xtol=1e-12)
        assert abs(optimal_scaling_factor(p) - reference) <= 1e-12

    def test_linear_gradient_root(self, monkeypatch):
        monkeypatch.setattr(nia.instances, "scaling_gradient", lambda c, p, nodes: c - 0.25)
        assert abs(optimal_scaling_factor(2) - 0.25) <= 1e-15

    def test_verify_does_not_import_scipy_optimize(self):
        script = (
            "import sys\n"
            "import nia\n"
            "from nia.config import parse_config\n"
            "from nia.experiments import verify_experiment\n"
            "nia.optimal_scaling_factor(4)\n"
            "verify = {'seed': 1, 'k': 3, 'depth': 4, 'n_protocol': 2000, 'n_decomposition': 2000,\n"
            "          'pinsker_trials': 500, 'noise_samples': 20000}\n"
            "assert verify_experiment(parse_config({'verify': verify}))['all_passed']\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_sigmoid_moment_increasing(self):
        grid = [0.5, 1.0, 1.5, 2.0, 3.0]
        values = [sigmoid_moment(u) for u in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_sigmoid_moment_against_adaptive_quadrature(self):
        for u in (0.5, 1.0, 2.0):
            oracle = _quad_expectation(lambda x: x * sigmoid(x), u)
            assert sigmoid_moment(u) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("nodes", [20, 200])
    def test_cached_nodes_match_fresh_sum_and_are_read_only(self, nodes):
        def f(x):
            return x * sigmoid(0.7 * x)

        t, w = np.polynomial.hermite.hermgauss(nodes)
        fresh = float(np.sum(w * f(np.sqrt(2.0) * 1.3 * t)) / np.sqrt(np.pi))
        for _ in range(2):  # the first call fills the cache, the second reads it
            assert gauss_hermite_expectation(f, sd=1.3, nodes=nodes) == fresh
        cached_t, cached_w = _hermite_nodes(nodes)
        assert not cached_t.flags.writeable and not cached_w.flags.writeable
        with pytest.raises(ValueError):
            cached_w[0] = 0.0


def _full_array_noise_check(c, v_small, v_large, n_mc, seed):
    """Reference: the whole-array algorithm, (Z, xi) drawn as two full
    arrays and each mean and standard deviation taken over all samples."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    z_lat = standard_normals(rng, n_mc)
    xi = standard_normals(rng, n_mc)
    sig = sigmoid(z_lat)

    def conditional_loss(z):
        return -sig * z + stable_softplus(z)

    small = conditional_loss(c * z_lat + np.sqrt(v_small) * xi)
    large = conditional_loss(c * z_lat + np.sqrt(v_large) * xi)
    return (
        float(np.mean(small)),
        float(np.mean(large)),
        float(np.std(large - small, ddof=1) / np.sqrt(n_mc)),
    )


class TestNoiseMonotonicity:
    @pytest.mark.parametrize("n_mc", [2, 3, 65537, 200003])
    def test_blocks_match_full_arrays(self, n_mc):
        pairs = [*NOISE_VARIANCE_PAIRS, (0.25, 1.0)]
        for (v_small, v_large), cmp in zip(pairs, noise_monotonicity_check(0.8, pairs, n_mc, 4)):
            small, large, se = _full_array_noise_check(0.8, v_small, v_large, n_mc, 4)
            assert cmp.loss_small == pytest.approx(small, rel=1e-14, abs=0)
            assert cmp.loss_large == pytest.approx(large, rel=1e-14, abs=0)
            assert cmp.std_error == pytest.approx(se, rel=1e-12, abs=0)

    def test_equal_variances_exact_across_blocks(self):
        pairs = [(0.5, 0.5), (0.0, 0.5), (1.0, 1.0)]
        same, rising, top = noise_monotonicity_check(0.8, pairs, 70_000, seed=5)
        assert same.loss_small == same.loss_large == rising.loss_large
        assert top.loss_small == top.loss_large
        assert same.std_error == 0.0 and top.std_error == 0.0
        assert rising.std_error > 0.0

    @pytest.mark.parametrize("pairs", [[], [(0.0, 0.5), (1.0, 0.5)], [(-0.5, 0.5)]])
    def test_empty_or_decreasing_pairs_rejected(self, pairs):
        with pytest.raises(InvalidDimension):
            noise_monotonicity_check(0.8, pairs, 100, seed=0)

    def test_memory_does_not_grow_with_samples(self):
        tracemalloc.start()
        try:
            noise_monotonicity_check(0.8, NOISE_VARIANCE_PAIRS, 1_000_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A whole-array run holds several 8 MB arrays at once.
        assert peak < 8_000_000

    def test_equal_variances_equal_losses(self):
        cmp = noise_monotonicity_check(1.0, [(0.5, 0.5)], 10_000, seed=1)[0]
        assert cmp.loss_small == cmp.loss_large
        assert cmp.std_error == 0.0

    def test_noise_increases_loss(self):
        cmp = noise_monotonicity_check(0.8, [(0.25, 1.0)], 200_000, seed=2)[0]
        assert cmp.loss_small < cmp.loss_large
        assert cmp.margin_se > 3.0

    def test_zero_noise_unit_scale_recovers_bayes_loss(self):
        cmp = noise_monotonicity_check(1.0, [(0.0, 1.0)], 1_000_000, seed=3)[0]
        bayes = _quad_expectation(
            lambda z: -sigmoid(z) * z + math.log1p(math.exp(-abs(z))) + max(z, 0.0), 1.0
        )
        # Monte Carlo estimate at n=1e6: standard error about 4e-4.
        assert cmp.loss_small == pytest.approx(bayes, abs=2e-3)

    def test_invalid_variances_rejected(self):
        with pytest.raises(InvalidDimension):
            noise_monotonicity_check(1.0, [(1.0, 0.5)], 100, seed=0)[0]

    @pytest.mark.parametrize("c", [float("nan"), float("inf")])
    def test_non_finite_scale_rejected(self, c):
        with pytest.raises(InvalidDimension, match="finite"):
            noise_monotonicity_check(c, [(0.5, 1.0)], 100, seed=0)[0]


class TestPredictedExcessCurve:
    def test_first_pass_value(self):
        assert predicted_excess_curve(4, [1])[0] == pytest.approx(0.5, rel=1e-15)

    def test_shape_ratio(self):
        curve = predicted_excess_curve(4, [2, 5])
        assert curve[0] / curve[1] == pytest.approx(2.0, rel=1e-15)

    def test_invalid_passes_rejected(self):
        with pytest.raises(InvalidDimension):
            predicted_excess_curve(4, [0])
        with pytest.raises(InvalidDimension):
            predicted_excess_curve(4, [])
