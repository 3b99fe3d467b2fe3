"""KL machinery, loss decomposition, bound calculators, stable block."""

import math
import struct

import numpy as np
import pytest
from scipy.special import rel_entr

from nia import (
    DomainError,
    FitOptions,
    HardInstanceSpec,
    InvalidDimension,
    LengthMismatch,
    bce_loss,
    bernoulli_kl_pointwise,
    convergence_bound_rhs,
    cyclic_path_assignment,
    expected_kl_from_logits,
    feature_second_moment_bound,
    fit_logistic,
    generate_hard_instance,
    residual_bound_rhs,
    run_protocol,
    sigmoid,
    stable_block,
    verify_decomposition,
)
from nia.config import parse_config
from nia.experiments import run_experiment
from nia.metrics import _rel_entr


def _kl(p, q) -> float:
    return float(bernoulli_kl_pointwise([p], [q])[0])


def _pinsker_gap(p, q) -> np.ndarray:
    # The pointwise quantity the pinsker verify suite bounds below by 0.
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    return bernoulli_kl_pointwise(p, q) - 2.0 * (p - q) ** 2


class TestRelEntr:
    # scipy.special.rel_entr, which the package called before, is the oracle.
    HALF_IN, HALF_OUT = np.nextafter(0.6, 0.0), np.nextafter(0.6, 1.0)

    @pytest.mark.parametrize(
        "x,y",
        [
            (0.0, 0.0), (0.0, 0.4), (0.4, 0.0), (-0.1, 0.4), (0.4, -0.1),
            (0.5, 0.5), (0.3, 0.8), (0.9, 0.2),
            # x / y just inside (0.5, 2): log1p; on and just outside: log.
            (0.3, HALF_IN), (0.3, 0.6), (0.3, HALF_OUT),
            (HALF_IN, 0.3), (0.6, 0.3), (HALF_OUT, 0.3),
            # x / y underflows below the smallest normal or overflows: log x - log y.
            (1e-300, 1e10), (5e-324, 0.5), (1e300, 1e-10), (1.0, 5e-324),
            (math.nan, 0.5), (0.5, math.nan), (0.0, math.nan),
        ],
    )
    def test_matches_scipy_bitwise(self, x, y):
        got, want = _rel_entr(x, y), float(rel_entr(x, y))
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert struct.pack("<d", got) == struct.pack("<d", want)

    def test_kl_columns_match_scipy_bitwise(self):
        rng = np.random.default_rng(8)
        p, q = rng.random(20_000), rng.random(20_000)
        p[:100], q[100:200] = 0.0, 1.0
        want = rel_entr(p, q) + rel_entr(1.0 - p, 1.0 - q)
        assert np.array_equal(bernoulli_kl_pointwise(p, q).view(np.int64), want.view(np.int64))


class TestBernoulliKl:
    def test_equal_arguments_give_zero(self):
        assert _kl(0.5, 0.5) == 0.0

    def test_direct_evaluation(self):
        # Oracle: the definition evaluated term by term.
        expected = 0.8 * math.log(0.8 / 0.5) + 0.2 * math.log(0.2 / 0.5)
        assert _kl(0.8, 0.5) == pytest.approx(expected, rel=1e-14)
        assert _kl(0.8, 0.5) == pytest.approx(0.19274, abs=1e-5)

    def test_zero_log_zero_convention(self):
        assert _kl(0.0, 0.5) == pytest.approx(math.log(2.0), rel=1e-15)
        assert _kl(1.0, 0.5) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_degenerate_q_gives_infinity_only_when_forced(self):
        kl = bernoulli_kl_pointwise([0.0, 1.0, 0.5, 0.5], [0.0, 1.0, 0.0, 1.0])
        assert kl.tolist() == [0.0, 0.0, math.inf, math.inf]

    @pytest.mark.parametrize("p,q", [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.1)])
    def test_out_of_range_rejected(self, p, q):
        with pytest.raises(DomainError):
            bernoulli_kl_pointwise([0.5, p], [0.5, q])

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(1)
        assert np.all(bernoulli_kl_pointwise(rng.random(200), rng.random(200)) >= 0.0)


class TestExpectedKl:
    def test_identical_columns(self):
        z = np.array([-1.4, 0.0, 2.2])
        assert expected_kl_from_logits(z, z) == 0.0

    def test_mean_of_pointwise_values(self):
        logit = lambda p: math.log(p / (1.0 - p))
        expected = 0.5 * (_kl(0.8, 0.5) + _kl(0.2, 0.5))
        value = expected_kl_from_logits([logit(0.8), logit(0.2)], [0.0, 0.0])
        assert value == pytest.approx(expected, rel=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            bernoulli_kl_pointwise([0.5], [0.5, 0.5])
        with pytest.raises(LengthMismatch):
            expected_kl_from_logits([0.5], [0.5, 0.5])

    def test_logit_form_matches_probability_form(self):
        rng = np.random.default_rng(2)
        za = rng.normal(scale=3.0, size=500)
        zb = rng.normal(scale=3.0, size=500)
        direct = float(np.mean(bernoulli_kl_pointwise(sigmoid(za), sigmoid(zb))))
        stable = expected_kl_from_logits(za, zb)
        assert stable == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_logit_form_stable_at_extreme_logits(self):
        v = expected_kl_from_logits([300.0, -300.0], [-300.0, 300.0])
        assert np.isfinite(v) and v > 100.0


class TestPinskerGap:
    def test_zero_at_equality(self):
        assert np.array_equal(_pinsker_gap([0.3, 0.7], [0.3, 0.7]), [0.0, 0.0])

    def test_single_pair_value(self):
        gap = float(_pinsker_gap([0.8], [0.5])[0])
        assert gap == pytest.approx(_kl(0.8, 0.5) - 2 * 0.09, rel=1e-12)
        assert gap > 0

    def test_nonnegative_over_random_pairs(self):
        rng = np.random.default_rng(3)
        p = rng.random(8000) + 2.0 ** -54
        q = rng.random(8000) + 2.0 ** -54
        assert float(np.min(_pinsker_gap(p, q))) >= -1e-12


@pytest.fixture(scope="module")
def fitted_instance():
    ds = generate_hard_instance(HardInstanceSpec(k=4, n=100_000, seed=7))
    fit = fit_logistic(ds.features, ds.labels, FitOptions(grad_tol=1e-12))
    assert fit.converged
    return ds, fit


class TestVerifyDecomposition:
    def test_identical_predictor_gives_exact_zero(self, fitted_instance):
        ds, fit = fitted_instance
        star = ds.features @ fit.weights
        assert verify_decomposition(ds.labels, star, [star]) == 0.0

    def test_zero_predictor_residual_small(self, fitted_instance):
        ds, fit = fitted_instance
        star = ds.features @ fit.weights
        zero = np.zeros(ds.n)
        assert verify_decomposition(ds.labels, star, [zero]) <= 1e-8

    def test_perturbed_coordinate(self, fitted_instance):
        ds, fit = fitted_instance
        star = ds.features @ fit.weights
        theta_q = fit.weights.copy()
        theta_q[0] += 0.1
        zq = ds.features @ theta_q
        assert verify_decomposition(ds.labels, star, [zq]) <= 1e-8
        assert bce_loss(zq, ds.labels) > bce_loss(star, ds.labels)

    def test_residual_scales_with_gradient_tolerance(self):
        ds = generate_hard_instance(HardInstanceSpec(k=4, n=20_000, seed=11))
        residuals = {}
        for tol in (1e-6, 1e-12):
            fit = fit_logistic(ds.features, ds.labels, FitOptions(grad_tol=tol))
            star = ds.features @ fit.weights
            rng = np.random.default_rng(0)
            worst = 0.0
            for _ in range(10):
                zq = ds.features @ (fit.weights + rng.uniform(-0.1, 0.1, 4))
                worst = max(worst, verify_decomposition(ds.labels, star, [zq]))
            residuals[tol] = worst
        assert residuals[1e-6] >= 1e3 * residuals[1e-12]

    def test_many_comparators_bitwise_worst_single_residual(self, fitted_instance):
        ds, fit = fitted_instance
        star = ds.features @ fit.weights
        rng = np.random.default_rng(3)
        qs = [ds.features @ (fit.weights + rng.uniform(-0.1, 0.1, 4)) for _ in range(5)]
        qs.append(np.zeros(ds.n))
        ls = bce_loss(star, ds.labels)
        expected = max(
            abs(bce_loss(q, ds.labels) - ls - expected_kl_from_logits(star, q)) for q in qs
        )
        assert verify_decomposition(ds.labels, star, iter(qs)) == expected
        assert verify_decomposition(ds.labels, star, []) == 0.0

    def test_later_comparator_of_wrong_length(self, fitted_instance):
        ds, fit = fitted_instance
        star = ds.features @ fit.weights
        with pytest.raises(LengthMismatch):
            verify_decomposition(ds.labels, star, [star, star[:-1]])
        with pytest.raises(LengthMismatch):
            verify_decomposition(ds.labels, star[:-1], [star])


class TestBoundFormulas:
    def test_residual_bound_zero_drop(self):
        assert residual_bound_rhs(2.0, 3.0, 5, 0.0) == 0.0

    def test_residual_bound_unit_case(self):
        assert residual_bound_rhs(1.0, 1.0, 2, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_residual_bound_rejects_negative(self):
        with pytest.raises(InvalidDimension):
            residual_bound_rhs(-1.0, 1.0, 2, 1.0)

    def test_measured_lhs_below_bound_on_covered_path(self):
        # Oracle: run the protocol and measure both sides directly.
        ds = generate_hard_instance(HardInstanceSpec(k=3, n=20_000, seed=5))
        graph = cyclic_path_assignment(3, 3)
        opts = FitOptions()
        columns = {}
        trace = run_protocol(ds, graph, opts, publish=columns.__setitem__)
        gfit = fit_logistic(ds.features, ds.labels, opts)
        losses = trace.loss_path()
        epsilon = float(losses[0] - losses[-1])
        z_g = ds.features @ gfit.weights
        p_sink = sigmoid(columns[trace.sink_id])
        lhs = abs(float(np.mean((p_sink - ds.labels) * z_g)))
        b_x = feature_second_moment_bound(ds.features)
        rhs = residual_bound_rhs(gfit.l1_norm, b_x, 3, epsilon)
        assert lhs <= rhs

    def test_convergence_bound_formula(self):
        assert convergence_bound_rhs(2.0, 1.5, 3, 9) == pytest.approx(3.0, rel=1e-15)

    def test_convergence_bound_scaling_in_depth(self):
        a = convergence_bound_rhs(1.0, 1.0, 4, 16)
        b = convergence_bound_rhs(1.0, 1.0, 4, 32)
        assert b == pytest.approx(a / math.sqrt(2.0), rel=1e-12)

    def test_convergence_bound_rejects_depth_below_window(self):
        with pytest.raises(InvalidDimension):
            convergence_bound_rhs(1.0, 1.0, 8, 4)

    def test_theory_report_consistency(self):
        config = parse_config({
            "instance": {"kind": "hard", "k": 3, "n": 2000, "seeds": [4]},
            "graph": {"cyclic_depth": 12},
        })
        _, report = run_experiment(config)
        theory = report["theory"]
        assert set(theory) == {
            "b_x", "b_g", "m", "depth", "epsilon",
            "rhs_residual_bound", "rhs_convergence_bound",
        }
        assert (theory["m"], theory["depth"]) == (3, 12)
        b_x, b_g = theory["b_x"], theory["b_g"]
        assert theory["epsilon"] == max(report["stable_block"]["drop"], 0.0)
        assert theory["rhs_residual_bound"] == residual_bound_rhs(b_g, b_x, 3, theory["epsilon"])
        assert theory["rhs_convergence_bound"] == convergence_bound_rhs(b_g, b_x, 3, 12)


class TestStableBlock:
    def test_constant_losses(self):
        assert stable_block([0.5, 0.5, 0.5, 0.5], 2) == (1, 0.0)

    def test_all_drop_in_first_block(self):
        idx, drop = stable_block([0.69, 0.5, 0.5, 0.5], 2)
        assert idx == 2
        assert drop == 0.0

    def test_window_larger_than_path_rejected(self):
        with pytest.raises(InvalidDimension):
            stable_block([0.5], 2)

    def test_pigeonhole_bound_on_protocol_trace(self):
        ds = generate_hard_instance(HardInstanceSpec(k=3, n=10_000, seed=2))
        trace = run_protocol(ds, cyclic_path_assignment(3, 12))
        losses = trace.loss_path()
        blocks = len(losses) // 3
        idx, drop = stable_block(losses, 3)
        assert 1 <= idx <= blocks
        assert drop <= losses[0] / blocks + 1e-9
        assert drop * blocks <= float(losses[0] - losses[-1]) + 1e-9

    def test_random_traces_respect_pigeonhole(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            depth = int(rng.integers(4, 30))
            m = int(rng.integers(1, depth + 1))
            drops = rng.random(depth - 1) * 0.05
            losses = math.log(2.0) - np.concatenate([[0.0], np.cumsum(drops)])
            idx, drop = stable_block(losses, m)
            blocks = depth // m
            assert drop <= losses[0] / blocks + 1e-12
