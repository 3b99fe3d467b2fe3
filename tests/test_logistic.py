"""Stable BCE primitives and the damped-Newton fitter."""

import math
import tracemalloc

import numpy as np
import pytest

from nia import (
    Design,
    DimensionMismatch,
    FitOptions,
    HardInstanceSpec,
    LengthMismatch,
    NiaError,
    NonFinite,
    agent_design,
    bce_loss,
    cyclic_path_assignment,
    fit_logistic,
    generate_hard_instance,
    residual_moments,
    run_protocol,
    sigmoid,
    stable_softplus,
)
import nia.data
import nia.logistic
from nia.logistic import SEPARABLE, FitCarry

LOG2 = math.log(2.0)


def _fit_block_rows(width):
    # A fit's rows per block: the budget's rows for the design row and four
    # more values, rounded down to a power of two and at least one chunk.
    return max(nia.logistic._CHUNK, 1 << (nia.data.block_rows(width + 4).bit_length() - 1))


def _reference_sigmoid(z):
    # The masked two-branch form the generator's labels were first drawn with.
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


def _reference_softplus(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    return out if out.ndim else float(out)


def _pin_grid():
    special = [0.0, 700.0, 745.0, 746.0, 1e8, 1e-300, 5e-324, 1.0, 36.7]
    rng = np.random.default_rng(31)
    scales = np.geomspace(0.1, 300.0, 100_000)
    return np.concatenate([special, [-v for v in special], rng.normal(size=scales.size) * scales])


class TestBitwisePin:
    """sigmoid and stable_softplus are pinned bit for bit to their reference
    forms: generated labels, and so dataset bytes, depend on sigmoid."""

    @pytest.mark.parametrize(
        "public, reference",
        [(sigmoid, _reference_sigmoid), (stable_softplus, _reference_softplus)],
    )
    def test_arrays_equal_reference(self, public, reference):
        z = _pin_grid()
        got, want = public(z), reference(z)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize(
        "public, reference",
        [(sigmoid, _reference_sigmoid), (stable_softplus, _reference_softplus)],
    )
    def test_scalars_equal_reference(self, public, reference):
        for z in _pin_grid()[:18]:
            got = public(float(z))
            assert type(got) is float
            assert got == reference(float(z))

    def test_negative_zero(self):
        assert sigmoid(-0.0) == 0.5
        assert stable_softplus(-0.0) == LOG2


class TestStableSoftplus:
    def test_at_zero(self):
        assert stable_softplus(0.0) == pytest.approx(LOG2, rel=1e-15)

    def test_large_positive_asymptote(self):
        assert abs(stable_softplus(1000.0) - 1000.0) <= 1e-12

    def test_large_negative_asymptote(self):
        v = stable_softplus(-1000.0)
        assert 0.0 <= v <= 1e-300

    def test_no_overflow_at_extreme_magnitudes(self):
        assert np.isfinite(stable_softplus(1e8))
        assert np.isfinite(stable_softplus(-1e8))

    @pytest.mark.parametrize("z", [-1e6, -50.0, -1.0, 0.0, 1.0, 50.0, 1e6])
    def test_difference_identity(self, z):
        lhs = stable_softplus(z) - stable_softplus(-z)
        assert lhs == pytest.approx(z, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("z", [-1e6, -50.0, -1.0, 0.0, 1.0, 50.0, 1e6])
    def test_sigmoid_complement_identity(self, z):
        assert sigmoid(z) + sigmoid(-z) == pytest.approx(1.0, rel=1e-12)


class TestBceLoss:
    def test_zero_logits_give_log_two(self):
        rng = np.random.default_rng(0)
        labels = (rng.random(100) < 0.5).astype(float)
        assert bce_loss(np.zeros(100), labels) == pytest.approx(LOG2, rel=1e-15)

    def test_confident_correct_prediction(self):
        assert bce_loss([40.0], [1.0]) <= 1e-17

    def test_symmetry_at_zero(self):
        assert bce_loss([0.0, 0.0], [0.0, 1.0]) == pytest.approx(LOG2, rel=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            bce_loss([0.0, 1.0], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(LengthMismatch):
            bce_loss([], [])

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = rng.normal(scale=5.0, size=20)
            y = (rng.random(20) < 0.5).astype(float)
            assert bce_loss(z, y) >= 0.0

    def test_chunked_mean_of_a_million_rows_matches_fsum(self):
        # Several row blocks and a short last chunk.
        rng = np.random.default_rng(59)
        n = 1_000_000
        z = rng.normal(scale=3.0, size=n)
        y = (rng.random(n) < sigmoid(z)).astype(float)
        rows = _reference_softplus(z) - y * z
        assert bce_loss(z, y) == pytest.approx(math.fsum(rows) / n, rel=1e-15, abs=0)

    def test_chunk_sums_are_each_chunks_reduce(self):
        # Blocks of two and three chunks, then a short last chunk.
        chunk = nia.logistic._CHUNK
        rows = np.random.default_rng(61).normal(size=5 * chunk + 7)
        total = nia.logistic._ChunkedMean(len(rows))
        for start, stop in ((0, 2 * chunk), (2 * chunk, len(rows))):
            total.add(rows[start:stop], start)
        want = [np.add.reduce(rows[i : i + chunk]) for i in range(0, len(rows), chunk)]
        assert total.sums.tobytes() == np.array(want).tobytes()
        assert total.mean() == float(np.add.reduce(np.array(want)) / len(rows))


def _numeric_gradient(design, labels, theta, step=1e-5):
    grad = np.zeros_like(theta)
    for j in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[j] += step
        dn[j] -= step
        grad[j] = (bce_loss(design @ up, labels) - bce_loss(design @ dn, labels)) / (2 * step)
    return grad


class TestGradient:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(5, 51))
            m = int(rng.integers(1, 6))
            design = rng.normal(size=(n, m))
            labels = (rng.random(n) < 0.5).astype(float)
            theta = rng.normal(scale=0.5, size=m)
            analytic = residual_moments(design, design @ theta, labels)
            numeric = _numeric_gradient(design, labels, theta)
            scale = max(1.0, float(np.max(np.abs(numeric))))
            assert np.max(np.abs(analytic - numeric)) / scale <= 1e-6


class TestFitOptions:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"grad_tol": 0.0}, "grad_tol must be positive and finite"),
            ({"grad_tol": float("inf")}, "grad_tol must be positive and finite"),
            ({"grad_tol": float("nan")}, "grad_tol must be positive and finite"),
            ({"max_iters": 0}, "max_iters must be >= 1"),
        ],
    )
    def test_bad_termination_raises_nia_error(self, kwargs, message):
        with pytest.raises(NiaError, match=message):
            FitOptions(**kwargs)


class TestFitLogistic:
    def test_zero_column_converges_at_baseline(self):
        labels = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        fit = fit_logistic(np.zeros((5, 1)), labels)
        assert fit.converged
        assert fit.weights.shape == (1,)
        assert fit.weights[0] == 0.0
        assert fit.loss == pytest.approx(LOG2, rel=1e-15)

    def test_empty_design_predicts_prior(self):
        labels = np.array([0.0, 1.0, 1.0])
        fit = fit_logistic(np.empty((3, 0)), labels)
        assert fit.converged
        assert fit.weights.shape == (0,)
        assert fit.grad_norm == 0.0
        assert fit.loss == pytest.approx(LOG2, rel=1e-15)

    def test_agrees_with_independent_optimizer(self):
        # Oracle: scipy L-BFGS-B on an independently written objective.
        from scipy.optimize import minimize

        rng = np.random.default_rng(5)
        n, m = 2000, 3
        design = rng.normal(size=(n, m))
        signal = design @ np.array([1.0, -0.5, 0.25])
        labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-signal))).astype(float)

        def naive_bce(theta):
            z = design @ theta
            return float(np.mean(np.logaddexp(0.0, z) - labels * z))

        ref = minimize(naive_bce, np.zeros(m), method="L-BFGS-B", tol=1e-14)
        fit = fit_logistic(design, labels)
        assert fit.converged
        assert fit.grad_norm <= 1e-10
        assert np.max(np.abs(fit.weights - ref.x)) <= 1e-5

    def test_balanced_sign_column(self):
        # The column 2y - 1 separates the labels, so the fit stops at the
        # loss floor instead of running its weight off to infinity.
        labels = np.tile([0.0, 1.0], 500)
        col = 2.0 * labels - 1.0
        fit = fit_logistic(col[:, None], labels)
        assert not fit.converged
        assert fit.message == SEPARABLE
        assert fit.loss * labels.size < LOG2
        assert fit.weights[0] > 0

    def test_recovers_generator_parameter(self):
        # The generating process uses unit weight on every feature column.
        ds = generate_hard_instance(HardInstanceSpec(k=4, n=200_000, seed=3))
        fit = fit_logistic(ds.features, ds.labels)
        assert fit.converged
        assert np.max(np.abs(fit.weights - 1.0)) <= 0.05

    def test_loss_never_exceeds_baseline(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n, m = 200, int(rng.integers(1, 4))
            design = rng.normal(size=(n, m))
            labels = (rng.random(n) < 0.5).astype(float)
            fit = fit_logistic(design, labels)
            assert fit.loss <= LOG2 + 1e-12

    def test_adding_column_never_hurts(self):
        rng = np.random.default_rng(13)
        n = 5000
        design = rng.normal(size=(n, 3))
        labels = (rng.random(n) < sigmoid(design[:, 0])).astype(float)
        opts = FitOptions()
        small = fit_logistic(design[:, :1], labels, opts)
        grown = fit_logistic(design[:, :2], labels, opts)
        full = fit_logistic(design, labels, opts)
        slack = 10 * opts.grad_tol
        assert grown.loss <= small.loss + slack
        assert full.loss <= grown.loss + slack

    def test_separable_data_never_crashes(self):
        # The gradient would die on its way to infinite weights; the loss
        # floor stops the fit first and reports it unconverged.
        design = np.array([[1.0], [2.0], [-1.0], [-2.0]])
        labels = np.array([1.0, 1.0, 0.0, 0.0])
        fit = fit_logistic(design, labels, FitOptions(max_iters=200))
        assert not fit.converged
        assert fit.message == SEPARABLE
        assert fit.loss * 4 < LOG2

    def test_separable_verdict_does_not_depend_on_scale(self):
        labels = np.array([1.0, 1.0, 0.0, 0.0])
        for scale in (1.0, 1e-3, 1e-6):
            design = scale * np.array([[1.0], [2.0], [-1.0], [-2.0]])
            fit = fit_logistic(design, labels, FitOptions(max_iters=500))
            assert not fit.converged
            assert fit.message == SEPARABLE
            assert fit.loss * 4 < LOG2

    def test_start_below_the_floor_stops_at_once(self):
        # A child started at pass-through of a parent that separates the
        # labels stops before its first step.
        labels = np.array([1.0, 1.0, 0.0, 0.0])
        parent = fit_logistic(np.array([[1.0], [2.0], [-1.0], [-2.0]]), labels)
        logits = np.array([[1.0], [2.0], [-1.0], [-2.0]]) @ parent.weights
        design = Design(np.array([[0.5], [-1.0], [2.0], [0.0]]), (0,), (logits,))
        fit = fit_logistic(design, labels, start=[0.0, 1.0])
        assert (fit.iterations, fit.converged, fit.message) == (0, False, SEPARABLE)
        assert fit.loss == parent.loss

    def test_small_features_are_not_separable(self):
        # Labels drawn from a logistic model on 2 normal columns are not
        # separable at n = 5000 at any scale of the design. The gradient
        # scales with the design, so a tolerance scaled with it stops every
        # fit at the same Newton iterate.
        rng = np.random.default_rng(3)
        n = 5000
        x = rng.normal(size=(n, 2))
        labels = (rng.random(n) < sigmoid(x @ np.array([1.5, -0.5]))).astype(float)
        scaled = []
        for scale in (1.0, 1e-4, 1e-6):
            assert fit_logistic(scale * x, labels).converged
            fit = fit_logistic(scale * x, labels, FitOptions(grad_tol=1e-10 * scale))
            assert fit.converged
            scaled.append(fit.weights * scale)
        assert np.max(np.abs(np.array(scaled) - scaled[0])) <= 1e-9

    def test_one_row_at_the_baseline_is_not_separable(self):
        # A single row at logit 0 sits on the boundary: its loss is exactly
        # log 2, which the separability floor does not flag.
        fit = fit_logistic(np.empty((1, 0)), np.array([1.0]))
        assert fit.converged
        assert fit.loss == LOG2

    def test_separable_exactly_when_the_logits_separate(self):
        # The loss floor certifies what the returned logits show: it fires
        # exactly when they put every label strictly on its own side, and
        # every other fit converges.
        flagged = 0
        for k in (2, 4):
            for n in range(1, 41):
                for seed in range(1, 11):
                    ds = generate_hard_instance(HardInstanceSpec(k=k, n=n, seed=seed))
                    fit = fit_logistic(ds.features, ds.labels)
                    margins = (2.0 * ds.labels - 1.0) * (ds.features @ fit.weights)
                    separated = bool(np.all(margins > 0.0))
                    assert (fit.message == SEPARABLE) == separated, (k, n, seed)
                    assert separated or fit.converged, (k, n, seed)
                    flagged += separated
        assert 0 < flagged < 800

    def test_intercept_flag(self):
        # There is no intercept option: a bias is the weight of a ones column.
        rng = np.random.default_rng(21)
        n = 4000
        x = rng.normal(size=(n, 1))
        labels = (rng.random(n) < sigmoid(x[:, 0] + 0.7)).astype(float)
        fit = fit_logistic(np.column_stack([x, np.ones(n)]), labels)
        assert fit.converged
        assert fit.weights.shape == (2,)
        assert fit.weights[-1] == pytest.approx(0.7, abs=0.15)

    def test_duplicated_column_splits_weight_evenly(self):
        # Two copies of one column make the Hessian singular. The minimum-norm
        # Newton step never moves along the null direction (1, -1), so the
        # fit splits the one-column weight evenly.
        rng = np.random.default_rng(41)
        a = rng.normal(size=5000)
        labels = (rng.random(5000) < sigmoid(0.8 * a)).astype(float)
        one = fit_logistic(a[:, None], labels)
        two = fit_logistic(np.column_stack([a, a]), labels)
        assert one.converged and two.converged
        assert abs(two.weights[0] - two.weights[1]) <= 1e-12
        assert abs(two.weights.sum() - one.weights[0]) <= 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFinite):
            fit_logistic(np.array([[np.nan]]), np.array([1.0]))

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        design = rng.normal(size=(500, 2))
        labels = (rng.random(500) < 0.5).astype(float)
        a = fit_logistic(design, labels)
        b = fit_logistic(design, labels)
        assert np.array_equal(a.weights, b.weights)
        assert a.loss == b.loss

    def test_global_fit_allocates_less_than_the_features(self):
        # A transposed copy of a C-ordered design alone would take as much.
        rng = np.random.default_rng(41)
        features = rng.normal(size=(100_000, 8))
        labels = (rng.random(100_000) < sigmoid(features @ np.linspace(-1.0, 1.0, 8))).astype(float)
        tracemalloc.start()
        try:
            fit = fit_logistic(features, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.converged and fit.iterations > 0
        assert peak < features.nbytes, peak

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_wide_design_row_blocks_match_one_block(self, monkeypatch, order):
        # n leaves a short last block.
        rng = np.random.default_rng(47)
        n = 3 * _fit_block_rows(6) + 101
        design = np.asarray(rng.normal(size=(n, 6)), order=order)
        labels = (rng.random(n) < sigmoid(design @ np.linspace(-0.6, 0.6, 6))).astype(float)
        blocked = fit_logistic(design, labels)
        monkeypatch.setattr(nia.data, "BLOCK_BYTES", 8 * (6 + 4) * 2 * n)
        assert _fit_block_rows(6) >= n
        one_block = fit_logistic(design, labels)
        assert blocked.converged and one_block.converged
        assert np.allclose(blocked.weights, one_block.weights, rtol=0, atol=1e-9)
        assert blocked.loss == bce_loss(design @ blocked.weights, labels)


class TestDesign:
    def test_fit_matches_fit_on_its_matrix(self):
        # Two feature columns of a C-ordered matrix, out of order, then an
        # extra column; n leaves a short last block.
        rng = np.random.default_rng(53)
        n = 2 * _fit_block_rows(3) + 9
        features = rng.normal(size=(n, 4))
        extra = rng.normal(size=n)
        labels = (rng.random(n) < sigmoid(features[:, 1] - 0.5 * extra)).astype(float)
        design = Design(features, (3, 1), (extra,))
        matrix = np.asarray(design)
        assert matrix.flags.f_contiguous
        assert np.array_equal(matrix, np.column_stack([features[:, 3], features[:, 1], extra]))
        a, b = fit_logistic(design, labels), fit_logistic(matrix, labels)
        assert a.iterations > 0
        assert a.weights.tobytes() == b.weights.tobytes()
        assert (a.loss, a.grad_norm, a.iterations) == (b.loss, b.grad_norm, b.iterations)

    @pytest.mark.parametrize("width", range(1, 13))
    def test_fit_block_rows_are_pinned(self, monkeypatch, width):
        # 2^14 rows up to width 4 and 2^13 up to width 12: the blocked sums,
        # and so the bits, of every fit the protocol runs stay as they were.
        n = 2**14 + 1
        rows = []
        gather = Design.gather

        def recording(self, start, stop, out):
            rows.append(stop - start)
            return gather(self, start, stop, out)

        monkeypatch.setattr(Design, "gather", recording)
        fit_logistic(Design(np.zeros((n, width)), tuple(range(width))), np.zeros(n))
        want = 2**14 if width <= 4 else 2**13
        assert rows[0] == want == _fit_block_rows(width)
        assert sum(rows) == n

    def test_bad_shapes_rejected(self):
        features = np.zeros((5, 2))
        with pytest.raises(DimensionMismatch):
            Design(features, (2,))
        with pytest.raises(DimensionMismatch):
            Design(features, (0,), (np.zeros(4),))
        with pytest.raises(DimensionMismatch, match="2-D"):
            Design(np.zeros(5), (0,))

    def test_nonfinite_entry_in_last_block_rejected(self):
        n = _fit_block_rows(1) + 3
        features = np.zeros((n, 2))
        features[-1, 1] = np.inf
        with pytest.raises(NonFinite):
            fit_logistic(Design(features, (1,)), np.zeros(n))


class TestWarmStart:
    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(37)
        design = rng.normal(size=(3000, 3))
        labels = (rng.random(3000) < sigmoid(design @ np.array([0.8, -0.4, 0.2]))).astype(float)
        return design, labels

    def test_nonzero_start_reaches_zero_start_loss(self, problem):
        design, labels = problem
        cold = fit_logistic(design, labels)
        warm = fit_logistic(design, labels, start=[2.0, 1.0, -1.5])
        assert cold.converged and warm.converged
        assert abs(warm.loss - cold.loss) <= 1e-12

    def test_optimal_start_takes_no_iterations(self, problem):
        design, labels = problem
        cold = fit_logistic(design, labels)
        again = fit_logistic(design, labels, start=cold.weights)
        assert again.converged
        assert again.iterations == 0
        assert np.array_equal(again.weights, cold.weights)

    @pytest.mark.parametrize("start", [40.0, 36.5, -40.0])
    def test_saturated_start_converges(self, start):
        # A constant column under balanced labels has its optimum at weight 0.
        # At these starts the Hessian is 0 (above 36.5) or so small that the
        # Newton step is 1e15 or longer, and no backtracked length descends.
        fit = fit_logistic(np.ones((4, 1)), [0.0, 1.0, 1.0, 0.0], start=[start])
        assert fit.converged, fit.message
        assert abs(fit.weights[0]) <= 1e-9
        assert fit.loss == pytest.approx(LOG2, abs=1e-12)

    def test_loss_is_bce_of_final_logits(self, problem):
        # Every iterate's logits are the product design @ weights, so the
        # loss is bitwise that of the column a caller publishes, for a
        # C-ordered design, for an agent's design as the protocol fits it,
        # and for the column-major matrix that design builds.
        design, labels = problem
        assert design.flags.c_contiguous
        fit = fit_logistic(design, labels, start=[0.0, 0.0, 1.0])
        assert fit.iterations > 0
        assert fit.loss == bce_loss(design @ fit.weights, labels)

        ds = generate_hard_instance(HardInstanceSpec(k=3, n=5000, seed=5))
        graph = cyclic_path_assignment(3, 5)
        columns = {}
        run_protocol(ds, graph, publish=columns.__setitem__)
        for agent in (4, 5):
            by_reference = agent_design(ds, graph, agent, columns)
            design = np.asarray(by_reference)
            assert design.flags.f_contiguous and not design.flags.c_contiguous
            for d in (by_reference, design):
                fit = fit_logistic(d, ds.labels, start=[0.5, 0.5])
                assert fit.iterations > 0
                assert fit.loss == bce_loss(design @ fit.weights, ds.labels), agent

    @pytest.mark.parametrize(
        "n", [1, nia.logistic._CHUNK - 1, nia.logistic._CHUNK, nia.logistic._CHUNK + 1, None]
    )
    def test_loss_is_bce_at_chunk_and_block_edges(self, n):
        # None: three blocks and 101 rows, a short last block and chunk.
        n = n or 3 * _fit_block_rows(2) + 101
        rng = np.random.default_rng(67)
        design = rng.normal(size=(n, 2))
        labels = (rng.random(n) < sigmoid(design @ np.array([0.7, -0.3]))).astype(float)
        fit = fit_logistic(design, labels, start=[0.1, 0.1])
        assert fit.loss == bce_loss(design @ fit.weights, labels)

    @pytest.mark.parametrize("start", [[1.0], [1.0, 0.0, 0.0, 0.0]])
    def test_wrong_length_rejected(self, problem, start):
        design, labels = problem
        with pytest.raises(DimensionMismatch):
            fit_logistic(design, labels, start=start)

    def test_nonfinite_start_rejected(self, problem):
        design, labels = problem
        with pytest.raises(NonFinite):
            fit_logistic(design, labels, start=[0.0, np.inf, 0.0])


def _assert_same_fit(a, b):
    assert a.weights.tobytes() == b.weights.tobytes()
    fields = ("loss", "grad_norm", "iterations", "converged")
    assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]


class TestFitCarry:
    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(43)
        design = rng.normal(size=(3000, 3))
        labels = (rng.random(3000) < sigmoid(design @ np.array([0.8, -0.4, 0.2]))).astype(float)
        return design, labels

    @pytest.mark.parametrize("case", ["labels_differ", "start_differs"])
    def test_not_reused_unless_logits_and_labels_match(self, problem, case):
        # The carry is left at the logits of a zero-iteration fit's start, and
        # the next fit starts at its own optimum, so it reports the loss it
        # starts from: a reused carried loss would be another problem's.
        design, labels = problem
        other = 1.0 - labels if case == "labels_differ" else labels
        optimum = fit_logistic(design, other).weights
        carry = FitCarry()
        first_start = optimum if case == "labels_differ" else np.zeros(3)
        fit_logistic(design, labels, FitOptions(grad_tol=1e3), first_start, carry)
        assert np.array_equal(carry.logits, design @ first_start)
        fit = fit_logistic(design, other, start=optimum, carry=carry)
        assert fit.iterations == 0
        assert fit.loss == bce_loss(design @ optimum, other)
        _assert_same_fit(fit, fit_logistic(design, other, start=optimum))

    def test_reused_state_gives_the_same_fit(self, problem, monkeypatch):
        # The second fit starts at pass-through of the column the first fit
        # published, held as the extra column of its Design, so it takes the
        # carried loss: its start pass forms no loss rows (one block of rows).
        design, labels = problem
        carry = FitCarry()
        fit_logistic(Design(design, (0, 1)), labels, carry=carry)
        extended = Design(design, (0, 1, 2), (carry.logits,))
        start = [0.0, 0.0, 0.0, 1.0]
        softplus_passes = []
        softplus = nia.logistic._softplus_exp

        def counting(*args):
            softplus_passes.append(None)
            return softplus(*args)

        monkeypatch.setattr(nia.logistic, "_softplus_exp", counting)
        fit = fit_logistic(extended, labels, start=start, carry=carry)
        reused = len(softplus_passes)
        assert fit.iterations > 0
        _assert_same_fit(fit, fit_logistic(extended, labels, start=start))
        assert reused == len(softplus_passes) - reused - 1
        assert carry.logits.tobytes() == (np.asarray(extended) @ fit.weights).tobytes()

    def test_fit_given_a_carry_allocates_one_row_array(self):
        # The new logits are the fit's one row array: the carried sigmoid
        # array is written over, and the loss rows are summed per block.
        n = 200_000
        rng = np.random.default_rng(71)
        features = np.asfortranarray(rng.normal(size=(n, 2)))
        labels = (rng.random(n) < sigmoid(features @ np.array([0.6, 0.4]))).astype(float)
        carry = FitCarry()
        fit_logistic(Design(features, (0,)), labels, carry=carry)
        design = Design(features, (1,), (carry.logits,))
        blocks = 8 * (2 * 2 + 2) * _fit_block_rows(2) + 8 * -(-n // nia.logistic._CHUNK)
        tracemalloc.start()
        try:
            fit = fit_logistic(design, labels, start=[0.0, 1.0], carry=carry)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.converged and fit.iterations > 0
        assert peak <= 8 * n + blocks + (128 << 10), peak

    def test_carry_from_another_row_count_is_not_written_over(self, problem):
        design, labels = problem
        carry = FitCarry()
        fit_logistic(design[:1000], labels[:1000], carry=carry)
        left = carry.sigmoid
        fit = fit_logistic(design, labels, carry=carry)
        _assert_same_fit(fit, fit_logistic(design, labels))
        assert carry.sigmoid is not left and carry.sigmoid.shape == (3000,)

    def test_stalled_line_search_leaves_its_final_state(self, problem, monkeypatch):
        # No step can meet this Armijo constant, so the first line search
        # stalls after writing rejected candidates over the logits and
        # sigmoid; the fit evaluates its final point again.
        design, labels = problem
        monkeypatch.setattr(nia.logistic, "_ARMIJO_C1", 1e6)
        carry = FitCarry()
        start = [0.5, -0.2, 0.1]
        by_reference = Design(design, (0, 1, 2))
        fit = fit_logistic(by_reference, labels, start=start, carry=carry)
        assert fit.message.startswith("line search stalled")
        assert fit.weights.tobytes() == np.array(start).tobytes()
        assert carry.logits.tobytes() == (np.asarray(by_reference) @ fit.weights).tobytes()
        assert carry.sigmoid.tobytes() == sigmoid(carry.logits).tobytes()
        assert carry.loss == fit.loss == bce_loss(carry.logits, labels)


class TestResidualMoments:
    def test_vanish_at_converged_fit(self):
        rng = np.random.default_rng(23)
        design = rng.normal(size=(2000, 3))
        labels = (rng.random(2000) < sigmoid(design[:, 0])).astype(float)
        opts = FitOptions()
        fit = fit_logistic(design, labels, opts)
        assert fit.converged
        moments = residual_moments(design, design @ fit.weights, labels)
        assert np.max(np.abs(moments)) <= opts.grad_tol

    def test_zero_column_moment_exactly_zero(self):
        design = np.column_stack([np.zeros(50), np.ones(50)])
        labels = np.zeros(50)
        moments = residual_moments(design, np.ones(50), labels)
        assert moments[0] == 0.0

    def test_unfitted_weights_leave_large_moments(self):
        rng = np.random.default_rng(29)
        design = rng.normal(size=(10_000, 3))
        labels = (rng.random(10_000) < sigmoid(design @ np.ones(3))).astype(float)
        opts = FitOptions()
        moments = residual_moments(design, design @ np.array([2.0, -1.0, 0.5]), labels)
        assert np.max(np.abs(moments)) > 10 * opts.grad_tol

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            residual_moments(np.zeros((3, 2)), np.zeros(4), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(LengthMismatch, match="empty inputs"):
            residual_moments(np.empty((0, 2)), [], [])
