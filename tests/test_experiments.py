"""Experiment drivers: run reports and scan grids beyond the CLI round trips."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import nia.experiments
from nia import (
    HardInstanceSpec,
    InvalidConfig,
    NotConvergedWarning,
    generate_hard_instance,
    optimal_pass_coefficients,
)
from nia.config import parse_config
from nia.experiments import (
    NOISE_MIN_RISE,
    coefficient_suite,
    decomposition_suite,
    noise_monotonicity_suite,
    run_experiment,
    scan_experiment,
    verify_experiment,
)
from nia.instances import PassPredictor
from nia.logistic import SEPARABLE


def _graph_file(tmp_path, obj):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(obj))
    return str(path)


class TestRunExperiment:
    def test_non_path_dag_omits_path_diagnostics(self, tmp_path):
        gpath = _graph_file(tmp_path, {
            "d": 2,
            "agents": [
                {"id": 1, "features": [1], "parents": []},
                {"id": 2, "features": [2], "parents": []},
                {"id": 3, "features": [1, 2], "parents": [1, 2]},
            ],
        })
        config = parse_config({
            "instance": {"kind": "hard", "k": 2, "n": 2000, "seeds": [3]},
            "graph": {"file": gpath},
        })
        _, report = run_experiment(config)
        assert report["is_path"] is False
        assert report["coverage"] is None
        assert report["stable_block"] is None
        assert report["theory"] is None
        assert report["sinks"] == [3]
        # The merging agent spans all features, so its excess is tiny.
        assert abs(report["excess"]) <= 1e-9

    def test_file_path_reports_covering_window_and_theory(self, tmp_path):
        # The benchmark's windowed path at its size (k = 8, n = 4e5): 24
        # agents observing the next 1, 3 and 5 features in turn, then a
        # featureless sink. Any 3 consecutive agents see 8 or 9 features.
        agents, first = [], 0
        for i in range(24):
            size = (1, 3, 5)[i % 3]
            agents.append({"id": i + 1, "features": sorted((first + j) % 8 + 1 for j in range(size)),
                           "parents": [i] if i else []})
            first += size
        agents.append({"id": 25, "features": [], "parents": [24]})
        config = parse_config({
            "instance": {"kind": "hard", "k": 8, "n": 400_000, "seeds": [1]},
            "graph": {"file": _graph_file(tmp_path, {"d": 8, "agents": agents})},
        })
        _, report = run_experiment(config)
        assert (report["m"], report["coverage"], report["coverage_first_violation"]) == (3, True, None)
        assert (report["theory"]["m"], report["theory"]["depth"]) == (3, 25)
        assert report["theory"]["rhs_convergence_bound"] is not None
        assert report["separable"] is False
        assert report["all_converged"] is True

    def test_coverage_checked_against_dataset_features(self, tmp_path):
        # The file declares d = 2, but the dataset has k = 4 features, and
        # no agent observes features 3 and 4: no window covers.
        gpath = _graph_file(tmp_path, {
            "d": 2,
            "agents": [
                {"id": i, "features": [(i - 1) % 2 + 1], "parents": [i - 1] if i > 1 else []}
                for i in range(1, 5)
            ],
        })
        config = parse_config({
            "instance": {"kind": "hard", "k": 4, "n": 1000, "seeds": [1]},
            "graph": {"file": gpath},
        })
        _, report = run_experiment(config)
        assert report["d"] == 4
        assert report["m"] is None
        assert report["coverage"] is False
        assert report["coverage_first_violation"] == 1
        assert report["stable_block"] is None
        assert report["theory"] is None

    def test_separable_labels_mark_global_fit_unconverged(self):
        # n = 20: the all-features fit falls below the loss floor, so BCE has
        # no minimizer and the excess means nothing.
        config = parse_config({
            "instance": {"kind": "hard", "k": 4, "n": 20, "seeds": [4]},
            "graph": {"cyclic_depth": 8},
        })
        with pytest.warns(NotConvergedWarning, match="labels are linearly separable"):
            _, report = run_experiment(config)
        assert report["separable"] is True
        assert report["all_converged"] is False
        assert report["global_loss"] * 20 < math.log(2.0)

    def test_run_requires_graph(self):
        config = parse_config({"instance": {"kind": "hard", "k": 2, "n": 100}})
        with pytest.raises(InvalidConfig):
            run_experiment(config)


class TestScanExperiment:
    def test_one_row_per_depth_and_seed(self):
        config = parse_config({
            "instance": {"kind": "hard", "k": 2, "n": 500, "seeds": [2, 1]},
            "scan": {"depths": [8, 2, 8]},
        })
        rows = scan_experiment(config)
        assert [(r["D"], r["seed"]) for r in rows] == [(2, 1), (2, 2), (8, 1), (8, 2)]
        # M is the path's covering window k, and the bound falls as 1/sqrt(D).
        assert all(r["M"] == 2 and r["error"] is None for r in rows)
        assert rows[2]["upper_bound"] == pytest.approx(rows[0]["upper_bound"] / 2, rel=1e-12)

    def test_separable_seed_rows_carry_an_error(self):
        # Seed 4's labels are separable at n = 20, seed 1's are not.
        config = parse_config({
            "instance": {"kind": "hard", "k": 4, "n": 20, "seeds": [1, 4]},
            "scan": {"depths": [4, 8]},
        })
        rows = scan_experiment(config)
        assert [(r["D"], r["seed"]) for r in rows] == [(4, 1), (4, 4), (8, 1), (8, 4)]
        for row in rows:
            if row["seed"] == 1:
                assert row["error"] is None
                assert row["excess"] is not None
            else:
                assert row["error"] == f"NiaError: {SEPARABLE}"
                assert row["excess"] is None and row["global_loss"] is None

    def test_depth_below_k_rejected(self):
        config = parse_config({
            "instance": {"kind": "hard", "k": 4, "n": 500, "seeds": [1]},
            "scan": {"depths": [8, 2]},
        })
        with pytest.raises(InvalidConfig, match=r"scan depth 2 is below instance.k = 4"):
            scan_experiment(config)

    def test_file_instance_rejected(self, tmp_path):
        data = tmp_path / "d.nia"
        data.write_bytes(b"NIA1" + (0).to_bytes(8, "little") * 2)
        config = parse_config({
            "instance": {"kind": "file", "dataset": str(data)},
            "scan": {"depths": [2]},
        })
        with pytest.raises(InvalidConfig):
            scan_experiment(config)


class TestCoefficientSuite:
    def test_passes_on_the_closed_form(self):
        suite = coefficient_suite()
        assert suite["passed"] is True
        assert suite["details"]["max_deviation"] <= 1e-15

    def test_fails_when_the_closed_form_coefficients_are_wrong(self, monkeypatch):
        # Every coefficient 123.0: the residual variance is still right, but
        # the differences no longer sum to -c (p - 1) / p.
        def wrong(p, c):
            right = optimal_pass_coefficients(p, c)
            return PassPredictor(np.full(p, 123.0), right.residual_variance)

        monkeypatch.setattr(nia.experiments, "optimal_pass_coefficients", wrong)
        assert coefficient_suite()["passed"] is False


class TestNoiseMonotonicitySuite:
    def test_passes_with_every_pair_rising(self):
        suite = noise_monotonicity_suite()
        rises = [pair["rise"] for pair in suite["details"]["pairs"]]
        assert suite["passed"] is True
        assert suite["threshold"] == NOISE_MIN_RISE
        assert suite["margin"] == min(rises) - NOISE_MIN_RISE
        assert min(rises) > 0.04

    @pytest.mark.parametrize("pair", [(0.5, 0.5), (1.0, 0.5)])
    def test_fails_when_a_pair_does_not_rise(self, monkeypatch, pair):
        pairs = ((0.0, 0.5), pair)
        monkeypatch.setattr(nia.experiments, "NOISE_VARIANCE_PAIRS", pairs)
        suite = noise_monotonicity_suite()
        assert suite["passed"] is False
        assert suite["margin"] < 0
        assert [(p["v_small"], p["v_large"]) for p in suite["details"]["pairs"]] == list(pairs)


class TestVerifyExperiment:
    SIZES = {"k": 3, "depth": 4, "pinsker_trials": 100}

    @pytest.mark.parametrize("n_decomposition, generated", [(2000, 1), (1500, 2)])
    def test_one_instance_when_sizes_match(self, monkeypatch, n_decomposition, generated):
        config = parse_config(
            {"verify": self.SIZES | {"n_protocol": 2000, "n_decomposition": n_decomposition}}
        )
        calls = []

        def counting(spec):
            calls.append(spec)
            return generate_hard_instance(spec)

        monkeypatch.setattr(nia.experiments, "generate_hard_instance", counting)
        report = verify_experiment(config)
        assert len(calls) == generated
        assert calls[-1] == HardInstanceSpec(k=3, n=n_decomposition, seed=1)
        # The suite on separately generated data gives the same entry.
        separate = generate_hard_instance(HardInstanceSpec(k=3, n=n_decomposition, seed=1))
        assert report["suites"]["decomposition"] == decomposition_suite(separate, config)

    def test_noise_suite_depends_on_no_verify_setting(self):
        # A closed form: neither the seed nor noise_samples moves the entry.
        entries = [
            verify_experiment(parse_config({"verify": self.SIZES | {
                "n_protocol": 500, "n_decomposition": 500, **extra,
            }}))["suites"]["noise_monotonicity"]
            for extra in ({}, {"seed": 9, "noise_samples": 2})
        ]
        assert entries[0] == entries[1] == noise_monotonicity_suite()

    def test_loosely_converged_fits_fail_orthogonality(self):
        # Every fit converges to grad_tol 1e-3, so its residual moments are
        # small but do not vanish, and the suite must fail it.
        config = parse_config({
            "solver": {"grad_tol": 1e-3},
            "verify": self.SIZES | {"n_protocol": 3000, "n_decomposition": 3000},
        })
        suite = verify_experiment(config)["suites"]["orthogonality"]
        assert suite["details"]["unconverged_agents"] == 0
        assert suite["details"]["max_moment"] > 1e-9
        assert suite["passed"] is False

    def test_peak_memory_below_a_quarter_of_the_columns(self):
        # The protocol run streams, so the peak is the dataset, the path's
        # frontier and one fit's buffers: about 14 columns at k = 4, not the
        # 64 published columns (77 in all) of a run that keeps them.
        n, depth = 20_000, 64
        config = parse_config({"verify": self.SIZES | {
            "k": 4, "depth": depth, "n_protocol": n, "n_decomposition": n,
        }})
        tracemalloc.start()
        try:
            verify_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < depth // 4 * 8 * n, peak
