"""Experiment drivers: run reports and scan grids beyond the CLI round trips."""

import json
import tracemalloc

import pytest

import nia.experiments
from nia import HardInstanceSpec, InvalidConfig, generate_hard_instance
from nia.config import parse_config
from nia.experiments import decomposition_suite, run_experiment, scan_experiment, verify_experiment


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

    def test_path_without_window_skips_coverage(self, tmp_path):
        gpath = _graph_file(tmp_path, {
            "d": 2,
            "agents": [
                {"id": 1, "features": [1], "parents": []},
                {"id": 2, "features": [2], "parents": [1]},
            ],
        })
        config = parse_config({
            "instance": {"kind": "hard", "k": 2, "n": 1000, "seeds": [1]},
            "graph": {"file": gpath},
        })
        _, report = run_experiment(config)
        assert report["is_path"] is True
        assert report["m"] is None
        assert report["coverage"] is None
        assert report["theory"] is None

    def test_coverage_checked_against_dataset_features(self, tmp_path):
        # The file declares d = 2, but the dataset has k = 4 features, and
        # no agent observes features 3 and 4.
        gpath = _graph_file(tmp_path, {
            "d": 2,
            "agents": [
                {"id": i, "features": [(i - 1) % 2 + 1], "parents": [i - 1] if i > 1 else []}
                for i in range(1, 5)
            ],
        })
        config = parse_config({
            "instance": {"kind": "hard", "k": 4, "n": 1000, "seeds": [1]},
            "graph": {"file": gpath, "m": 2},
        })
        _, report = run_experiment(config)
        assert report["d"] == 4
        assert report["coverage"] is False
        assert report["coverage_first_violation"] == 1
        assert report["theory"]["rhs_convergence_bound"] is None
        assert report["theory"]["rhs_residual_bound"] is not None

    def test_run_requires_graph(self):
        config = parse_config({"instance": {"kind": "hard", "k": 2, "n": 100}})
        with pytest.raises(InvalidConfig):
            run_experiment(config)


class TestScanExperiment:
    def test_multiple_windows_multiply_rows(self):
        config = parse_config({
            "instance": {"kind": "hard", "k": 2, "n": 500, "seeds": [1]},
            "scan": {"depths": [4], "windows": [2, 4]},
        })
        rows = scan_experiment(config)
        assert [(r["D"], r["M"]) for r in rows] == [(4, 2), (4, 4)]
        # The bound column scales linearly in the window.
        assert rows[1]["upper_bound"] == pytest.approx(2 * rows[0]["upper_bound"], rel=1e-12)

    def test_uncovered_window_has_no_upper_bound(self):
        # On the k = 4 cyclic path a window of 2 agents sees 2 of 4 features.
        config = parse_config({
            "instance": {"kind": "hard", "k": 4, "n": 500, "seeds": [1]},
            "scan": {"depths": [4, 8], "windows": [2, 4]},
        })
        rows = scan_experiment(config)
        assert [(r["D"], r["M"]) for r in rows] == [(4, 2), (4, 4), (8, 2), (8, 4)]
        assert [r["upper_bound"] is None for r in rows] == [True, False, True, False]
        assert all(r["error"] is None for r in rows)

    def test_pass_grid_merges_into_depth_grid(self):
        config = parse_config({
            "instance": {"kind": "hard", "k": 3, "n": 400, "seeds": [1]},
            "scan": {"depths": [3], "passes": [1, 2]},
        })
        rows = scan_experiment(config)
        assert [r["D"] for r in rows] == [3, 6]
        assert [r["p"] for r in rows] == [1, 2]

    def test_file_instance_rejected(self, tmp_path):
        data = tmp_path / "d.nia"
        data.write_bytes(b"NIA1" + (0).to_bytes(8, "little") * 2)
        config = parse_config({
            "instance": {"kind": "file", "dataset": str(data)},
            "scan": {"depths": [2]},
        })
        with pytest.raises(InvalidConfig):
            scan_experiment(config)


class TestVerifyExperiment:
    SIZES = {"k": 3, "depth": 4, "pinsker_trials": 100, "noise_samples": 1000}

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
            "k": 4, "depth": depth, "n_protocol": n, "n_decomposition": n, "noise_samples": 2,
        }})
        tracemalloc.start()
        try:
            verify_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < depth // 4 * 8 * n, peak
