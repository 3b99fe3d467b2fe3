"""Command-line interface: subcommands, outputs, exit codes."""

import csv
import json
import os
import shutil
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nia.cli
import nia.experiments
import nia.protocol
from nia.cli import main
from nia.errors import NiaError, NotConvergedWarning

FAST_VERIFY = {
    "seed": 1,
    "k": 3,
    "depth": 4,
    "n_protocol": 2000,
    "n_decomposition": 2000,
    "pinsker_trials": 500,
}


def _write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestGenerate:
    def test_deterministic_bytes_and_sidecar(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "hard", "k": 4, "n": 100, "seeds": [7]},
             "out_dir": "out"},
        )
        assert main(["generate", "--config", cfg]) == 0
        data_path = tmp_path / "out" / "dataset_k4_n100_seed7.nia"
        first = data_path.read_bytes()
        sidecar = json.loads((tmp_path / "out" / "dataset_k4_n100_seed7.nia.json").read_text())
        assert sidecar["k"] == 4 and sidecar["seed"] == 7
        import hashlib

        assert sidecar["sha256"] == hashlib.sha256(first).hexdigest()
        # Rerun must produce byte-identical output.
        assert main(["generate", "--config", cfg]) == 0
        assert data_path.read_bytes() == first

    def test_distinct_seeds_distinct_files(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "hard", "k": 3, "n": 50, "seeds": [1, 2]},
             "out_dir": "out"},
        )
        assert main(["generate", "--config", cfg]) == 0
        a = (tmp_path / "out" / "dataset_k3_n50_seed1.nia").read_bytes()
        b = (tmp_path / "out" / "dataset_k3_n50_seed2.nia").read_bytes()
        assert a != b

    def test_seed_flag_overrides(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "hard", "k": 3, "n": 50, "seeds": [1, 2]},
             "out_dir": "out"},
        )
        assert main(["generate", "--config", cfg, "--seed", "9"]) == 0
        assert (tmp_path / "out" / "dataset_k3_n50_seed9.nia").exists()
        assert not (tmp_path / "out" / "dataset_k3_n50_seed1.nia").exists()

    def test_invalid_k_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instance": {"kind": "hard", "k": 1}}))
        assert main(["generate", "--config", str(cfg)]) == 2
        assert "error" in capsys.readouterr().err

    def test_negative_seed_flag_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--seed", "-1"]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_above_128_bits_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--seed", str(2**128)]) == 2
        assert "error: instance.seeds must lie in [0, 2**128 - 1]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_flag_overrides_config_out_dir(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "hard", "k": 3, "n": 50, "seeds": [1]},
             "out_dir": "from_config"},
        )
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "from_flag")]) == 0
        assert (tmp_path / "from_flag" / "dataset_k3_n50_seed1.nia").exists()
        assert not (tmp_path / "from_config").exists()

    def test_file_instance_exits_2_and_writes_nothing(self, tmp_path, capsys):
        (tmp_path / "data.nia").write_bytes(b"")
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "file", "dataset": "data.nia"}, "out_dir": "out"},
        )
        assert main(["generate", "--config", cfg]) == 2
        assert "generate requires instance.kind='hard'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_threads_flag_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["generate", "--threads", "7"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --threads 7" in capsys.readouterr().err

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        # What numpy raises for n = 10**13; nothing is allocated here.
        def no_memory(spec):
            raise MemoryError("Unable to allocate 582. TiB for an array")

        monkeypatch.setattr(nia.cli, "generate_hard_instance", no_memory)
        cfg = _write_config(tmp_path, {"instance": {"k": 4, "n": 10**13}, "out_dir": "out"})
        assert main(["generate", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 582. TiB for an array\n"
        assert not (tmp_path / "out").exists()


class TestRun:
    def test_trace_and_report(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "hard", "k": 4, "n": 3000, "seeds": [1]},
             "graph": {"cyclic_depth": 32},
             "out_dir": "out"},
        )
        assert main(["run", "--config", cfg]) == 0
        with open(tmp_path / "out" / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 32
        losses = [float(r["loss"]) for r in rows]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
        report = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert report["coverage"] is True
        assert report["excess"] >= -1e-9
        assert report["theory"]["rhs_convergence_bound"] is not None
        assert report["stable_block"]["index"] >= 1

    def test_separable_labels_print_no_bound_verdict(self, tmp_path, capsys):
        # k = 4, n = 20, seed 4 has separable labels: the excess means
        # nothing, so no bound is checked against it.
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "hard", "k": 4, "n": 20, "seeds": [4]},
             "graph": {"cyclic_depth": 8},
             "out_dir": "out"},
        )
        with pytest.warns(NotConvergedWarning):
            assert main(["run", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "depth bound" not in out
        assert "labels are linearly separable: no bound check is made" in out
        report = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert report["separable"] is True
        assert report["all_converged"] is False

    def test_infinite_grad_tol_literal_exits_2(self, tmp_path, capsys):
        # Python's json reads the Infinity literal; a fit with that tolerance
        # would stop at its start point and report it converged.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"instance": {"k": 3, "n": 500}, "graph": {"cyclic_depth": 3},'
            ' "solver": {"grad_tol": Infinity}, "out_dir": "out"}'
        )
        assert main(["run", "--config", str(cfg)]) == 2
        assert "grad_tol must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_uses_the_first_seed_only(self, tmp_path):
        def report(name, seeds, *flags):
            cfg = _write_config(
                tmp_path,
                {"instance": {"kind": "hard", "k": 3, "n": 1000, "seeds": seeds},
                 "graph": {"cyclic_depth": 6}, "out_dir": name},
                name=f"{name}.json",
            )
            assert main(["run", "--config", cfg, *flags]) == 0
            return json.loads((tmp_path / name / "run_report.json").read_text())

        listed = report("listed", [3, 1])
        flag = report("flag", [1], "--seed", "3")
        assert listed["seed"] == flag["seed"] == 3
        assert listed["sink_loss"] == flag["sink_loss"]

    def test_single_all_features_agent_reports_zero_excess(self, tmp_path):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(
            {"d": 3, "agents": [{"id": 1, "features": [1, 2, 3], "parents": []}]}
        ))
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "hard", "k": 3, "n": 2000, "seeds": [4]},
             "graph": {"file": "g.json"},
             "out_dir": "out"},
        )
        assert main(["run", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert abs(report["excess"]) <= 1e-9

    def test_coverage_violation_omits_depth_bound(self, tmp_path):
        # Feature 2 appears nowhere on the path, so no window covers.
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({
            "d": 2,
            "agents": [
                {"id": 1, "features": [1], "parents": []},
                {"id": 2, "features": [1], "parents": [1]},
                {"id": 3, "features": [], "parents": [2]},
            ],
        }))
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "hard", "k": 2, "n": 1000, "seeds": [1]},
             "graph": {"file": "g.json"},
             "out_dir": "out"},
        )
        assert main(["run", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert report["m"] is None
        assert report["coverage"] is False
        assert report["coverage_first_violation"] == 1
        assert report["theory"] is None

    def test_dataset_file_instance(self, tmp_path):
        gen_cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "hard", "k": 3, "n": 500, "seeds": [2]},
             "out_dir": "data"},
            name="gen.json",
        )
        assert main(["generate", "--config", gen_cfg]) == 0
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "file", "dataset": "data/dataset_k3_n500_seed2.nia",
                          "k": 3},
             "graph": {"cyclic_depth": 3},
             "out_dir": "out"},
            name="run.json",
        )
        assert main(["run", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert report["seed"] is None
        assert report["n"] == 500

    def test_logit_dump_flag(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "hard", "k": 2, "n": 200, "seeds": [1]},
             "graph": {"cyclic_depth": 4},
             "dump_logits": True,
             "out_dir": "out"},
        )
        assert main(["run", "--config", cfg]) == 0
        raw = (tmp_path / "out" / "logits.bin").read_bytes()
        assert int.from_bytes(raw[:8], "little") == 200
        assert int.from_bytes(raw[8:16], "little") == 4
        # The spill the columns went through leaves no file behind.
        assert sorted(os.listdir(tmp_path / "out")) == ["logits.bin", "run_report.json", "trace.csv"]

    def test_logit_dump_run_failing_mid_path_leaves_no_dump(self, tmp_path, capsys, monkeypatch):
        fit = nia.protocol.fit_logistic
        fits = []

        def failing_third_fit(*args):
            fits.append(1)
            if len(fits) == 3:
                raise NiaError("injected fit failure")
            return fit(*args)

        monkeypatch.setattr(nia.protocol, "fit_logistic", failing_third_fit)
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "hard", "k": 2, "n": 200, "seeds": [1]},
             "graph": {"cyclic_depth": 4},
             "dump_logits": True,
             "out_dir": "out"},
        )
        assert main(["run", "--config", cfg]) == 2
        assert "injected fit failure" in capsys.readouterr().err
        assert os.listdir(tmp_path / "out") == []

    def test_logit_dump_memory_holds_neither_columns_nor_grows_with_depth(self, tmp_path):
        # Kept columns would cost n * D * 8 bytes. Block buffers sized in rows
        # would grow with D, and at n = 2e4 they would set the peak; sized in
        # bytes, quadrupling D may add at most one column to it.
        peaks = {}
        for n, depth in ((100_000, 64), (20_000, 16), (20_000, 64)):
            cfg = _write_config(
                tmp_path,
                {"instance": {"kind": "hard", "k": 4, "n": n, "seeds": [1]},
                 "graph": {"cyclic_depth": depth},
                 "dump_logits": True,
                 "out_dir": f"out_{n}_{depth}"},
                name=f"run_{n}_{depth}.json",
            )
            tracemalloc.start()
            try:
                assert main(["run", "--config", cfg]) == 0
                peaks[n, depth] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[100_000, 64] < 100_000 * 64 * 8 / 4, peaks
        assert peaks[20_000, 64] - peaks[20_000, 16] <= 8 * 20_000, peaks

    def test_cyclic_path_over_file_dataset_spans_its_features(self, tmp_path, capsys):
        # An 8-feature dataset file under the default instance.k of 4: the
        # path covers all 8 features and its covering window is 8.
        gen_cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "hard", "k": 8, "n": 2000, "seeds": [3]}, "out_dir": "data"},
            name="gen.json",
        )
        assert main(["generate", "--config", gen_cfg]) == 0
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "file", "dataset": "data/dataset_k8_n2000_seed3.nia"},
             "graph": {"cyclic_depth": 8},
             "out_dir": "out"},
            name="run.json",
        )
        assert main(["run", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert (report["d"], report["m"], report["coverage"]) == (8, 8, True)
        # Covered, so the depth bound is reported.
        assert report["theory"]["rhs_convergence_bound"] is not None

    def test_path_shorter_than_d_has_no_window(self, tmp_path, capsys):
        # Three agents of a 4-feature cyclic path: feature 4 is never seen.
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "hard", "k": 4, "n": 1000, "seeds": [1]},
             "graph": {"cyclic_depth": 3},
             "out_dir": "out"},
        )
        assert main(["run", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert report["m"] is None
        assert report["coverage"] is False
        assert report["coverage_first_violation"] == 1
        assert report["stable_block"] is None
        assert report["theory"] is None
        assert "coverage=False" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "d, second_agent, message",
        [
            (2, {"id": 2, "features": [2], "parents": [1, 1]}, "duplicate edge (1, 2)"),
            ("two", {"id": 2, "features": [2], "parents": [1]}, "d must be an integer"),
            (2, {"id": "b", "features": [2], "parents": [1]}, "agent id must be an integer"),
            (2, {"id": 2, "features": 1, "parents": [1]}, "agent 2 features must be a JSON list"),
            (2, {"id": 2, "features": [1.7], "parents": [1]}, "agent 2 features must be an integer"),
        ],
        ids=["duplicate-parent", "text-d", "text-id", "scalar-features", "fractional-feature"],
    )
    def test_malformed_graph_file_exits_2(self, tmp_path, capsys, d, second_agent, message):
        graph = {"d": d, "agents": [{"id": 1, "features": [1], "parents": []}, second_agent]}
        self._graph_file_exits_2(tmp_path, capsys, json.dumps(graph), message)

    def test_graph_file_not_json_exits_2(self, tmp_path, capsys):
        self._graph_file_exits_2(tmp_path, capsys, '{"d": 2, "agents": [', "Expecting value")

    @staticmethod
    def _graph_file_exits_2(tmp_path, capsys, text, message):
        (tmp_path / "graph.json").write_text(text)
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "hard", "k": 2, "n": 100, "seeds": [1]},
             "graph": {"file": "graph.json"},
             "out_dir": "out"},
        )
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_dataset_file_shorter_than_header_exits_2(self, tmp_path, capsys):
        (tmp_path / "short.nia").write_bytes(b"NIA1" + b"\0" * 10)
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "file", "dataset": "short.nia"},
             "graph": {"cyclic_depth": 2},
             "out_dir": "out"},
        )
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "truncated dataset file" in err

    def test_run_without_graph_fails_cleanly(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"instance": {"kind": "hard", "k": 2, "n": 100}})
        assert main(["run", "--config", cfg]) == 2
        assert "graph" in capsys.readouterr().err

    def test_run_without_graph_fails_before_generating(self, tmp_path, capsys, monkeypatch):
        def no_generation(spec):
            raise AssertionError("dataset generated before the graph section was checked")

        monkeypatch.setattr(nia.experiments, "generate_hard_instance", no_generation)
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "hard", "k": 2, "n": 100, "seeds": [1]}, "out_dir": "out"},
        )
        assert main(["run", "--config", cfg]) == 2
        assert "this command requires a 'graph' section" in capsys.readouterr().err

    def test_run_without_graph_creates_no_out_dir(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "hard", "k": 2, "n": 100, "seeds": [1]}, "out_dir": "res"},
        )
        assert main(["run", "--config", cfg]) == 2
        assert "graph" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()


class TestScan:
    def test_rows_columns_and_formulas(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "hard", "k": 4, "n": 1500, "seeds": [1, 2]},
             "scan": {"depths": [4, 8, 16, 32]},
             "out_dir": "out"},
        )
        assert main(["scan", "--config", cfg]) == 0
        with open(tmp_path / "out" / "scan.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8  # 4 depths x 2 seeds
        for row in rows:
            assert row["error"] == ""
            assert int(row["M"]) == 4
            p = float(row["p"])
            assert float(row["lower_shape"]) == pytest.approx(1.0 / (p + 1.0), rel=1e-12)
            assert float(row["excess"]) == pytest.approx(
                float(row["sink_loss"]) - float(row["global_loss"]), abs=1e-15
            )
            assert row["config_hash"] == rows[0]["config_hash"]
        # Per seed the bound column is B_g * B_X * M / sqrt(D): quartering
        # the depth doubles it.
        for seed in ("1", "2"):
            bounds = {int(r["D"]): float(r["upper_bound"]) for r in rows if r["seed"] == seed}
            assert bounds[4] == pytest.approx(2.0 * bounds[16], rel=1e-12)
        # Seed-averaged excess must not increase with depth on this instance.
        by_depth = {}
        for row in rows:
            by_depth.setdefault(int(row["D"]), []).append(float(row["excess"]))
        depths = sorted(by_depth)
        means = [np.mean(by_depth[d]) for d in depths]
        assert all(b <= a + 1e-6 for a, b in zip(means, means[1:]))

    def test_parallel_matches_serial(self, tmp_path):
        base = {"instance": {"kind": "hard", "k": 2, "n": 800, "seeds": [1, 2]},
                "scan": {"depths": [2, 4]}}
        cfg_a = _write_config(tmp_path, base | {"out_dir": "serial"}, name="a.json")
        cfg_b = _write_config(tmp_path, base | {"out_dir": "par"}, name="b.json")
        assert main(["scan", "--config", cfg_a, "--threads", "1"]) == 0
        assert main(["scan", "--config", cfg_b, "--threads", "2"]) == 0
        # out_dir is not hashed, so the two files are identical.
        serial = (tmp_path / "serial" / "scan.csv").read_text()
        assert (tmp_path / "par" / "scan.csv").read_text() == serial

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_flag_below_one_exits_2(self, tmp_path, capsys, threads):
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "hard", "k": 2, "n": 200, "seeds": [1]},
             "scan": {"depths": [2]},
             "out_dir": "out"},
        )
        assert main(["scan", "--config", cfg, "--threads", threads]) == 2
        assert "error: --threads must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out" / "scan.csv").exists()

    def test_threads_flag_leaves_config_hash(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "hard", "k": 2, "n": 200, "seeds": [1, 2]},
             "scan": {"depths": [2]},
             "out_dir": "out"},
        )
        hashes = []
        for flags in ([], ["--threads", "2"]):
            assert main(["scan", "--config", cfg, *flags]) == 0
            with open(tmp_path / "out" / "scan.csv") as fh:
                hashes.append({row["config_hash"] for row in csv.DictReader(fh)})
        assert hashes[0] == hashes[1] and len(hashes[0]) == 1

    def test_scan_without_scan_section_creates_no_out_dir(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "hard", "k": 2, "n": 100, "seeds": [1]}, "out_dir": "res"},
        )
        assert main(["scan", "--config", cfg]) == 2
        assert "scan" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    def test_failing_seed_recorded_per_point(self, tmp_path, capsys, monkeypatch):
        generate = nia.experiments.generate_hard_instance

        def failing_seed_2(spec):
            if spec.seed == 2:
                raise NiaError("injected generation failure")
            return generate(spec)

        monkeypatch.setattr(nia.experiments, "generate_hard_instance", failing_seed_2)
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "hard", "k": 2, "n": 400, "seeds": [1, 2]},
             "scan": {"depths": [2, 4]},
             "out_dir": "out"},
        )
        assert main(["scan", "--config", cfg]) == 0
        assert "(4 rows, 2 failed points)" in capsys.readouterr().out
        with open(tmp_path / "out" / "scan.csv") as fh:
            rows = list(csv.DictReader(fh))
        numeric = ("sink_loss", "global_loss", "excess", "upper_bound", "lower_shape")
        assert [(r["D"], r["seed"]) for r in rows] == [("2", "1"), ("2", "2"), ("4", "1"), ("4", "2")]
        for row in rows:
            if row["seed"] == "2":
                assert row["error"] == "NiaError: injected generation failure"
                assert all(row[f] == "" for f in numeric)
            else:
                assert row["error"] == ""
                assert all(row[f] != "" for f in numeric)

    def test_window_exceeding_depth_rejected(self, tmp_path, capsys):
        # The covering window M = k = 4 is longer than a depth-2 path.
        cfg = _write_config(
            tmp_path,
            {"instance": {"kind": "hard", "k": 4, "n": 100, "seeds": [1]},
             "scan": {"depths": [2, 4]},
             "out_dir": "out"},
        )
        assert main(["scan", "--config", cfg]) == 2
        assert "scan depth 2 is below instance.k = 4" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestVerify:
    def test_all_suites_pass_on_small_sizes(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, {"verify": FAST_VERIFY, "out_dir": "out"}
        )
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        assert report["all_passed"] is True
        assert set(report["suites"]) == {
            "orthogonality", "decomposition", "pinsker", "monotone_loss",
            "coefficient_closed_form", "scaling_factor_range", "noise_monotonicity",
        }
        printed = [line.split()[1] for line in out.splitlines() if line.startswith("PASS")]
        assert printed == [
            "orthogonality:", "decomposition:", "pinsker:", "monotone_loss:",
            "coefficient_closed_form:", "scaling_factor_range:", "noise_monotonicity:",
        ]

    def test_loose_gradient_tolerance_fails_decomposition(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(nia.experiments, "DECOMPOSITION_GRAD_TOL", 1e-2)
        cfg = _write_config(tmp_path, {"verify": FAST_VERIFY, "out_dir": "out"})
        assert main(["verify", "--config", cfg]) == 1
        out = capsys.readouterr().out
        assert "FAIL decomposition" in out
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        assert report["suites"]["decomposition"]["passed"] is False
        assert report["all_passed"] is False


    def test_seed_flag_sets_verify_seed(self, tmp_path):
        def suites(name, verify, *flags):
            cfg = _write_config(tmp_path, {"verify": verify, "out_dir": name}, name=f"{name}.json")
            assert main(["verify", "--config", cfg, *flags]) == 0
            return json.loads((tmp_path / name / "verify_report.json").read_text())["suites"]

        flag = suites("flag", FAST_VERIFY, "--seed", "7")
        configured = suites("configured", FAST_VERIFY | {"seed": 7})
        assert flag == configured
        assert flag != suites("seed1", FAST_VERIFY)

    def test_out_flag_leaves_config_hash(self, tmp_path):
        cfg = _write_config(tmp_path, {"verify": FAST_VERIFY})
        reports = []
        for out in ("a", "b"):
            assert main(["verify", "--config", cfg, "--seed", "1", "--out", str(tmp_path / out)]) == 0
            reports.append(json.loads((tmp_path / out / "verify_report.json").read_text()))
        assert reports[0] == reports[1]

    def test_seed_above_128_bits_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--seed", str(2**128)]) == 2
        assert "error: instance.seeds must lie in" in capsys.readouterr().err
        cfg = _write_config(tmp_path, {"verify": FAST_VERIFY | {"seed": 2**128}})
        assert main(["verify", "--config", cfg]) == 2
        assert "error: verify.seed must be <= 2**128 - 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestNumpyOnly:
    def test_generate_run_verify_with_scipy_blocked(self, tmp_path):
        # The runtime needs numpy alone: with every scipy import failing, a
        # small generate, run and verify all succeed and load no scipy module.
        configs = {
            "generate": {"instance": {"kind": "hard", "k": 4, "n": 2000, "seeds": [1]},
                         "out_dir": "data"},
            "run": {"instance": {"kind": "file", "dataset": "data/dataset_k4_n2000_seed1.nia"},
                    "graph": {"cyclic_depth": 8}, "dump_logits": True, "out_dir": "run"},
            "verify": {"verify": FAST_VERIFY, "out_dir": "verify"},
        }
        for cmd, obj in configs.items():
            _write_config(tmp_path, obj, name=f"{cmd}.json")
        script = textwrap.dedent(
            """
            import sys

            class BlockScipy:
                def find_spec(self, name, path=None, target=None):
                    if name.split(".")[0] == "scipy":
                        raise ImportError(f"{name} is blocked")
                    return None

            sys.meta_path.insert(0, BlockScipy())
            import nia
            from nia.cli import main

            commands = ("generate", "run", "verify")
            codes = [main([cmd, "--config", f"{cmd}.json"]) for cmd in commands]
            assert codes == [0, 0, 0], codes
            loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
            assert not loaded, loaded
            """
        )
        src = str(Path(nia.experiments.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "run" / "logits.bin").exists()
        assert json.loads((tmp_path / "verify" / "verify_report.json").read_text())["all_passed"]


class TestEntryPoint:
    # The console script exists only after `pip install`; the repository's
    # own test command runs from the source tree without installing.
    @pytest.mark.skipif(shutil.which("nia") is None, reason="nia console script not installed")
    def test_console_script_help(self):
        proc = subprocess.run(["nia", "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        for name in ("generate", "run", "scan", "verify"):
            assert name in proc.stdout

    def test_declared_script_target_help(self):
        # Everything behind the console script except pip's wrapper: the
        # declared target, called as the wrapper calls it (no arguments).
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["nia"]
        assert target == "nia.cli:main"
        module, func = target.split(":")
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys; from {module} import {func}; sys.argv[0] = 'nia'; sys.exit({func}())",
             "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        for name in ("generate", "run", "scan", "verify"):
            assert name in proc.stdout
