"""Tests for the benchmark itself; not part of the package's test suite.

    python3 -m pytest -q benchmarks

The smoke tests run all three workloads at tiny sizes, with their output
checks, untraced and traced, so a broken workload or a metric that stopped
being produced is caught without a full run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize(
    "trace, names",
    [("0", [name for name, *_ in run.END_TO_END]), ("1", run.PER_LAYER)],
)
def test_smoke_run_reports_every_metric_and_passes_checks(trace, names):
    out = _bench(ROOT, "--workload", "all", "--smoke", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    expected = {f"{w}/{name}" for w in run.WORKLOADS for name in names}
    assert set(result["metrics"]) == expected
    assert all(m["unit"] == run.unit(k.split("/")[1]) for k, m in result["metrics"].items())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "--workload", "path-scan", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_committed_spec_is_generated():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.spec()


class _Taps:
    def __init__(self, loss_path):
        self.protocol_runs = [{"agents": len(loss_path), "unconverged": 0, "loss_path": loss_path}]


def test_path_scan_checks_catch_wrong_outputs():
    work = workloads.PathScan(workloads.DEFAULT_SEED, "smoke", "")
    ref = workloads.REFERENCES["path-scan"]["smoke"][workloads.DEFAULT_SEED]["sink_loss"]
    rows = [{"D": d, "sink_loss": loss, "error": None} for d, loss in ref.items()]
    path = sorted(ref.values(), reverse=True)
    assert all(ok for _, ok in work.operations(rows, _Taps(path)))

    shifted = [dict(r, sink_loss=r["sink_loss"] + 1e-6) for r in rows]
    failed = {name for name, ok in work.operations(shifted, _Taps(path)) if not ok}
    assert failed == {f"check.reference_sink_loss.D{d}" for d in ref}

    failed = {name for name, ok in work.operations(rows, _Taps(path[::-1])) if not ok}
    assert failed == {"check.loss_path_monotone"}


def test_layer_metrics_self_time_and_agent_intervals():
    fit = {"width": 2, "iterations": 3, "converged": True}
    spans = [
        ["protocol.run", 0.0, 10.0, -1, {"agents": 2, "logit_bytes": 32}],
        ["protocol.design", 0.0, 1.0, 0, None],
        ["logistic.fit", 1.0, 4.0, 0, fit],
        ["logistic.softplus", 2.0, 3.0, 2, {"rows": 4}],
        ["protocol.design", 4.0, 5.0, 0, None],
        ["logistic.fit", 5.0, 9.0, 0, fit],
        ["logistic.softplus", 9.0, 9.5, 0, {"rows": 4}],
    ]
    m = tracing.layer_metrics(spans)
    assert m["protocol.self_s"] == pytest.approx(10.0 - 1 - 3 - 1 - 4 - 0.5)
    assert m["protocol.agent_ms.p50"] == pytest.approx(5000.0)
    assert m["logistic.objective_evals_per_iter"] == pytest.approx(1 / 6)
    assert m["logistic.kernel_bytes"] == 16 * 8
    assert m["protocol.trace_logit_bytes"] == 32


def test_tail_leaves_ten_samples_above():
    assert run.tail(list(range(19))) is None
    pct, value = run.tail(list(range(40)))
    assert (pct, value) == (75.0, 29)
    assert sum(v > value for v in range(40)) == 10
