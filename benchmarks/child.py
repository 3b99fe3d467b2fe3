"""One benchmark repetition, run by run.py in a fresh process.

Usage: python3 benchmarks/child.py '<job JSON>'

The job names the workload, seed, size, work directory and result file, and
says whether to trace and whether to stop after set-up (a set-up probe). The
result file receives the moment set-up ended (``time.monotonic``, which the
parent compares with the moment it started this process), the timed wall
time, the peak RSS before the output checks ran, the operation counts, the
environment and, when traced, the spans and per-layer metrics.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import nia  # noqa: E402

if not Path(nia.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"nia was imported from {nia.__file__}, not from this checkout")

import numpy  # noqa: E402
import scipy  # noqa: E402

from run import PINNED_THREADS  # noqa: E402
from tracing import Taps, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in PINNED_THREADS},
    }


def main(job: dict) -> dict:
    taps = Taps()
    taps.install()
    tracer = Tracer() if job["traced"] else None
    if tracer is not None:
        tracer.install()
    work = WORKLOADS[job["workload"]](job["seed"], job["size"], job["workdir"])
    result = {"ready": time.monotonic(), "env": environment()}
    if job["probe"]:
        return result

    start = time.perf_counter()
    output = work.run()
    result["wall_s"] = time.perf_counter() - start
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    spans = list(tracer.spans) if tracer is not None else None

    attempted = sum(run["agents"] for run in taps.protocol_runs) + len(taps.global_fits)
    failed = ["agent_fit"] * sum(run["unconverged"] for run in taps.protocol_runs)
    failed += ["global_fit"] * taps.global_fits.count(False)
    ops = work.operations(output, taps)
    result["attempted"] = attempted + len(ops)
    result["failed"] = failed + [name for name, ok in ops if not ok]
    if spans is not None:
        result["layers"] = layer_metrics(spans)
        result["spans"] = spans
    return result


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(main(job), fh)
