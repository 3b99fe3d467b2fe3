"""nia benchmark runner.

    python3 benchmarks/run.py --workload path-scan --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 40 --trace 1
    python3 benchmarks/run.py --write-spec      # regenerate BENCHMARK.json

One parent process runs one workload repetition at a time, each in a fresh
child process (benchmarks/child.py) with BLAS pinned to one thread, until
``--seconds`` would be exceeded. With ``--trace 0`` every repetition is
untraced, set-up probes (children that only set up) run first so that
``setup_s`` has more samples, and the end-to-end metrics are reported; with
``--trace 1`` untraced and traced repetitions alternate, and the per-layer
metrics of the traced ones are reported with the tracing overhead. Every
repetition's outputs are checked. The last line of standard output is one
JSON object: correct, attempted, failed and metrics.

This process imports only the standard library: a child's peak RSS counts
the parent's, since the child starts as a copy of it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 3
DEADLINE_S = 170.0
RUN_SECONDS = 40

WORKLOADS = {
    "path-scan": "one seed of the depth-128 acceptance sweep (k=4, n=2e5, depth 64): "
    "width-1/2 Newton fits dominate",
    "verify-default": "default nia verify: quadrature root-finding, BFGS and Monte Carlo "
    "analytics dominate, the fit path barely runs",
    "dag-file-run": "nia generate + run from files (k=8, n=4e5, 25-agent graph file): "
    "widths 2/4/6, dataset write and read, logit dump, config and cli layers",
}

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("wall_s", "s", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# Per-layer metrics every workload produces; the traced run also prints
# the ones only some workloads reach (quadrature, suites, io, cli).
PER_LAYER = [
    "logistic.fit_calls",
    "logistic.fit_s",
    "logistic.fit_ms.p50",
    "logistic.fit_ms.w1",
    "logistic.fit_ms.w2",
    "logistic.fit_ms.w4",
    "logistic.newton_iters",
    "logistic.sigmoid_calls",
    "logistic.sigmoid_s",
    "logistic.softplus_calls",
    "logistic.softplus_s",
    "logistic.objective_evals_per_iter",
    "logistic.kernel_bytes",
    "protocol.run_s",
    "protocol.agent_ms.p50",
    "protocol.design_s",
    "protocol.self_s",
    "protocol.trace_logit_bytes",
    "instances.generate_s",
    "experiments.global_fit_s",
    "data.validate_s",
    "graph.build_s",
    "config.load_s",
    "trace.overhead_s",
]


def unit(metric: str) -> str:
    if metric.endswith("_pct"):
        return "%"
    if "_ms" in metric:
        return "ms"
    if metric.endswith("_s") or "_s." in metric:
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_per_iter"):
        return "evals/iter"
    return "count"


def spec() -> dict:
    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": unit(n), "better": "lower"} for n in PER_LAYER],
    }


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) at the highest percentile that leaves at least ten
    samples above it; None below 20 samples, where that percentile would lie
    under the median."""
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def spawn(job: dict, deadline: float) -> dict | None:
    """Run one child to completion; None if it failed or ran past the
    deadline. Adds ``setup_s``, measured from just before the start."""
    env = os.environ | PINNED_THREADS
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), json.dumps(job)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
    )
    try:
        while proc.poll() is None:
            if time.monotonic() > deadline:
                return None
            time.sleep(0.005)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        return None
    with open(job["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - start
    return result


def measure(workload: str, seed: int, seconds: int, traced: bool, size: str) -> dict:
    """Run set-up probes, then repetitions until the next one would end after
    ``seconds``; in a traced run, untraced and traced repetitions alternate."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    work = OUT / f"work-{os.getpid()}"
    res = {"setup": [], "wall": [], "traced_wall": [], "rss_mb": [], "layers": [],
           "spans": [], "attempted": 0, "failed": [], "env": None}

    def child(i: int, probe: bool, with_trace: bool) -> dict | None:
        workdir = work / f"rep{i}"
        workdir.mkdir(parents=True)
        job = {"workload": workload, "seed": seed, "size": size, "workdir": str(workdir),
               "result": str(workdir / "result.json"), "probe": probe, "traced": with_trace}
        try:
            r = spawn(job, deadline)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if r is None:
            res["attempted"] += 1
            res["failed"].append(f"child{i}")
            return None
        res["env"] = res["env"] or r["env"]
        if not with_trace:
            res["setup"].append(r["setup_s"])
        return r

    try:
        for i in range(0 if traced else SETUP_PROBES):
            child(i, probe=True, with_trace=False)
        rep = 0
        while time.monotonic() < deadline:
            with_trace = traced and rep % 2 == 1
            began = time.monotonic()
            r = child(SETUP_PROBES + rep, probe=False, with_trace=with_trace)
            took = time.monotonic() - began
            rep += 1
            if r is not None:
                res["attempted"] += r["attempted"]
                res["failed"] += r["failed"]
                if with_trace:
                    res["traced_wall"].append(r["wall_s"])
                    res["layers"].append(r["layers"])
                    res["spans"].append(r["spans"])
                else:
                    res["wall"].append(r["wall_s"])
                    res["rss_mb"].append(r["rss_kb"] / 1024.0)
            done = rep >= (2 if traced else 1)
            if done and time.monotonic() - start + took > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return res


def summarize(workload: str, seed: int, traced: bool, res: dict) -> dict:
    """Print every metric with its unit and return the result object."""
    print(f"== {workload} seed={seed} trace={int(traced)}")
    metrics: dict[str, float] = {}
    failed = list(res["failed"])
    if res["wall"]:
        metrics["wall_s"] = statistics.median(res["wall"])
        t = tail(res["wall"])
        tail_text = f"p{t[0]:.1f} = {t[1]:.4f} s" if t else "n/a, fewer than 20 samples"
        print(f"  wall_s      = {metrics['wall_s']:.4f} s  "
              f"(median of {len(res['wall'])}; tail {tail_text})")
        print(f"    samples: {', '.join(f'{w:.4f}' for w in res['wall'])}")
        metrics["peak_rss_mb"] = statistics.median(res["rss_mb"])
        print(f"  peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB  (median of {len(res['rss_mb'])})")
    if res["setup"]:
        metrics["setup_s"] = statistics.median(res["setup"])
        print(f"  setup_s     = {metrics['setup_s']:.4f} s  (median of {len(res['setup'])})")
    attempted = max(res["attempted"], 1)
    print(f"  failed_frac = {len(failed)}/{attempted} = {len(failed) / attempted:.4g}"
          + (f"  failed: {sorted(set(failed))}" if failed else ""))

    if traced:
        layers = {}
        if res["layers"]:
            names = set.intersection(*(set(m) for m in res["layers"]))
            layers = {n: statistics.median(m[n] for m in res["layers"]) for n in sorted(names)}
        if res["traced_wall"] and res["wall"]:
            layers["trace.overhead_s"] = statistics.median(res["traced_wall"]) - metrics["wall_s"]
        for name, value in layers.items():
            print(f"  {name:40s} = {value:.6g} {unit(name)}")
        missing = [n for n in PER_LAYER if n not in layers]
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{workload}-seed{seed}.json"
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"env": res["env"], "layers": layers,
                       "spans": [dict(rep=rep, name=s[0], start=s[1], end=s[2],
                                      parent=s[3], attrs=s[4])
                                 for rep, spans in enumerate(res["spans"]) for s in spans]},
                      fh)
        print(f"  spans written to {trace_file.relative_to(ROOT)}")
        reported = {n: layers[n] for n in PER_LAYER if n in layers}
    else:
        missing = [n for n, *_ in END_TO_END if n not in metrics]
        reported = {n: metrics[n] for n, *_ in END_TO_END if n in metrics}
    if missing:
        print(f"  missing metrics: {missing}")
    failed += [f"missing_metric.{n}" for n in missing]
    return {
        "correct": not failed,
        "attempted": res["attempted"] + len(missing),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": unit(n)} for n, v in reported.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.write_spec:
        with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0
    if not (ROOT / "src" / "nia" / "__init__.py").is_file():
        print(f"error: no nia sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    size = "smoke" if args.smoke else "full"
    results = {}
    env = None
    for name in names:
        res = measure(name, args.seed, args.seconds, bool(args.trace), size)
        env = env or res["env"]
        results[name] = summarize(name, args.seed, bool(args.trace), res)
    print(f"env: {json.dumps(env)}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
