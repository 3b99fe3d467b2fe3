"""Command-line front end: generate, run, scan, verify."""

from __future__ import annotations

import argparse
import os
import sys

from .config import ExperimentConfig, load_config
from .errors import InvalidConfig, NiaError
from .experiments import run_experiment, scan_experiment, verify_experiment
from .instances import HardInstanceSpec, generate_hard_instance
from .io import (
    SCAN_FIELDS,
    LogitSpill,
    sha256_file,  # noqa: F401  (benchmarks/tracing.py times it by this name)
    write_csv,
    write_dataset_file,
    write_json,
    write_logit_dump,
    write_trace_csv,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nia",
        description="Sequential logit-passing protocol experiments on agent DAGs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("generate", "write dataset files for the configured instance"),
        ("run", "run the protocol once and write trace + report"),
        ("scan", "scan depth/pass grids and write a scaling CSV"),
        ("verify", "run the identity-verification suites"),
    ):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", help="JSON experiment configuration")
        cmd.add_argument("--out", help="output directory (overrides config)")
        cmd.add_argument(
            "--seed", type=int, help="replace instance.seeds with [N] and set verify.seed to N"
        )
        if name == "scan":
            cmd.add_argument("--threads", type=int, default=1, help="worker processes (default 1)")
    return parser


def _load(args: argparse.Namespace) -> ExperimentConfig:
    import dataclasses

    config = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        # InstanceConfig rejects a seed outside [0, 2**128 - 1] inside replace.
        config = dataclasses.replace(
            config,
            instance=dataclasses.replace(config.instance, seeds=(args.seed,)),
            verify=dataclasses.replace(config.verify, seed=args.seed),
        )
    if args.out is not None:
        config = dataclasses.replace(config, out_dir=args.out)
    return config


def cmd_generate(config: ExperimentConfig) -> int:
    if config.instance.kind != "hard":
        raise NiaError("generate requires instance.kind='hard'")
    out = config.out_dir
    k, n = config.instance.k, config.instance.n
    for seed in config.instance.seeds:
        dataset = generate_hard_instance(HardInstanceSpec(k=k, n=n, seed=seed))
        name = f"dataset_k{k}_n{n}_seed{seed}.nia"
        path = os.path.join(out, name)
        digest = write_dataset_file(path, dataset)
        write_json(
            path + ".json",
            {
                "kind": "hard",
                "k": k,
                "n": n,
                "d": dataset.d,
                "seed": seed,
                "file": name,
                "sha256": digest,
            },
        )
        print(f"wrote {path}")
    return 0


def cmd_run(config: ExperimentConfig) -> int:
    out = config.out_dir
    trace_path = os.path.join(out, "trace.csv")
    report_path = os.path.join(out, "run_report.json")
    # The logit dump's columns are spilled to disk as they are published, so
    # the run holds the graph's frontier of columns, not all of them.
    spill = LogitSpill(out) if config.dump_logits else None
    try:
        trace, rep = run_experiment(config, publish=spill.write if spill else None)
        write_trace_csv(trace_path, trace)
        write_json(report_path, rep)
        if spill:
            write_logit_dump(os.path.join(out, "logits.bin"), spill)
    finally:
        if spill:
            spill.close()
    print(f"wrote {trace_path}")
    print(f"wrote {report_path}")
    print(
        f"sink_loss={rep['sink_loss']:.6g} global_loss={rep['global_loss']:.6g} "
        f"excess={rep['excess']:.6g} coverage={rep['coverage']}"
    )
    theory = rep.get("theory")
    if theory and theory.get("rhs_convergence_bound") is not None:
        bound = theory["rhs_convergence_bound"]
        status = "within" if rep["excess"] <= bound else "VIOLATES"
        print(f"depth bound {bound:.6g}: excess {status} bound")
    return 0


def cmd_scan(config: ExperimentConfig, threads: int) -> int:
    # --threads is not a config value, so it does not change config_hash.
    if threads < 1:
        raise InvalidConfig(f"--threads must be >= 1, got {threads}")
    rows = scan_experiment(config, threads=threads)
    path = os.path.join(config.out_dir, "scan.csv")
    write_csv(path, rows, SCAN_FIELDS)
    failures = sum(1 for r in rows if r["error"])
    print(f"wrote {path} ({len(rows)} rows, {failures} failed points)")
    return 0


def cmd_verify(config: ExperimentConfig) -> int:
    report = verify_experiment(config)
    path = os.path.join(config.out_dir, "verify_report.json")
    write_json(path, report)
    for name, suite in report["suites"].items():
        status = "PASS" if suite["passed"] else "FAIL"
        print(
            f"{status} {name}: margin={suite['margin']:.3g} "
            f"(threshold {suite['threshold']:.3g})"
        )
    print(f"wrote {path}")
    return 0 if report["all_passed"] else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load(args)
        if args.command == "generate":
            return cmd_generate(config)
        if args.command == "run":
            return cmd_run(config)
        if args.command == "scan":
            return cmd_scan(config, args.threads)
        if args.command == "verify":
            return cmd_verify(config)
    except NiaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
