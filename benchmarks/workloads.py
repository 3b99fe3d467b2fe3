"""The benchmark's workloads: input set-up, the timed call into nia, and the
output checks.

Each workload is built from the workload seed alone and drives nia only
through its public functions. Construction is set-up (config and graph
files); ``run`` is the timed repetition; ``operations`` lists every
operation the repetition attempted with whether it succeeded, output checks
included.
"""

from __future__ import annotations

import json
import os

import numpy as np

import nia
import nia.cli
import nia.config
import nia.experiments
import nia.io

DEFAULT_SEED = 1

# Size -> seed -> recorded outputs. A seed without an entry gets only the
# seed-independent checks.
REFERENCES = {
    "path-scan": {
        "full": {
            1: {
                "sink_loss": {
                    8: 0.6331336283088683,
                    16: 0.6138800457429947,
                    32: 0.5995137570880684,
                    64: 0.5994904416353255,
                }
            }
        },
        "smoke": {
            1: {
                "sink_loss": {
                    4: 0.6467702223739242,
                    8: 0.6262642312357602,
                    16: 0.6064180494471987,
                }
            }
        },
    },
    "dag-file-run": {
        "full": {
            1: {"dataset_sha256": "d562290f14f36eb4c78638fecf904dbdc5dc06d2c7a70e61b08d0a2da80bae9c"}
        },
        "smoke": {
            1: {"dataset_sha256": "9253b66f7957d138153e6beda527b45c07ba358531b5c92889728233cf991137"}
        },
    },
}

# Forwarding the parent's logits is always feasible, so path losses may rise
# only by solver slack.
MONOTONE_SLACK = 1e-9
RESIDUAL_MOMENT_LIMIT = 1e-9


class PathScan:
    """One seed of the acceptance depth sweep on the cyclic path."""

    name = "path-scan"
    sizes = {"full": (200_000, (8, 16, 32, 64)), "smoke": (2_000, (4, 8, 16))}

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        self.seed, self.size = seed, size
        n, self.depths = self.sizes[size]
        self.config = nia.config.parse_config(
            {
                "instance": {"kind": "hard", "k": 4, "n": n, "seeds": [seed]},
                "scan": {"depths": list(self.depths)},
            }
        )

    def run(self):
        return nia.experiments.scan_experiment(self.config, threads=1)

    def operations(self, rows, taps) -> list[tuple[str, bool]]:
        ops = [(f"scan_row.D{r['D']}", r["error"] is None) for r in rows]
        ops.append(("check.rows_complete", sorted(r["D"] for r in rows) == list(self.depths)))
        path = taps.protocol_runs[-1]["loss_path"] if taps.protocol_runs else []
        ops.append(
            (
                "check.loss_path_monotone",
                bool(path) and all(b - a <= MONOTONE_SLACK for a, b in zip(path, path[1:])),
            )
        )
        ref = REFERENCES[self.name][self.size].get(self.seed)
        if ref is not None:
            # Two exact solvers differ at each agent by a step whose gradient is
            # at most grad_tol, applied to weights of order one; summed along
            # the path, a valid solver change stays within depth * grad_tol.
            tol = max(self.depths) * self.config.solver.grad_tol
            got = {r["D"]: r["sink_loss"] for r in rows}
            for depth, want in ref["sink_loss"].items():
                ok = got.get(depth) is not None and abs(got[depth] - want) <= tol
                ops.append((f"check.reference_sink_loss.D{depth}", ok))
        return ops


class VerifyDefault:
    """The default ``nia verify``, with the workload seed as verify.seed."""

    name = "verify-default"
    sizes = {
        "full": {},
        "smoke": {
            "n_protocol": 3_000,
            "n_decomposition": 3_000,
            "pinsker_trials": 1_000,
            "noise_samples": 50_000,
        },
    }

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        self.config = nia.config.parse_config({"verify": {"seed": seed, **self.sizes[size]}})

    def run(self):
        return nia.experiments.verify_experiment(self.config)

    def operations(self, report, taps) -> list[tuple[str, bool]]:
        suites = report["suites"]
        ops = [(f"suite.{name}", s["passed"]) for name, s in suites.items()]
        ops.append(("check.all_passed", report["all_passed"] is True))
        ops.append(("check.margins_nonnegative", all(s["margin"] >= 0 for s in suites.values())))
        return ops


def windowed_path(agents: int = 24, sizes: tuple[int, ...] = (1, 3, 5), d: int = 8) -> dict:
    """Graph file object: a path of ``agents`` agents, agent i observing the
    next ``sizes[i % len(sizes)]`` features in cyclic order, then one
    featureless sink fed by the last of them. Designs have widths 2, 4 and 6
    (1 for the first agent and the sink).

    Each agent has one parent. With several parents per agent (a layered DAG),
    parent columns turn collinear or tiny on this instance and fit_logistic
    stops at its weight-norm cap on roughly one seed in ten.
    """
    out, start = [], 0
    for i in range(agents):
        m = sizes[i % len(sizes)]
        features = sorted((start + j) % d + 1 for j in range(m))
        out.append({"id": i + 1, "features": features, "parents": [i] if i else []})
        start += m
    out.append({"id": agents + 1, "features": [], "parents": [agents]})
    return {"d": d, "agents": out}


class DagFileRun:
    """``nia generate`` then ``nia run`` on a file dataset and a graph file."""

    name = "dag-file-run"
    sizes = {"full": 400_000, "smoke": 3_000}
    k = 8

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        self.seed, self.size = seed, size
        n = self.sizes[size]
        self.data_dir = os.path.join(workdir, "data")
        self.run_dir = os.path.join(workdir, "run")
        self.dataset = os.path.join(self.data_dir, f"dataset_k{self.k}_n{n}_seed{seed}.nia")
        self.graph = os.path.join(workdir, "graph.json")
        self.gen_config = os.path.join(workdir, "generate.json")
        self.run_config = os.path.join(workdir, "run.json")
        files = {
            self.graph: windowed_path(d=self.k),
            self.gen_config: {
                "instance": {"kind": "hard", "k": self.k, "n": n, "seeds": [seed]},
                "out_dir": self.data_dir,
            },
            self.run_config: {
                "instance": {"kind": "file", "dataset": self.dataset},
                "graph": {"file": self.graph},
                "dump_logits": True,
                "out_dir": self.run_dir,
            },
        }
        for path, obj in files.items():
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)

    def run(self):
        return (
            nia.cli.main(["generate", "--config", self.gen_config]),
            nia.cli.main(["run", "--config", self.run_config]),
        )

    def operations(self, codes, taps) -> list[tuple[str, bool]]:
        ops = [("cli.generate", codes[0] == 0), ("cli.run", codes[1] == 0)]
        if codes != (0, 0):
            return ops
        with open(self.dataset + ".json", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        with open(os.path.join(self.run_dir, "run_report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        digest = nia.io.sha256_file(self.dataset)
        ops.append(("check.sidecar_sha256", digest == sidecar["sha256"]))
        ref = REFERENCES[self.name][self.size].get(self.seed)
        if ref is not None:
            ops.append(("check.reference_sha256", digest == ref["dataset_sha256"]))
        ops.append(("check.all_converged", report["all_converged"] is True))

        dataset = nia.io.read_dataset_file(self.dataset)
        graph, _ = nia.io.read_graph_file(self.graph)
        logits = nia.io.read_logit_dump(os.path.join(self.run_dir, "logits.bin"))
        column = {agent: i for i, agent in enumerate(graph.topo_order)}
        sink = report["sink_agent"]
        sink_loss = nia.bce_loss(logits[:, column[sink]], dataset.labels)
        ops.append(("check.sink_loss_matches_dump", sink_loss == report["sink_loss"]))
        for agent in graph.topo_order:
            cols = [dataset.features[:, f - 1] for f in sorted(graph.feature_set(agent))]
            cols += [logits[:, column[p]] for p in graph.parents_of(agent)]
            moments = nia.residual_moments(
                np.column_stack(cols), logits[:, column[agent]], dataset.labels
            )
            ok = float(np.max(np.abs(moments))) <= RESIDUAL_MOMENT_LIMIT
            ops.append((f"check.residual_moments.agent{agent}", ok))
        return ops


WORKLOADS = {w.name: w for w in (PathScan, VerifyDefault, DagFileRun)}
