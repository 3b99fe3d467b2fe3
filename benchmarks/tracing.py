"""Spans and result taps for the benchmark's child processes.

Both wrap nia functions at the name their caller looks them up under (for
example ``nia.protocol.fit_logistic``, not ``nia.logistic.fit_logistic``), so
calls made inside nia are seen. Taps record fit outcomes without timing
anything and are always on; the tracer records timed spans and is installed
only in traced repetitions. ``layer_metrics`` turns one repetition's spans
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

import nia.cli
import nia.config
import nia.data
import nia.experiments
import nia.graph
import nia.instances
import nia.io
import nia.logistic
import nia.protocol
from run import tail

# verify suite function in nia.experiments -> key in the verify report
SUITES = {
    "orthogonality_suite": "orthogonality",
    "decomposition_suite": "decomposition",
    "pinsker_suite": "pinsker",
    "monotone_loss_suite": "monotone_loss",
    "coefficient_suite": "coefficient_closed_form",
    "scaling_factor_suite": "scaling_factor_range",
    "noise_monotonicity_suite": "noise_monotonicity",
}


def _wrap(owner, attr: str, around) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return around(fn, args, kwargs)

    setattr(owner, attr, wrapper)


class Taps:
    """Outcomes of every protocol run and every global fit, for counting
    operations and checking outputs; nothing here is timed."""

    def __init__(self) -> None:
        self.protocol_runs: list[dict] = []
        self.global_fits: list[bool] = []

    def install(self) -> None:
        _wrap(nia.experiments, "run_protocol", self._on_protocol)
        # Inside nia.experiments, fit_logistic is only reached via global fits.
        _wrap(nia.experiments, "fit_logistic", self._on_global_fit)

    def _on_protocol(self, fn, args, kwargs):
        trace = fn(*args, **kwargs)
        self.protocol_runs.append(
            {
                "agents": len(trace.order),
                "unconverged": sum(not m.converged for m in trace.models.values()),
                "loss_path": [float(x) for x in trace.loss_path()],
            }
        )
        return trace

    def _on_global_fit(self, fn, args, kwargs):
        fit = fn(*args, **kwargs)
        self.global_fits.append(bool(fit.converged))
        return fit


def _rows(args, kwargs, result) -> dict:
    return {"rows": int(getattr(result, "size", 1))}


def _fit(args, kwargs, result) -> dict:
    return {
        "width": int(result.weights.size),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
    }


def _trace(args, kwargs, result) -> dict:
    return {
        "agents": len(result.order),
        "logit_bytes": int(sum(col.nbytes for col in result.logits.values())),
    }


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _targets() -> list[tuple]:
    """(owner, attribute, span name, attribute recorder) for every wrapped
    layer boundary."""
    ex, cli = nia.experiments, nia.cli
    return [
        (nia.protocol, "fit_logistic", "logistic.fit", _fit),
        (ex, "fit_logistic", "logistic.fit", _fit),
        (nia.logistic, "sigmoid", "logistic.sigmoid", _rows),
        (nia.logistic, "stable_softplus", "logistic.softplus", _rows),
        (ex, "run_protocol", "protocol.run", _trace),
        (nia.protocol, "agent_design", "protocol.design", None),
        (ex, "generate_hard_instance", "instances.generate", None),
        (cli, "generate_hard_instance", "instances.generate", None),
        (nia.instances, "gauss_hermite_expectation", "instances.quadrature", None),
        (ex, "optimal_scaling_factor", "instances.scaling_factor", None),
        (ex, "numeric_pass_coefficients", "instances.pass_coeff_check", None),
        (ex, "noise_monotonicity_check", "instances.noise_mc", None),
        (ex, "global_logistic_fit", "experiments.global_fit", None),
        (ex, "scan_experiment", "experiments.scan", None),
        *((ex, fn, f"experiments.suite.{key}", None) for fn, key in SUITES.items()),
        (ex, "verify_decomposition", "metrics.decomposition", None),
        (cli, "write_dataset_file", "io.dataset_write", _file_bytes),
        (ex, "read_dataset_file", "io.dataset_read", None),
        (cli, "sha256_file", "io.sha256", None),
        (cli, "write_trace_csv", "io.trace_csv", None),
        (cli, "write_logit_dump", "io.logit_dump", _file_bytes),
        (nia.data.Dataset, "__post_init__", "data.validate", None),
        (nia.graph, "build_agent_graph", "graph.build", None),
        (nia.io, "build_agent_graph", "graph.build", None),
        (cli, "load_config", "config.load", None),
        (nia.config, "parse_config", "config.load", None),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    """In-memory spans: [name, start, end, parent index, attributes]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def install(self) -> None:
        for owner, attr, name, recorder in _targets():
            _wrap(owner, attr, functools.partial(self._span, name, recorder))

    def _span(self, name, recorder, fn, args, kwargs):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
        if recorder is not None:
            span[4] = recorder(args, kwargs, result)
        return result


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition; a layer the workload never
    entered contributes no metrics."""
    children: list[list[int]] = [[] for _ in spans]
    by_name: dict[str, list[int]] = {}
    for i, (name, _, _, parent, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent >= 0:
            children[parent].append(i)

    def dur(i: int) -> float:
        return spans[i][2] - spans[i][1]

    def within(i: int, name: str) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def total(name: str) -> float:
        # Outermost spans only, so a boundary wrapped under two names (or
        # reached recursively) is not counted twice.
        return sum(dur(i) for i in by_name.get(name, ()) if not within(i, name))

    def self_time(name: str) -> float:
        return sum(
            dur(i) - sum(dur(c) for c in children[i]) for i in by_name.get(name, ())
        )

    def attrs(name: str) -> list[dict]:
        return [spans[i][4] for i in by_name.get(name, ())]

    m: dict[str, float] = {}

    fits = by_name.get("logistic.fit", [])
    if fits:
        ms = [1e3 * dur(i) for i in fits]
        iters = sum(spans[i][4]["iterations"] for i in fits)
        m["logistic.fit_calls"] = len(fits)
        m["logistic.fit_s"] = total("logistic.fit")
        m["logistic.fit_ms.p50"] = statistics.median(ms)
        t = tail(ms)
        if t is not None:
            m["logistic.fit_ms.tail_pct"], m["logistic.fit_ms.tail"] = t
        widths: dict[int, list[float]] = {}
        for i, v in zip(fits, ms):
            widths.setdefault(spans[i][4]["width"], []).append(v)
        for w, vals in sorted(widths.items()):
            m[f"logistic.fit_ms.w{w}"] = statistics.median(vals)
        m["logistic.newton_iters"] = iters
        m["logistic.unconverged"] = sum(not spans[i][4]["converged"] for i in fits)
        in_fit = sum(within(i, "logistic.fit") for i in by_name.get("logistic.softplus", ()))
        if iters:
            m["logistic.objective_evals_per_iter"] = in_fit / iters
    for kernel in ("sigmoid", "softplus"):
        m[f"logistic.{kernel}_calls"] = len(by_name.get(f"logistic.{kernel}", ()))
        m[f"logistic.{kernel}_s"] = total(f"logistic.{kernel}")
    # Computed, not measured: one float64 read and one written per row.
    m["logistic.kernel_bytes"] = 16 * sum(
        a["rows"] for k in ("logistic.sigmoid", "logistic.softplus") for a in attrs(k)
    )

    runs = by_name.get("protocol.run", [])
    if runs:
        agent_ms = []
        for r in runs:
            starts = sorted(spans[c][1] for c in children[r] if spans[c][0] == "protocol.design")
            bounds = starts + [spans[r][2]]
            agent_ms += [1e3 * (b - a) for a, b in zip(bounds, bounds[1:])]
        m["protocol.run_s"] = total("protocol.run")
        m["protocol.agents"] = sum(a["agents"] for a in attrs("protocol.run"))
        m["protocol.agent_ms.p50"] = statistics.median(agent_ms)
        m["protocol.design_s"] = total("protocol.design")
        m["protocol.self_s"] = self_time("protocol.run")
        m["protocol.trace_logit_bytes"] = sum(a["logit_bytes"] for a in attrs("protocol.run"))

    if "instances.quadrature" in by_name:
        m["instances.quadrature_calls"] = len(by_name["instances.quadrature"])
    for metric, span in (
        ("instances.generate_s", "instances.generate"),
        ("instances.quadrature_s", "instances.quadrature"),
        ("instances.scaling_factor_s", "instances.scaling_factor"),
        ("instances.pass_coeff_check_s", "instances.pass_coeff_check"),
        ("instances.noise_mc_s", "instances.noise_mc"),
        ("experiments.global_fit_s", "experiments.global_fit"),
        ("metrics.decomposition_s", "metrics.decomposition"),
        ("io.dataset_write_s", "io.dataset_write"),
        ("io.dataset_read_s", "io.dataset_read"),
        ("io.sha256_s", "io.sha256"),
        ("io.trace_csv_s", "io.trace_csv"),
        ("io.logit_dump_s", "io.logit_dump"),
        ("data.validate_s", "data.validate"),
        ("graph.build_s", "graph.build"),
        ("config.load_s", "config.load"),
    ):
        if span in by_name:
            m[metric] = total(span)
    if "experiments.scan" in by_name:
        m["experiments.scan_self_s"] = self_time("experiments.scan")
    for key in SUITES.values():
        if f"experiments.suite.{key}" in by_name:
            m[f"experiments.suite_s.{key}"] = total(f"experiments.suite.{key}")
    if "metrics.decomposition" in by_name:
        m["metrics.decomposition_calls"] = len(by_name["metrics.decomposition"])
    if "io.dataset_write" in by_name:
        m["io.dataset_bytes"] = sum(a["bytes"] for a in attrs("io.dataset_write"))
    if "io.logit_dump" in by_name:
        m["io.logit_dump_bytes"] = sum(a["bytes"] for a in attrs("io.logit_dump"))
    if "cli.main" in by_name:
        m["cli.self_s"] = self_time("cli.main")
    return m
