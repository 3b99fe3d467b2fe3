"""Drivers behind the CLI: protocol runs, depth scans, verification suites."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from itertools import repeat
from typing import Callable

import numpy as np

from .config import ExperimentConfig, VerifyConfig
from .data import Dataset
from .errors import InvalidConfig
from .graph import check_m_coverage, cyclic_path_assignment
from .instances import (
    HardInstanceSpec,
    generate_hard_instance,
    noise_monotonicity_check,
    numeric_pass_coefficients,
    optimal_pass_coefficients,
    optimal_scaling_factor,
    scaling_gradient,
)
from .io import SCAN_FIELDS, read_dataset_file, read_graph_file
from .logistic import FitOptions, FitResult, fit_logistic
from .metrics import (
    bernoulli_kl_pointwise,
    convergence_bound_rhs,
    feature_second_moment_bound,
    residual_bound_rhs,
    stable_block,
    verify_decomposition,
)
from .protocol import ProtocolTrace, run_protocol, sink_excess_loss

C_RANGE_PASSES = (1, 2, 4, 8, 16, 64)
COEFFICIENT_PASSES = (2, 3, 4, 5, 6)
COEFFICIENT_SCALES = (0.3, 0.7, 1.0)
NOISE_VARIANCE_PAIRS = ((0.0, 0.5), (0.5, 1.0), (1.0, 2.0))


def global_logistic_fit(dataset: Dataset, opts: FitOptions) -> FitResult:
    """Fit on all d feature columns; the comparator for excess losses."""
    return fit_logistic(dataset.features, dataset.labels, opts)


def run_experiment(
    config: ExperimentConfig, publish: Callable[[int, np.ndarray], object] | None = None
) -> tuple[ProtocolTrace, dict]:
    """One protocol run plus the global fit, bound values, and diagnostics;
    returns (trace, report).

    The protocol run streams, so the trace keeps no column; ``publish`` is
    handed to ``run_protocol`` and sees each column as it is published.

    A cyclic path runs over the dataset's ``d`` features with window M
    defaulting to ``d``; a graph file's own ``d`` only bounds its feature
    indices. Coverage of all ``d`` dataset features is evaluated only for
    path graphs with a window M no longer than the path, and is reported as
    None otherwise; when it fails (or is not applicable) the depth-bound
    comparison is omitted from the report rather than computed on an
    inapplicable graph.
    """
    inst, gc = config.instance, config.graph
    if gc is None:
        raise InvalidConfig("this command requires a 'graph' section")
    seed = None
    if inst.kind == "file":
        dataset = read_dataset_file(inst.dataset)
    else:
        seed = inst.seeds[0]
        dataset = generate_hard_instance(HardInstanceSpec(k=inst.k, n=inst.n, seed=seed))
    d = dataset.d
    if gc.cyclic_depth is not None:
        graph = cyclic_path_assignment(d, gc.cyclic_depth)
        window = gc.m if gc.m is not None else d
    else:
        graph, window = read_graph_file(gc.file)[0], gc.m
    trace = run_protocol(dataset, graph, config.solver, publish=publish)
    gfit = global_logistic_fit(dataset, config.solver)
    excess = sink_excess_loss(trace, gfit)
    sink = trace.sink_id

    is_path = graph.is_path()
    depth = graph.num_agents
    coverage = first_violation = block = theory = None
    if is_path and window is not None and window <= depth:
        coverage, first_violation = check_m_coverage(graph, window, d)
        block = stable_block(trace.loss_path(), window)
        b_x = feature_second_moment_bound(dataset.features)
        epsilon = max(block.drop, 0.0)
        theory = {
            "b_x": b_x,
            "b_g": gfit.l1_norm,
            "m": window,
            "depth": depth,
            "epsilon": epsilon,
            "rhs_residual_bound": residual_bound_rhs(gfit.l1_norm, b_x, window, epsilon),
            "rhs_convergence_bound": (
                convergence_bound_rhs(gfit.l1_norm, b_x, window, depth) if coverage else None
            ),
        }

    report = {
        "config_hash": config.config_hash(),
        "n": dataset.n,
        "d": d,
        "seed": seed,
        "depth": depth,
        "m": window,
        "is_path": is_path,
        "coverage": coverage,
        "coverage_first_violation": first_violation,
        "sink_agent": sink,
        "sinks": list(graph.sinks()),
        "sink_loss": trace.models[sink].loss,
        "global_loss": gfit.loss,
        "excess": excess,
        "all_converged": trace.all_converged and gfit.converged,
        "stable_block": ({"index": block.index, "drop": block.drop} if block else None),
        "theory": theory,
    }
    return trace, report


def _scan_grid(config: ExperimentConfig) -> list[tuple[int, int]]:
    sc = config.scan
    if sc is None:
        raise InvalidConfig("scan requires a 'scan' section")
    k = config.instance.k
    depths = sorted(set(sc.depths) | {k * p for p in sc.passes})
    windows = sc.windows if sc.windows else (k,)
    grid = [(depth, m) for depth in depths for m in windows]
    for depth, m in grid:
        if m > depth:
            raise InvalidConfig(f"scan window {m} exceeds depth {depth}")
    return grid


def _scan_seed_rows(
    k: int, n: int, seed: int, grid: list[tuple[int, int]], opts: FitOptions, chash: str
) -> list[dict]:
    """All scan rows for one seed.

    The protocol trace of a cyclic path is prefix-stable (agent i's fit only
    sees its ancestors), so one run at the maximum depth yields the sink
    losses of every shallower depth. The path repeats with period k, so a
    window covers every prefix exactly when it covers the whole path; a row
    whose window fails coverage gets no ``upper_bound``.
    """
    base = {
        "config_hash": chash,
        "k": k,
        "seed": seed,
        "n": n,
        "error": None,
    }
    try:
        dataset = generate_hard_instance(HardInstanceSpec(k=k, n=n, seed=seed))
        gfit = global_logistic_fit(dataset, opts)
        path = cyclic_path_assignment(k, max(depth for depth, _ in grid))
        covered = {m: check_m_coverage(path, m, k).ok for _, m in grid}
        losses = run_protocol(dataset, path, opts).loss_path()
        b_x = feature_second_moment_bound(dataset.features)
        rows = []
        for depth, m in grid:
            sink_loss = float(losses[depth - 1])
            p = depth / k
            bound = convergence_bound_rhs(gfit.l1_norm, b_x, m, depth) if covered[m] else None
            rows.append(
                base
                | {
                    "D": depth,
                    "M": m,
                    "p": int(p) if p.is_integer() else p,
                    "sink_loss": sink_loss,
                    "global_loss": gfit.loss,
                    "excess": sink_loss - gfit.loss,
                    "upper_bound": bound,
                    "lower_shape": 1.0 / (p + 1.0),
                }
            )
        return rows
    except Exception as exc:  # recorded per point, the scan itself continues
        error = f"{type(exc).__name__}: {exc}"
        return [
            dict.fromkeys(SCAN_FIELDS) | base | {"D": depth, "M": m, "p": depth / k, "error": error}
            for depth, m in grid
        ]


def scan_experiment(config: ExperimentConfig, threads: int | None = None) -> list[dict]:
    """Depth/pass scan: one row per (grid point, seed), ordered by
    (depth, window, seed). Seeds run in parallel when threads (default
    ``config.threads``) > 1."""
    if config.instance.kind != "hard":
        raise InvalidConfig("scan currently supports the generated instance only")
    grid = _scan_grid(config)
    k, n = config.instance.k, config.instance.n
    chash = config.config_hash()
    workers = threads if threads is not None else config.threads
    seeds = config.instance.seeds

    if workers > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_seed = list(
                pool.map(
                    _scan_seed_rows,
                    repeat(k), repeat(n), seeds, repeat(grid), repeat(config.solver), repeat(chash),
                )
            )
    else:
        per_seed = [_scan_seed_rows(k, n, seed, grid, config.solver, chash) for seed in seeds]

    rows = [row for rows_ in per_seed for row in rows_]
    rows.sort(key=lambda r: (r["D"], r["M"], r["seed"]))
    return rows


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def _suite(passed: bool, margin: float, threshold: float, **details) -> dict:
    return {
        "passed": bool(passed),
        "margin": float(margin),
        "threshold": float(threshold),
        "details": details,
    }


def orthogonality_suite(trace: ProtocolTrace, threshold: float = 1e-9) -> dict:
    """Residual moments of every converged agent's own design at its fitted
    logits, which are each fit's gradient; all must vanish to within the
    threshold."""
    fits = trace.models.values()
    worst = max((f.grad_norm for f in fits if f.converged), default=0.0)
    unconverged = sum(not f.converged for f in fits)
    return _suite(
        worst <= threshold and unconverged == 0,
        threshold - worst,
        threshold,
        max_moment=worst,
        unconverged_agents=unconverged,
    )


def monotone_loss_suite(trace: ProtocolTrace, threshold: float = 1e-9) -> dict:
    """Consecutive losses along the path may rise only by solver slack,
    because forwarding the parent logit unchanged is always feasible."""
    losses = trace.loss_path()
    increases = np.diff(losses)
    worst = float(np.max(increases)) if increases.size else 0.0
    return _suite(worst <= threshold, threshold - worst, threshold, max_increase=worst)


def decomposition_suite(dataset: Dataset, config: ExperimentConfig, threshold: float = 1e-8) -> dict:
    """Loss-decomposition identity around the global fit on ``dataset`` for
    perturbed comparators; the residual scales with the achieved gradient norm."""
    vc = config.verify
    gfit = global_logistic_fit(dataset, replace(config.solver, grad_tol=vc.decomposition_grad_tol))
    rng = np.random.Generator(np.random.Philox(key=vc.seed))
    comparators = (
        dataset.features @ (gfit.weights + rng.uniform(-0.1, 0.1, size=dataset.d))
        for _ in range(vc.decomposition_perturbations)
    )
    worst = verify_decomposition(dataset.labels, dataset.features @ gfit.weights, comparators)
    return _suite(
        worst <= threshold and gfit.converged,
        threshold - worst,
        threshold,
        max_residual=worst,
        global_grad_norm=gfit.grad_norm,
        global_converged=gfit.converged,
    )


def pinsker_suite(trials: int, seed: int, threshold: float = -1e-12) -> dict:
    """Expected KL dominates twice the mean squared probability gap; checked
    pointwise on random probability pairs from the open unit interval."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    p = rng.random(trials) + 2.0 ** -54
    q = rng.random(trials) + 2.0 ** -54
    gaps = bernoulli_kl_pointwise(p, q) - 2.0 * (p - q) ** 2
    worst = float(np.min(gaps))
    return _suite(worst >= threshold, worst - threshold, threshold, min_gap=worst)


def coefficient_suite(threshold: float = 1e-9) -> dict:
    """Numeric minimization of the pass-predictor residual variance must
    match the closed form (coefficient-difference sum and minimal value)."""
    worst = 0.0
    for p in COEFFICIENT_PASSES:
        for c in COEFFICIENT_SCALES:
            closed = optimal_pass_coefficients(p, c)
            s_closed = -c * (p - 1) / p
            s_num, var_num = numeric_pass_coefficients(p, c)
            worst = max(worst, abs(s_num - s_closed), abs(var_num - closed.residual_variance))
    return _suite(worst <= threshold, threshold - worst, threshold, max_deviation=worst)


def scaling_factor_suite(threshold: float = 1e-10) -> dict:
    """Optimal scales lie strictly inside (0, 1), increase with the pass
    index, and zero the quadrature loss derivative."""
    values = []
    worst_grad = 0.0
    for p in C_RANGE_PASSES:
        c = optimal_scaling_factor(p)
        values.append(c)
        worst_grad = max(worst_grad, abs(scaling_gradient(c, p)))
    in_range = all(0.0 < c < 1.0 for c in values)
    increasing = all(b > a for a, b in zip(values, values[1:]))
    return _suite(
        in_range and increasing and worst_grad <= threshold,
        threshold - worst_grad,
        threshold,
        c_values=values,
        in_range=in_range,
        increasing=increasing,
        max_gradient=worst_grad,
    )


def noise_monotonicity_suite(
    c: float, n_mc: int, seed: int, min_margin_se: float = 3.0
) -> dict:
    """Loss strictly increases with the logit noise variance, with the
    paired Monte Carlo margin measured in standard errors.

    Every pair shares one (Z, xi) stream, drawn and evaluated in blocks of
    65536 rows, so memory does not grow with ``n_mc``."""
    comparisons = noise_monotonicity_check(c, NOISE_VARIANCE_PAIRS, n_mc, seed)
    pairs = [
        {
            "v_small": v_small,
            "v_large": v_large,
            "loss_small": cmp.loss_small,
            "loss_large": cmp.loss_large,
            "margin_se": cmp.margin_se,
        }
        for (v_small, v_large), cmp in zip(NOISE_VARIANCE_PAIRS, comparisons)
    ]
    worst = min(cmp.margin_se for cmp in comparisons)
    return _suite(worst > min_margin_se, worst - min_margin_se, min_margin_se, pairs=pairs)


def verify_experiment(config: ExperimentConfig) -> dict:
    """Run every verification suite and aggregate a pass/fail report.

    The protocol run streams, keeping no column: the two suites that read it
    need only its fits. The decomposition suite reuses its dataset unless
    ``n_decomposition`` differs from ``n_protocol``, and the dataset is
    dropped before the later suites."""
    vc: VerifyConfig = config.verify
    spec = HardInstanceSpec(k=vc.k, n=vc.n_protocol, seed=vc.seed)
    dataset = generate_hard_instance(spec)
    graph = cyclic_path_assignment(vc.k, vc.depth)
    trace = run_protocol(dataset, graph, config.solver)
    orthogonality = orthogonality_suite(trace)
    monotone_loss = monotone_loss_suite(trace)
    if vc.n_decomposition != spec.n:
        del dataset  # before the second instance is generated
        dataset = generate_hard_instance(replace(spec, n=vc.n_decomposition))
    decomposition = decomposition_suite(dataset, config)
    del dataset
    suites = {
        "orthogonality": orthogonality,
        "decomposition": decomposition,
        "pinsker": pinsker_suite(vc.pinsker_trials, vc.seed),
        "monotone_loss": monotone_loss,
        "coefficient_closed_form": coefficient_suite(),
        "scaling_factor_range": scaling_factor_suite(),
        "noise_monotonicity": noise_monotonicity_suite(
            vc.noise_scale, vc.noise_samples, vc.seed
        ),
    }
    return {
        "config_hash": config.config_hash(),
        "suites": suites,
        "all_passed": all(s["passed"] for s in suites.values()),
    }
