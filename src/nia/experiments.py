"""Drivers behind the CLI: protocol runs, depth scans, verification suites."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from itertools import repeat
from typing import Callable

import numpy as np

from .config import ExperimentConfig, VerifyConfig
from .data import Dataset
from .errors import InvalidConfig, NiaError
from .graph import check_m_coverage, covering_window, cyclic_path_assignment
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
from .logistic import SEPARABLE, FitOptions, FitResult, fit_logistic
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
NOISE_SCALE = 0.8  # the logit scale c of the noise-monotonicity losses

# Pass thresholds of the verification suites.
MOMENT_LIMIT = 1e-9  # largest residual moment of a converged agent
LOSS_RISE_LIMIT = 1e-9  # largest loss increase along the path
DECOMPOSITION_LIMIT = 1e-8  # largest decomposition-identity residual
DECOMPOSITION_GRAD_TOL = 1e-12  # the global fit's tolerance, which that limit presumes
DECOMPOSITION_PERTURBATIONS = 20  # perturbed comparators of the decomposition check
PINSKER_FLOOR = -1e-12  # smallest KL - 2 (p - q)^2 gap
COEFFICIENT_LIMIT = 1e-9  # largest closed-form deviation
SCALING_GRADIENT_LIMIT = 1e-10  # largest |loss derivative| at an optimal scale
NOISE_MIN_RISE = 1e-12  # smallest loss increase, far above the quadrature error


def global_logistic_fit(dataset: Dataset, opts: FitOptions) -> FitResult:
    """Fit on all d feature columns; the comparator for excess losses."""
    return fit_logistic(dataset.features, dataset.labels, opts)


def run_experiment(
    config: ExperimentConfig, publish: Callable[[int, np.ndarray], object] | None = None
) -> tuple[ProtocolTrace, dict]:
    """One protocol run plus the global fit, bound values, and diagnostics;
    returns (trace, report). A generated instance uses ``instance.seeds[0]``
    only, the report's ``seed``; the other seeds are for generate and scan.

    The protocol run streams, so the trace keeps no column; ``publish`` is
    handed to ``run_protocol`` and sees each column as it is published.

    A cyclic path runs over the dataset's ``d`` features; a graph file's own
    ``d`` only bounds its feature indices. On a path graph the window M is
    its ``covering_window`` for all ``d`` dataset features, and coverage is
    checked at M, or at the path's length when no window covers. The
    stable block and the bound ingredients (``theory``) are reported when
    coverage holds, and None otherwise.

    The labels are ``separable`` when the global fit stops with
    ``SEPARABLE``: BCE then has no minimizer, the fit is unconverged and the
    excess means nothing. Every agent's design lies in the span of the
    features, so this one verdict stands for every fit of the run.
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
    else:
        graph = read_graph_file(gc.file)[0]
    trace = run_protocol(dataset, graph, config.solver, publish=publish)
    gfit = global_logistic_fit(dataset, config.solver)
    separable = gfit.message == SEPARABLE
    excess = sink_excess_loss(trace, gfit)
    sink = trace.sink_id

    is_path = graph.is_path()
    depth = graph.num_agents
    window = coverage = first_violation = block = theory = None
    if is_path:
        window = covering_window(graph, d)
        coverage, first_violation = check_m_coverage(graph, window or depth, d)
    if coverage:
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
            "rhs_convergence_bound": convergence_bound_rhs(gfit.l1_norm, b_x, window, depth),
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
        "separable": separable,
        "stable_block": ({"index": block.index, "drop": block.drop} if block else None),
        "theory": theory,
    }
    return trace, report


def _scan_depths(config: ExperimentConfig) -> list[int]:
    sc = config.scan
    if sc is None:
        raise InvalidConfig("scan requires a 'scan' section")
    k = config.instance.k
    depths = sorted(set(sc.depths))
    if depths[0] < k:
        raise InvalidConfig(
            f"scan depth {depths[0]} is below instance.k = {k}, the path's covering window"
        )
    return depths


def _scan_seed_rows(
    k: int, n: int, seed: int, depths: list[int], opts: FitOptions, chash: str
) -> list[dict]:
    """All scan rows for one seed.

    The protocol trace of a cyclic path is prefix-stable (agent i's fit only
    sees its ancestors), so one run at the maximum depth yields the sink
    losses of every shallower depth. Every cyclic path of depth D >= k has
    covering window M = k, the M of each row's ``upper_bound``. A seed whose
    labels are separable has no excess: its rows carry that in ``error``.
    """
    base = {
        "config_hash": chash,
        "k": k,
        "M": k,
        "seed": seed,
        "n": n,
        "error": None,
    }
    try:
        dataset = generate_hard_instance(HardInstanceSpec(k=k, n=n, seed=seed))
        gfit = global_logistic_fit(dataset, opts)
        if gfit.message == SEPARABLE:
            raise NiaError(SEPARABLE)
        losses = run_protocol(dataset, cyclic_path_assignment(k, depths[-1]), opts).loss_path()
        b_x = feature_second_moment_bound(dataset.features)
        rows = []
        for depth in depths:
            sink_loss = float(losses[depth - 1])
            p = depth / k
            rows.append(
                base
                | {
                    "D": depth,
                    "p": int(p) if p.is_integer() else p,
                    "sink_loss": sink_loss,
                    "global_loss": gfit.loss,
                    "excess": sink_loss - gfit.loss,
                    "upper_bound": convergence_bound_rhs(gfit.l1_norm, b_x, k, depth),
                    "lower_shape": 1.0 / (p + 1.0),
                }
            )
        return rows
    except Exception as exc:  # recorded per point, the scan itself continues
        error = f"{type(exc).__name__}: {exc}"
        return [
            dict.fromkeys(SCAN_FIELDS) | base | {"D": depth, "p": depth / k, "error": error}
            for depth in depths
        ]


def scan_experiment(config: ExperimentConfig, threads: int = 1) -> list[dict]:
    """Depth/pass scan: one row per (depth, seed), ordered by (depth, seed).
    Seeds run in ``threads`` worker processes when ``threads`` > 1."""
    if config.instance.kind != "hard":
        raise InvalidConfig("scan currently supports the generated instance only")
    depths = _scan_depths(config)
    k, n = config.instance.k, config.instance.n
    chash = config.config_hash()
    seeds = config.instance.seeds

    if threads > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            per_seed = list(
                pool.map(
                    _scan_seed_rows,
                    repeat(k), repeat(n), seeds, repeat(depths),
                    repeat(config.solver), repeat(chash),
                )
            )
    else:
        per_seed = [_scan_seed_rows(k, n, seed, depths, config.solver, chash) for seed in seeds]

    rows = [row for rows_ in per_seed for row in rows_]
    rows.sort(key=lambda r: (r["D"], r["seed"]))
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


def orthogonality_suite(trace: ProtocolTrace) -> dict:
    """Residual moments of every converged agent's own design at its fitted
    logits, which are each fit's gradient; all must vanish to within the
    threshold."""
    fits = trace.models.values()
    worst = max((f.grad_norm for f in fits if f.converged), default=0.0)
    unconverged = sum(not f.converged for f in fits)
    return _suite(
        worst <= MOMENT_LIMIT and unconverged == 0,
        MOMENT_LIMIT - worst,
        MOMENT_LIMIT,
        max_moment=worst,
        unconverged_agents=unconverged,
    )


def monotone_loss_suite(trace: ProtocolTrace) -> dict:
    """Consecutive losses along the path may rise only by solver slack,
    because forwarding the parent logit unchanged is always feasible."""
    losses = trace.loss_path()
    increases = np.diff(losses)
    worst = float(np.max(increases)) if increases.size else 0.0
    return _suite(worst <= LOSS_RISE_LIMIT, LOSS_RISE_LIMIT - worst, LOSS_RISE_LIMIT, max_increase=worst)


def decomposition_suite(dataset: Dataset, config: ExperimentConfig) -> dict:
    """Loss-decomposition identity around the global fit on ``dataset`` for
    perturbed comparators; the residual scales with the achieved gradient norm."""
    gfit = global_logistic_fit(dataset, replace(config.solver, grad_tol=DECOMPOSITION_GRAD_TOL))
    rng = np.random.Generator(np.random.Philox(key=config.verify.seed))
    comparators = (
        dataset.features @ (gfit.weights + rng.uniform(-0.1, 0.1, size=dataset.d))
        for _ in range(DECOMPOSITION_PERTURBATIONS)
    )
    worst = verify_decomposition(dataset.labels, dataset.features @ gfit.weights, comparators)
    return _suite(
        worst <= DECOMPOSITION_LIMIT and gfit.converged,
        DECOMPOSITION_LIMIT - worst,
        DECOMPOSITION_LIMIT,
        max_residual=worst,
        global_grad_norm=gfit.grad_norm,
        global_converged=gfit.converged,
    )


def pinsker_suite(trials: int, seed: int) -> dict:
    """Expected KL dominates twice the mean squared probability gap; checked
    pointwise on random probability pairs from the open unit interval."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    p = rng.random(trials) + 2.0 ** -54
    q = rng.random(trials) + 2.0 ** -54
    gaps = bernoulli_kl_pointwise(p, q) - 2.0 * (p - q) ** 2
    worst = float(np.min(gaps))
    return _suite(worst >= PINSKER_FLOOR, worst - PINSKER_FLOOR, PINSKER_FLOOR, min_gap=worst)


def coefficient_suite() -> dict:
    """Numeric minimization of the pass-predictor residual variance must
    match the closed form: the sum of the differences of its coefficients
    and its minimal value."""
    worst = 0.0
    for p in COEFFICIENT_PASSES:
        for c in COEFFICIENT_SCALES:
            closed = optimal_pass_coefficients(p, c)
            s_closed = float(np.sum(np.diff(closed.coefficients)))
            s_num, var_num = numeric_pass_coefficients(p, c)
            worst = max(worst, abs(s_num - s_closed), abs(var_num - closed.residual_variance))
    return _suite(
        worst <= COEFFICIENT_LIMIT, COEFFICIENT_LIMIT - worst, COEFFICIENT_LIMIT, max_deviation=worst
    )


def scaling_factor_suite() -> dict:
    """Optimal scales lie strictly inside (0, 1), increase with the pass
    index, and zero the quadrature loss derivative."""
    values = [optimal_scaling_factor(p) for p in C_RANGE_PASSES]
    worst_grad = max(abs(scaling_gradient(c, p)) for c, p in zip(values, C_RANGE_PASSES))
    in_range = all(0.0 < c < 1.0 for c in values)
    increasing = all(b > a for a, b in zip(values, values[1:]))
    return _suite(
        in_range and increasing and worst_grad <= SCALING_GRADIENT_LIMIT,
        SCALING_GRADIENT_LIMIT - worst_grad,
        SCALING_GRADIENT_LIMIT,
        c_values=values,
        in_range=in_range,
        increasing=increasing,
        max_gradient=worst_grad,
    )


def noise_monotonicity_suite() -> dict:
    """Loss at logit scale ``NOISE_SCALE`` strictly increases with the noise
    variance: each pair of ``NOISE_VARIANCE_PAIRS`` must rise by more than
    ``NOISE_MIN_RISE``. The losses are Gauss-Hermite sums, which agree with
    adaptive quadrature to about 5e-16, so a rise above that bound is not
    rule error, and a pair that does not rise fails."""
    variances = sorted({v for pair in NOISE_VARIANCE_PAIRS for v in pair})
    loss = dict(zip(variances, noise_monotonicity_check(NOISE_SCALE, variances)))
    pairs = [
        {
            "v_small": v_small,
            "v_large": v_large,
            "loss_small": loss[v_small],
            "loss_large": loss[v_large],
            "rise": loss[v_large] - loss[v_small],
        }
        for v_small, v_large in NOISE_VARIANCE_PAIRS
    ]
    worst = min(pair["rise"] for pair in pairs)
    return _suite(worst > NOISE_MIN_RISE, worst - NOISE_MIN_RISE, NOISE_MIN_RISE, pairs=pairs)


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
        "noise_monotonicity": noise_monotonicity_suite(),
    }
    return {
        "config_hash": config.config_hash(),
        "suites": suites,
        "all_passed": all(s["passed"] for s in suites.values()),
    }
