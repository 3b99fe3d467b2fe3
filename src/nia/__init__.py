"""Networked information aggregation: sequential logit-passing agents on DAGs.

Agents arranged in a DAG each observe a subset of the feature columns, fit a
logistic model on those columns plus their parents' logit columns, and pass
their own logits on. The package provides the protocol engine and its
n = inf counterpart on the same walk over the DAG, the numerically stable
logistic solver behind it, KL-based loss-gap diagnostics and bound
calculators, generators for a chained-latent hard instance with closed-form
analytics, and a CLI for reproducible experiments.
"""

from .data import Dataset
from .errors import (
    CycleDetected,
    DimensionMismatch,
    DomainError,
    IndexOutOfRange,
    InvalidConfig,
    InvalidDimension,
    InvalidGraph,
    LengthMismatch,
    MissingParent,
    NiaError,
    NonFinite,
    NotAPath,
    NotConvergedWarning,
)
from .graph import (
    AgentGraph,
    CoverageResult,
    build_agent_graph,
    check_m_coverage,
    covering_window,
    cyclic_path_assignment,
)
from .instances import (
    HardInstanceSpec,
    PassPredictor,
    generate_hard_instance,
    link_scale,
    noise_monotonicity_check,
    optimal_pass_coefficients,
    optimal_scaling_factor,
    relevance_set,
    scaling_gradient,
)
from .logistic import (
    Design,
    FitOptions,
    FitResult,
    bce_loss,
    fit_logistic,
    residual_moments,
    sigmoid,
    stable_softplus,
)
from .metrics import (
    StableBlock,
    bernoulli_kl_pointwise,
    convergence_bound_rhs,
    expected_kl_from_logits,
    feature_second_moment_bound,
    residual_bound_rhs,
    stable_block,
    verify_decomposition,
)
from .population import PopulationAgent, population_loss, population_protocol
from .protocol import ProtocolTrace, agent_design, run_protocol, sink_excess_loss, walk

__version__ = "0.1.0"

__all__ = [
    "AgentGraph",
    "CoverageResult",
    "CycleDetected",
    "Dataset",
    "Design",
    "DimensionMismatch",
    "DomainError",
    "FitOptions",
    "FitResult",
    "HardInstanceSpec",
    "IndexOutOfRange",
    "InvalidConfig",
    "InvalidDimension",
    "InvalidGraph",
    "LengthMismatch",
    "MissingParent",
    "NiaError",
    "NonFinite",
    "NotAPath",
    "NotConvergedWarning",
    "PassPredictor",
    "PopulationAgent",
    "ProtocolTrace",
    "StableBlock",
    "agent_design",
    "bce_loss",
    "bernoulli_kl_pointwise",
    "build_agent_graph",
    "check_m_coverage",
    "convergence_bound_rhs",
    "covering_window",
    "cyclic_path_assignment",
    "expected_kl_from_logits",
    "feature_second_moment_bound",
    "fit_logistic",
    "generate_hard_instance",
    "link_scale",
    "noise_monotonicity_check",
    "optimal_pass_coefficients",
    "optimal_scaling_factor",
    "population_loss",
    "population_protocol",
    "relevance_set",
    "residual_bound_rhs",
    "residual_moments",
    "run_protocol",
    "scaling_gradient",
    "sigmoid",
    "sink_excess_loss",
    "stable_block",
    "stable_softplus",
    "verify_decomposition",
    "walk",
]
