"""Fisher-information numerics for pure-state encoding circuits.

Covers the quantum Fisher information matrix and Uhlmann curvature,
lossless information distillation by guess-anchored postselection,
Kirkwood-Dirac quasiprobability negativity analysis, and a seeded Monte
Carlo check of the classical Cramér-Rao bound.
"""

from .circuit import EncodingCircuit, evolve, tangent_frame
from .distill import (
    DistillationPlan,
    DistillationReport,
    distillation_report,
    kraus_from_estimate,
    postselect,
    qfim_postselected,
)
from .errors import NumericError, QFisherError, ValidationError
from .estimator import (
    CrbComparison,
    CrbStudy,
    SampleBatch,
    crb_comparison,
    loglikelihood,
    mle_fit,
    outcome_probabilities,
    run_crb_study,
    sample_outcomes,
)
from .fisher import (
    DivergentInformationWarning,
    classical_fim,
    geometric_quantumness,
    geometric_tensor,
    learnability_interval,
    postselected_geometric_tensor,
    qfim_pure,
    uhlmann_curvature,
    validate_povm,
)
from .kirkwood import (
    KdDistribution,
    KdPairAnalysis,
    analyze_pair,
    kd_distribution,
)
from .scenario import (
    ScenarioConfig,
    build_circuit,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "CrbComparison",
    "CrbStudy",
    "DistillationPlan",
    "DistillationReport",
    "DivergentInformationWarning",
    "EncodingCircuit",
    "KdDistribution",
    "KdPairAnalysis",
    "NumericError",
    "QFisherError",
    "SampleBatch",
    "ScenarioConfig",
    "ValidationError",
    "analyze_pair",
    "build_circuit",
    "classical_fim",
    "crb_comparison",
    "distillation_report",
    "evolve",
    "geometric_quantumness",
    "geometric_tensor",
    "kd_distribution",
    "kraus_from_estimate",
    "learnability_interval",
    "load_scenario",
    "loglikelihood",
    "mle_fit",
    "outcome_probabilities",
    "postselect",
    "postselected_geometric_tensor",
    "qfim_postselected",
    "qfim_pure",
    "run_crb_study",
    "sample_outcomes",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "tangent_frame",
    "uhlmann_curvature",
    "validate_povm",
]
