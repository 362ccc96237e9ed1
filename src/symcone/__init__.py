"""symcone: verification and exploration toolkit for sigma_k curvature forms."""

__version__ = "0.1.0"

from .cones import CaseLabel, classify_case, make_rng, sample_batch
from .errors import (
    DomainError,
    InvalidInputError,
    SamplingExhaustedError,
    SymconeError,
)
from .registry import (
    CheckResult,
    LemmaCheck,
    RunContext,
    registry_list,
    run_check,
    run_checks,
    witness_slack,
)
from .search import (
    SearchConfig,
    SearchResult,
    SearchRun,
    SearchWitness,
    ThresholdResult,
    minimize_lambda,
    threshold_bisect,
)
from .symfun import sigma

__all__ = [
    "__version__",
    # symfun
    "sigma",
    # cones
    "sample_batch",
    "make_rng",
    "CaseLabel",
    "classify_case",
    # registry
    "CheckResult",
    "LemmaCheck",
    "RunContext",
    "registry_list",
    "run_check",
    "run_checks",
    "witness_slack",
    # search
    "SearchConfig",
    "SearchResult",
    "SearchRun",
    "SearchWitness",
    "ThresholdResult",
    "minimize_lambda",
    "threshold_bisect",
    # errors
    "SymconeError",
    "InvalidInputError",
    "DomainError",
    "SamplingExhaustedError",
]
