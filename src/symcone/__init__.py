"""symcone: verification and exploration toolkit for sigma_k curvature forms."""

__version__ = "0.1.0"

from .cones import (
    ConeQuery,
    ConeVariant,
    SampleSpec,
    in_gamma,
    make_rng,
    normalize_sigma_k,
    sample_batch,
    sample_gamma,
    tail_sum_check,
)
from .errors import (
    DomainError,
    InvalidInputError,
    SamplingExhaustedError,
    SingularDenominatorError,
    SymconeError,
)
from .quadforms import (
    KeyParams,
    QuadForm,
    TestFnTerms,
    abcd_matrices,
    h_matrix,
    key_matrix,
    lemma41_gap,
    min_eig,
    rhs_combination,
    testfn_terms,
)
from .registry import (
    CaseLabel,
    CheckResult,
    LemmaCheck,
    RunContext,
    classify_case,
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
from .symfun import (
    SymTable,
    sigma,
    sigma_all,
    sigma_d1,
    sigma_d2,
    sigma_enum,
    sigma_excl,
    sigma_fsum,
)

__all__ = [
    "__version__",
    # symfun
    "SymTable",
    "sigma",
    "sigma_all",
    "sigma_excl",
    "sigma_d1",
    "sigma_d2",
    "sigma_enum",
    "sigma_fsum",
    # cones
    "ConeVariant",
    "ConeQuery",
    "SampleSpec",
    "in_gamma",
    "tail_sum_check",
    "normalize_sigma_k",
    "sample_gamma",
    "sample_batch",
    "make_rng",
    # quadforms
    "QuadForm",
    "KeyParams",
    "TestFnTerms",
    "key_matrix",
    "abcd_matrices",
    "rhs_combination",
    "lemma41_gap",
    "h_matrix",
    "testfn_terms",
    "min_eig",
    # registry
    "CaseLabel",
    "CheckResult",
    "LemmaCheck",
    "RunContext",
    "classify_case",
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
    "SingularDenominatorError",
    "SamplingExhaustedError",
]
