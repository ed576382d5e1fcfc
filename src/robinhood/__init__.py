"""Cave-game survival analysis: schedules, classification, simulation.

The game: on day ``i`` the Sheriff stores ``s(i)`` new gold bags in the
cave, and on night ``i`` Robin removes ``r(i)`` of them, guided only by
bounded historical memory ``b(i)`` — bags stored on or before day
``i - b(i)`` are indistinguishable "very old" bags. This package
evaluates per-bag survival probabilities exactly, classifies who wins in
the long run (certificate-based sufficient conditions only), simulates
traces with a reproducible counter-mode PRNG, and constructs instances
whose outcome flips when the memory bound grows by one.
"""

from .analysis import (
    KIND_ROBIN_AS,
    KIND_ROBIN_SURELY,
    KIND_SHERIFF_AS,
    KIND_UNDETERMINED,
    MODE_EXACT,
    MODE_PAPER,
    SPACE_LOG,
    SPACE_RATIONAL,
    SeriesDiagnostics,
    SurvivalResult,
    Verdict,
    classify,
    fraction_str,
    series_diagnostics,
    survival_curve,
    survival_probability,
)
from .construct import (
    SeparationInstance,
    StepCertificate,
    separating_instance,
    verify_separation,
    write_instance_files,
)
from .engine import (
    CaveState,
    RemovalPlan,
    StrategyKind,
    TaggedBag,
    Trace,
    apply_removals,
    as_strategy,
    empirical_survival,
    run_trace,
    select_removals,
    step_day,
)
from .errors import (
    DEFAULT_DIGIT_BUDGET,
    IndexBeyondHorizon,
    LimitExceeded,
    RestrictionViolated,
    RobinHoodError,
    SpecInvalid,
    ValidityViolated,
    VerificationFailed,
)
from .rng import RNG_VERSION, CounterRNG, stream_key
from .schedule import (
    DEFAULT_HORIZON_CAP,
    FunctionSpec,
    GameInstance,
    RestrictionReport,
    ScheduleSpec,
    canonical_dumps,
    load_schedule,
    parse_function,
    parse_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "RobinHoodError",
    "SpecInvalid",
    "IndexBeyondHorizon",
    "LimitExceeded",
    "RestrictionViolated",
    "ValidityViolated",
    "VerificationFailed",
    "DEFAULT_DIGIT_BUDGET",
    # schedule
    "FunctionSpec",
    "ScheduleSpec",
    "GameInstance",
    "RestrictionReport",
    "parse_function",
    "parse_schedule",
    "load_schedule",
    "canonical_dumps",
    "DEFAULT_HORIZON_CAP",
    # analysis
    "survival_curve",
    "survival_probability",
    "SurvivalResult",
    "series_diagnostics",
    "SeriesDiagnostics",
    "classify",
    "Verdict",
    "fraction_str",
    "MODE_PAPER",
    "MODE_EXACT",
    "SPACE_RATIONAL",
    "SPACE_LOG",
    "KIND_ROBIN_SURELY",
    "KIND_ROBIN_AS",
    "KIND_SHERIFF_AS",
    "KIND_UNDETERMINED",
    # engine
    "StrategyKind",
    "as_strategy",
    "CaveState",
    "TaggedBag",
    "RemovalPlan",
    "step_day",
    "select_removals",
    "apply_removals",
    "run_trace",
    "Trace",
    "empirical_survival",
    # construct
    "separating_instance",
    "verify_separation",
    "write_instance_files",
    "SeparationInstance",
    "StepCertificate",
    # rng
    "CounterRNG",
    "stream_key",
    "RNG_VERSION",
]
