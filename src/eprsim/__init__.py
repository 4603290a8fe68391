"""Deterministic harness for two-station coincidence experiments.

Builds finite local models with clock-indexed instrument parameters, tabulates
their exact setting-dependent joint distributions, tests the product-form
factorization assumption, applies marginal-zeroing transforms (time signs and
layer doubling), and evaluates CHSH combinations exactly and by Monte Carlo.
"""

__version__ = "0.1.0"

from .density import (
    FactorizationReport,
    JointTable,
    check_factorization,
    marginal,
    read_table_csv,
    swap_stations,
    table_from_csv,
    table_to_csv,
    tabulate_joint,
    write_table_csv,
)
from .descriptors import apply_transform_op, load_model, load_schedule, make_model
from .errors import (
    AlreadyDoubledError,
    AlreadySymmetrizedError,
    CodomainViolationError,
    DescriptorError,
    EmptyTableError,
    GridMismatchError,
    HarnessError,
    InfeasibleMeanError,
    InfeasibleTargetError,
    InvalidScheduleError,
    InvalidToleranceError,
    InvalidWeightsError,
    StationMismatchError,
    UnknownZooEntryError,
    ZeroTrialsError,
)
from .inequality import (
    ChshResult,
    CorrelationReport,
    chsh,
    chsh_from_correlations,
    conditional_table,
    correlate,
    correlate_via_table,
    deterministic_bound,
    deterministic_strategies,
    reference_correlation,
)
from .model import (
    CHSH_OPTIMAL_ANGLES,
    TEST_ANGLES,
    InstrumentParamGen,
    LocalModel,
    OutcomeFn,
    Setting,
    SignFunction,
    SourceSpace,
    Station,
    TimeGrid,
    composite_is_m_constant,
    evaluate_outcome,
    outcome_given_value,
    s1,
    s2,
    station_outcomes,
    station_values,
)
from .stations import (
    AuditReport,
    Schedule,
    Trials,
    empirical_correlations,
    locality_audit,
    read_trials_csv,
    run_experiment,
    write_trials_csv,
)
from .symmetry import (
    MarginalTarget,
    balanced_sign_function,
    condition_sign_on_source,
    exact_marginal,
    layer_double,
    make_sign_function,
    target_marginal,
    time_symmetrize,
)
from .zoo import (
    REFERENCE_TABLE_NAME,
    ZOO,
    all_zoo_models,
    factorized_zoo_models,
    m_constant_zoo_models,
    random_factorized_model,
    zoo_model,
    zoo_names,
)
