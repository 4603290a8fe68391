"""Error vocabulary shared by all modules.

Everything derives from HarnessError so callers can catch broadly; the CLI
distinguishes configuration problems (ConfigurationError, exit 2) from model
validation and infeasible-transform problems (exit 3).
"""


class HarnessError(ValueError):
    """Base class for all contract violations raised by this package."""


class ConfigurationError(HarnessError):
    """A run was asked for wrongly: a name, file, option or descriptor value."""


class InvalidWeightsError(HarnessError):
    """A weight vector is not a probability distribution."""


class CodomainViolationError(HarnessError):
    """An outcome rule left {-1, +1}, or a generator left its value space."""


class UnknownZooEntryError(ConfigurationError):
    """A model descriptor names neither a zoo entry nor a readable file."""


class StationMismatchError(HarnessError):
    """A station received the other station's setting (locality guard)."""


class EmptyTableError(HarnessError):
    """A joint table carries no probability mass."""


class InvalidToleranceError(ConfigurationError):
    """A tolerance argument is not strictly positive."""


class InfeasibleMeanError(HarnessError):
    """The requested sign-function mean is not representable on the grid."""


class GridMismatchError(HarnessError):
    """A sign function does not match the model's slot grid."""


class InfeasibleTargetError(HarnessError):
    """A one-sided marginal target exceeds what the base model can reach."""


class AlreadyDoubledError(HarnessError):
    """Layer doubling applied to a model that is already doubled."""


class AlreadySymmetrizedError(HarnessError):
    """A sign transform applied to a model that already carries one."""


class InvalidScheduleError(ConfigurationError):
    """An experiment schedule fails validation."""


class ZeroTrialsError(ConfigurationError):
    """Monte-Carlo estimation requested with fewer than one trial."""


class DescriptorError(ConfigurationError):
    """A model or schedule descriptor file cannot be parsed."""
