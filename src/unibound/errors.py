"""Exception hierarchy. Public functions raise these, never bare ValueError."""


class UniboundError(Exception):
    """Base class for all library errors."""


class DomainError(UniboundError, ValueError):
    """Arguments violate a contract: bad shapes, values outside the sample
    space, negative seeds, and the like."""


class ResourceError(UniboundError):
    """An enumeration or replication cap would be exceeded. The operation
    refuses instead of silently degrading."""


class UnsupportedStatisticError(UniboundError):
    """The requested route needs data the statistic does not carry
    (closed-form constants, kernel derivative bounds, ...)."""


class OverrideRequiredError(UniboundError):
    """Numeric (sampled, lower-bound) constants were offered where the bound
    assembly needs certified upper bounds; an explicit override is required."""


class NumericError(UniboundError, FloatingPointError):
    """A finite-difference or accumulation step produced a non-finite value."""


class ConfigError(UniboundError):
    """An experiment configuration failed schema validation."""
