"""Exception types shared across the toolkit."""


class CascalError(Exception):
    """Base class for all toolkit-specific failures."""


class NotPositiveDefinite(CascalError):
    """A matrix could not be factored even at the maximum allowed jitter.

    Usually signals a degenerate kernel matrix, e.g. duplicate inputs
    combined with zero observation noise.
    """


class DimensionMismatch(CascalError):
    """Operands have incompatible shapes."""


class OptimizationFailed(CascalError):
    """No optimizer start produced a finite objective value."""


class ScipyIncompatible(CascalError):
    """The installed scipy's L-BFGS-B routine rejects the search's call.

    The routine is private scipy API, so a scipy release may change it;
    every trial would then fail the same way.
    """


class DegenerateTable(CascalError):
    """Fewer than two distinct breakpoints remain after deduplication."""


class NonMonotonic(CascalError):
    """A sensor response is not strictly increasing on the checked range."""


class ConfigError(CascalError):
    """Invalid or contradictory configuration values."""


class EmptyCampaign(CascalError):
    """A summary was requested but no unflagged trial results exist."""


class DatasetFormatError(CascalError):
    """A dataset, readings, model, truth, config or trials file does not parse."""
