"""Exception types raised across the library."""

from contextlib import contextmanager


class LossyNetError(ValueError):
    """Base class for every error this library raises deliberately."""


class SelfLoopError(LossyNetError):
    """An edge connects an agent to itself."""


class DuplicateEdgeError(LossyNetError):
    """The same directed edge appears more than once."""


class EndpointOutOfRangeError(LossyNetError):
    """An edge endpoint is not a valid agent id."""


class NotStronglyConnectedError(LossyNetError):
    """The digraph lacks a directed path between some ordered pair of agents."""


class IncompleteTableError(LossyNetError):
    """A schedule table does not cover edges x [1, T] exactly."""


class MalformedScheduleError(LossyNetError):
    """A schedule CSV row or table entry is not an integer (src, dst, t,
    indicator) entry with t >= 1 and an indicator of 0 or 1."""


class NeverReliableLinkError(LossyNetError):
    """Some link never delivers within the horizon, so no window bound exists."""


class ScheduleTooShortError(LossyNetError):
    """The requested run is longer than the schedule's horizon."""


class IterationOutOfRangeError(LossyNetError):
    """An iteration index lies outside the valid range."""


class WindowTooShortError(LossyNetError):
    """The matrix-product window is shorter than the certified block length."""


class NotRowStochasticError(LossyNetError):
    """A matrix expected to be row stochastic is not, beyond tolerance."""


class ZeroWeightError(LossyNetError):
    """A ratio estimate was requested where an agent's weight is not positive."""


class HorizonTooShortError(LossyNetError):
    """The horizon is below the minimum the requested bound is stated for."""


class DimensionMismatchError(LossyNetError):
    """Array shapes or component counts do not line up."""


class DimensionTooLargeError(LossyNetError):
    """No analytic optimum is known and the grid oracle only covers d <= 2."""


class ConfigError(LossyNetError):
    """An experiment configuration failed validation."""


__all__ = sorted(
    name for name, obj in globals().items() if isinstance(obj, type) and issubclass(obj, LossyNetError)
)


def _check_horizon(T: int) -> None:
    """The one horizon rule of runs and schedules: T >= 0."""
    if T < 0:
        raise IterationOutOfRangeError(f"horizon must be >= 0, got {T}")


@contextmanager
def _horizon_fits(T: int):
    """Turn a failed allocation of horizon-sized arrays into a LossyNetError
    that names the horizon and, through numpy's message, the size asked for.
    numpy raises MemoryError when the host lacks the memory, and ValueError
    when the size leaves its index range ("array is too big", "Maximum
    allowed dimension exceeded").  A LossyNetError passes through as it is."""
    try:
        yield
    except LossyNetError:
        raise
    except (MemoryError, ValueError) as exc:
        raise LossyNetError(f"horizon {T} does not fit in memory: {exc}") from exc
