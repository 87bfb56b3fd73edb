"""Exception types shared across the package.

Every failure mode that callers are expected to handle programmatically
gets its own class; generic ValueError/TypeError are reserved for plain
argument-validation bugs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .solver import Diagnostics


class MGError(Exception):
    """Base class for all package-specific errors."""


class SingularSystemError(MGError):
    """The linear balance system has no unique solution at this wavevector."""


class NoRootError(MGError):
    """No unstable eigenvalue exists in the admissible bracket.

    Carries the bracket endpoints that were searched so callers can report
    why the mode is stable.
    """

    def __init__(self, message: str, lo: float | None = None, hi: float | None = None):
        super().__init__(message)
        self.lo = lo
        self.hi = hi


class DegenerateTailError(MGError):
    """A continued-fraction tail hit zero or changed sign during evaluation.

    Signals that the requested sigma lies off the principal branch (some
    truncated tail is non-positive), so the residual is not meaningful there.
    """


class RecurrenceOverflowError(MGError):
    """Coefficient profile met a vanishing tail or overflowed float range."""


class TruncationError(MGError):
    """A grid cannot hold all significant modes of the requested function."""


class BlowUpError(MGError):
    """Time integration produced a non-finite field.

    Attributes
    ----------
    time : float
        Simulation time at which the non-finite value was detected.
    history : Diagnostics or None
        The diagnostics recorded up to the failure, as `solver.run` builds
        them; None when the raiser has none.
    """

    def __init__(self, message: str, time: float,
                 history: Diagnostics | None = None):
        super().__init__(message)
        self.time = time
        self.history = history


class GrowthCapError(MGError):
    """Requested integration time exceeds the trusted window for an
    ill-posed regime run (estimated amplification above exp(30))."""

    def __init__(self, message: str, sigma_max: float, t_max: float):
        super().__init__(message)
        self.sigma_max = sigma_max
        self.t_max = t_max


class InvariantError(MGError):
    """An eigen root's continued-fraction residual is not below 1e-12, or
    no depth up to the largest certifies its truncation."""


class ConfigError(MGError):
    """Malformed or inconsistent configuration input."""


class SnapshotFormatError(MGError):
    """A field snapshot file is malformed or inconsistent with its header."""
