"""Exception taxonomy shared across the toolkit.

The CLI maps these onto its exit-code contract, so library code should
raise the most specific class that applies.
"""

import sys


class DefockError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(DefockError, ValueError):
    """Bad argument: out of domain, contradictory options, malformed input."""


class TruncationError(DefockError):
    """A truncated Fock expansion cannot hold the requested state.

    Raised when the estimated probability mass beyond the truncation
    exceeds the convergence threshold, or when an operation would push
    amplitude past the last retained level.
    """


class DivergenceError(DefockError):
    """A coefficient series lies outside its radius of convergence."""


class DegenerateStateError(DefockError, ValueError):
    """The requested state or statistic is identically degenerate
    (zero vector, vanishing mean photon number, ...)."""


class ToleranceError(DefockError):
    """A verification run exceeded its error tolerance."""


class QuadratureError(DefockError):
    """Numerical quadrature failed to converge to the requested accuracy."""


class PerturbativeRegimeWarning(UserWarning):
    """The deformation strength is outside the regime in which the
    first-order closed forms are quantitatively reliable."""


def _stacklevel_outside(module_file: str, *inside) -> int:
    """The ``stacklevel`` that makes a warning name the first frame outside
    ``module_file``, counted from the function that calls this and warns.
    Frames whose code object is one of ``inside`` (a dataclass-generated
    ``__init__`` has no file of its own) also count as the module's.  The
    frames between the warning and the caller vary, so the count is not
    fixed."""
    level, frame = 1, sys._getframe(1)  # level 1: the function that warns
    while frame.f_back is not None and (
        frame.f_code.co_filename == module_file
        or any(frame.f_code is code for code in inside)
    ):
        level, frame = level + 1, frame.f_back
    return level
