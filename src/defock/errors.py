"""Exception taxonomy shared across the toolkit.

The CLI maps these onto its exit-code contract, so library code should
raise the most specific class that applies.
"""

import os
import sys

_PACKAGE = os.path.dirname(__file__)


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


def _stacklevel_outside(*inside) -> int:
    """The ``stacklevel`` that makes a warning name the first frame outside
    the ``defock`` package, counted from the function that calls this and
    warns.  Frames whose code object is one of ``inside`` (a
    dataclass-generated ``__init__`` has no file of its own) also count as
    the package's.  So each warning names the caller's line, and the
    default filter shows it once there, however many places in the package
    raise it for one call.  The walk also stops at the outermost frame of
    the ``__main__`` module: under ``python -m defock.cli`` that module is
    ``cli.py``, and the frames past it are ``runpy``'s.  The frames
    between the warning and the caller vary, so the count is not fixed."""
    level, frame = 1, sys._getframe(1)  # level 1: the function that warns
    while frame.f_back is not None and (
        os.path.dirname(frame.f_code.co_filename) == _PACKAGE
        or any(frame.f_code is code for code in inside)
    ) and not (frame.f_globals.get("__name__") == "__main__"
               and frame.f_back.f_globals.get("__name__") != "__main__"):
        level, frame = level + 1, frame.f_back
    return level
