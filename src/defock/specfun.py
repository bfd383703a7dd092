"""Special-function kernels for the state constructors and the measure check.

``log_gamma`` is the C library's ``lgamma`` (via ``math``), and
``log_factorial_table`` is one cached table, the ``math.log`` of each
exact integer k!, that every factorial-weighted series reads.  The
q-integer [n]_q lives in one place, ``deform.f_squared``.
``bessel_k_log`` uses ``scipy.special.kve`` (Amos' algorithm), with an
``mpmath`` fallback where the scaled value leaves the double range.

Importing this module loads neither scipy nor mpmath: ``kve`` is
imported on the first ``bessel_k_log`` call (only ``measure-check``
makes one), and mpmath only inside its overflow fallback.

All functions are pure and reentrant.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ValidationError

__all__ = [
    "bessel_k_log",
    "log_gamma",
    "log_factorial_table",
]


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0, by the C library's ``lgamma``.

    x = 1 and x = 2 return exactly 0 so empty factorial products stay
    exact downstream.
    """
    if x <= 0:
        raise ValidationError(f"log_gamma needs x > 0, got {x}")
    return math.lgamma(x)


def log_factorial_table(n: int) -> np.ndarray:
    """Read-only ln k! for k = 0 .. n-1, exactly 0 at k = 0 and 1.

    A view of a cached table whose length is the next power of two (at
    least 1024).  Each entry is the ``math.log`` of the exact integer k!,
    at most 1 ulp from ln k! (``math.lgamma(3.0)`` is 3 ulp from ln 2).
    The running product makes the build quadratic in the length: 1 ms at
    1024 entries, which covers every ``n_max`` up to ``MAX_N_MAX``.
    """
    return _log_factorials(max(1024, 1 << (int(n) - 1).bit_length()))[:n]


@lru_cache(maxsize=None)  # keyed by powers of two only
def _log_factorials(size: int) -> np.ndarray:
    table = np.zeros(size)
    factorial = 1
    for k in range(2, size):
        factorial *= k
        table[k] = math.log(factorial)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Modified Bessel function of the second kind
# ---------------------------------------------------------------------------

def _kve(nu, x):
    """``scipy.special.kve``; the first call imports it and rebinds this
    name to it.  A measure-check job calls ``bessel_k_log`` about 3000
    times, so later calls must cost no more than a module-level import:
    an import statement in its body (0.35 us) or a cached accessor
    (34 ns) would be paid on every call."""
    global _kve
    from scipy.special import kve

    _kve = kve
    return kve(nu, x)


def bessel_k_log(nu: float, x: float) -> float:
    """ln K_nu(x) for x > 0.

    Uses the exponentially scaled K of ``scipy.special.kve`` (Amos,
    ACM TOMS 644), ln K = ln kve - x; scipy.special is loaded on the
    first call.  Where ``kve`` overflows (large order at small argument,
    e.g. nu = 60, x = 1e-4) the logarithm is taken by ``mpmath``, whose
    exponent range is unbounded.
    """
    if x <= 0:
        raise ValidationError(f"bessel_k needs x > 0, got {x}")
    nu = abs(float(nu))
    x = float(x)
    scaled = float(_kve(nu, x))
    if 0.0 < scaled < math.inf:
        return math.log(scaled) - x
    import mpmath as mp

    return float(mp.log(mp.besselk(nu, x)))
