"""Special-function kernels for the state constructors and the measure check.

``log_gamma`` is the C library's ``lgamma`` (via ``math``), and
``log_factorial_table`` is one cached table, the ``math.log`` of each
exact integer k!, that every factorial-weighted series reads.  The
q-integer [n]_q lives in one place, ``deform.f_squared``.
``bessel_k_log`` takes ln K_nu on a whole array of arguments at once, by
the upward order recurrence from ``scipy.special.kve`` at two fractional
orders.

Importing this module does not load scipy: ``kve`` is imported by each
``bessel_k_log`` call (only ``measure-check`` makes one).

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

def bessel_k_log(nu: float, x):
    """ln K_nu(x) for x > 0, elementwise; a float for a scalar x.

    K at the fractional order v = nu - floor(nu) and at 1 - v (K_(v-1) is
    K_(1-v)) starts the upward recurrence K_(v+1) = K_(v-1) + (2v/x) K_v
    (DLMF 10.29.1), the stable direction for K (Temme, J. Comput. Phys. 19
    (1975) 324).  It is carried as the ratio K_(v+1)/K_v and a running log,
    so nothing overflows; floor(nu) steps reach nu.  The start values are
    ``scipy.special.kve`` (Amos, ACM TOMS 644), except on 0.5 < x <= 2,
    where its series loses up to 2e-13 at fractional orders.  There they
    are the trapezoid sum, with step 0.2 on [0, 6], of
    kve(v, x) = int_0^inf exp(-x (cosh s - 1)) cosh(v s) ds (DLMF 10.32.9),
    which converges exponentially and is within 1e-15.
    """
    from scipy.special import kve

    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(x > 0):
        raise ValidationError(f"bessel_k needs x > 0, got {x.min()}")
    nu = abs(float(nu))
    steps = int(nu)
    frac = nu - steps
    k_frac, k_below = kve(frac, x), kve(1.0 - frac, x)
    band = (x > 0.5) & (x <= 2.0)
    if band.any():
        s = 0.2 * np.arange(31)[:, None]
        terms = np.exp(-x[band] * (np.cosh(s) - 1.0))
        # the s = 0 term is 1 and takes half weight
        k_frac[band] = 0.2 * (terms * np.cosh(frac * s)).sum(axis=0) - 0.1
        k_below[band] = 0.2 * (terms * np.cosh((1.0 - frac) * s)).sum(axis=0) - 0.1
    log_k = np.log(k_frac) - x
    ratio = k_frac / k_below  # K_v / K_(v-1)
    for k in range(steps):
        ratio = 1.0 / ratio + 2.0 * (frac + k) / x
        log_k += np.log(ratio)
    return float(log_k[0]) if scalar else log_k
