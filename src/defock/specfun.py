"""Special-function kernels for the state constructors and the measure check.

q-brackets and q-factorials, rising factorials, physicists' Hermite
polynomials and terminating Gauss hypergeometric sums are written out
here.  The two hot kernels are library-backed: ``log_gamma`` is the C
library's ``lgamma`` (via ``math``), and ``bessel_k_log`` / ``bessel_k``
use ``scipy.special.kve`` (Amos' algorithm), with an ``mpmath``
fallback where the scaled value leaves the double range.

All functions are pure and reentrant.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.special import kve

from .errors import ValidationError

__all__ = [
    "q_bracket",
    "q_factorial",
    "q_log_factorial",
    "pochhammer",
    "hermite",
    "gauss_2f1_terminating",
    "bessel_k",
    "bessel_k_log",
    "log_gamma",
]

_LOG_DBL_MAX = math.log(np.finfo(float).max)


def q_bracket(n: int, q: float) -> float:
    """q-integer [n] = (1 - q^(2n)) / (1 - q^2), with [n] -> n as q -> 1.

    Parameters
    ----------
    n : nonnegative int
    q : float in (0, 1]

    The q = 1 value is returned by an explicit limit branch; near q = 1
    the ratio is evaluated with ``expm1`` so the 0/0 cancellation is
    harmless.
    """
    if n < 0:
        raise ValidationError(f"q_bracket needs n >= 0, got {n}")
    if not 0.0 < q <= 1.0:
        raise ValidationError(f"q_bracket needs 0 < q <= 1, got {q}")
    if q == 1.0:
        return float(n)
    if n == 0:
        return 0.0
    lq = math.log(q)
    return math.expm1(2.0 * n * lq) / math.expm1(2.0 * lq)


def q_factorial(n: int, q: float) -> float:
    """q-factorial [n]! = prod_{k=1..n} [k], with [0]! = 1."""
    return math.exp(q_log_factorial(n, q))


def q_log_factorial(n: int, q: float) -> float:
    """log [n]!; the log-domain variant keeps large-n series stable."""
    if n < 0:
        raise ValidationError(f"q_log_factorial needs n >= 0, got {n}")
    if not 0.0 < q <= 1.0:
        raise ValidationError(f"q_log_factorial needs 0 < q <= 1, got {q}")
    total = 0.0
    for k in range(1, n + 1):
        total += math.log(q_bracket(k, q))
    return total


def pochhammer(x: float, n: int) -> float:
    """Rising factorial x^(n) = x (x+1) ... (x+n-1); empty product is 1."""
    if n < 0:
        raise ValidationError(f"pochhammer needs n >= 0, got {n}")
    out = 1.0
    for k in range(n):
        out *= x + k
    return out


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x) by the forward recurrence.

    H_{n+1} = 2 x H_n - 2 n H_{n-1}.  Accepts real or complex x; no
    internal rescaling, so very large n at large |x| can overflow.
    """
    if n < 0:
        raise ValidationError(f"hermite needs n >= 0, got {n}")
    h_prev = 1.0
    if n == 0:
        return h_prev if not isinstance(x, complex) else complex(h_prev)
    h_cur = 2 * x
    for k in range(1, n):
        h_prev, h_cur = h_cur, 2 * x * h_cur - 2 * k * h_prev
    return h_cur


def gauss_2f1_terminating(n: int, b: complex, c: float, z: float) -> complex:
    """Terminating 2F1(-n, b; c; z) = sum_{k=0..n} (-n)_k (b)_k z^k / ((c)_k k!).

    The finite sum suffers catastrophic cancellation in double precision
    (loss of ~16 digits already at n = 30 for the parameter ranges used
    by the squeezed-state closed form), so terms are accumulated with
    mpmath at a working precision that grows with n.  The result is
    rounded back to a complex double.
    """
    if n < 0:
        raise ValidationError(f"gauss_2f1_terminating needs n >= 0, got {n}")
    c = float(c)
    if c <= 0 and c == int(c) and c >= -n:
        raise ValidationError(
            f"gauss_2f1_terminating: c={c} is a nonpositive integer >= -n"
        )
    with mp.workdps(35 + int(0.9 * n)):
        bb = mp.mpc(b)
        cc = mp.mpf(c)
        zz = mp.mpf(z)
        total = mp.mpc(1)
        term = mp.mpc(1)
        for k in range(n):
            term *= (-(n - k)) * (bb + k) * zz / ((cc + k) * (k + 1))
            total += term
        return complex(total)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0, by the C library's ``lgamma``.

    x = 1 and x = 2 return exactly 0 so empty factorial products stay
    exact downstream.
    """
    if x <= 0:
        raise ValidationError(f"log_gamma needs x > 0, got {x}")
    return math.lgamma(x)


# ---------------------------------------------------------------------------
# Modified Bessel function of the second kind
# ---------------------------------------------------------------------------

def bessel_k_log(nu: float, x: float) -> float:
    """ln K_nu(x) for x > 0.

    Uses the exponentially scaled K of ``scipy.special.kve`` (Amos,
    ACM TOMS 644), ln K = ln kve - x.  Where ``kve`` overflows (large
    order at small argument, e.g. nu = 60, x = 1e-4) the logarithm is
    taken by ``mpmath``, whose exponent range is unbounded.
    """
    if x <= 0:
        raise ValidationError(f"bessel_k needs x > 0, got {x}")
    nu = abs(float(nu))
    x = float(x)
    scaled = float(kve(nu, x))
    if 0.0 < scaled < math.inf:
        return math.log(scaled) - x
    return float(mp.log(mp.besselk(nu, x)))


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function K_nu(x), x > 0.

    Raises ``OverflowError`` instead of silently returning ``inf`` when
    the value exceeds the double range (small x at large order).
    """
    logk = bessel_k_log(nu, x)
    if logk > _LOG_DBL_MAX:
        raise OverflowError(
            f"bessel_k({nu}, {x}) exceeds the double range (ln K = {logk:.1f})"
        )
    return math.exp(logk)
