"""Reference helpers that only the tests use: direct products and
recurrences for q-factorials, rising factorials, Hermite polynomials,
Bessel K, f^2(n)!, rho_n and the level energies.  The library itself
reads the cached log tables of ``defock.specfun`` and ``defock.deform``;
these are the plain forms the tests check those against."""

import math

import numpy as np

from defock.deform import Deformation, dimensionless_e, log_f_factorial_table, log_rho
from defock.errors import ValidationError
from defock.specfun import bessel_k_log, q_bracket

_LOG_DBL_MAX = math.log(np.finfo(float).max)


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


def log_f_factorial_squared(d: Deformation, n: int) -> float:
    """log f^2(n)! with the product convention f^2(n)! = prod_{k=1..n} f^2(k)."""
    if n < 0:
        raise ValidationError("log_f_factorial_squared needs n >= 0")
    return float(log_f_factorial_table(d, n + 1)[n])


def f_factorial_squared(d: Deformation, n: int) -> float:
    """f^2(n)!; equals (tau/2)^n (2 + 2/tau)^(n) for the nc kernel."""
    return math.exp(log_f_factorial_squared(d, n))


def rho(d: Deformation, n: int) -> float:
    """Moment sequence rho_n of the active deformation; rho_0 = 1."""
    return math.exp(log_rho(d, n))


def energy_level(d: Deformation, n: int, omega: float, hbar: float = 1.0) -> float:
    """E_n = hbar omega e_n (ground level shifted to zero)."""
    if omega <= 0 or hbar <= 0:
        raise ValidationError("energy_level needs omega > 0 and hbar > 0")
    return hbar * omega * dimensionless_e(d, n)
