"""Reference helpers that only the tests use: the q-integer, direct
products and recurrences for q-factorials, the q-exponential, rising
factorials, Hermite polynomials, Bessel K, f^2(n)!, rho_n, the level
energies, the summed normalization constants, the terminating Gauss
2F1 closed form of the squeezed seed and its recurrence level by level,
the measure's moments by adaptive quadrature, and a reader for the CLI's
CSV artifacts.  The library itself
reads the cached log tables of ``defock.specfun`` and ``defock.deform``,
builds the squeezed seed by its recurrence and takes the measure's moments
by one trapezoid rule on an order recurrence for K; these are the plain
forms the tests check those against."""

import cmath
import itertools
import math
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np

from defock.deform import (
    Deformation,
    dimensionless_e,
    f_squared,
    log_f_factorial_table,
    log_rho_table,
)
from defock.errors import DivergenceError, ValidationError
from defock.fock_io import ScanTable
from defock.specfun import bessel_k_log
from defock.states import _RADIUS_MARGIN

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


def q_exponential(x: float, q: float) -> float:
    """q-deformed exponential E_q(x) = sum x^n / [n]_q!.

    Converges iff |x| (1 - q^2) < 1; outside that radius a
    :class:`DivergenceError` is raised.
    """
    if not 0.0 < q <= 1.0:
        raise ValidationError(f"q must lie in (0, 1], got {q}")
    if q < 1.0 and abs(x) * (1.0 - q * q) >= 1.0 - _RADIUS_MARGIN:
        raise DivergenceError(
            f"E_q series diverges: |x|={abs(x)} >= 1/(1-q^2)={1/(1-q*q):.6g}"
        )
    total = 0.0
    term = 1.0
    for n in range(1, 100000):
        total += term
        term *= x / q_bracket(n, q)
        if abs(term) < 1e-18 * max(abs(total), 1.0):
            return total + term
    raise DivergenceError("E_q series did not converge")  # pragma: no cover


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
    return math.exp(log_rho_table(d, n + 1)[n])


def energy_level(d: Deformation, n: int, omega: float, hbar: float = 1.0) -> float:
    """E_n = hbar omega e_n (ground level shifted to zero)."""
    if omega <= 0 or hbar <= 0:
        raise ValidationError("energy_level needs omega > 0 and hbar > 0")
    return hbar * omega * dimensionless_e(d, n)


def _levels(family: str, p):
    """Yield the level [k] for k = 0, 1, ...: k f^2(k) = (1 + tau/2) k +
    (tau/2) k^2 for nlcs and gk, and the q-integer 1 + q^2 + ... + q^(2k-2)
    for the q families, one term of it per level."""
    if family in ("nlcs", "gk"):
        tau = mp.mpf(p.tau)
        for k in itertools.count():
            yield (1 + tau / 2) * k + tau / 2 * k * k
    q2, level, power = mp.mpf(p.q) ** 2, mp.mpf(0), mp.mpf(1)
    while True:
        yield level
        level += power
        power *= q2


def summed_norm(family: str, p) -> float:
    """The normalization constant ``FAMILIES[family].norm`` reports for the
    families whose series is summed to convergence (nlcs, gk, q-coherent,
    cat, pacs), from the raw weights |c_n|^2 summed at 40 digits.

    ``p`` carries the options as attributes (``alpha`` as one complex).
    Past its peak every series here has a falling term ratio, so the sum
    stops once a term is below 1e-50 of each partial sum.
    """
    with mp.workdps(40):
        levels = _levels(family, p)
        x = mp.mpf(p.J) if family == "gk" else abs(mp.mpc(p.alpha)) ** 2
        m = p.m if family == "pacs" else 0
        level = [next(levels) for _ in range(m + 1)]  # [0] .. [n + m]
        # coherent weight x^n / [n]!, and the photon-added factor [n+m]! / [n]!
        term, added = mp.mpf(1), mp.fprod(level[1:])
        even, odd, pacs = mp.mpf(0), mp.mpf(0), mp.mpf(0)
        n = 0
        while n == 0 or term * added >= 1e-50 * min(s for s in (even, odd, pacs) if s > 0):
            if n % 2:
                odd += term
            else:
                even += term
            pacs += term * added
            n += 1
            level.append(next(levels))
            term *= x / level[n]
            added *= level[n + m] / level[n]
        total = even + odd
        if family == "cat":
            return float(mp.sqrt(4 * (even if p.parity == "even" else odd) / total))
        if family == "pacs":
            return float(mp.sqrt(pacs / total))
        return float(mp.sqrt(total))


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


def squeezed_coeffs_per_level(alpha: complex, zeta: complex, deformation: Deformation,
                              n_max: int) -> tuple:
    """``(log|I(n)|, phase of I(n))`` by the squeezed recurrence, each level
    written as it is reached: the loop ``squeezed_coeffs_recurrence`` ran
    before it took the magnitudes, logs and phases in one pass, kept so
    that the two can be compared bit for bit."""
    alpha = complex(alpha)
    zeta = complex(zeta)
    log_abs = np.empty(n_max)
    phase = np.empty(n_max, dtype=complex)

    def record(idx, value, offset):
        mag = abs(value)
        if mag == 0.0:
            log_abs[idx] = -math.inf
            phase[idx] = 1.0
        else:
            log_abs[idx] = math.log(mag) + offset
            phase[idx] = value / mag

    f2 = f_squared(deformation, np.arange(n_max)).tolist()
    prev, cur = 1.0 + 0.0j, alpha
    offset = 0.0
    record(0, prev, offset)
    record(1, cur, offset)
    for n in range(1, n_max - 1):
        nxt = alpha * cur - zeta * n * f2[n] * prev
        prev, cur = cur, nxt
        top = max(abs(prev), abs(cur))
        if top > 1e120:
            prev /= top
            cur /= top
            offset += math.log(top)
        record(n + 1, cur, offset)
    return log_abs, phase


def squeezed_coeff_closed_form(alpha: complex, zeta: complex, tau: float,
                               n: int) -> complex:
    """Closed form for the squeezed seed I(alpha, zeta, n) at tau > 0.

    i^n (zeta B)^(n/2) (1 + A/B)^(n) 2F1(-n, 1/2 + A/2B + i alpha /
    (2 sqrt(zeta B)); 1 + A/B; 2), with A = 1 + tau/2 and B = tau/2.
    Despite the explicit i^n, the hypergeometric value carries exactly
    the compensating phase, so real alpha and zeta give a real result.
    Validated for real zeta > 0; complex zeta draws a branch-ambiguity
    warning.
    """
    if tau <= 0:
        raise ValidationError("closed form needs tau > 0; use the recurrence")
    if zeta == 0:
        raise ValidationError("closed form needs zeta != 0; use the recurrence")
    if n < 0:
        raise ValidationError("n must be >= 0")
    zeta = complex(zeta)
    if zeta.imag != 0.0 or zeta.real < 0.0:
        warnings.warn(
            "squeezed_coeff_closed_form is validated only for real zeta > 0",
            stacklevel=2,
        )
    a_coef = 1.0 + tau / 2.0
    b_coef = tau / 2.0
    c_param = 1.0 + a_coef / b_coef
    root = cmath.sqrt(zeta * b_coef)
    b_param = 0.5 + a_coef / (2.0 * b_coef) + 1j * complex(alpha) / (2.0 * root)

    f_val = gauss_2f1_terminating(n, b_param, c_param, 2.0)
    # prefactor and sum combined at extended precision: the rising
    # factorial alone overflows the double range long before the product
    with mp.workdps(40 + int(0.9 * n)):
        pref = (mp.mpc(0, 1) ** n) * mp.mpc(zeta * b_coef) ** (mp.mpf(n) / 2)
        pref *= mp.rf(mp.mpf(c_param), n)
        return complex(pref * mp.mpc(f_val))


def measure_moment_integral(n: int, tau: float) -> tuple:
    """(value, quad's absolute error estimate) of int_0^inf t^n Omega(t) dt
    at tau, by QUADPACK's qagie over u = sqrt(t), with the norm in closed
    form and K_mu from ``scipy.special.kve`` (mpmath where it overflows)."""
    from scipy.integrate import quad
    from scipy.special import kve

    mu = 1.0 + 2.0 / tau
    log_const = (-math.lgamma(2.0 + 2.0 / tau) + 0.5 * (4.0 + mu) * math.log(2.0)
                 - math.log(tau) + math.log(2.0))

    def integrand(u):
        if u <= 0.0:
            return 0.0
        t = u * u
        x = 2.0 * math.sqrt(2.0 * t / tau)
        scaled = float(kve(mu, x))
        log_k = (math.log(scaled) - x if 0.0 < scaled < math.inf
                 else float(mp.log(mp.besselk(mu, x))))
        logv = log_const + 0.5 * mu * math.log(t / tau) + log_k + (2 * n + 1) * math.log(u)
        return math.exp(logv) if logv > -745.0 else 0.0

    return quad(integrand, 0.0, math.inf, limit=300, epsabs=0.0, epsrel=1e-10)


def read_csv(path) -> ScanTable:
    """Parse a file written by ``defock.fock_io.write_csv``; numeric cells
    become floats."""
    provenance = {}
    columns = None
    rows = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        if not raw:
            continue
        if raw.startswith("#"):
            key, _, value = raw[1:].strip().partition("=")
            provenance[key] = value
            continue
        cells = raw.split(",")
        if columns is None:
            columns = cells
            continue
        parsed = []
        for cell in cells:
            try:
                parsed.append(float(cell))
            except ValueError:
                parsed.append(cell)
        rows.append(parsed)
    if columns is None:
        raise ValidationError(f"no header row in {path}")
    return ScanTable(columns=columns, rows=rows, provenance=provenance)
