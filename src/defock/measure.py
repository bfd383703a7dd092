"""Moment verification for the minimal-length coherent-state measure.

The positive weight

    Omega(t) = norm * 2^((4+mu+beta)/2) / (tau Gamma(1+beta))
               * (t/tau)^((mu+beta)/2) * K_(mu-beta)(2 sqrt(2 t / tau))

must satisfy int_0^inf t^n Omega(t) dt = rho_n = n! f^2(n)! for the
perturbative kernel.  Matching the Mellin transform of K against the
gamma structure of rho fixes beta = 0 and mu = 1 + 2/tau; the overall
constant is calibrated on the zeroth moment since the literal prefactor
does not normalize rho_0 to 1 on its own.

Each moment is one adaptive quadrature over u = sqrt(t) on [0, inf).  The
quadrature maps the half-line the same way for every moment, and the
integrands differ only in the power of u, so the moments share most of
their nodes.  The node terms of log Omega (the t power, the Bessel factor
and ln u) are kept per ``MeasureParams`` and computed once per node:
``calibrate`` and a ``moment_table`` on its result make one ``bessel_k_log``
call per distinct node.  The memo lives and dies with its parameters.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache

from .deform import Deformation, log_rho
from .errors import QuadratureError, ValidationError
from .specfun import bessel_k_log, log_gamma

__all__ = [
    "MIN_TAU",
    "MeasureParams",
    "omega",
    "calibrate",
    "moment_check",
    "MomentCheck",
    "moment_table",
]

_QUAD_LIMIT = 300

# Below this tau the uncalibrated zeroth-moment integrand leaves the double
# range: its peak, at u = sqrt(t) ~ 0.71, is about e^660 at tau 0.0125 and
# e^709 (the largest double) at tau 0.0118, and it grows as tau falls, so
# calibrate refuses a smaller tau before any quadrature.
MIN_TAU = 0.0125
# log of the largest double: rho_n above it cannot be a target
_LOG_MAX = math.log(sys.float_info.max)
# rho_n >= n! for the nc kernel (every f^2 >= 1), and 171! overflows
_MAX_MOMENT = 170


@dataclass(frozen=True)
class MeasureParams:
    """Parameters of the measure density."""

    tau: float
    mu: float
    beta: float
    norm: float

    def __post_init__(self):
        if self.tau <= 0:
            raise ValidationError("tau must be > 0")
        if self.mu - self.beta < 0:
            raise ValidationError("Bessel order mu - beta must be >= 0")
        if self.norm <= 0:
            raise ValidationError("norm must be > 0")
        # the t-independent part of log Omega, hoisted out of the integrand
        object.__setattr__(self, "_log_const",
                           math.log(self.norm) + _log_shape_const(self.tau, self.mu, self.beta))
        # u -> the node terms of the moment integrand; they depend on tau,
        # mu and beta only, so calibrate hands the raw memo to its result
        object.__setattr__(self, "_nodes", {})


@lru_cache(maxsize=64)
def _log_shape_const(tau: float, mu: float, beta: float) -> float:
    # log Omega less log norm, the t power and the Bessel factor; the raw and
    # calibrated parameters of calibrate differ in norm only, so they share it
    return (0.5 * (4.0 + mu + beta) * math.log(2.0) - math.log(tau)
            - log_gamma(1.0 + beta) - 0.5 * (mu + beta) * math.log(tau))


def _node_terms(t: float, p: MeasureParams) -> tuple[float, float]:
    # the t power and the Bessel factor of log Omega; callers add them to
    # _log_const in this order, so omega and the integrand agree to the bit.
    # bessel_k_log is looked up as a module global on each call, so a
    # wrapper installed on that global sees every evaluation.
    x = 2.0 * math.sqrt(2.0 * t / p.tau)
    return 0.5 * (p.mu + p.beta) * math.log(t), bessel_k_log(p.mu - p.beta, x)


def omega(t: float, p: MeasureParams) -> float:
    """Measure density at t > 0; underflows to 0 for large t."""
    if t <= 0:
        raise ValidationError("omega needs t > 0")
    power, bessel = _node_terms(t, p)
    logv = p._log_const + power + bessel
    if logv < -745.0:
        return 0.0
    return math.exp(logv)


def _moment_integral(n: int, p: MeasureParams) -> tuple[float, float]:
    # returns (value, quad's absolute error estimate) of the integral over [0, inf)
    # substitute u = sqrt(t): int t^n Omega dt = int 2 u^(2n+1) Omega(u^2) du
    # imported here: scipy.integrate is a third of the package's import time
    # and no other subcommand needs it
    from scipy.integrate import quad

    log_const, nodes, k = p._log_const, p._nodes, 2 * n + 1

    def integrand(u):
        if u <= 0.0:
            return 0.0
        terms = nodes.get(u)
        if terms is None:
            terms = nodes[u] = (*_node_terms(u * u, p), math.log(u))
        power, bessel, log_u = terms
        logv = log_const + power + bessel + k * log_u + math.log(2.0)
        if logv < -745.0:
            return 0.0
        return math.exp(logv)

    try:
        value, err = quad(integrand, 0.0, math.inf, limit=_QUAD_LIMIT, epsabs=0.0, epsrel=1e-10)
    except OverflowError as exc:
        raise QuadratureError(f"moment integrand left the double range (n={n})") from exc
    # written so that an inf or NaN value or error estimate fails it too
    if not (0.0 < value < math.inf and err <= 1e-8 * value):
        raise QuadratureError(
            f"moment quadrature did not converge (n={n}, value={value!r}, err={err!r})"
        )
    return value, err


def calibrate(tau: float) -> MeasureParams:
    """Fix (mu, beta) from the gamma structure of rho_n and the overall
    constant from the zeroth moment.

    beta = 0 and mu = 1 + 2/tau make the Mellin transform of the Bessel
    kernel reproduce Gamma(n+1) Gamma(n+2+2/tau), the n-dependence of
    rho_n; the returned ``norm`` enforces moment(0) = rho_0 = 1.
    A tau below ``MIN_TAU`` is refused.
    """
    if not tau >= MIN_TAU:
        raise ValidationError(f"tau must be >= {MIN_TAU}, got {tau!r}")
    raw = MeasureParams(tau=tau, mu=1.0 + 2.0 / tau, beta=0.0, norm=1.0)
    zeroth, _ = _moment_integral(0, raw)
    calibrated = MeasureParams(tau=tau, mu=raw.mu, beta=raw.beta, norm=1.0 / zeroth)
    object.__setattr__(calibrated, "_nodes", raw._nodes)
    return calibrated


@dataclass(frozen=True)
class MomentCheck:
    """One moment of the measure against rho_n.

    ``quad_err`` is the absolute error estimate ``quad`` returned for
    ``computed``; it is not written to the CLI artifacts.
    """

    n: int
    computed: float
    target: float
    quad_err: float

    @property
    def rel_err(self) -> float:
        return abs(self.computed - self.target) / abs(self.target)


def _log_rho_target(tau: float, n: int) -> float:
    # the moment identity is exact in tau, so the perturbative-regime
    # warning attached to the deformation object does not apply here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        d = Deformation.perturbative_nc(tau)
    return log_rho(d, n)


def moment_check(n: int, p: MeasureParams) -> MomentCheck:
    """Compare int_0^inf t^n Omega(t) dt, by adaptive quadrature over the
    whole half-line, against rho_n."""
    if n < 0:
        raise ValidationError("moment order must be >= 0")
    target = math.exp(_log_rho_target(p.tau, n))
    computed, quad_err = _moment_integral(n, p)
    return MomentCheck(n=n, computed=computed, target=target, quad_err=quad_err)


def moment_table(p: MeasureParams, n_top: int) -> list:
    """Moment checks for n = 0 .. n_top; an n_top whose rho_n leaves the
    double range is refused before any quadrature."""
    if n_top < 0:
        raise ValidationError("n_top must be >= 0")
    if n_top > _MAX_MOMENT or _log_rho_target(p.tau, n_top) > _LOG_MAX:
        raise ValidationError(f"rho_{n_top} at tau={p.tau!r} exceeds the double range")
    return [moment_check(n, p) for n in range(n_top + 1)]
