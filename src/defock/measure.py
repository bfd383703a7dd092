"""Moment verification for the minimal-length coherent-state measure.

The positive weight

    Omega(t) = norm * 2^((4+mu+beta)/2) / (tau Gamma(1+beta))
               * (t/tau)^((mu+beta)/2) * K_(mu-beta)(2 sqrt(2 t / tau))

must satisfy int_0^inf t^n Omega(t) dt = rho_n = n! f^2(n)! for the
perturbative kernel.  Matching the Mellin transform of K against the
gamma structure of rho fixes beta = 0 and mu = 1 + 2/tau; the overall
constant is calibrated on the zeroth moment since the literal prefactor
does not normalize rho_0 to 1 on its own.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

from scipy.integrate import quad

from .deform import Deformation, log_rho
from .errors import QuadratureError, ValidationError
from .specfun import bessel_k_log, log_gamma

__all__ = [
    "MeasureParams",
    "omega",
    "calibrate",
    "moment_check",
    "MomentCheck",
    "moment_table",
]

_QUAD_LIMIT = 300


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


@lru_cache(maxsize=64)
def _log_shape_const(tau: float, mu: float, beta: float) -> float:
    # log Omega less log norm, the t power and the Bessel factor; the raw and
    # calibrated parameters of calibrate differ in norm only, so they share it
    return (0.5 * (4.0 + mu + beta) * math.log(2.0) - math.log(tau)
            - log_gamma(1.0 + beta) - 0.5 * (mu + beta) * math.log(tau))


def _log_omega(t: float, p: MeasureParams) -> float:
    x = 2.0 * math.sqrt(2.0 * t / p.tau)
    return (
        p._log_const
        + 0.5 * (p.mu + p.beta) * math.log(t)
        + bessel_k_log(p.mu - p.beta, x)
    )


def omega(t: float, p: MeasureParams) -> float:
    """Measure density at t > 0; underflows to 0 for large t."""
    if t <= 0:
        raise ValidationError("omega needs t > 0")
    logv = _log_omega(t, p)
    if logv < -745.0:
        return 0.0
    return math.exp(logv)


def _moment_integral(n: int, p: MeasureParams,
                     upper: float = math.inf) -> tuple[float, float]:
    # returns (value, quad's absolute error estimate)
    # substitute u = sqrt(t): int t^n Omega dt = int 2 u^(2n+1) Omega(u^2) du
    def integrand(u):
        if u <= 0.0:
            return 0.0
        t = u * u
        logv = _log_omega(t, p) + (2 * n + 1) * math.log(u) + math.log(2.0)
        if logv < -745.0:
            return 0.0
        return math.exp(logv)

    hi = math.sqrt(upper) if math.isfinite(upper) else math.inf
    value, err = quad(integrand, 0.0, hi, limit=_QUAD_LIMIT, epsabs=0.0, epsrel=1e-10)
    if value <= 0.0 or err > 1e-8 * abs(value):
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
    """
    if tau <= 0:
        raise ValidationError("tau must be > 0")
    raw = MeasureParams(tau=tau, mu=1.0 + 2.0 / tau, beta=0.0, norm=1.0)
    zeroth, _ = _moment_integral(0, raw)
    return MeasureParams(tau=tau, mu=raw.mu, beta=raw.beta, norm=1.0 / zeroth)


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


def _rho_target(tau: float, n: int) -> float:
    # the moment identity is exact in tau, so the perturbative-regime
    # warning attached to the deformation object does not apply here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        d = Deformation.perturbative_nc(tau)
    return math.exp(log_rho(d, n))


def moment_check(n: int, p: MeasureParams, upper: float = math.inf) -> MomentCheck:
    """Compare int_0^upper t^n Omega(t) dt against rho_n."""
    if n < 0:
        raise ValidationError("moment order must be >= 0")
    target = _rho_target(p.tau, n)
    computed, quad_err = _moment_integral(n, p, upper)
    return MomentCheck(n=n, computed=computed, target=target, quad_err=quad_err)


def moment_table(p: MeasureParams, n_top: int) -> list:
    """Moment checks for n = 0 .. n_top."""
    if n_top < 0:
        raise ValidationError("n_top must be >= 0")
    return [moment_check(n, p) for n in range(n_top + 1)]
