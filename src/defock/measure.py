"""Moment verification for the minimal-length coherent-state measure.

The positive weight

    Omega(t) = norm * 2^((4+mu)/2) / tau * (t/tau)^(mu/2) * K_mu(2 sqrt(2 t / tau))

must satisfy int_0^inf t^n Omega(t) dt = rho_n = n! f^2(n)! for the
perturbative kernel.  With x = 2 sqrt(2 t / tau) the Mellin transform of K
(DLMF 10.43.19) gives norm (tau/2)^n n! Gamma(n + 1 + mu), so mu = 1 + 2/tau
matches the gamma structure of rho_n (the paper's second order parameter,
beta, is 0), and norm = 1/Gamma(2 + 2/tau) makes moment 0 equal rho_0 = 1.
Every parameter follows from tau in closed form.

The moments are computed, not assumed: one trapezoid rule in y = ln x
(ln t = ln tau + 2y - ln 8, so tau x^2 is never formed), on which
x^(2n+2+mu) K_mu(x) is analytic and decays on both sides, so the rule
converges exponentially (Trefethen & Weideman, SIAM Rev. 56 (2014) 385).
All moments share the nodes as one (moments x nodes) array of log-weights,
and one ``bessel_k_log`` call takes ln K_mu on every node.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .deform import Deformation, log_rho_table
from .errors import QuadratureError, ValidationError
from .specfun import bessel_k_log, log_gamma

__all__ = [
    "MIN_TAU",
    "MeasureParams",
    "omega",
    "MomentCheck",
    "moment_table",
]

# The smallest tau that the property test of the moments verifies.  Below
# it ln K_mu takes more than the floor(mu) = 161 recurrence steps it takes
# here, and the closed-form norm's ln Gamma(2 + 2/tau), 660 here, brings a
# larger absolute rounding (about eps ln Gamma) into every log-weight.
MIN_TAU = 0.0125
# log of the largest double: rho_n above it cannot be a target
_LOG_MAX = math.log(sys.float_info.max)
# rho_n >= n! for the nc kernel (every f^2 >= 1), and 171! overflows
_MAX_MOMENT = 170
_LN2 = math.log(2.0)
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class MeasureParams:
    """The measure density at one tau; mu, beta and norm follow from it.

    mu = 1 + 2/tau and beta = 0 make the Mellin transform of the Bessel
    kernel reproduce Gamma(n+1) Gamma(n+2+2/tau), the n-dependence of
    rho_n, and norm = 1/Gamma(2 + 2/tau) gives moment(0) = rho_0 = 1.  A
    tau below ``MIN_TAU``, or an infinite one, is refused.
    """

    tau: float
    beta = 0.0  # not a field: the paper's second order, which rho_n fixes at 0

    def __post_init__(self):
        if not self.tau >= MIN_TAU:
            raise ValidationError(f"tau must be >= {MIN_TAU}, got {self.tau!r}")
        if self.tau == math.inf:
            raise ValidationError("tau must be finite")

    @property
    def mu(self) -> float:
        return 1.0 + 2.0 / self.tau

    @property
    def norm(self) -> float:
        return math.exp(-log_gamma(2.0 + 2.0 / self.tau))


def omega(t: float, p: MeasureParams) -> float:
    """Measure density at t > 0; underflows to 0 for large t."""
    if t <= 0:
        raise ValidationError("omega needs t > 0")
    y = 0.5 * (math.log(t) - math.log(p.tau)) + 1.5 * _LN2  # ln x
    log_2t_omega = ((2.0 + p.mu) * y - p.mu * _LN2 - log_gamma(2.0 + 2.0 / p.tau)
                    + bessel_k_log(p.mu, math.exp(y)))
    return math.exp(log_2t_omega - _LN2 - math.log(t))


def _trapezoid(p: MeasureParams, n_top: int) -> tuple[np.ndarray, np.ndarray]:
    # (value, error estimate) of int_0^inf t^n Omega(t) dt for n = 0 .. n_top
    mu = p.mu
    x_top = 2.0 * n_top + 2.0 + mu  # about where the integrand of moment n_top peaks
    # the peaks are about 1/sqrt(x) wide in y; the step is half the narrowest
    # and at most 0.2, which keeps the rule exponentially accurate near x ~ 1
    h = min(0.2, 0.5 / math.sqrt(x_top))
    # from 22.5 below the peak of moment 0 (45 units of ln t) to well past
    # the exponential tail of moment n_top; an odd count of nodes, so that
    # every other node is the rule of step 2h
    lo = math.log(2.0 + mu) - 22.5
    hi = math.log(x_top + 10.0 * math.sqrt(x_top) + 60.0)
    y = lo + h * np.arange(2 * math.ceil(0.5 * (hi - lo) / h) + 1)
    log_norm = log_gamma(2.0 + 2.0 / p.tau)
    log_k = bessel_k_log(mu, np.exp(y))
    log_tau_8 = math.log(p.tau / 8.0)
    n = np.arange(n_top + 1)
    # ln(t^n 2t Omega(t)) at t = tau e^(2y) / 8, the integrand of moment n over y
    w = (2.0 + mu) * y - mu * _LN2 - log_norm + log_k + n[:, None] * (log_tau_8 + 2.0 * y)
    peak, top = w.argmax(axis=1), w.max(axis=1)
    scaled = np.exp(w - top[:, None])
    fine = h * scaled.sum(axis=1)
    coarse = 2.0 * h * scaled[:, ::2].sum(axis=1)
    with np.errstate(over="ignore"):
        value = np.exp(top + np.log(fine))
    if not np.all(np.isfinite(value)):
        raise QuadratureError(f"moment left the double range (n={np.argmin(np.isfinite(value))})")
    # the error of an exponentially convergent rule is about the square of
    # the relative change from step 2h (Bailey, Jeyabalan & Li, Exp. Math.
    # 14 (2005) 317); rounding adds a few eps times the size of the terms
    # summed into the log-weight (and floor(mu) recurrence steps), taken at
    # the peak node of each moment
    size = ((2.0 + mu + 2.0 * n) * np.abs(y[peak]) + n * abs(log_tau_8) + mu * _LN2 + log_norm
            + np.abs(log_k[peak]) + math.floor(mu))
    rel = ((fine - coarse) / fine) ** 2 + 4.0 * _EPS * size
    return value, rel * value


@dataclass(frozen=True)
class MomentCheck:
    """One moment of the measure against rho_n.

    ``quad_err`` is the trapezoid rule's own estimate of the absolute error
    of ``computed``; it is not written to the CLI artifacts.
    """

    n: int
    computed: float
    target: float
    quad_err: float

    @property
    def rel_err(self) -> float:
        return abs(self.computed - self.target) / abs(self.target)


def moment_table(p: MeasureParams, n_top: int) -> list:
    """Moment checks for n = 0 .. n_top, on one set of nodes; an n_top whose
    rho_n leaves the double range is refused before any node is evaluated."""
    if n_top < 0:
        raise ValidationError("n_top must be >= 0")
    # the moment identity is exact in tau, so the perturbative-regime
    # warning attached to the deformation object does not apply here, and a
    # rho_n that overflows is refused below, so neither does numpy's
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        log_rho = log_rho_table(Deformation.perturbative_nc(p.tau), min(n_top, _MAX_MOMENT) + 1)
    if n_top > _MAX_MOMENT or log_rho[n_top] > _LOG_MAX:
        raise ValidationError(f"rho_{n_top} at tau={p.tau!r} exceeds the double range")
    values, errors = _trapezoid(p, n_top)
    return [MomentCheck(n=n, computed=float(values[n]), target=math.exp(log_rho[n]),
                        quad_err=float(errors[n])) for n in range(n_top + 1)]
