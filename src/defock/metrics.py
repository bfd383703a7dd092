"""Nonclassicality diagnostics: quadrature variances, Mandel parameter,
second-order correlation, photon distributions, revival analysis.

Two quadrature pairs are offered:

* :func:`quadrature_stats` builds Y = (A + A^dag)/2 and Z = (A - A^dag)/(2i)
  from the deformed ladder operators of the chosen kernel.  Exact
  eigenstates of A (coherent families in the bare representation)
  saturate the Robertson bound identically in this pair.
* :func:`xp_uncertainty` evaluates the position/momentum pair of the
  minimal-length oscillator, with the first-order similarity correction
  x -> x + (tau_check/2)(p^2 x + x p^2) that makes the pair Hermitian
  under the physical inner product.  This is the pair whose commutator
  carries the 1 + tau_check p^2 deformation and whose variances show the
  characteristic asymmetric split.

Each diagnostic takes ``(state, d, ...)`` and only the settings it reads:
a ``direction`` ("lower" or "raise") or a ``number_convention`` ("bare"
n = a^dag a, or "deformed" N = A^dag A, whose eigenvalues are
e_n = n f^2(n)).  An unknown value raises ``ValidationError``.

Everything acts on amplitude vectors through ladder shifts; no dense
operator matrices are formed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .deform import Deformation, SpectrumCoeffs, dimensionless_e
from .errors import DegenerateStateError, TruncationError, ValidationError
from .states import FockState, gk_coherent

__all__ = [
    "QuadratureStats",
    "XPUncertainty",
    "RevivalTimes",
    "GKUncertainty",
    "NonclassicalityReport",
    "apply_ladder",
    "ladder_weights",
    "quadrature_stats",
    "xp_uncertainty",
    "mandel_q",
    "g2_zero",
    "photon_distribution",
    "nonclassicality_report",
    "gk_autocorrelation",
    "detect_peaks",
    "revival_times",
    "gk_uncertainty_product",
]

_BOUNDARY_TOL = 1e-12
_DEGENERATE_TOL = 1e-14


def ladder_weights(d: Deformation, n_max: int) -> np.ndarray:
    """sqrt(n f^2(n)) for n = 0 .. n_max-1; the matrix elements of A."""
    return np.sqrt(dimensionless_e(d, np.arange(n_max)))


def _lower(amps: np.ndarray, w: np.ndarray) -> np.ndarray:
    out = np.zeros_like(amps)
    out[:-1] = w[1:] * amps[1:]
    return out


def _raise(amps: np.ndarray, w: np.ndarray) -> np.ndarray:
    out = np.zeros_like(amps)
    out[1:] = w[1:] * amps[:-1]
    return out


def _check_headroom(amps: np.ndarray, message: str) -> None:
    """Refuse |c[n_max-1]| above ``_BOUNDARY_TOL``, which ``message`` may name
    as ``{edge}``: raising would push its weight past the truncation."""
    edge = abs(amps[-1])
    if edge > _BOUNDARY_TOL:
        raise TruncationError(message.format(edge=edge))


def apply_ladder(state: FockState, d: Deformation, direction: str = "lower") -> np.ndarray:
    """Apply A (direction "lower") or A^dag ("raise") to the amplitude vector.

    Returns the unnormalized image.  Raising demands headroom: the
    boundary amplitude must be negligible or the shifted component would
    silently fall off the truncation.
    """
    if direction not in ("lower", "raise"):
        raise ValidationError(f"direction must be lower/raise, got {direction!r}")
    w = ladder_weights(d, state.n_max)
    if direction == "lower":
        return _lower(state.amps, w)
    _check_headroom(state.amps, "raise would push amplitude past the truncation boundary "
                                "(|c[n_max-1]| = {edge:.3e})")
    return _raise(state.amps, w)


@dataclass(frozen=True)
class QuadratureStats:
    var_y: float
    var_z: float
    gur_rhs: float


def quadrature_stats(state: FockState, d: Deformation) -> QuadratureStats:
    """Variances of the ladder quadratures and the uncertainty-bound RHS.

    Y = (A + A^dag)/2, Z = (A - A^dag)/(2i); the right-hand side is
    |<[Y, Z]>| / 2 = |<A A^dag> - <A^dag A>| / 4.  A coherent state of
    the undeformed kernel gives (1/4, 1/4, 1/4).
    """
    amps = state.amps
    _check_headroom(amps, "boundary amplitude non-negligible; enlarge n_max")
    w = ladder_weights(d, state.n_max)
    low = _lower(amps, w)
    hi = _raise(amps, w)
    e_a = np.vdot(amps, low)               # <A>
    e_a2 = np.vdot(hi, low)                # <A^2> = <A^dag psi | A psi>
    e_ada = float(np.vdot(low, low).real)  # <A^dag A>
    e_aad = float(np.vdot(hi, hi).real)    # <A A^dag>
    var_y = 0.25 * (2.0 * e_a2.real + e_ada + e_aad) - e_a.real**2
    var_z = 0.25 * (-2.0 * e_a2.real + e_ada + e_aad) - e_a.imag**2
    rhs = 0.25 * abs(e_aad - e_ada)
    return QuadratureStats(var_y=float(var_y), var_z=float(var_z), gur_rhs=float(rhs))


@dataclass(frozen=True)
class XPUncertainty:
    var_x: float
    var_p: float
    rhs: float

    @property
    def product(self) -> float:
        return math.sqrt(self.var_x * self.var_p)


def xp_uncertainty(state: FockState, tau: float, *, m: float = 1.0,
                   omega: float = 1.0, hbar: float = 1.0) -> XPUncertainty:
    """Position/momentum uncertainties of the minimal-length oscillator.

    Uses the first-order similarity-corrected pair

        X = x + (tau_check/2) (p^2 x + x p^2),   P = p,

    with tau_check = tau / (m omega hbar), whose commutator is
    i hbar (1 + tau_check p^2).  The returned ``rhs`` is the
    Robertson bound |<[X, P]>|/2 = (hbar/2)(1 + tau_check <p^2>).
    With m = omega = hbar = 1 the pair is dimensionless with vacuum
    variances 1/2.

    The state should be in the perturbed-basis representation; six
    levels of boundary headroom are required.
    """
    if tau < 0:
        raise ValidationError("tau must be >= 0")
    amps = state.amps
    if float(np.sum(np.abs(amps[-6:]) ** 2)) > 1e-18:
        raise TruncationError("boundary amplitudes non-negligible; enlarge n_max")
    n_max = state.n_max
    w = np.sqrt(np.arange(n_max, dtype=float))  # bare ladder
    cx = math.sqrt(hbar / (2.0 * m * omega))
    cp = math.sqrt(m * omega * hbar / 2.0)
    tau_check = tau / (m * omega * hbar)

    def x_op(v):
        return cx * (_lower(v, w) + _raise(v, w))

    def p_op(v):
        return 1j * cp * (_raise(v, w) - _lower(v, w))

    def big_x(v):
        xv = x_op(v)
        ppv = p_op(p_op(v))
        return xv + 0.5 * tau_check * (p_op(p_op(xv)) + x_op(ppv))

    xv = big_x(amps)
    xxv = big_x(xv)
    pv = p_op(amps)
    ppv = p_op(pv)
    mean_x = float(np.vdot(amps, xv).real)
    mean_x2 = float(np.vdot(amps, xxv).real)
    mean_p = float(np.vdot(amps, pv).real)
    mean_p2 = float(np.vdot(amps, ppv).real)
    var_x = mean_x2 - mean_x**2
    var_p = mean_p2 - mean_p**2
    rhs = 0.5 * hbar * (1.0 + tau_check * mean_p2)
    return XPUncertainty(var_x=var_x, var_p=var_p, rhs=rhs)


def _number_stats(state: FockState, d: Deformation, number_convention: str,
                  quantity: str) -> tuple[float, float]:
    """(Mandel Q, g2(0)) from P_n = |c_n|^2 and the level values of the
    convention; a state with <N> = 0 raises, naming ``quantity``."""
    if number_convention not in ("bare", "deformed"):
        raise ValidationError(
            f"number_convention must be bare/deformed, got {number_convention!r}")
    p = np.abs(state.amps) ** 2
    levels = np.arange(state.n_max)
    e = levels.astype(float) if number_convention == "bare" else dimensionless_e(d, levels)
    mean = float(np.sum(p * e))
    if mean <= _DEGENERATE_TOL:
        raise DegenerateStateError(f"{quantity} undefined: <N> = 0")
    var = float(np.sum(p * e * e)) - mean**2
    e_shift = np.concatenate([[0.0], e[:-1]])
    num = float(np.sum(p * e * e_shift))
    return var / mean - 1.0, num / mean**2


def mandel_q(state: FockState, d: Deformation, number_convention: str = "bare") -> float:
    """Mandel parameter <(Delta N)^2>/<N> - 1 in the chosen convention."""
    return _number_stats(state, d, number_convention, "Mandel parameter")[0]


def g2_zero(state: FockState, d: Deformation, number_convention: str = "bare") -> float:
    """Zero-delay second-order correlation <A^dag^2 A^2> / <A^dag A>^2."""
    return _number_stats(state, d, number_convention, "g2(0)")[1]


def photon_distribution(state: FockState) -> np.ndarray:
    """Level occupation probabilities |c_n|^2."""
    return np.abs(state.amps) ** 2


@dataclass
class NonclassicalityReport:
    """Bundle of single-state diagnostics; nonnegative variances and bound
    that obey the uncertainty relation, checked when it is built."""

    var_y: float
    var_z: float
    gur_rhs: float
    mandel_q: float
    g2_zero: float
    mean_n: float
    photon_dist: np.ndarray

    def __post_init__(self):
        # written so that a NaN fails each comparison
        if not (self.var_y >= 0 and self.var_z >= 0 and self.gur_rhs >= 0):
            raise ValidationError("variances and bound must be nonnegative")
        if not self.var_y * self.var_z >= self.gur_rhs**2 - 1e-9:
            raise ValidationError("uncertainty relation violated beyond tolerance")

    def to_json(self) -> str:
        doc = {
            "var_y": self.var_y,
            "var_z": self.var_z,
            "gur_rhs": self.gur_rhs,
            "mandel_q": self.mandel_q,
            "g2_zero": self.g2_zero,
            "mean_n": self.mean_n,
            "photon_dist": list(map(float, self.photon_dist)),
        }
        return json.dumps(doc)


def nonclassicality_report(state: FockState, d: Deformation, *,
                           number_convention: str = "bare") -> NonclassicalityReport:
    quad = quadrature_stats(state, d)
    q, g2 = _number_stats(state, d, number_convention, "Mandel parameter")
    return NonclassicalityReport(
        var_y=quad.var_y,
        var_z=quad.var_z,
        gur_rhs=quad.gur_rhs,
        mandel_q=q,
        g2_zero=g2,
        mean_n=state.mean_n(),
        photon_dist=photon_distribution(state),
    )


# ---------------------------------------------------------------------------
# Gazeau-Klauder dynamics
# ---------------------------------------------------------------------------

def gk_autocorrelation(J: float, tau: float, omega: float, tmax: float,
                       points: int, n_max: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """``(t, A)``: |<J,gamma | J,gamma+omega t>|^2 on the uniform grid
    ``t = np.linspace(0, tmax, points)``.

    A(t) = |sum_n P_n exp(-i e_n omega t)|^2 with P_n the normalized
    level weights J^n/rho_n: the angle gamma cancels, so it is no
    parameter and the state is built at gamma = 0.  A(0) = 1.
    The sum stops at the first level whose trailing weight sum_{k>=n} P_k
    is at most eps^2 of the total: the dropped levels move A by at most
    twice that, far below one ulp of A.

    On the grid t_k = k h, write k = j B + r with B = isqrt(points) + 1.
    Then exp(-i omega e_n t_k) = exp(-i omega e_n t_{jB}) exp(-i omega e_n r h),
    so two tables of about sqrt(points) rows by the levels, and one
    complex matrix product over the levels, give every amplitude: about
    2 sqrt(points) exponentials per level instead of points, and a
    working set of O(points + sqrt(points) levels).  The split moves A
    by a few ulps of the phases against one exponential per point.  A
    grid on which some phase that the tables form leaves the double
    range is refused, as are a non-finite or non-positive ``tmax`` and
    fewer than 2 points.
    """
    if not (0.0 < tmax < math.inf):
        raise ValidationError(f"tmax must be finite and > 0, got {tmax!r}")
    if points < 2:
        raise ValidationError(f"points must be >= 2, got {points!r}")
    state = gk_coherent(J, 0.0, tau, n_max, basis="bare")
    p = np.abs(state.amps) ** 2
    trailing = np.cumsum(p[::-1])[::-1]  # non-increasing in the level
    levels = int(np.count_nonzero(trailing > np.finfo(float).eps ** 2 * trailing[0]))
    e = dimensionless_e(Deformation.perturbative_nc(tau), np.arange(levels))
    return _lattice_autocorrelation(p[:levels], e, omega, tmax, points)


def _lattice_autocorrelation(p: np.ndarray, e: np.ndarray, omega: float, tmax: float,
                             points: int) -> tuple[np.ndarray, np.ndarray]:
    """``(t, |sum_n p_n exp(-i omega e_n t_k)|^2)`` on ``t = np.linspace(0, tmax,
    points)``, by the block split of :func:`gk_autocorrelation`."""
    t = np.linspace(0.0, tmax, points)
    block = math.isqrt(points) + 1
    coarse = t[::block]                                    # t_{jB}, from the grid
    fine = np.arange(block) * (tmax / (points - 1))        # r h, with linspace's step
    # the largest |omega x e_n| over the times x of both tables, as rounding
    # is monotone, in Python floats, which overflow to inf without a warning;
    # exp(-i inf) is NaN.  At 2 points the fine table holds the largest x
    top = max(float(coarse[-1]), float(fine[-1])) * float(np.max(np.abs(e)))
    if not math.isfinite(abs(omega) * top):
        raise ValidationError("the phases omega t e_n exceed the double range; "
                              "shorten the time grid")
    outer = p * np.exp(-1j * omega * np.outer(coarse, e))
    inner = np.exp(-1j * omega * np.outer(fine, e))
    # numpy's own loop, not BLAS: OpenBLAS runs even this small product on
    # two threads, and the second spins on for the rest of the job
    z = np.einsum("jn,rn->jr", outer, inner, optimize=False).ravel()[:points]
    return t, np.abs(z) ** 2


def detect_peaks(t: np.ndarray, a: np.ndarray, min_height: float = 0.2) -> np.ndarray:
    """Local maxima of a sampled trace, refined by parabolic interpolation."""
    t = np.asarray(t, dtype=float)
    a = np.asarray(a, dtype=float)
    if t.shape != a.shape or t.size < 3:
        raise ValidationError("need matching grids with at least 3 samples")
    mid, left, right = a[1:-1], a[:-2], a[2:]
    i = 1 + np.flatnonzero((mid >= min_height) & (mid > left) & (mid >= right))
    denom = a[i - 1] - 2.0 * a[i] + a[i + 1]
    shift = np.divide(0.5 * (a[i - 1] - a[i + 1]), denom,
                      out=np.zeros(i.size), where=denom != 0)
    shift = np.clip(shift, -0.5, 0.5)
    return t[i] + shift * (t[i + 1] - t[i])


@dataclass(frozen=True)
class RevivalTimes:
    t_cl: float
    t_rev: float


def revival_times(J: float, tau: float, omega: float, *,
                  nbar: float | None = None, n_max: int = 64) -> RevivalTimes:
    """Classical period and revival time of the quadratic spectrum.

    With E_n = hbar omega (A n + B n^2), hbar cancels from the phases
    E_n t / hbar: t_cl = 2 pi / (omega (A + 2 B nbar)) and
    t_rev = 2 pi / (omega B), independent of nbar.  ``nbar=None`` takes
    nbar as the mean level of the bare Gazeau-Klauder state of J.  At
    tau = 0, and wherever 2 pi / (omega B) overflows, the revival time is
    returned as ``math.inf``.
    """
    if omega <= 0:
        raise ValidationError("omega must be positive")
    sc = SpectrumCoeffs.from_tau(tau)
    if nbar is not None:
        nb = float(nbar)
        if not nb >= 0:
            raise ValidationError(f"nbar must be >= 0, got {nbar!r}")
    elif J <= 0:
        raise ValidationError("the mean nbar needs J > 0")
    else:
        nb = gk_coherent(J, 0.0, tau, n_max, basis="bare").mean_n()
    t_cl = 2.0 * math.pi / (omega * (sc.A + 2.0 * sc.B * nb))
    # omega B underflows to 0 where 2 pi / (omega B) overflows
    rate = omega * sc.B
    t_rev = math.inf if rate == 0.0 else 2.0 * math.pi / rate
    return RevivalTimes(t_cl=t_cl, t_rev=t_rev)


@dataclass(frozen=True)
class GKUncertainty:
    numeric: float
    closed_form: float


def gk_uncertainty_product(J: float, gamma: float, tau: float, *,
                           m: float = 1.0, omega: float = 0.5,
                           hbar: float = 1.0, n_max: int = 64) -> GKUncertainty:
    """Delta X Delta P on a Gazeau-Klauder state.

    ``numeric`` evaluates the similarity-corrected pair on the
    perturbed-basis state; ``closed_form`` is the first-order result
    (hbar/2)[1 + (tau/2)(1 + 4 J sin^2 gamma)].  The two agree to
    second order in tau.
    """
    state = gk_coherent(J, gamma, tau, n_max, basis="perturbed")
    stats = xp_uncertainty(state, tau, m=m, omega=omega, hbar=hbar)
    closed = 0.5 * hbar * (1.0 + 0.5 * tau * (1.0 + 4.0 * J * math.sin(gamma) ** 2))
    return GKUncertainty(numeric=stats.product, closed_form=closed)
