"""Constructors for every state family, in a truncated Fock space.

All constructors return a normalized :class:`FockState` together with an
estimate of the probability mass lost to truncation.  Raw coefficient
series are assembled in log-magnitude + phase form (:class:`CoeffTable`)
so factorially growing moment sequences stay representable, and are only
exponentiated relative to their running maximum.

Two representations are available for the minimal-length families
(``nlcs``, ``gk_coherent``, ``nc_squeezed``):

* ``basis="bare"``       -- the raw coefficient series attached directly
  to number states.  This is the representation in which the deformed
  ladder operators act exactly and in which the oscillator's level
  statistics (photon distribution, Mandel parameter) are defined.
* ``basis="perturbed"``  -- the same series attached to the first-order
  perturbed eigenvectors and re-expanded over number states.  This is
  the representation a number-basis device (e.g. a beam splitter) sees.

The two agree at zeroth order in the deformation strength and are
related by an explicit banded dressing.

``FAMILIES`` maps each state family of the command line to its
constructor, its deformation kind, its required options and its
normalization constant.
"""

from __future__ import annotations

import cmath
import json
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .deform import (
    Deformation,
    dimensionless_e,
    f_squared,
    log_f_factorial_table,
    log_rho_table,
)
from .errors import (
    DegenerateStateError,
    DivergenceError,
    TruncationError,
    ValidationError,
)
from .specfun import log_factorial_table, q_bracket

__all__ = [
    "FockState",
    "CoeffTable",
    "DEFAULT_N_MAX",
    "MAX_N_MAX",
    "TAIL_THRESHOLD",
    "glauber",
    "phi_eigenstate",
    "nlcs",
    "nc_coherent_coeffs",
    "nlcs_normalization",
    "q_coherent",
    "q_exponential",
    "gk_coherent",
    "gk_normalization",
    "squeezed_coeffs_recurrence",
    "squeezed_coeff_closed_form",
    "squeezed_normalization",
    "nc_squeezed",
    "ho_squeezed",
    "cat_q",
    "cat_norm_sq",
    "pacs_q",
    "pacs_norm_sq",
    "Family",
    "FAMILIES",
]

DEFAULT_N_MAX = 64
MAX_N_MAX = 512
TAIL_THRESHOLD = 1e-10

_NORM_TOL = 1e-12
_TAIL_PAD = 16
_RADIUS_MARGIN = 1e-9


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FockState:
    """Normalized amplitude vector over number states 0 .. n_max-1."""

    amps: np.ndarray
    tail_mass: float
    label: str = ""

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        object.__setattr__(self, "amps", amps)
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ValidationError(
                f"FockState must be unit norm (got |psi|^2 = {norm_sq!r})"
            )
        if not 0.0 <= self.tail_mass:
            raise ValidationError("tail_mass must be >= 0")
        amps.flags.writeable = False

    @property
    def n_max(self) -> int:
        return len(self.amps)

    def mean_n(self) -> float:
        """Mean of the bare level index."""
        return float(np.sum(np.arange(self.n_max) * np.abs(self.amps) ** 2))

    def to_json(self) -> str:
        doc = {
            "label": self.label,
            "n_max": self.n_max,
            "tail_mass": self.tail_mass,
            "amps": [[z.real, z.imag] for z in self.amps],
        }
        return json.dumps(doc)

    @staticmethod
    def from_json(text: str) -> "FockState":
        try:
            doc = json.loads(text)
            amps = np.array([complex(re, im) for re, im in doc["amps"]])
            if len(amps) != doc["n_max"]:
                raise ValidationError("n_max does not match amplitude count")
            return FockState(amps, float(doc["tail_mass"]), str(doc["label"]))
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"malformed state document: {exc}") from exc


class CoeffTable:
    """Raw coefficient sequence in log-magnitude + phase form.

    ``normalization`` is the l2 norm of the raw sequence; ``amplitudes``
    returns the normalized complex vector.
    """

    def __init__(self, log_abs, phase):
        self.log_abs = np.asarray(log_abs, dtype=float)
        self.phase = np.asarray(phase, dtype=complex)
        if self.log_abs.shape != self.phase.shape:
            raise ValidationError("log_abs and phase must have equal length")

    def __len__(self):
        return len(self.log_abs)

    @property
    def log_norm_sq(self) -> float:
        return _logsumexp(2.0 * self.log_abs)

    @property
    def normalization(self) -> float:
        return math.exp(0.5 * self.log_norm_sq)

    def scaled_values(self) -> np.ndarray:
        """Raw coefficients divided by the largest magnitude (overflow-safe)."""
        finite = self.log_abs[np.isfinite(self.log_abs)]
        top = finite.max() if finite.size else 0.0
        return np.exp(self.log_abs - top) * self.phase

    def amplitudes(self) -> np.ndarray:
        vals = self.scaled_values()
        return vals / np.linalg.norm(vals)


def _logsumexp(logs: np.ndarray) -> float:
    finite = logs[np.isfinite(logs)]
    if finite.size == 0:
        return -math.inf
    top = finite.max()
    return top + math.log(np.sum(np.exp(finite - top)))


# ---------------------------------------------------------------------------
# truncation bookkeeping
# ---------------------------------------------------------------------------

def _tail_mass(log_w: np.ndarray, n_keep: int) -> float:
    """Mass fraction beyond the first ``n_keep`` entries of a weight series.

    ``log_w`` must extend past ``n_keep``; the remainder beyond the table
    is extrapolated geometrically from the ratio of the last two 4-entry
    blocks (robust against parity zeros and period-2 oscillation).
    """
    finite_top = log_w[np.isfinite(log_w)]
    if finite_top.size == 0:
        return 0.0
    top = finite_top.max()
    w = np.exp(log_w - top)
    body = float(np.sum(w[:n_keep]))
    tail = float(np.sum(w[n_keep:]))
    block_hi = float(np.sum(w[-4:]))
    block_lo = float(np.sum(w[-8:-4]))
    if block_hi > 0.0:
        if block_lo <= 0.0:
            return 1.0  # support appeared only at the end; cannot extrapolate
        ratio = block_hi / block_lo
        if ratio >= 1.0:
            return 1.0
        tail += block_hi * ratio / (1.0 - ratio)
    return tail / (body + tail)


def _check_n_max(n_max):
    """Reject truncations outside 1 .. MAX_N_MAX before anything is allocated."""
    if not 1 <= n_max <= MAX_N_MAX:
        raise ValidationError(f"n_max must lie in 1 .. {MAX_N_MAX}, got {n_max}")


def _build_truncated(logs, n_max, tail_threshold, label, *, tau=None,
                     basis="bare"):
    """Auto-doubling driver shared by all series constructors.

    ``logs(w)`` must return ``(log|c_n|, phase_n)`` of the raw series for
    at least ``w`` levels.  The minimal-length families pass their ``tau``:
    their series keeps 4 guard levels, which ``basis="perturbed"`` dresses
    away.  The tail mass is estimated from ``_TAIL_PAD`` further levels,
    and the truncation doubles from ``n_max`` until it is below
    ``tail_threshold``.
    """
    _check_n_max(n_max)
    guard = 0 if tau is None else 4
    n = int(n_max)
    while True:
        log_abs, phase = logs(n + guard + _TAIL_PAD)
        u = CoeffTable(log_abs[:n + guard], phase[:n + guard]).scaled_values()
        amps = _phi_dress(u, tau) if basis == "perturbed" else u[:n]
        tail = _tail_mass(2.0 * log_abs, n)
        if tail <= tail_threshold:
            norm = np.linalg.norm(amps)
            if norm == 0.0:
                raise DegenerateStateError(f"{label}: zero state vector")
            return FockState(amps / norm, tail, label)
        if n >= MAX_N_MAX:
            raise TruncationError(
                f"{label}: tail mass {tail:.3e} above threshold "
                f"{tail_threshold:.1e} even at n_max={n}"
            )
        n = min(2 * n, MAX_N_MAX)


def _phi_dress(u: np.ndarray, tau: float) -> np.ndarray:
    """Re-expand coefficients attached to the perturbed eigenvectors
    over bare number states.

    ``u`` must carry 4 guard entries; the returned vector is 4 shorter.
    b_m = u_m - (tau/16) sqrt((m+1)(m+2)(m+3)(m+4)) u_{m+4}
              + (tau/16) sqrt((m-3)(m-2)(m-1)m)     u_{m-4}
    """
    w = len(u)
    n_out = w - 4
    m = np.arange(n_out, dtype=float)
    b = u[:n_out].astype(complex).copy()
    up = (tau / 16.0) * np.sqrt((m + 1) * (m + 2) * (m + 3) * (m + 4))
    b -= up * u[4:]
    lo_idx = np.arange(4, n_out)
    if lo_idx.size:
        mm = lo_idx.astype(float)
        down = (tau / 16.0) * np.sqrt((mm - 3) * (mm - 2) * (mm - 1) * mm)
        b[4:] += down * u[:n_out - 4]
    return b


def _check_basis(basis: str):
    if basis not in ("bare", "perturbed"):
        raise ValidationError(f"basis must be 'bare' or 'perturbed', got {basis!r}")


# ---------------------------------------------------------------------------
# coherent states
# ---------------------------------------------------------------------------

def _power_series_logs(alpha: complex, log_denom: np.ndarray):
    """log-magnitude and phase of alpha^n / exp(log_denom[n])."""
    n = np.arange(len(log_denom), dtype=float)
    mag = abs(alpha)
    if mag == 0.0:
        log_abs = np.full(len(log_denom), -math.inf)
        log_abs[0] = -log_denom[0]
        phase = np.ones(len(log_denom), dtype=complex)
        return log_abs, phase
    log_abs = n * math.log(mag) - log_denom
    phase = np.exp(1j * cmath.phase(alpha) * n)
    return log_abs, phase


def glauber(alpha: complex, n_max: int = DEFAULT_N_MAX, *,
            tail_threshold: float = TAIL_THRESHOLD) -> FockState:
    """Canonical coherent state: amplitudes alpha^n / sqrt(n!), normalized.

    Raises :class:`TruncationError` when even the auto-doubled truncation
    (up to ``MAX_N_MAX``) cannot hold the Poisson weight of |alpha|^2.
    """
    alpha = complex(alpha)
    return _build_truncated(
        lambda w: _power_series_logs(alpha, 0.5 * log_factorial_table(w)),
        n_max, tail_threshold, f"glauber(alpha={alpha}, n_max={n_max})",
    )


def phi_eigenstate(n: int, tau: float, n_max: int = DEFAULT_N_MAX) -> FockState:
    """First-order perturbed eigenvector of the minimal-length oscillator.

    The dressing of the number state e_n: components sit at n and (when
    present) n-4 and n+4; the vector is normalized after construction.
    """
    if n < 0:
        raise ValidationError("level index must be >= 0")
    _check_n_max(n_max)
    if n + 4 >= n_max:
        raise ValidationError(
            f"phi_eigenstate needs n + 4 < n_max (n={n}, n_max={n_max})"
        )
    e_n = np.zeros(n_max + 4)
    e_n[n] = 1.0
    amps = _phi_dress(e_n, tau)
    amps /= np.linalg.norm(amps)
    return FockState(amps, 0.0, f"phi_eigenstate(n={n}, tau={tau})")


def _nc_log_denominators(tau: float, nmax: int) -> np.ndarray:
    d = Deformation.perturbative_nc(tau)
    return 0.5 * log_factorial_table(nmax) + 0.5 * log_f_factorial_table(d, nmax)


def nlcs(alpha: complex, tau: float, n_max: int = DEFAULT_N_MAX, *,
         basis: str = "perturbed",
         tail_threshold: float = TAIL_THRESHOLD) -> FockState:
    """Nonlinear coherent state of the minimal-length oscillator.

    The raw series has coefficients alpha^n / (sqrt(n!) f(n)!).  With
    ``basis="perturbed"`` the series is re-expanded over bare number
    states through the first-order eigenvector dressing; with
    ``basis="bare"`` it is returned as-is (the representation in which
    the deformed annihilator acts exactly and level statistics are
    evaluated).
    """
    _check_basis(basis)
    alpha = complex(alpha)
    if tau < 0:
        raise ValidationError("tau must be >= 0")
    return _build_truncated(
        lambda w: _power_series_logs(alpha, _nc_log_denominators(tau, w)),
        n_max, tail_threshold,
        f"nlcs(alpha={alpha}, tau={tau}, basis={basis}, n_max={n_max})",
        tau=tau, basis=basis,
    )


def nc_coherent_coeffs(alpha: complex, tau: float, n_max: int) -> np.ndarray:
    """Unnormalized dressed coefficients of ``nlcs`` over 0 .. n_max-1.

    Shared by the direct beam-splitter pipeline and the closed-form
    entropy sum so the two routes truncate identically.  Values carry a
    common (irrelevant) scale factor.
    """
    logs = _power_series_logs(complex(alpha), _nc_log_denominators(tau, n_max + 4))
    return _phi_dress(CoeffTable(*logs).scaled_values(), tau)


def nlcs_normalization(alpha: complex, tau: float) -> float:
    """Normalization constant of the raw series, sum |alpha|^2n/(n! f^2(n)!).

    Summed directly until the terms fall below 1e-25 of the total.
    """
    lam = abs(complex(alpha)) ** 2
    if lam == 0.0:
        return 1.0
    return _rho_series_norm(math.log(lam), tau, "nlcs")


def _rho_series_norm(log_x: float, tau: float, family: str) -> float:
    """sqrt(sum x^n / rho_n) over the minimal-length moments rho_n = n! f^2(n)!,
    doubling the summed length until its last term is below e^-60 of the largest."""
    n = 128
    while True:
        log_w = np.arange(n) * log_x - 2.0 * _nc_log_denominators(tau, n)
        if log_w[-1] < log_w.max() - 60.0:
            return math.exp(0.5 * _logsumexp(log_w))
        if n >= 65536:
            raise DivergenceError(f"{family} normalization series did not converge")
        n *= 2


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


def _check_q_radius(alpha: complex, q: float, what: str):
    lam = abs(alpha) ** 2
    if q < 1.0 and lam * (1.0 - q * q) >= 1.0 - _RADIUS_MARGIN:
        raise DivergenceError(
            f"{what}: |alpha|^2={lam:.6g} outside the convergence radius "
            f"1/(1-q^2)={1/(1-q*q):.6g}"
        )


def q_coherent(alpha: complex, q: float, n_max: int = DEFAULT_N_MAX, *,
               tail_threshold: float = TAIL_THRESHOLD) -> FockState:
    """q-deformed coherent state: amplitudes alpha^n / sqrt([n]_q!)."""
    alpha = complex(alpha)
    d = Deformation.q_deformed(q)
    _check_q_radius(alpha, q, "q_coherent")
    return _build_truncated(
        lambda w: _power_series_logs(alpha, 0.5 * log_rho_table(d, w)),
        n_max, tail_threshold, f"q_coherent(alpha={alpha}, q={q}, n_max={n_max})",
    )


# ---------------------------------------------------------------------------
# Gazeau-Klauder states
# ---------------------------------------------------------------------------

def gk_coherent(J: float, gamma: float, tau: float,
                n_max: int = DEFAULT_N_MAX, *, basis: str = "perturbed",
                tail_threshold: float = TAIL_THRESHOLD) -> FockState:
    """Gazeau-Klauder state with action variable J and angle gamma.

    Coefficients J^(n/2) exp(-i gamma e_n) / sqrt(rho_n); time evolution
    is the shift gamma -> gamma + omega t.
    """
    if J < 0:
        raise ValidationError("J must be >= 0")
    _check_basis(basis)

    def logs(w):
        d = Deformation.perturbative_nc(tau)
        n = np.arange(w)
        phase = np.exp(-1j * gamma * dimensionless_e(d, n))
        if J == 0.0:
            return np.where(n == 0, 0.0, -math.inf), phase
        return 0.5 * n * math.log(J) - 0.5 * log_rho_table(d, w), phase

    return _build_truncated(
        logs, n_max, tail_threshold,
        f"gk_coherent(J={J}, gamma={gamma}, tau={tau}, basis={basis})",
        tau=tau, basis=basis,
    )


def gk_normalization(J: float, tau: float) -> float:
    """sqrt(sum J^n / rho_n), summed to convergence."""
    if J < 0:
        raise ValidationError("J must be >= 0")
    if J == 0.0:
        return 1.0
    return _rho_series_norm(math.log(J), tau, "gk")


# ---------------------------------------------------------------------------
# squeezed states
# ---------------------------------------------------------------------------

def squeezed_coeffs_recurrence(alpha: complex, zeta: complex,
                               deformation: Deformation,
                               n_max: int) -> CoeffTable:
    """Squeezed-series seed values by the three-term recurrence.

    I(0) = 1, I(1) = alpha, I(n+1) = alpha I(n) - zeta n f^2(n) I(n-1).
    Values are rescaled in place whenever they threaten the double range,
    with the accumulated log-scale folded into the returned table.
    """
    if n_max < 2:
        raise ValidationError("n_max must be >= 2")
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
    return CoeffTable(log_abs, phase)


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
    import warnings

    import mpmath as mp

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

    from .specfun import gauss_2f1_terminating

    f_val = gauss_2f1_terminating(n, b_param, c_param, 2.0)
    # prefactor and sum combined at extended precision: the rising
    # factorial alone overflows the double range long before the product
    with mp.workdps(40 + int(0.9 * n)):
        pref = (mp.mpc(0, 1) ** n) * mp.mpc(zeta * b_coef) ** (mp.mpf(n) / 2)
        pref *= mp.rf(mp.mpf(c_param), n)
        return complex(pref * mp.mpc(f_val))


def _squeezed_state_logs(alpha: complex, zeta: complex, d: Deformation,
                         nmax: int):
    """(log|c_n|, phase_n) of the squeezed series c_n = I(n) / (sqrt(n!) f(n)!)."""
    table = squeezed_coeffs_recurrence(alpha, zeta, d, nmax)
    log_denom = 0.5 * log_factorial_table(nmax) + 0.5 * log_f_factorial_table(d, nmax)
    return table.log_abs - log_denom, table.phase


def squeezed_normalization(alpha: complex, zeta: complex, d: Deformation,
                           n_max: int) -> float:
    """Truncated-series norm of the squeezed expansion."""
    return CoeffTable(*_squeezed_state_logs(alpha, zeta, d, n_max)).normalization


def nc_squeezed(alpha: complex, zeta: complex, tau: float,
                n_max: int = DEFAULT_N_MAX, *, basis: str = "perturbed",
                tail_threshold: float = TAIL_THRESHOLD) -> FockState:
    """Squeezed state of the minimal-length oscillator.

    ``zeta=0`` reduces to ``nlcs``; ``tau=0`` reduces to ``ho_squeezed``.
    """
    _check_basis(basis)
    if tau < 0:
        raise ValidationError("tau must be >= 0")
    d = Deformation.perturbative_nc(tau)
    return _build_truncated(
        lambda w: _squeezed_state_logs(alpha, zeta, d, w), n_max, tail_threshold,
        f"nc_squeezed(alpha={alpha}, zeta={zeta}, tau={tau}, "
        f"basis={basis}, n_max={n_max})",
        tau=tau, basis=basis,
    )


def ho_squeezed(alpha: complex, zeta: complex,
                n_max: int = DEFAULT_N_MAX, *,
                tail_threshold: float = TAIL_THRESHOLD) -> FockState:
    """Squeezed state of the undeformed oscillator.

    Amplitudes I(n) / sqrt(n!) from the squeezed recurrence at f^2 = 1,
    where I(n) = (zeta/2)^(n/2) H_n(alpha / sqrt(2 zeta)); ``zeta=0``
    delegates to :func:`glauber`.
    """
    alpha = complex(alpha)
    zeta = complex(zeta)
    if zeta == 0:
        return glauber(alpha, n_max, tail_threshold=tail_threshold)
    d = Deformation.harmonic()
    return _build_truncated(
        lambda w: _squeezed_state_logs(alpha, zeta, d, w), n_max, tail_threshold,
        f"ho_squeezed(alpha={alpha}, zeta={zeta}, n_max={n_max})",
    )


# ---------------------------------------------------------------------------
# cat and photon-added states
# ---------------------------------------------------------------------------

def cat_q(alpha: complex, q: float, parity: str,
          n_max: int = DEFAULT_N_MAX, *,
          tail_threshold: float = TAIL_THRESHOLD) -> FockState:
    """Even/odd superposition of q-deformed coherent states at +-alpha."""
    if parity not in ("even", "odd"):
        raise ValidationError(f"parity must be 'even' or 'odd', got {parity!r}")
    alpha = complex(alpha)
    if parity == "odd" and alpha == 0:
        raise DegenerateStateError("odd cat state of alpha = 0 is the zero vector")
    d = Deformation.q_deformed(q)
    _check_q_radius(alpha, q, "cat_q")
    keep = 0 if parity == "even" else 1

    def logs(w):
        log_abs, phase = _power_series_logs(alpha, 0.5 * log_rho_table(d, w))
        log_abs = log_abs.copy()
        log_abs[(np.arange(w) % 2) != keep] = -math.inf
        return log_abs, phase

    return _build_truncated(
        logs, n_max, tail_threshold,
        f"cat_q(alpha={alpha}, q={q}, parity={parity}, n_max={n_max})",
    )


def cat_norm_sq(alpha: complex, q: float, parity: str) -> float:
    """Squared norm of |alpha>_q +- |-alpha>_q built from *normalized* inputs.

    Equals 2 (1 +- E_q(-|alpha|^2)/E_q(|alpha|^2)); at q = 1 this is the
    familiar 2 (1 +- exp(-2 |alpha|^2)).
    """
    if parity not in ("even", "odd"):
        raise ValidationError(f"parity must be 'even' or 'odd', got {parity!r}")
    lam = abs(complex(alpha)) ** 2
    overlap = q_exponential(-lam, q) / q_exponential(lam, q)
    return 2.0 * (1.0 + overlap) if parity == "even" else 2.0 * (1.0 - overlap)


def pacs_q(alpha: complex, q: float, m: int,
           n_max: int = DEFAULT_N_MAX, *,
           tail_threshold: float = TAIL_THRESHOLD) -> FockState:
    """m-photon-added q-deformed coherent state.

    Amplitudes proportional to alpha^n sqrt([n+m]_q!) / [n]_q! on level
    n + m; support starts at level m.
    """
    if m < 0:
        raise ValidationError("photon-added count m must be >= 0")
    if n_max <= m:
        raise ValidationError(f"pacs_q needs n_max > m (m={m}, n_max={n_max})")
    alpha = complex(alpha)
    d = Deformation.q_deformed(q)
    _check_q_radius(alpha, q, "pacs_q")
    arg = cmath.phase(alpha) if alpha != 0 else 0.0
    mag = abs(alpha)

    def logs(w):
        w = max(w, m + 2 + _TAIL_PAD)
        log_qf = log_rho_table(d, w)  # log [k]_q!
        log_abs = np.full(w, -math.inf)
        phase = np.ones(w, dtype=complex)
        ks = np.arange(m, w)
        ns = (ks - m).astype(float)
        if mag == 0.0:
            log_abs[m] = 0.5 * log_qf[m]
        else:
            log_abs[ks] = ns * math.log(mag) + 0.5 * log_qf[ks] - log_qf[ks - m]
            phase[ks] = np.exp(1j * arg * ns)
        return log_abs, phase

    return _build_truncated(
        logs, n_max, tail_threshold, f"pacs_q(alpha={alpha}, q={q}, m={m}, n_max={n_max})"
    )


def pacs_norm_sq(alpha: complex, q: float, m: int) -> float:
    """Squared normalization of the photon-added state relative to the
    underlying coherent state: sum |alpha|^2n [n+m]_q!/([n]_q!)^2 / E_q(|alpha|^2)."""
    if m < 0:
        raise ValidationError("photon-added count m must be >= 0")
    lam = abs(complex(alpha)) ** 2
    _check_q_radius(complex(alpha), q, "pacs_norm_sq")
    total = 0.0
    # direct summation; radius identical to the coherent series
    term = math.exp(sum(math.log(q_bracket(k, q)) for k in range(1, m + 1)))
    lam_pow = 1.0
    for n in range(100000):
        total += lam_pow * term
        nxt = n + 1
        term *= q_bracket(nxt + m, q) / (q_bracket(nxt, q) ** 2)
        lam_pow *= lam
        if lam_pow * term < 1e-18 * max(total, 1.0):
            total += lam_pow * term
            break
    return total / q_exponential(lam, q)


# ---------------------------------------------------------------------------
# the family registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """A command-line state family: its deformation kind, the options it
    requires (in the order they are checked), and ``build(p, n_max)`` and
    ``norm(p, n_max)``, which read the options from the attributes of ``p``
    (``alpha`` as one complex)."""

    kind: str
    requires: tuple
    build: Callable
    norm: Callable

    @property
    def scannable(self) -> bool:
        """Whether its parameters fit the entropy scan's (alpha, tau, zeta) grid."""
        return set(self.requires) <= {"tau"}


# The callables look the constructors up as module globals when they run,
# so a wrapper installed on a module global sees every build.
FAMILIES = {
    "glauber": Family("harmonic", (), lambda p, n: glauber(p.alpha, n),
                      lambda p, n: math.exp(abs(p.alpha) ** 2 / 2.0)),
    "nlcs": Family("nc", ("tau",), lambda p, n: nlcs(p.alpha, p.tau, n, basis=p.basis),
                   lambda p, n: nlcs_normalization(p.alpha, p.tau)),
    "q-coherent": Family("q", ("q",), lambda p, n: q_coherent(p.alpha, p.q, n),
                         lambda p, n: math.sqrt(q_exponential(abs(p.alpha) ** 2, p.q))),
    "gk": Family("nc", ("tau", "J"),
                 lambda p, n: gk_coherent(p.J, p.gamma, p.tau, n, basis=p.basis),
                 lambda p, n: gk_normalization(p.J, p.tau)),
    "nc-squeezed": Family(
        "nc", ("tau",),
        lambda p, n: nc_squeezed(p.alpha, p.zeta, p.tau, n, basis=p.basis),
        lambda p, n: squeezed_normalization(p.alpha, p.zeta,
                                            Deformation.perturbative_nc(p.tau), n)),
    "ho-squeezed": Family(
        "harmonic", (), lambda p, n: ho_squeezed(p.alpha, p.zeta, n),
        lambda p, n: squeezed_normalization(p.alpha, p.zeta, Deformation.harmonic(), n)),
    "cat": Family("q", ("q", "parity"), lambda p, n: cat_q(p.alpha, p.q, p.parity, n),
                  lambda p, n: math.sqrt(cat_norm_sq(p.alpha, p.q, p.parity))),
    "pacs": Family("q", ("q",), lambda p, n: pacs_q(p.alpha, p.q, p.m, n),
                   lambda p, n: math.sqrt(pacs_norm_sq(p.alpha, p.q, p.m))),
}
