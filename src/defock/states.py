"""Constructors for every state family, in a truncated Fock space.

All constructors return a normalized :class:`FockState` together with an
estimate of the probability mass lost to truncation.  Raw coefficient
series are assembled as a ``(log|c_n|, phase_n)`` pair, so factorially
growing moment sequences stay representable, and are only exponentiated
relative to their largest magnitude.

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

Each family's raw series is written once, as a ``_<family>_series``
maker that validates the parameters, a row of alphas among them, and
returns ``logs(w, rows) -> (log|c_n|, phase_n)``: one array row per
selected state, for at least ``w`` levels.  The constructors truncate it
with ``_build_truncated``, which builds a whole row of states at once; a
public constructor is its one-row case, and ``entropy_scan`` builds each
of its tau rows through ``_scan_states``.  The normalization constants of
every family but glauber sum the same series to convergence with
``_series_norm``.

``FAMILIES`` maps each state family of the command line to its
constructor ``build(p, n_max)``, its deformation kind, its required
options and its normalization constant ``norm(p)``, which no truncation
enters; a family that the entropy scan takes also has its row builder
``rows(alphas, p, n_max)``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .deform import (
    Deformation,
    dimensionless_e,
    f_squared,
    log_rho_table,
)
from .errors import (
    DefockError,
    DegenerateStateError,
    DivergenceError,
    TruncationError,
    ValidationError,
)
from .specfun import log_factorial_table

__all__ = [
    "FockState",
    "DEFAULT_N_MAX",
    "MAX_N_MAX",
    "TAIL_THRESHOLD",
    "glauber",
    "phi_eigenstate",
    "nlcs",
    "nc_coherent_coeffs",
    "nlcs_normalization",
    "q_coherent",
    "q_normalization",
    "gk_coherent",
    "gk_normalization",
    "squeezed_coeffs_recurrence",
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
# States of a row built together: enough to share each numpy call among
# many states, few enough that a block's arrays stay at a few MB at
# MAX_N_MAX however long the row is.  On one 2-core Xeon, an nlcs row of
# 256 alphas at n_max 64 cost 48, 30, 19, 18.0, 16.9 and 18.6 us a state
# in blocks of 1, 4, 16, 32, 64 and 128, and peaked at 2.2, 2.3, 2.8,
# 3.2, 4.2 and 6.2 MB (tracemalloc) at n_max 512.
_ROW_BLOCK = 64
# The shortest row of the squeezed recurrence's float64 loop.  At the
# scan's 84 levels that loop cost 0.36, 0.33, 0.38 and 0.45 ms for rows of
# 1, 4, 8 and 16 alphas on the same machine, the complex loop 0.066 ms an
# alpha: they break even at 5 to 6 alphas.
_FLOAT_ROW = 8
_RADIUS_MARGIN = 1e-9
_DOUBLE_MAX = np.finfo(float).max
# The largest tau of a minimal-length state.  Up to about 1e149 the square
# of the spectrum tau n^2 / 2 on the MAX_N_MAX levels of a state (the second
# moments of the deformed number and ladder operators, the norm of the
# perturbed-basis dressing) and its product with the squeezed recurrence's
# values (below 1e120, on the 8 MAX_N_MAX levels a norm sums) stay inside
# the double range; past it numpy overflows mid-series.
_MAX_TAU = 1e100


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
        # written so that a NaN norm fails it too
        if not abs(norm_sq - 1.0) <= _NORM_TOL:
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


def _row_top(x: np.ndarray, finite: np.ndarray) -> np.ndarray:
    """Each row's largest finite entry (``finite`` is ``np.isfinite(x)``), as
    a column.  A row without one gets the lowest double: x - top then leaves
    its entries, all infinite or NaN, as they are, as any finite top would."""
    return np.maximum.reduce(x, axis=1, keepdims=True, initial=-_DOUBLE_MAX, where=finite)


def _stack(rows: list) -> np.ndarray:
    """1-D arrays of one length as the rows of a 2-D array.  One row comes
    back as a view: ``np.array`` of a list would add more to a one-state
    build than the row's own arithmetic costs."""
    return rows[0][None] if len(rows) == 1 else np.array(rows)


def _scaled_values(log_abs: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Raw coefficients of each row divided by its largest magnitude (overflow-safe)."""
    return np.exp(log_abs - _row_top(log_abs, np.isfinite(log_abs))) * phase


def _logsumexp(logs: np.ndarray) -> float:
    finite = logs[np.isfinite(logs)]
    if finite.size == 0:
        return -math.inf
    top = finite.max()
    return top + math.log(np.sum(np.exp(finite - top)))


# ---------------------------------------------------------------------------
# truncation bookkeeping
# ---------------------------------------------------------------------------

def _tail_mass(log_w: np.ndarray, n_keep: int) -> list:
    """Mass fraction beyond the first ``n_keep`` entries of each row of a
    weight series, 0 for a row without a finite weight.

    ``log_w`` must extend past ``n_keep``; the remainder beyond the table
    is extrapolated geometrically from the ratio of the last two 4-entry
    blocks (robust against parity zeros and period-2 oscillation).  Each
    row's sums are those of the row alone: numpy sums the last axis of a
    row pairwise, as it sums a 1-D array.
    """
    finite = np.isfinite(log_w)
    w = np.exp(log_w - _row_top(log_w, finite))
    sums = [np.add.reduce(part, axis=1).tolist()
            for part in (w[:, :n_keep], w[:, n_keep:], w[:, -4:], w[:, -8:-4])]
    return [_tail_fraction(*row) if has else 0.0
            for has, *row in zip(np.logical_or.reduce(finite, axis=1).tolist(), *sums)]


def _tail_fraction(body: float, tail: float, block_hi: float, block_lo: float) -> float:
    """One row's tail fraction from its four sums (see ``_tail_mass``)."""
    if block_hi > 0.0:
        if block_lo <= 0.0:
            return 1.0  # support appeared only at the end; cannot extrapolate
        ratio = block_hi / block_lo
        if ratio >= 1.0:
            return 1.0
        tail += block_hi * ratio / (1.0 - ratio)
    return tail / (body + tail)


def _check_tau(tau):
    """Reject a minimal-length tau above ``_MAX_TAU`` before any series is built."""
    if not tau <= _MAX_TAU:
        raise ValidationError(f"tau must be at most {_MAX_TAU:g} for a minimal-length "
                              f"state, got {tau!r}")


def _nc_deformation(tau):
    """The deformation of ``tau``, after the tau cap, so a refusal never warns."""
    _check_tau(tau)
    return Deformation.perturbative_nc(tau)


def _check_n_max(n_max):
    """Reject truncations outside 1 .. MAX_N_MAX before anything is allocated."""
    if not 1 <= n_max <= MAX_N_MAX:
        raise ValidationError(f"n_max must lie in 1 .. {MAX_N_MAX}, got {n_max}")


def _build_truncated(logs, rows: int, n_max, label, *, tau=None, basis="bare"):
    """Auto-doubling driver shared by all series constructors, over a row
    of ``rows`` states.

    ``logs(w, idx)`` must return ``(log|c_n|, phase_n)`` of the raw series
    of the states ``idx`` of the row (a sequence of indices), one array row
    each, for at least ``w`` levels.  The minimal-length families pass their
    ``tau``: their series keeps 4 guard levels, which ``basis="perturbed"``
    dresses away.  The tail mass is estimated from ``_TAIL_PAD`` further
    levels.

    Yields, in row order, each state's ``FockState``, labelled
    ``label(i)``, or the ``DefockError`` that refused it.  The row is built
    in blocks of ``_ROW_BLOCK`` states, so its memory does not grow with its
    length, and every state doubles and is refused on its own: the states
    of a block whose tail is above ``TAIL_THRESHOLD`` at n are built again
    at 2n, as a smaller row, up to ``MAX_N_MAX``; a block that the series
    refuses (the squeezed overflow) is built again one state at a time.
    Each state is normalized by its own ``np.linalg.norm``, not by an axis
    norm, which sums in another order, and checked as its own ``FockState``.
    """
    _check_n_max(n_max)
    for start in range(0, rows, _ROW_BLOCK):
        yield from _build_block(logs, range(start, min(start + _ROW_BLOCK, rows)), int(n_max),
                                label, tau, basis)


def _build_block(logs, idx, n, label, tau, basis):
    """The states ``idx`` (a sequence of row indices) at truncation n, in
    order, those whose tail is above the threshold built again at 2n."""
    guard = 0 if tau is None else 4
    try:
        log_abs, phase = logs(n + guard + _TAIL_PAD, idx)
    except DefockError as exc:
        if len(idx) == 1:
            return [exc]
        # one state at a time, so that only the refused ones are refused
        return [state for i in idx for state in _build_block(logs, [i], n, label, tau, basis)]
    u = _scaled_values(log_abs[:, :n + guard], phase[:, :n + guard])
    amps = _phi_dress(u, tau) if basis == "perturbed" else u[:, :n]
    states, again = [], []
    for k, (i, row, tail) in enumerate(zip(idx, amps, _tail_mass(2.0 * log_abs, n))):
        if tail <= TAIL_THRESHOLD:
            states.append(_unit_state(row, tail, label(i)))
        elif n >= MAX_N_MAX:
            states.append(TruncationError(f"{label(i)}: tail mass {tail:.3e} above threshold "
                                          f"{TAIL_THRESHOLD:.1e} even at n_max={n}"))
        else:
            states.append(None)
            again.append(k)
    if again:
        redo = _build_block(logs, [idx[k] for k in again], min(2 * n, MAX_N_MAX), label, tau,
                            basis)
        for k, state in zip(again, redo):
            states[k] = state
    return states


def _unit_state(amps, tail, label):
    """The ``FockState`` of one row of amplitudes, or the error that refuses it."""
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        return DegenerateStateError(f"{label}: zero state vector")
    try:
        return FockState(amps / norm, tail, label)
    except ValidationError as exc:
        return exc


def _one(states):
    """The state of a one-row build; raises the error that refused it."""
    (state,) = states
    if isinstance(state, DefockError):
        raise state
    return state


def _series_norm(logs, family: str) -> float:
    """sqrt(sum |c_n|^2) of the one-row raw series ``logs(w, rows)``, the l2
    norm a constructor divides out.  The summed length doubles from 128
    until the last two weights are below e^-60 of the largest (two, because
    a cat series is zero at every other level), and at most to 8 * MAX_N_MAX.
    """
    w = 128
    while True:
        log_w = 2.0 * logs(w, [0])[0][0]
        top = log_w.max()
        if top == -math.inf or log_w[-2:].max() < top - 60.0:
            return math.exp(0.5 * _logsumexp(log_w))
        if w >= 8 * MAX_N_MAX:
            raise DivergenceError(f"{family} normalization series did not converge")
        w *= 2


def _phi_dress(u: np.ndarray, tau: float) -> np.ndarray:
    """Re-expand coefficients attached to the perturbed eigenvectors
    over bare number states.

    ``u`` must carry 4 guard entries on its last axis; the returned array
    is 4 shorter there.  Each row of a 2-D ``u`` is dressed on its own.
    b_m = u_m - (tau/16) sqrt((m+1)(m+2)(m+3)(m+4)) u_{m+4}
              + (tau/16) sqrt((m-3)(m-2)(m-1)m)     u_{m-4}
    """
    n_out = u.shape[-1] - 4
    root_up, root_down = _dress_roots(n_out)
    b = u[..., :n_out].astype(complex)
    b -= (tau / 16.0) * root_up * u[..., 4:]
    if n_out > 4:
        b[..., 4:] += (tau / 16.0) * root_down * u[..., :n_out - 4]
    return b


@functools.lru_cache(maxsize=64)  # a run meets a few truncations
def _dress_roots(n_out: int) -> tuple:
    """The square roots of ``_phi_dress``, read-only: a truncation repeats
    over a scan row's blocks and a run's jobs."""
    m = np.arange(n_out, dtype=float)
    mm = np.arange(4, n_out).astype(float)
    roots = (np.sqrt((m + 1) * (m + 2) * (m + 3) * (m + 4)),
             np.sqrt((mm - 3) * (mm - 2) * (mm - 1) * mm))
    for root in roots:
        root.flags.writeable = False
    return roots


def _check_basis(basis: str):
    if basis not in ("bare", "perturbed"):
        raise ValidationError(f"basis must be 'bare' or 'perturbed', got {basis!r}")


# ---------------------------------------------------------------------------
# coherent states
# ---------------------------------------------------------------------------

def _n_log(n: np.ndarray, x: float) -> np.ndarray:
    """n log x over the levels n, with 0 log 0 = 0: x^n is 1 at n = 0 for x = 0 too."""
    if x == 0.0:
        return np.where(n == 0, 0.0, -math.inf)
    return n * math.log(x)


def _power_series_logs(alphas, log_denom: np.ndarray):
    """log-magnitude and phase of alpha^n / exp(log_denom[n]), one row per
    alpha of ``alphas``."""
    n = np.arange(len(log_denom), dtype=float)
    log_abs, phase = [], []
    for alpha in alphas:
        alpha = complex(alpha)
        # not cmath.phase, which raises where the angle underflows (alpha = 1e308 + 1e-300j);
        # a zero alpha, of either sign, has phase 1
        arg = math.atan2(alpha.imag, alpha.real) if alpha != 0 else 0.0
        log_abs.append(_n_log(n, abs(alpha)) - log_denom)
        phase.append(np.exp(1j * arg * n))
    return _stack(log_abs), _stack(phase)


def _glauber_row(alphas, n_max):
    return _build_truncated(
        lambda w, rows: _power_series_logs([alphas[i] for i in rows],
                                           0.5 * log_factorial_table(w)),
        len(alphas), n_max, lambda i: f"glauber(alpha={complex(alphas[i])}, n_max={n_max})",
    )


def glauber(alpha: complex, n_max: int = DEFAULT_N_MAX) -> FockState:
    """Canonical coherent state: amplitudes alpha^n / sqrt(n!), normalized.

    Raises :class:`TruncationError` when even the auto-doubled truncation
    (up to ``MAX_N_MAX``) cannot hold the Poisson weight of |alpha|^2.
    """
    return _one(_glauber_row([complex(alpha)], n_max))


def phi_eigenstate(n: int, tau: float, n_max: int = DEFAULT_N_MAX) -> FockState:
    """First-order perturbed eigenvector of the minimal-length oscillator.

    The dressing of the number state e_n: components sit at n and (when
    present) n-4 and n+4; the vector is normalized after construction.
    """
    if n < 0:
        raise ValidationError("level index must be >= 0")
    _check_tau(tau)
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


def _nlcs_series(alphas, tau: float):
    """``logs`` of the raw nlcs series alpha^n / (sqrt(n!) f(n)!) = alpha^n / sqrt(rho_n)."""
    d = _nc_deformation(tau)
    return lambda w, rows: _power_series_logs([alphas[i] for i in rows],
                                              0.5 * log_rho_table(d, w))


def _nlcs_row(alphas, tau, n_max, basis):
    _check_basis(basis)
    return _build_truncated(
        _nlcs_series(alphas, tau), len(alphas), n_max,
        lambda i: f"nlcs(alpha={complex(alphas[i])}, tau={tau}, basis={basis}, n_max={n_max})",
        tau=tau, basis=basis,
    )


def nlcs(alpha: complex, tau: float, n_max: int = DEFAULT_N_MAX, *,
         basis: str = "perturbed") -> FockState:
    """Nonlinear coherent state of the minimal-length oscillator.

    The raw series has coefficients alpha^n / (sqrt(n!) f(n)!).  With
    ``basis="perturbed"`` the series is re-expanded over bare number
    states through the first-order eigenvector dressing; with
    ``basis="bare"`` it is returned as-is (the representation in which
    the deformed annihilator acts exactly and level statistics are
    evaluated).
    """
    return _one(_nlcs_row([alpha], tau, n_max, basis))


def nc_coherent_coeffs(alpha: complex, tau: float, n_max: int) -> np.ndarray:
    """Unnormalized dressed coefficients of ``nlcs`` over 0 .. n_max-1.

    The coefficients that ``nlcs(..., basis="perturbed")`` normalizes at
    this n_max; the closed-form entropy sums over them.  Values carry a
    common (irrelevant) scale factor.
    """
    logs = _nlcs_series([alpha], tau)(n_max + 4, [0])
    return _phi_dress(_scaled_values(*logs), tau)[0]


def nlcs_normalization(alpha: complex, tau: float) -> float:
    """Normalization constant of the raw series, sqrt(sum |alpha|^2n / rho_n)."""
    return _series_norm(_nlcs_series([alpha], tau), "nlcs")


def _q_kernel(alpha: complex, q: float, what: str) -> Deformation:
    """The q deformation, after checking that x = |alpha|^2 (1 - q^2) lies
    inside the radius x < 1 that every q series shares."""
    d = Deformation.q_deformed(q)
    lam = abs(alpha) * abs(alpha)  # inf, not OverflowError, past 1e154
    if q < 1.0 and lam * (1.0 - q * q) >= 1.0 - _RADIUS_MARGIN:
        raise DivergenceError(
            f"{what}: |alpha|^2={lam:.6g} outside the convergence radius "
            f"1/(1-q^2)={1/(1-q*q):.6g}"
        )
    return d


def _q_series(alpha: complex, q: float, what: str = "q_coherent"):
    """``logs`` of the one-row q-coherent series alpha^n / sqrt([n]_q!)."""
    alpha = complex(alpha)
    d = _q_kernel(alpha, q, what)
    return lambda w, rows: _power_series_logs([alpha], 0.5 * log_rho_table(d, w))


def q_coherent(alpha: complex, q: float, n_max: int = DEFAULT_N_MAX) -> FockState:
    """q-deformed coherent state: amplitudes alpha^n / sqrt([n]_q!)."""
    return _one(_build_truncated(
        _q_series(alpha, q), 1, n_max,
        lambda i: f"q_coherent(alpha={complex(alpha)}, q={q}, n_max={n_max})",
    ))


def q_normalization(alpha: complex, q: float) -> float:
    """sqrt(E_q(|alpha|^2)) = sqrt(sum |alpha|^2n / [n]_q!), summed to convergence."""
    return _series_norm(_q_series(alpha, q), "q-coherent")


# ---------------------------------------------------------------------------
# Gazeau-Klauder states
# ---------------------------------------------------------------------------

def _gk_series(J: float, gamma: float | None, tau: float):
    """``logs`` of the one-row Gazeau-Klauder series
    J^(n/2) exp(-i gamma e_n) / sqrt(rho_n).  With ``gamma`` None the phases
    are None: ``_series_norm`` reads log|c_n| only."""
    if J < 0:
        raise ValidationError("J must be >= 0")
    d = _nc_deformation(tau)

    def logs(w, rows):
        n = np.arange(w)
        phase = None if gamma is None else np.exp(-1j * gamma * dimensionless_e(d, n))[None]
        return (0.5 * _n_log(n, J) - 0.5 * log_rho_table(d, w))[None], phase

    return logs


def gk_coherent(J: float, gamma: float, tau: float,
                n_max: int = DEFAULT_N_MAX, *, basis: str = "perturbed") -> FockState:
    """Gazeau-Klauder state with action variable J and angle gamma.

    Coefficients J^(n/2) exp(-i gamma e_n) / sqrt(rho_n); time evolution
    is the shift gamma -> gamma + omega t.
    """
    logs = _gk_series(J, gamma, tau)
    _check_basis(basis)
    return _one(_build_truncated(
        logs, 1, n_max, lambda i: f"gk_coherent(J={J}, gamma={gamma}, tau={tau}, basis={basis})",
        tau=tau, basis=basis,
    ))


def gk_normalization(J: float, tau: float) -> float:
    """sqrt(sum J^n / rho_n), summed to convergence."""
    return _series_norm(_gk_series(J, None, tau), "gk")


# ---------------------------------------------------------------------------
# squeezed states
# ---------------------------------------------------------------------------

def squeezed_coeffs_recurrence(alpha: complex, zeta: complex,
                               deformation: Deformation,
                               n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Squeezed-series seed values by the three-term recurrence, as the
    pair ``(log|I(n)|, phase of I(n))`` for n = 0 .. n_max-1; for an array
    of alphas, one row of each per alpha.

    I(0) = 1, I(1) = alpha, I(n+1) = alpha I(n) - zeta n f^2(n) I(n-1).
    Values are rescaled in place whenever they threaten the double range,
    with the accumulated log-scale folded into the returned logs.  A step
    that overflows even so (|alpha| above about 1e154) raises
    ``TruncationError`` naming its level and the first alpha it overflows
    for: such a state needs far more levels than any truncation holds.

    Every value is the one that the loop in Python complex arithmetic
    gives, bit for bit.  Where zeta is real and every alpha is real with
    no sign bit (imaginary parts +0 too, as a real grid gives), the loop
    runs once for the whole row, in float64: each I(n) then has imaginary
    part +0, so the float values are the real parts of the complex ones
    and the phases are +-1 + 0j.  It makes a few numpy calls per level
    whatever the row's length, so it runs for rows of ``_FLOAT_ROW`` alphas
    or more.  Otherwise each alpha runs the complex loop, whose imaginary
    parts carry signed zeros once an alpha is negative; numpy's complex
    multiply does not round as Python's does.
    """
    if n_max < 2:
        raise ValidationError("n_max must be >= 2")
    log_abs, phase = _recurrence_rows(np.atleast_1d(alpha), complex(zeta), deformation, n_max)
    return (log_abs[0], phase[0]) if np.ndim(alpha) == 0 else (log_abs, phase)


def _recurrence_rows(alphas, zeta: complex, deformation: Deformation, n_max: int):
    """``squeezed_coeffs_recurrence`` of each alpha of the sequence ``alphas``,
    one row each."""
    f2 = f_squared(deformation, np.arange(n_max)).tolist()
    if len(alphas) >= _FLOAT_ROW and zeta.imag == 0:
        row = np.asarray(alphas)
        if not (np.imag(row).any() or np.signbit(np.imag(row)).any()
                or np.signbit(np.real(row)).any()):
            return _real_recurrence(np.real(row).astype(float), zeta.real, f2)
    rows = [_complex_recurrence(complex(a), zeta, f2) for a in alphas]
    return _stack([log_abs for log_abs, _ in rows]), _stack([phase for _, phase in rows])


def _overflow(level: int, alpha: complex) -> TruncationError:
    return TruncationError(f"the squeezed coefficient series overflows the double "
                           f"range at level {level} (|alpha| = {abs(alpha):.3g})")


def _complex_recurrence(alpha: complex, zeta: complex, f2: list):
    """The recurrence for one alpha, in Python complex arithmetic."""
    prev, cur = 1.0 + 0.0j, alpha
    offset = 0.0
    values, offsets = [prev, cur], [0.0, 0.0]
    for n in range(1, len(f2) - 1):
        nxt = alpha * cur - zeta * n * f2[n] * prev
        prev, cur = cur, nxt
        top = max(abs(prev), abs(cur))
        if top > 1e120:
            prev /= top
            cur /= top
            offset += math.log(top)
        values.append(cur)
        offsets.append(offset)
    # an overflow leaves NaN in cur, and every later value is NaN
    if not math.isfinite(abs(cur)):
        raise _overflow(next(n for n, v in enumerate(values) if not math.isfinite(abs(v))),
                        alpha)
    # one pass over the levels; math.log, not np.log, which differs from
    # it in the last bit, and Python's complex division, signed zeros included
    mags = list(map(abs, values))
    log_abs = np.array([math.log(m) + o if m else -math.inf for m, o in zip(mags, offsets)])
    phase = np.array([v / m if m else 1.0 for v, m in zip(values, mags)], dtype=complex)
    return log_abs, phase


def _real_recurrence(alphas: np.ndarray, zeta: float, f2: list):
    """The recurrence for a row of real alphas without a sign bit, in float64
    (see ``squeezed_coeffs_recurrence``): the same steps, one per level for
    the whole row, and the same rescaling, offsets and logs per alpha."""
    values = np.empty((len(f2), len(alphas)))
    offsets = np.zeros_like(values)
    values[0], values[1] = 1.0, alphas
    prev, cur = values[0], values[1]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for n in range(1, len(f2) - 1):
            nxt = np.multiply(alphas, cur, out=values[n + 1])
            nxt -= zeta * n * f2[n] * prev
            prev, cur = cur, nxt
            # prev was checked as cur a level ago, all but alpha itself;
            # fmax passes over the NaN of an overflow
            if n == 1 or np.fmax.reduce(np.abs(cur)) > 1e120:
                top = np.maximum(np.abs(prev), np.abs(cur))
                prev = prev.copy()  # values[n] keeps the unscaled value
                for j in np.flatnonzero(top > 1e120).tolist():
                    prev[j] /= top[j]
                    cur[j] /= top[j]
                    offsets[n + 1:, j] += math.log(top[j])
    bad = np.flatnonzero(~np.isfinite(cur))
    if bad.size:
        j = int(bad[0])
        raise _overflow(int(np.flatnonzero(~np.isfinite(values[:, j]))[0]), complex(alphas[j]))
    values = np.ascontiguousarray(values.T)  # one row per alpha
    mags = np.abs(values)
    logs = np.fromiter(map(math.log, np.where(mags != 0.0, mags, 1.0).ravel().tolist()),
                       float, mags.size).reshape(mags.shape)
    log_abs = np.where(mags != 0.0, logs + offsets.T, -math.inf)
    return log_abs, np.where(values < 0.0, -1.0, 1.0).astype(complex)


def _check_zeta(zeta: complex, what: str):
    if abs(zeta) >= 1.0:
        raise DivergenceError(f"{what}: |zeta|={abs(zeta):.6g} outside the convergence radius 1")


def _squeezed_series(alphas, zeta: complex, d: Deformation, what: str):
    """``logs`` of the squeezed series c_n = I(n) / (sqrt(n!) f(n)!), which
    converges only for |zeta| < 1.

    For f^2 affine in n, and so for the harmonic and nc kernels alike,
    I(n+1) ~ -zeta n f^2(n) I(n-1) at large n, while
    sqrt((n+1)!/(n-1)!) f(n+1)!/f(n-1)! ~ n f^2(n); so |c_{n+1}/c_{n-1}|
    tends to |zeta|.
    """
    _check_zeta(zeta, what)
    _check_tau(d.tau)
    zeta = complex(zeta)

    def logs(w, rows):
        log_abs, phase = _recurrence_rows([alphas[i] for i in rows], zeta, d, w)
        return log_abs - 0.5 * log_rho_table(d, w), phase

    return logs


def squeezed_normalization(alpha: complex, zeta: complex, d: Deformation) -> float:
    """sqrt(sum |I(n)|^2 / rho_n) of the squeezed series, summed to convergence."""
    return _series_norm(_squeezed_series([alpha], zeta, d, "squeezed_normalization"),
                        "squeezed")


def _nc_squeezed_row(alphas, zeta, tau, n_max, basis):
    _check_basis(basis)
    _check_zeta(zeta, "nc_squeezed")  # as _squeezed_series: zeta, then the tau cap
    d = _nc_deformation(tau)
    return _build_truncated(
        _squeezed_series(alphas, zeta, d, "nc_squeezed"), len(alphas), n_max,
        lambda i: f"nc_squeezed(alpha={alphas[i]}, zeta={zeta}, tau={tau}, "
                  f"basis={basis}, n_max={n_max})",
        tau=tau, basis=basis,
    )


def nc_squeezed(alpha: complex, zeta: complex, tau: float,
                n_max: int = DEFAULT_N_MAX, *, basis: str = "perturbed") -> FockState:
    """Squeezed state of the minimal-length oscillator.

    ``zeta=0`` reduces to ``nlcs``; ``tau=0`` reduces to ``ho_squeezed``.
    """
    return _one(_nc_squeezed_row([alpha], zeta, tau, n_max, basis))


def _ho_squeezed_row(alphas, zeta, n_max):
    zeta = complex(zeta)
    logs = _squeezed_series(alphas, zeta, Deformation.harmonic(), "ho_squeezed")
    if zeta == 0:
        return _glauber_row(alphas, n_max)
    return _build_truncated(
        logs, len(alphas), n_max,
        lambda i: f"ho_squeezed(alpha={complex(alphas[i])}, zeta={zeta}, n_max={n_max})",
    )


def ho_squeezed(alpha: complex, zeta: complex,
                n_max: int = DEFAULT_N_MAX) -> FockState:
    """Squeezed state of the undeformed oscillator.

    Amplitudes I(n) / sqrt(n!) from the squeezed recurrence at f^2 = 1,
    where I(n) = (zeta/2)^(n/2) H_n(alpha / sqrt(2 zeta)); ``zeta=0``
    gives :func:`glauber`'s state.
    """
    return _one(_ho_squeezed_row([complex(alpha)], zeta, n_max))


# ---------------------------------------------------------------------------
# cat and photon-added states
# ---------------------------------------------------------------------------

def _cat_series(alpha: complex, q: float, parity: str):
    """``logs`` of the cat series: the q-coherent series on levels of one parity."""
    if parity not in ("even", "odd"):
        raise ValidationError(f"parity must be 'even' or 'odd', got {parity!r}")
    coherent = _q_series(alpha, q, "cat_q")
    keep = 0 if parity == "even" else 1

    def logs(w, rows):
        log_abs, phase = coherent(w, rows)
        log_abs[:, (np.arange(w) % 2) != keep] = -math.inf
        return log_abs, phase

    return logs


def cat_q(alpha: complex, q: float, parity: str,
          n_max: int = DEFAULT_N_MAX) -> FockState:
    """Even/odd superposition of q-deformed coherent states at +-alpha."""
    if parity == "odd" and complex(alpha) == 0:
        raise DegenerateStateError("odd cat state of alpha = 0 is the zero vector")
    return _one(_build_truncated(
        _cat_series(alpha, q, parity), 1, n_max,
        lambda i: f"cat_q(alpha={complex(alpha)}, q={q}, parity={parity}, n_max={n_max})",
    ))


def cat_norm_sq(alpha: complex, q: float, parity: str) -> float:
    """Squared norm of |alpha>_q +- |-alpha>_q built from *normalized* inputs.

    Equals 4 (||cat series|| / ||q-coherent series||)^2, that is
    2 (1 +- E_q(-|alpha|^2)/E_q(|alpha|^2)) without the cancellation of the
    odd sign at small |alpha|; at q = 1 this is 2 (1 +- exp(-2 |alpha|^2)).
    """
    cat = _series_norm(_cat_series(alpha, q, parity), "cat")
    return 4.0 * (cat / q_normalization(alpha, q)) ** 2


def _pacs_series(alpha: complex, q: float, m: int):
    """``logs`` of the one-row m-photon-added series
    alpha^n sqrt([n+m]_q!) / [n]_q! on level n + m."""
    if m < 0:
        raise ValidationError("photon-added count m must be >= 0")
    alpha = complex(alpha)
    d = _q_kernel(alpha, q, "pacs_q")
    arg = math.atan2(alpha.imag, alpha.real) if alpha != 0 else 0.0
    mag = abs(alpha)

    def logs(w, rows):
        w = max(w, m + 2 + _TAIL_PAD)
        log_qf = log_rho_table(d, w)  # log [k]_q!
        log_abs = np.full(w, -math.inf)
        phase = np.ones(w, dtype=complex)
        ks = np.arange(m, w)
        ns = (ks - m).astype(float)
        log_abs[ks] = _n_log(ns, mag) + 0.5 * log_qf[ks] - log_qf[ks - m]
        phase[ks] = np.exp(1j * arg * ns)
        return log_abs[None], phase[None]

    return logs


def pacs_q(alpha: complex, q: float, m: int,
           n_max: int = DEFAULT_N_MAX) -> FockState:
    """m-photon-added q-deformed coherent state.

    Amplitudes proportional to alpha^n sqrt([n+m]_q!) / [n]_q! on level
    n + m; support starts at level m.
    """
    logs = _pacs_series(alpha, q, m)
    if n_max <= m:
        raise ValidationError(f"pacs_q needs n_max > m (m={m}, n_max={n_max})")
    return _one(_build_truncated(
        logs, 1, n_max, lambda i: f"pacs_q(alpha={complex(alpha)}, q={q}, m={m}, n_max={n_max})"
    ))


def pacs_norm_sq(alpha: complex, q: float, m: int) -> float:
    """Squared normalization of the photon-added state relative to the
    underlying coherent state: sum |alpha|^2n [n+m]_q!/([n]_q!)^2 / E_q(|alpha|^2)."""
    pacs = _series_norm(_pacs_series(alpha, q, m), "pacs")
    return (pacs / q_normalization(alpha, q)) ** 2


# ---------------------------------------------------------------------------
# the family registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """A command-line state family: its deformation kind, the options it
    requires (in the order they are checked), the options it reads with a
    default (option to default value), and ``build(p, n_max)`` and
    ``norm(p)``, which read the options from the attributes of ``p``
    (``alpha`` as one complex).  ``norm`` does not depend on the truncation
    ``build`` used: the l2 norm of the family's raw series, except for
    ``cat`` and ``pacs``, where it is the ratio of that norm to the
    ``q-coherent`` one (times 2 for ``cat``).  A family whose parameters
    fit the entropy scan's (alpha, tau, zeta) grid also has
    ``rows(alphas, p, n_max)``: the states at each alpha of an array, as
    ``_build_truncated`` yields them, with the other options read from
    ``p`` as ``build`` reads them."""

    kind: str
    requires: tuple
    defaults: dict
    build: Callable
    norm: Callable
    rows: Callable | None = None

    @property
    def scannable(self) -> bool:
        """Whether ``entropy_scan`` takes it: whether it has ``rows``."""
        return self.rows is not None


# The callables look the constructors and row builders up as module globals
# when they run, so a wrapper installed on a module global sees every build
# through them.  entropy_scan builds through ``rows``, the rest through ``build``.
_ALPHA = {"alpha_re": 0.0, "alpha_im": 0.0}
FAMILIES = {
    "glauber": Family("harmonic", (), _ALPHA, lambda p, n: glauber(p.alpha, n),
                      lambda p: math.exp(abs(p.alpha) ** 2 / 2.0),
                      lambda alphas, p, n: _glauber_row(alphas, n)),
    "nlcs": Family("nc", ("tau",), {**_ALPHA, "basis": "perturbed"},
                   lambda p, n: nlcs(p.alpha, p.tau, n, basis=p.basis),
                   lambda p: nlcs_normalization(p.alpha, p.tau),
                   lambda alphas, p, n: _nlcs_row(alphas, p.tau, n, p.basis)),
    "q-coherent": Family("q", ("q",), _ALPHA, lambda p, n: q_coherent(p.alpha, p.q, n),
                         lambda p: q_normalization(p.alpha, p.q)),
    "gk": Family("nc", ("tau", "J"), {"gamma": 0.0, "basis": "perturbed"},
                 lambda p, n: gk_coherent(p.J, p.gamma, p.tau, n, basis=p.basis),
                 lambda p: gk_normalization(p.J, p.tau)),
    "nc-squeezed": Family(
        "nc", ("tau",), {**_ALPHA, "zeta": 0.0, "basis": "perturbed"},
        lambda p, n: nc_squeezed(p.alpha, p.zeta, p.tau, n, basis=p.basis),
        lambda p: squeezed_normalization(p.alpha, p.zeta, _nc_deformation(p.tau)),
        lambda alphas, p, n: _nc_squeezed_row(alphas, p.zeta, p.tau, n, p.basis)),
    "ho-squeezed": Family(
        "harmonic", (), {**_ALPHA, "zeta": 0.0}, lambda p, n: ho_squeezed(p.alpha, p.zeta, n),
        lambda p: squeezed_normalization(p.alpha, p.zeta, Deformation.harmonic()),
        lambda alphas, p, n: _ho_squeezed_row(alphas, p.zeta, n)),
    "cat": Family("q", ("q", "parity"), _ALPHA,
                  lambda p, n: cat_q(p.alpha, p.q, p.parity, n),
                  lambda p: math.sqrt(cat_norm_sq(p.alpha, p.q, p.parity))),
    "pacs": Family("q", ("q",), {**_ALPHA, "m": 0}, lambda p, n: pacs_q(p.alpha, p.q, p.m, n),
                   lambda p: math.sqrt(pacs_norm_sq(p.alpha, p.q, p.m))),
}


def _scan_states(family: str, alphas: np.ndarray, p, n_max: int):
    """The states of a scannable ``family`` at each of the real ``alphas``,
    in order, each a ``FockState`` or the ``DefockError`` that refused it,
    as ``_build_truncated`` yields them; ``p`` carries the row's other
    options as attributes.  A refusal of the whole row, such as a zeta
    outside the radius, stands for each of its states."""
    try:
        return FAMILIES[family].rows(alphas, p, n_max)
    except DefockError as exc:
        return itertools.repeat(exc, len(alphas))


def _family_options(family: str, given: dict, flags: dict | None = None) -> dict:
    """``given`` (option to value, None where not given) with the defaults of
    ``family`` filled in.  Refuses, in the order of ``given``, an option the
    family neither requires nor defaults, then a missing required one; an
    error spells an option as ``flags`` says, else as ``--name``."""
    spec = FAMILIES[family]
    flags = {**{name: "--" + name.replace("_", "-") for name in given}, **(flags or {})}
    for name, value in given.items():
        if value is not None and name not in spec.requires and name not in spec.defaults:
            raise ValidationError(f"{flags[name]} contradicts family {family}")
    for name in spec.requires:
        if given.get(name) is None:
            raise ValidationError(f"{flags[name]} is required for {family}")
    return {**spec.defaults, **{name: v for name, v in given.items() if v is not None}}
