"""Two-mode beam-splitter transform, reduced density matrices, and
entanglement entropies.

Two independent routes to the linear entropy of a transformed
minimal-length coherent state are provided and cross-validated: the
direct pipeline (split, partial trace, purity) and the closed-form
quadruple sum over the dressed coefficients.  At matched truncation the
two are algebraically identical, so they must agree to rounding.
"""

from __future__ import annotations

import cmath
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DefockError, ValidationError
from .fock_io import ScanTable
from .specfun import log_factorial_table
from .states import (
    FockState,
    _check_n_max,
    glauber,
    ho_squeezed,
    nc_coherent_coeffs,
    nc_squeezed,
    nlcs,
)

__all__ = [
    "BeamSplitter",
    "TwoModeState",
    "DensityMatrix",
    "split_fock",
    "apply_beamsplitter",
    "partial_trace",
    "linear_entropy",
    "von_neumann_entropy",
    "linear_entropy_closed_form",
    "entropy_scan",
]


@dataclass(frozen=True)
class BeamSplitter:
    """Lossless beam splitter with angle theta and reflection phase phi.

    r = -exp(-i phi) sin(theta/2),  t = cos(theta/2),  |r|^2 + |t|^2 = 1.
    """

    theta: float = math.pi / 2.0
    phi: float = 0.0

    @property
    def r(self) -> complex:
        return -cmath.exp(-1j * self.phi) * math.sin(self.theta / 2.0)

    @property
    def t(self) -> float:
        return math.cos(self.theta / 2.0)

    @staticmethod
    def fifty_fifty() -> "BeamSplitter":
        return BeamSplitter(theta=math.pi / 2.0, phi=0.0)


@dataclass(frozen=True, eq=False)
class TwoModeState:
    """Amplitude matrix M[q, m] over |q>_c |m>_d pairs, unit Frobenius norm."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        object.__setattr__(self, "amps", amps)
        total = float(np.sum(np.abs(amps) ** 2))
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(f"TwoModeState must be unit norm, got {total!r}")
        amps.flags.writeable = False

    @property
    def dims(self):
        return self.amps.shape


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite (to tolerance) matrix."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        object.__setattr__(self, "rho", rho)
        rho.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    def validate(self) -> "DensityMatrix":
        rho = self.rho
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValidationError("density matrix must be square")
        if abs(float(np.trace(rho).real) - 1.0) > 1e-10:
            raise ValidationError("trace must be 1 within 1e-10")
        if float(np.max(np.abs(rho - rho.conj().T))) > 1e-12:
            raise ValidationError("matrix not Hermitian within 1e-12")
        eigs = np.linalg.eigvalsh(rho)
        if float(eigs.min()) < -1e-10:
            raise ValidationError(f"negative eigenvalue {eigs.min():.3e}")
        return self


def _transform_matrix(c: np.ndarray, t, r) -> np.ndarray:
    """M[q, m] = c[q+m] sqrt(C(q+m, q)) t^q r^m for q + m < n = len(c),
    in one broadcast over the (q, m) grid.  ``c`` is zero-padded past n,
    where the binomial stays finite, so the rest of M is exactly 0.
    Terms indexed by q + m are read through Hankel views, not gathered."""
    n = len(c)
    q = np.arange(n)
    lf = log_factorial_table(2 * n - 1)
    hankel = np.lib.stride_tricks.sliding_window_view  # hankel(x, n)[q, m] = x[q + m]
    binom_half = hankel(lf, n) - lf[:n, None]
    binom_half -= lf[:n]
    binom_half *= 0.5
    np.exp(binom_half, out=binom_half)
    out = hankel(np.concatenate([c, np.zeros(n - 1, dtype=complex)]), n) * binom_half
    out *= (t ** q)[:, None]
    out *= r ** q
    return out


def split_fock(n: int, bs: BeamSplitter):
    """Amplitudes of a number state through the splitter with vacuum at
    the second input: sum_q sqrt(C(n,q)) t^q r^(n-q) |q>_c |n-q>_d.

    Returns a list of (q, coefficient).
    """
    if n < 0:
        raise ValidationError("photon number must be >= 0")
    ql = np.arange(n + 1)
    lf = log_factorial_table(n + 1)
    binom_half = np.exp(0.5 * (lf[n] - lf - lf[::-1]))
    coeff = binom_half * (bs.t ** ql) * (bs.r ** (n - ql))
    return list(zip(ql.tolist(), coeff.tolist()))


def apply_beamsplitter(state: FockState, bs: BeamSplitter) -> TwoModeState:
    """Transform a single-mode state (vacuum at the idle port).

    Level k of the input feeds the anti-diagonal q + m = k of the output
    amplitude matrix, M[q, m] = c[q+m] sqrt(C(q+m, q)) t^q r^m; the whole
    matrix is built in one broadcast.
    """
    out = _transform_matrix(state.amps, bs.t, bs.r)
    out /= math.sqrt(float(np.sum(np.abs(out) ** 2)))
    return TwoModeState(out)


def partial_trace(two: TwoModeState, port: str = "c",
                  validate: bool = True) -> DensityMatrix:
    """Reduced density matrix of one output port."""
    m = two.amps
    if port == "c":
        rho = m @ m.conj().T
    elif port == "d":
        rho = m.T @ m.conj()
    else:
        raise ValidationError(f"port must be 'c' or 'd', got {port!r}")
    out = DensityMatrix(rho)
    return out.validate() if validate else out


def linear_entropy(rho: DensityMatrix) -> float:
    """S = 1 - tr rho^2."""
    r = rho.rho
    return 1.0 - float(np.sum(np.abs(r) ** 2))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum lambda ln lambda over eigenvalues above 1e-14."""
    try:
        eigs = np.linalg.eigvalsh(rho.rho)
    except np.linalg.LinAlgError as exc:
        scale = float(np.max(np.abs(rho.rho)))
        raise DefockError(
            f"eigendecomposition failed (dim={rho.dim}, max|rho|={scale:.3e})"
        ) from exc
    eigs = eigs[eigs >= 1e-14]
    return float(-np.sum(eigs * np.log(eigs)))


# ---------------------------------------------------------------------------
# closed-form linear entropy for the minimal-length coherent state
# ---------------------------------------------------------------------------

def linear_entropy_closed_form(alpha: complex, tau: float, bs: BeamSplitter,
                               n_max: int, *,
                               boundary_warn: float = 1e-12) -> float:
    """Linear entropy of a transformed minimal-length coherent state from
    the quadruple coefficient sum.

    All four summation indices are limited so every composite index stays
    below ``n_max``, matching the direct pipeline's truncation exactly.
    The quadruple sum is evaluated as tr((D^dag D)^2) with
    D[m, q] = |t|^q |r|^m C(alpha, m+q) / (sqrt(m! q!) f(m+q)!).
    A warning is emitted when the discarded boundary terms exceed
    ``boundary_warn`` of the total.
    """
    _check_n_max(n_max)
    coeffs = nc_coherent_coeffs(alpha, tau, n_max)
    norm_sq = float(np.sum(np.abs(coeffs) ** 2))
    d_mat = _transform_matrix(coeffs, abs(bs.t), abs(bs.r)).T  # D[m, q]
    e_mat = d_mat.conj().T @ d_mat
    total = float(np.sum(np.abs(e_mat) ** 2).real)
    # boundary contribution: drop the outermost anti-diagonal m + q = n_max - 1
    d_inner = d_mat.copy()
    idx = np.arange(n_max)
    d_inner[idx, n_max - 1 - idx] = 0.0
    e_inner = d_inner.conj().T @ d_inner
    inner = float(np.sum(np.abs(e_inner) ** 2).real)
    if total > 0 and abs(total - inner) > boundary_warn * total:
        warnings.warn(
            f"entropy closed form: boundary terms contribute "
            f"{abs(total - inner) / total:.2e} of the sum; enlarge n_max",
            stacklevel=2,
        )
    return 1.0 - total / norm_sq**2


# ---------------------------------------------------------------------------
# grid scans
# ---------------------------------------------------------------------------

_SCAN_FAMILIES = ("nlcs", "nc_squeezed", "ho_squeezed", "glauber")


def _scan_point(args):
    family, alpha, tau, zeta, theta, phi, n_max = args
    bs = BeamSplitter(theta=theta, phi=phi)
    s_closed = float("nan")
    try:
        if family == "nlcs":
            state = nlcs(alpha, tau, n_max)
            s_closed = linear_entropy_closed_form(alpha, tau, bs, state.n_max)
        elif family == "nc_squeezed":
            state = nc_squeezed(alpha, zeta, tau, n_max)
        elif family == "ho_squeezed":
            state = ho_squeezed(alpha, zeta, n_max)
        else:
            state = glauber(alpha, n_max)
        s_direct = linear_entropy(
            partial_trace(apply_beamsplitter(state, bs), "c", validate=False)
        )
        flag = ""
    except DefockError as exc:
        s_direct = float("nan")
        s_closed = float("nan")
        flag = type(exc).__name__
    return [float(alpha), float(tau), float(zeta), s_direct, s_closed, flag]


def entropy_scan(family: str, alpha_grid, tau_grid=None, *,
                 zeta: float = 0.0, bs: BeamSplitter | None = None,
                 n_max: int = 64, workers: int = 1) -> ScanTable:
    """Linear entropy over an (alpha, tau) grid.

    Every grid point is evaluated independently; failures are recorded
    in the ``flag`` column and never abort the scan.  For the ``nlcs``
    family the closed-form value is computed alongside the direct one.
    ``workers`` is clamped to the number of CPUs.
    """
    if family not in _SCAN_FAMILIES:
        raise ValidationError(f"unknown scan family {family!r}")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    workers = min(int(workers), os.cpu_count() or 1)
    _check_n_max(n_max)
    alphas = [float(a) for a in np.atleast_1d(alpha_grid)]
    taus = [float(t) for t in np.atleast_1d(tau_grid)] if tau_grid is not None else [0.0]
    if not alphas or not taus:
        raise ValidationError("scan grids must be non-empty")
    bs = bs or BeamSplitter.fifty_fifty()
    points = [
        (family, a, t, float(zeta), bs.theta, bs.phi, int(n_max))
        for t in taus
        for a in alphas
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_scan_point, points))
    else:
        rows = [_scan_point(p) for p in points]
    table = ScanTable(
        columns=["alpha", "tau", "zeta", "S_direct", "S_closed", "flag"],
        provenance={
            "family": family,
            "zeta": format(float(zeta), ".17g"),
            "theta": format(bs.theta, ".17g"),
            "phi": format(bs.phi, ".17g"),
            "n_max": str(int(n_max)),
        },
    )
    for row in rows:
        table.append(row)
    return table
