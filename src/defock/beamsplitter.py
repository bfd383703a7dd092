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
import functools
import math
import os
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DefockError, ValidationError, _stacklevel_outside
from .fock_io import ScanTable
from .specfun import log_factorial_table
from .states import FAMILIES, FockState, _check_n_max, nc_coherent_coeffs

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
        amps = _as_float_or_complex(self.amps)
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
        rho = _as_float_or_complex(self.rho)
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


def _as_float_or_complex(x) -> np.ndarray:
    """x as float64 if its dtype is real, else as complex128."""
    return np.asarray(x, dtype=float if np.isrealobj(x) else complex)


_hankel = np.lib.stride_tricks.sliding_window_view  # _hankel(x, n)[q, m] = x[q + m]


# A scan uses two keys, r and |r|.  At MAX_N_MAX a float64 kernel is 2 MB
# and a complex one (phi != 0 or complex r) 4 MB, so at most 16 MB are held.
@functools.lru_cache(maxsize=4)
def _splitter_kernel(n: int, t: float, r) -> np.ndarray:
    """Read-only K[q, m] = sqrt(C(q+m, q)) t^q r^m on the n x n grid, real
    when r is a float.  Past q + m = n - 1 the binomial stays finite, and
    for a lossless splitter every |K[q, m]| <= 1: the anti-diagonal
    q + m = k carries weight (|t|^2 + |r|^2)^k = 1."""
    q = np.arange(n)
    lf = log_factorial_table(2 * n - 1)
    kernel = _hankel(lf, n) - lf[:n, None]
    kernel -= lf[:n]
    kernel *= 0.5
    np.exp(kernel, out=kernel)
    kernel *= (t ** q)[:, None]
    kernel = kernel * r ** q
    kernel.flags.writeable = False
    return kernel


def _transform_matrix(c: np.ndarray, t: float, r) -> np.ndarray:
    """M[q, m] = c[q+m] sqrt(C(q+m, q)) t^q r^m for q + m < n = len(c):
    a Hankel view of c, zero-padded past n so the rest of M is exactly 0,
    times the cached splitter kernel.

    M is float64 when c and r are real.  An imaginary part counts as zero
    only when it is identically zero, never when it is merely small, so
    the real route runs only where the complex one would carry exact zeros.
    """
    n = len(c)
    if np.iscomplexobj(c) and not c.imag.any():
        c = c.real
    r = complex(r)
    r = r.real if r.imag == 0 else r
    padded = np.concatenate([c, np.zeros(n - 1, dtype=c.dtype)])
    return _hankel(padded, n) * _splitter_kernel(n, t, r)


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
    matrix is built in one broadcast.  M is real when the amplitudes and
    r are (phi = 0), and complex otherwise.
    """
    out = _transform_matrix(state.amps, bs.t, bs.r)
    out /= math.sqrt(float(np.sum(np.abs(out) ** 2)))
    return TwoModeState(out)


def partial_trace(two: TwoModeState, port: str = "c",
                  validate: bool = True) -> DensityMatrix:
    """Reduced density matrix of one output port, real when the amplitudes
    are (``conj`` of a real array is the array itself, so numpy takes the
    symmetric rank-k product)."""
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

_BOUNDARY_WARN = 1e-12  # boundary share of the sum above which the closed form warns


def _boundary_share(d_mat: np.ndarray, e_mat: np.ndarray) -> float:
    """sum |E|^2 - sum |E_in|^2, where E = D^H D and E_in is built from D
    less its outermost anti-diagonal B (entries m + q = n - 1), in O(n^2).

    E_in = (D - B)^H (D - B) = E - G - G^H + B^H B with G = D^H B, and
    B has one entry b_q = D[n-1-q, q] per column, so G[i, j] =
    conj(D[n-1-j, i]) b_j and B^H B = diag(|b|^2).  With Delta = E - E_in
    the difference is 2 Re sum conj(E) Delta - sum |Delta|^2.
    """
    n = d_mat.shape[0]
    b = d_mat[np.arange(n)[::-1], np.arange(n)]
    g = d_mat[::-1].conj().T * b
    delta = g + g.conj().T
    delta[np.diag_indices(n)] -= np.abs(b) ** 2
    return float(2.0 * np.sum((e_mat.conj() * delta).real) - np.sum(np.abs(delta) ** 2))


def linear_entropy_closed_form(alpha: complex, tau: float, bs: BeamSplitter,
                               n_max: int) -> float:
    """Linear entropy of a transformed minimal-length coherent state from
    the quadruple coefficient sum.

    All four summation indices are limited so every composite index stays
    below ``n_max``, matching the direct pipeline's truncation exactly.
    The quadruple sum is evaluated as tr((D^dag D)^2) with
    D[m, q] = |t|^q |r|^m C(alpha, m+q) / (sqrt(m! q!) f(m+q)!), in real
    arithmetic when the coefficients are real (real alpha).
    A warning, which names the first caller outside this module, is
    emitted when the discarded boundary terms exceed ``_BOUNDARY_WARN``
    of the total.
    """
    _check_n_max(n_max)
    coeffs = nc_coherent_coeffs(alpha, tau, n_max)
    norm_sq = float(np.sum(np.abs(coeffs) ** 2))
    d_mat = _transform_matrix(coeffs, abs(bs.t), abs(bs.r)).T  # D[m, q]
    e_mat = d_mat.conj().T @ d_mat
    total = float(np.sum(np.abs(e_mat) ** 2).real)
    boundary = _boundary_share(d_mat, e_mat)
    if total > 0 and abs(boundary) > _BOUNDARY_WARN * total:
        warnings.warn(
            f"entropy closed form: boundary terms contribute "
            f"{abs(boundary) / total:.2e} of the sum; enlarge n_max",
            stacklevel=_stacklevel_outside(__file__),
        )
    return 1.0 - total / norm_sq**2


# ---------------------------------------------------------------------------
# grid scans
# ---------------------------------------------------------------------------

def _scan_point(args):
    family, alpha, tau, zeta, theta, n_max = args
    # phi is left out: it puts the phase (e^{-i phi})^m on column m of M,
    # and a phase on a column cancels in rho_c = M M^H.  Both routes read
    # port c, so every phi gives the same entropies, and at phi = 0 a real
    # alpha keeps the whole direct route real.
    bs = BeamSplitter(theta=theta)
    s_closed = float("nan")
    p = SimpleNamespace(alpha=alpha, tau=tau, zeta=zeta, basis="perturbed")
    try:
        state = FAMILIES[family].build(p, n_max)
        if family == "nlcs":
            s_closed = linear_entropy_closed_form(alpha, tau, bs, state.n_max)
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

    ``family`` is a registry family whose parameters fit the grid, spelled
    with '_' for '-'.  Every grid point is evaluated independently;
    failures are recorded in the ``flag`` column and never abort the scan.
    For the ``nlcs`` family the closed-form value is computed alongside the
    direct one.  ``workers`` is clamped to the number of CPUs.
    """
    names = {name.replace("-", "_"): name for name, spec in FAMILIES.items() if spec.scannable}
    if family not in names:
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
        (names[family], a, t, float(zeta), bs.theta, int(n_max))
        for t in taus
        for a in alphas
    ]
    if workers > 1:
        # imported here: it loads multiprocessing, which one worker never needs
        from concurrent.futures import ProcessPoolExecutor

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
