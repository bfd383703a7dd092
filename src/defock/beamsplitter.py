"""Two-mode beam-splitter transform, reduced density matrices, and
entanglement entropies.

The linear entropy of a transformed minimal-length coherent state comes
from the direct pipeline (split, partial trace, purity) and from the
quadruple sum over the dressed coefficients, tr((D^H D)^2) with D = M^T.
These are not independent: D^H D = conj(M M^H) is the direct route's Gram
before normalization, so ``entropy_scan`` builds one transform and one
Gram per point and reads both off it.  S_closed differs from S_direct only
by the factor (|M|_F^2 / sum |c|^2)^2, 1 to rounding for a lossless
splitter, and checks the normalization and the boundary warning, not the
contraction.  The independent references are
``linear_entropy_closed_form_naive`` in the tests and
``perfbench/oracle.split_linear_entropy``.
"""

from __future__ import annotations

import cmath
import contextlib
import ctypes
import functools
import math
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import DefockError, ValidationError, _stacklevel_outside
from .fock_io import ScanTable
from .specfun import log_factorial_table
from .states import (FAMILIES, FockState, _check_n_max, _check_tau, _family_options,
                     nc_coherent_coeffs)

__all__ = [
    "BeamSplitter",
    "TwoModeState",
    "DensityMatrix",
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


@dataclass(frozen=True, eq=False)
class TwoModeState:
    """Amplitude matrix M[q, m] over |q>_c |m>_d pairs, unit Frobenius norm."""

    amps: np.ndarray

    def __post_init__(self):
        amps = _as_float_or_complex(self.amps)
        object.__setattr__(self, "amps", amps)
        total = float(np.sum(np.abs(amps) ** 2))
        # written so that a NaN norm fails it too
        if not abs(total - 1.0) <= 1e-10:
            raise ValidationError(f"TwoModeState must be unit norm, got {total!r}")
        amps.flags.writeable = False


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Square, unit-trace, Hermitian, positive-semidefinite (to tolerance)
    matrix, checked when it is built; a NaN or inf entry fails the checks.
    The spectrum the positivity check computes is kept, read-only, for
    ``von_neumann_entropy``."""

    rho: np.ndarray
    _eigs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rho = _as_float_or_complex(self.rho)
        # each comparison is written so that a NaN fails it
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValidationError("density matrix must be square")
        if not abs(float(np.trace(rho).real) - 1.0) <= 1e-10:
            raise ValidationError("trace must be 1 within 1e-10")
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the check
            asymmetry = float(np.max(np.abs(rho - rho.conj().T)))
        if not asymmetry <= 1e-12:
            raise ValidationError("matrix not Hermitian within 1e-12")
        eigs = np.linalg.eigvalsh(rho)
        if not float(eigs.min()) >= -1e-10:
            raise ValidationError(f"negative eigenvalue {eigs.min():.3e}")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "_eigs", eigs)
        rho.flags.writeable = False
        eigs.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.rho.shape[0]


def _as_float_or_complex(x) -> np.ndarray:
    """x as float64 if its dtype is real, else as complex128."""
    return np.asarray(x, dtype=float if np.isrealobj(x) else complex)


def _hankel(x: np.ndarray, n: int) -> np.ndarray:
    """Read-only view H[q, m] = x[q + m], q < len(x) - n + 1, m < n, of a
    contiguous 1-D x: both axes step one element, so no entry is copied."""
    step = x.strides[0]
    view = np.ndarray((len(x) - n + 1, n), x.dtype, x, 0, (step, step))
    view.flags.writeable = False
    return view


# A scan uses one key per n_max, r at phi = 0; linear_entropy_closed_form
# uses |r|.  At MAX_N_MAX a float64 kernel is 2 MB and a complex one
# (phi != 0 or complex r) 4 MB, so at most 16 MB are held.
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


# Levels past the last one with |c| >= _SUPPORT_FLOOR max|c| are left out
# of M: with k levels kept, M is exactly 0 for q + m >= k and every product
# runs over the leading k x k block.  For a unit state (max|c| >= n^-1/2)
# and |K| <= 1: at n 256 the smallest 50:50 kernel entry is about 2^-128,
# so a level at or above the floor gives entries of at least 2^-432, and a
# product of two is at least 2^-864, a normal double, not a slow subnormal.
# A dropped entry is below 2^-300: it moves an entry of rho = M M^H by less
# than 2n 2^-300 <= 2^-290, and tr rho^2 >= 1/n by far less than an ulp.
_SUPPORT_FLOOR = 2.0**-300


def _transform_matrix(c: np.ndarray, t: float, r) -> np.ndarray:
    """M[q, m] = c[q+m] sqrt(C(q+m, q)) t^q r^m on the n x n grid, n = len(c),
    for q + m < k and exactly 0 elsewhere: a Hankel view of c[:k] times the
    leading k x k block of the cached splitter kernel, written into a zeroed
    n x n array.  k is one past the last level with |c| >= ``_SUPPORT_FLOOR``
    max|c|.

    M is float64 when c and r are real.  An imaginary part counts as zero
    only when it is identically zero, never when it is merely small, so
    the real route runs only where the complex one would carry exact zeros.
    """
    n = len(c)
    if np.iscomplexobj(c) and not c.imag.any():
        c = c.real
    r = complex(r)
    r = r.real if r.imag == 0 else r
    mag = np.abs(c)
    k = int(np.flatnonzero(mag >= _SUPPORT_FLOOR * mag.max())[-1]) + 1
    kernel = _splitter_kernel(n, t, r)  # K[q, m] does not depend on n: one per n, not per k
    out = np.zeros((n, n), dtype=np.result_type(c, kernel))
    padded = np.concatenate([c[:k], np.zeros(k - 1, dtype=c.dtype)])
    np.multiply(_hankel(padded, k), kernel[:k, :k], out=out[:k, :k])
    return out


def _unit_transform(c: np.ndarray, t: float, r) -> tuple[np.ndarray, float]:
    """(M / |M|_F, |M|_F^2) for the transform M of c."""
    out = _transform_matrix(c, t, r)
    norm_sq = float(np.sum(np.abs(out) ** 2))
    out /= math.sqrt(norm_sq)
    return out, norm_sq


def _openblas_threads():
    """(get, set) for the thread count of numpy's bundled OpenBLAS, or None;
    dlsym on numpy's linalg module also searches the libraries it links."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    pairs = ((getattr(lib, g, None), getattr(lib, g.replace("get", "set"), None)) for g in names)
    return next((pair for pair in pairs if all(pair)), None)


_OPENBLAS = _openblas_threads()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread; give the caller's count back after."""
    saved = _OPENBLAS and _OPENBLAS[0]()
    if saved:
        _OPENBLAS[1](1)
    try:
        yield
    finally:
        if saved:
            _OPENBLAS[1](saved)


def _leading_gram(a: np.ndarray) -> np.ndarray:
    """a a^H for a nonzero a, computed on the leading block of a that holds
    all its nonzero entries and written into a zeroed square array.  Real a
    gives the symmetric rank-k product: ``conj`` of a real array is the
    array itself.  The product runs on one OpenBLAS thread, then the
    caller's count is restored; under another BLAS it runs unchanged."""
    if a[-1].any() and a[:, -1].any():  # full support, found in O(n)
        p, s = a.shape
    else:
        p = int(np.flatnonzero(a.any(axis=1))[-1]) + 1
        s = int(np.flatnonzero(a.any(axis=0))[-1]) + 1
    out = np.zeros((a.shape[0], a.shape[0]), dtype=a.dtype)
    block = a[:p, :s]
    with _one_blas_thread():
        out[:p, :p] = block @ block.conj().T
    return out


def apply_beamsplitter(state: FockState, bs: BeamSplitter) -> TwoModeState:
    """Transform a single-mode state (vacuum at the idle port).

    Level k of the input feeds the anti-diagonal q + m = k of the output
    amplitude matrix, M[q, m] = c[q+m] sqrt(C(q+m, q)) t^q r^m; the whole
    matrix is built in one broadcast over the state's support (see
    ``_transform_matrix``).  M is real when the amplitudes and r are
    (phi = 0), and complex otherwise.
    """
    return TwoModeState(_unit_transform(state.amps, bs.t, bs.r)[0])


def partial_trace(two: TwoModeState, port: str = "c") -> DensityMatrix:
    """Reduced density matrix of one output port, real when the amplitudes
    are, and checked as every ``DensityMatrix`` is.  rho_c = M M^H and
    rho_d = M^T conj(M) run over the leading block of M that holds its
    nonzero entries (the support that ``apply_beamsplitter`` keeps); the
    rest of rho is exactly 0."""
    if port not in ("c", "d"):
        raise ValidationError(f"port must be 'c' or 'd', got {port!r}")
    return DensityMatrix(_leading_gram(two.amps if port == "c" else two.amps.T))


def linear_entropy(rho: DensityMatrix) -> float:
    """S = 1 - tr rho^2."""
    r = rho.rho
    return 1.0 - float(np.sum(np.abs(r) ** 2))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum lambda ln lambda over eigenvalues above 1e-14, read off the
    spectrum that the matrix's own check computed."""
    eigs = rho._eigs[rho._eigs >= 1e-14]
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


def _closed_form(c: np.ndarray, m: np.ndarray, gram: np.ndarray, purity: float,
                 m_sq: float) -> float:
    """1 - tr(E^2) / (sum |c|^2)^2, E = D^H D and D = M^T for the transform
    M = sqrt(m_sq) m of c, from gram = m m^H and purity = sum |gram|^2.

    Warns, naming the first caller outside this module, when the boundary
    terms exceed ``_BOUNDARY_WARN`` of the sum.  The share is computed only
    when an O(1) bound on it can reach half that threshold, so the bound
    never changes the decision.  Signs and phases on the rows or columns of
    M (r against |r|) cancel in E and in the share.
    """
    norm_sq = float(np.sum(np.abs(c) ** 2))
    total = purity * m_sq**2
    # The boundary B is the anti-diagonal of D fed by c[n-1], and the splitter
    # is lossless, so |B|_F = |c[n-1]| and |D|_F^2 = sum |c|^2.  Then
    # E - E_in = D^H B + B^H D - B^H B has |.|_F <= delta, and
    # |share| <= 2 |E|_F delta + delta^2 (see _boundary_share).
    edge = float(abs(c[-1]))
    delta = 2.0 * math.sqrt(norm_sq) * edge + edge * edge
    bound = 2.0 * math.sqrt(total) * delta + delta * delta
    if total > 0 and bound > 0.5 * _BOUNDARY_WARN * total:
        # share and purity of m are those of M, both divided by m_sq^2
        boundary = _boundary_share(m.T, gram.conj())
        if abs(boundary) > _BOUNDARY_WARN * purity:
            warnings.warn(
                f"entropy closed form: boundary terms contribute "
                f"{abs(boundary) / purity:.2e} of the sum; enlarge n_max",
                stacklevel=_stacklevel_outside(),
            )
    return 1.0 - total / norm_sq**2


def linear_entropy_closed_form(alpha: complex, tau: float, bs: BeamSplitter,
                               n_max: int) -> float:
    """Linear entropy of a transformed minimal-length coherent state from
    the quadruple coefficient sum.

    All four summation indices are limited so every composite index stays
    below ``n_max``, matching the direct pipeline's truncation exactly.
    The quadruple sum is evaluated as tr((D^dag D)^2) with
    D[m, q] = |t|^q |r|^m C(alpha, m+q) / (sqrt(m! q!) f(m+q)!), in real
    arithmetic when the coefficients are real (real alpha).  D is the
    support-trimmed transform of the direct route, and E = D^dag D runs
    over the leading block that holds D's nonzero entries.  Warns as
    ``entropy_scan`` does when the boundary terms are a sizeable share.
    """
    _check_n_max(n_max)
    coeffs = nc_coherent_coeffs(alpha, tau, n_max)
    m = _transform_matrix(coeffs, abs(bs.t), abs(bs.r))
    gram = _leading_gram(m)
    return _closed_form(coeffs, m, gram, float(np.sum(np.abs(gram) ** 2)), 1.0)


# ---------------------------------------------------------------------------
# grid scans
# ---------------------------------------------------------------------------

def _scan_point(family, p, bs, n_max):
    # bs has phi = 0: phi puts the phase (e^{-i phi})^m on column m of M,
    # and a phase on a column cancels in rho_c = M M^H.  Both routes read
    # port c, so every phi gives the same entropies, and at phi = 0 a real
    # alpha keeps the whole direct route real.  One transform and one Gram
    # serve both routes (see the module docstring).
    s_closed = float("nan")
    try:
        state = FAMILIES[family].build(p, n_max)
        m, m_sq = _unit_transform(state.amps, bs.t, bs.r)
        rho = _leading_gram(m)
        purity = float(np.sum(np.abs(rho) ** 2))
        s_direct = 1.0 - purity
        if family == "nlcs":
            s_closed = _closed_form(state.amps, m, rho, purity, m_sq)
        flag = ""
    except DefockError as exc:
        s_direct = float("nan")
        s_closed = float("nan")
        flag = type(exc).__name__
    return [float(p.alpha), float(p.tau), float(p.zeta), s_direct, s_closed, flag]


def entropy_scan(family: str, alpha_grid, tau_grid=None, *,
                 zeta: float | None = None, bs: BeamSplitter | None = None,
                 n_max: int = 64) -> ScanTable:
    """Linear entropy over an (alpha, tau) grid, one point after another.

    ``family`` is a registry family whose parameters fit the grid, spelled
    with '_' for '-'.  It takes ``tau_grid`` and ``zeta`` (None: not given)
    as ``state`` takes ``--tau`` and ``--zeta``, and a tau or zeta that it
    does not read is written as 0.  Every grid point is evaluated
    independently; failures are recorded in the ``flag`` column and never
    abort the scan.  A tau that no minimal-length state takes is refused
    before the first point.  For the ``nlcs`` family the closed-form value
    is computed alongside the direct one.
    """
    names = {name.replace("-", "_"): name for name, spec in FAMILIES.items() if spec.scannable}
    if family not in names:
        raise ValidationError(f"unknown scan family {family!r}")
    _check_n_max(n_max)
    options = _family_options(names[family], {"tau": tau_grid, "zeta": zeta},
                              {"tau": "--taus"})
    alphas = [float(a) for a in np.atleast_1d(alpha_grid)]
    taus = [float(t) for t in np.atleast_1d(tau_grid)] if "tau" in options else [0.0]
    if not alphas or not taus:
        raise ValidationError("scan grids must be non-empty")
    for t in taus:
        _check_tau(t)
    zeta = float(options.get("zeta", 0.0))
    bs = bs or BeamSplitter()
    table = ScanTable(
        columns=["alpha", "tau", "zeta", "S_direct", "S_closed", "flag"],
        provenance={
            "family": family,
            "zeta": format(zeta, ".17g"),
            "theta": format(bs.theta, ".17g"),
            "phi": format(bs.phi, ".17g"),
            "n_max": str(int(n_max)),
        },
    )
    splitter = BeamSplitter(theta=bs.theta)
    for t in taus:
        for a in alphas:
            p = SimpleNamespace(**{**options, "alpha": a, "tau": t, "zeta": zeta})
            table.append(_scan_point(names[family], p, splitter, int(n_max)))
    return table
