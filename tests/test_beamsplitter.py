import ctypes
import math
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defock
from defock import beamsplitter, states
from defock.beamsplitter import (
    BeamSplitter,
    DensityMatrix,
    TwoModeState,
    apply_beamsplitter,
    entropy_scan,
    linear_entropy,
    linear_entropy_closed_form,
    partial_trace,
    von_neumann_entropy,
)
from defock.errors import DefockError, PerturbativeRegimeWarning, ValidationError
from defock.specfun import log_factorial_table
from defock.states import (
    FAMILIES,
    MAX_N_MAX,
    FockState,
    gk_coherent,
    glauber,
    ho_squeezed,
    nc_coherent_coeffs,
    nc_squeezed,
    nlcs,
)

FIFTY = BeamSplitter()


def fock_state(n, n_max=16):
    amps = np.zeros(n_max, dtype=complex)
    amps[n] = 1.0
    return FockState(amps, 0.0, f"fock({n})")


def nc_quiet(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PerturbativeRegimeWarning)
        return nlcs(*args, **kwargs)


def apply_beamsplitter_loop(amps, bs):
    """Level-by-level transform: level k feeds q + m = k; reference only."""
    n_max = len(amps)
    out = np.zeros((n_max, n_max), dtype=complex)
    for k in range(n_max):
        ql = np.arange(k + 1)
        lg = np.array([math.lgamma(v + 1.0) for v in range(k + 1)])
        coeff = np.exp(0.5 * (lg[k] - lg - lg[::-1])) * (bs.t ** ql) * (bs.r ** (k - ql))
        out[ql, k - ql] += amps[k] * coeff
    return out / math.sqrt(float(np.sum(np.abs(out) ** 2)))


def linear_entropy_closed_form_naive(alpha, tau, bs, n_max):
    """Literal quadruple loop over (q, s, m, n); reference only."""
    coeffs = nc_coherent_coeffs(alpha, tau, n_max)
    norm_sq = float(np.sum(np.abs(coeffs) ** 2))
    lg = [math.exp(math.lgamma(v + 1.0)) for v in range(n_max)]
    sq = [math.sqrt(v) for v in lg]
    g = [coeffs[k] * sq[k] for k in range(n_max)]  # C(alpha,k)/f(k)! scaled
    at2 = abs(bs.t) ** 2
    ar2 = abs(bs.r) ** 2
    total = 0.0
    for q in range(n_max):
        for s in range(n_max):
            for m in range(n_max - max(q, s)):
                for n in range(n_max - max(q, s)):
                    term = (
                        (at2 ** (q + s)) * (ar2 ** (m + n))
                        * g[m + q] * g[m + s].conjugate()
                        * g[n + s] * g[n + q].conjugate()
                        / (lg[q] * lg[s] * lg[m] * lg[n])
                    )
                    total += term.real
    return 1.0 - total / norm_sq**2


# -------------------------------------------------------------- constriction

def test_reflectivity_unitarity():
    for theta in (0.1, math.pi / 2, 2.5):
        for phi in (0.0, 0.7, -1.2):
            bs = BeamSplitter(theta=theta, phi=phi)
            assert abs(bs.r) ** 2 + bs.t**2 == pytest.approx(1.0, abs=1e-14)


def _split_fock(n, bs):
    """{q: amplitude} of |n>|0> through the splitter: the anti-diagonal
    q + m = n of the kernel the library runs, sqrt(C(n, q)) t^q r^(n-q)."""
    kernel = beamsplitter._splitter_kernel(n + 1, bs.t, bs.r)
    return {q: kernel[q, n - q] for q in range(n + 1)}


def test_split_fock_examples():
    assert _split_fock(0, FIFTY) == {0: (1 + 0j)}

    one = _split_fock(1, FIFTY)
    assert one[1] == pytest.approx(1 / math.sqrt(2), rel=1e-14)
    assert one[0] == pytest.approx(-1 / math.sqrt(2), rel=1e-14)

    two = _split_fock(2, FIFTY)
    probs = {q: abs(c) ** 2 for q, c in two.items()}
    assert probs[2] == pytest.approx(0.25, rel=1e-12)
    assert probs[1] == pytest.approx(0.50, rel=1e-12)
    assert probs[0] == pytest.approx(0.25, rel=1e-12)


def test_split_fock_binomial_oracle():
    n = 7
    bs = BeamSplitter(theta=1.1, phi=0.4)
    for q, coeff in _split_fock(n, bs).items():
        ref = math.sqrt(math.comb(n, q)) * bs.t**q * bs.r ** (n - q)
        assert coeff == pytest.approx(ref, rel=1e-12)
    total = sum(abs(c) ** 2 for c in _split_fock(n, bs).values())
    assert total == pytest.approx(1.0, abs=1e-12)


def test_apply_beamsplitter_unitary_for_all_inputs():
    for state in (glauber(1.3), nc_quiet(1.0, 0.5), fock_state(3)):
        two = apply_beamsplitter(state, FIFTY)
        assert float(np.sum(np.abs(two.amps) ** 2)) == pytest.approx(1.0, abs=1e-10)


def assert_zero_past_truncation(amps):
    """Entries with q + m >= n_max are exactly 0, not merely small."""
    q = np.arange(len(amps))
    assert np.all(amps[(q[:, None] + q) >= len(amps)] == 0)


@pytest.mark.parametrize("n_max", [1, 2, 5, 64, 256])
@pytest.mark.parametrize("theta, phi", [(math.pi / 2, 0.0), (1.1, 0.6), (0.3, 2.0)])
def test_apply_beamsplitter_matches_level_loop(n_max, theta, phi):
    rng = np.random.default_rng(n_max)
    amps = rng.normal(size=n_max) + 1j * rng.normal(size=n_max)
    state = FockState(amps / np.linalg.norm(amps), 0.0, "random")
    bs = BeamSplitter(theta=theta, phi=phi)
    got = apply_beamsplitter(state, bs).amps
    assert np.max(np.abs(got - apply_beamsplitter_loop(state.amps, bs))) <= 1e-14
    assert got.dtype == np.complex128
    assert_zero_past_truncation(got)


@pytest.mark.parametrize("n_max", [1, 2, 5, 64, 256])
@pytest.mark.parametrize("theta, phi", [(math.pi / 2, 0.0), (1.1, 0.6), (0.3, 2.0)])
def test_apply_beamsplitter_real_input_matches_level_loop(n_max, theta, phi):
    rng = np.random.default_rng(n_max)
    amps = rng.normal(size=n_max)
    state = FockState(amps / np.linalg.norm(amps), 0.0, "random")
    bs = BeamSplitter(theta=theta, phi=phi)
    got = apply_beamsplitter(state, bs).amps
    assert got.dtype == (np.float64 if phi == 0.0 else np.complex128)
    # Both sides read sqrt(C(k, q)) through ln k!, which carries up to about
    # eps ln k! of absolute error, so entries agree to a relative
    # 4 eps ln (n-1)!, not to a fixed absolute bound.
    ref = apply_beamsplitter_loop(state.amps, bs)
    rtol = 4 * np.finfo(float).eps * math.lgamma(n_max)
    assert np.all(np.abs(got - ref) <= rtol * np.abs(ref) + 1e-300)
    assert_zero_past_truncation(got)


def test_vacuum_passthrough():
    two = apply_beamsplitter(fock_state(0), FIFTY)
    assert two.amps[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert float(np.sum(np.abs(two.amps) ** 2) - abs(two.amps[0, 0]) ** 2) < 1e-14


def test_glauber_factorizes_into_product():
    alpha = 1.0
    two = apply_beamsplitter(glauber(alpha), FIFTY)
    a = glauber(FIFTY.t * alpha, 64).amps
    b = glauber(complex(FIFTY.r) * alpha, 64).amps
    outer = np.outer(a, b)
    assert np.max(np.abs(two.amps - outer)) < 1e-10


def test_single_photon_reduction():
    two = apply_beamsplitter(fock_state(1), FIFTY)
    rho = partial_trace(two, "c")
    assert rho.rho[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert rho.rho[1, 1] == pytest.approx(0.5, abs=1e-12)
    assert abs(rho.rho[0, 1]) < 1e-14


def test_partial_trace_validates():
    two = apply_beamsplitter(glauber(0.8), FIFTY)
    rho = partial_trace(two, "c")
    assert abs(float(np.trace(rho.rho).real) - 1.0) < 1e-10
    with pytest.raises(ValidationError):
        partial_trace(two, "x")


def test_two_mode_state_must_be_unit_norm():
    with pytest.raises(ValidationError, match="unit norm"):
        TwoModeState(np.array([[1.0, 1.0], [0.0, 0.0]]))
    # a NaN norm fails the check too
    with pytest.raises(ValidationError, match="unit norm"):
        TwoModeState(np.array([[math.nan, 0.0], [0.0, 0.0]]))


def test_bad_density_matrix_rejected():
    # refused when built: there is no unchecked DensityMatrix
    with pytest.raises(ValidationError, match="not Hermitian"):
        DensityMatrix(np.array([[0.5, 0.4], [0.1, 0.5]], dtype=complex))
    with pytest.raises(ValidationError, match="trace must be 1"):
        DensityMatrix(np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        DensityMatrix(np.diag([1.2, -0.2]))
    with pytest.raises(ValidationError, match="square"):
        DensityMatrix(np.array([0.5, 0.5]))


@pytest.mark.parametrize("rho, message", [
    (np.full((2, 2), math.nan), "trace must be 1"),
    (np.array([[math.nan, 0.0], [0.0, 1.0]]), "trace must be 1"),
    (np.array([[0.5, 0.0], [0.0, math.nan]]), "trace must be 1"),
    (np.array([[0.5, math.nan], [math.nan, 0.5]]), "not Hermitian"),
    (np.array([[0.5, math.inf], [math.inf, 0.5]]), "not Hermitian"),
])
@pytest.mark.filterwarnings("error")
def test_density_matrix_with_nan_refused_when_built(rho, message):
    # each check is written so that a NaN fails it, and an inf entry is
    # refused without a RuntimeWarning from inf - inf
    with pytest.raises(ValidationError, match=message):
        DensityMatrix(rho)


def test_splitter_kernel_cached_read_only_and_bounded():
    kernel = beamsplitter._splitter_kernel
    assert kernel.cache_info().maxsize is not None
    assert kernel.cache_info().maxsize <= 4
    state = glauber(1.0, 64)
    apply_beamsplitter(state, FIFTY)
    misses = kernel.cache_info().misses
    for _ in range(3):
        apply_beamsplitter(state, FIFTY)
    assert kernel.cache_info().misses == misses  # built once per (n, t, r)
    k = kernel(64, FIFTY.t, FIFTY.r.real)
    assert k.dtype == np.float64 and not k.flags.writeable
    with pytest.raises(ValueError):
        k[0, 0] = 2.0


# ----------------------------------------------------------------- entropies

def test_linear_entropy_examples():
    pure = partial_trace(apply_beamsplitter(fock_state(0), FIFTY), "c")
    assert abs(linear_entropy(pure)) < 1e-10
    mixed = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    assert linear_entropy(mixed) == pytest.approx(0.5, rel=1e-12)
    coh = partial_trace(apply_beamsplitter(glauber(1.0), FIFTY), "c")
    assert abs(linear_entropy(coh)) < 1e-9


def test_von_neumann_examples():
    pure = partial_trace(apply_beamsplitter(glauber(0.7), FIFTY), "c")
    assert abs(von_neumann_entropy(pure)) < 1e-8
    half = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    assert von_neumann_entropy(half) == pytest.approx(math.log(2.0), rel=1e-12)
    skew = DensityMatrix(np.diag([0.9, 0.1]).astype(complex))
    assert von_neumann_entropy(skew) == pytest.approx(
        -0.9 * math.log(0.9) - 0.1 * math.log(0.1), rel=1e-10
    )
    assert von_neumann_entropy(skew) == pytest.approx(0.325083, abs=1e-6)


def test_von_neumann_entropy_reuses_the_checked_spectrum(monkeypatch):
    # the positivity check diagonalises rho; the entropy reads that spectrum
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    rho = partial_trace(apply_beamsplitter(nlcs(1.0, 0.1, 64), FIFTY), "c")
    s_vn = von_neumann_entropy(rho)
    assert len(calls) == 1
    eigs = eigvalsh(rho.rho)
    eigs = eigs[eigs >= 1e-14]
    assert s_vn == float(-np.sum(eigs * np.log(eigs)))


def test_entropy_bounds():
    for state in (nc_quiet(1.0, 2.0), ho_squeezed(1.0, 0.25)):
        rho = partial_trace(apply_beamsplitter(state, FIFTY), "c")
        s_lin = linear_entropy(rho)
        s_vn = von_neumann_entropy(rho)
        assert -1e-12 <= s_lin <= 1.0
        assert -1e-8 <= s_vn <= math.log(rho.dim)


def test_port_symmetry():
    for state in (nc_quiet(1.0, 1.0), nc_squeezed(0.8, 0.25, 0.1)):
        two = apply_beamsplitter(state, FIFTY)
        sc = linear_entropy(partial_trace(two, "c"))
        sd = linear_entropy(partial_trace(two, "d"))
        assert abs(sc - sd) < 1e-10


# --------------------------------------------------- closed form vs pipeline

@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("tau", [0.1, 0.5, 2.0])
def test_closed_form_matches_pipeline(alpha, tau):
    n_max = 20
    state = nc_quiet(alpha, tau, n_max)
    assert state.n_max == n_max or state.n_max > n_max
    n_use = state.n_max
    direct = linear_entropy(partial_trace(apply_beamsplitter(state, FIFTY), "c"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        closed = linear_entropy_closed_form(alpha, tau, FIFTY, n_use)
    assert abs(direct - closed) <= 1e-9


def test_closed_form_fast_equals_naive():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fast = linear_entropy_closed_form(1.0, 0.5, FIFTY, 12)
        naive = linear_entropy_closed_form_naive(1.0, 0.5, FIFTY, 12)
    assert fast == pytest.approx(naive, abs=1e-12)


def test_closed_form_complex_alpha_and_general_splitter():
    # the equivalence is phase-robust: complex displacement, any angle/phase
    bs = BeamSplitter(theta=1.1, phi=0.6)
    for alpha, tau, splitter in (
        (0.5 + 0.8j, 0.5, FIFTY),
        (1.2 - 0.4j, 2.0, FIFTY),
        (1.0 + 0.5j, 1.0, bs),
    ):
        state = nc_quiet(alpha, tau, 24)
        direct = linear_entropy(
            partial_trace(apply_beamsplitter(state, splitter), "c")
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            closed = linear_entropy_closed_form(alpha, tau, splitter, state.n_max)
        assert abs(direct - closed) <= 1e-9


def test_closed_form_tau_zero_null():
    for alpha in (0.5, 1.5):
        val = linear_entropy_closed_form(alpha, 0.0, FIFTY, 40)
        assert abs(val) <= 1e-9


def test_closed_form_boundary_warning():
    # deliberately tiny truncation: the boundary terms matter and warn
    with pytest.warns(UserWarning, match="boundary"):
        linear_entropy_closed_form(2.0, 0.0, FIFTY, 6)


def test_closed_form_boundary_warning_names_the_scans_caller():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        entropy_scan("nlcs", [2.0], [0.1], n_max=6)
    boundary = [w for w in caught if "boundary" in str(w.message)]
    assert boundary and all(w.filename == __file__ for w in boundary)


def boundary_share_explicit(d_mat):
    """sum |D^H D|^2 less the same sum with the anti-diagonal m + q = n - 1
    of D zeroed, from a second full product; reference only."""
    n = d_mat.shape[0]
    total = float(np.sum(np.abs(d_mat.conj().T @ d_mat) ** 2))
    d_inner = d_mat.copy()
    idx = np.arange(n)
    d_inner[idx, n - 1 - idx] = 0.0
    return total, total - float(np.sum(np.abs(d_inner.conj().T @ d_inner) ** 2))


def _closed_form_d(alpha, tau, bs, n_max):
    coeffs = nc_coherent_coeffs(alpha, tau, n_max)
    return beamsplitter._transform_matrix(coeffs, abs(bs.t), abs(bs.r)).T


@pytest.mark.parametrize("n_max", [5, 64, 256])
def test_boundary_share_matches_second_product(n_max):
    for alpha, tau, bs in ((2.0, 0.0, FIFTY), (0.5 + 0.3j, 0.2, BeamSplitter(1.1, 0.6)),
                           (3.5 - 1.0j, 0.3, BeamSplitter(0.4, 2.0))):
        d_mat = _closed_form_d(alpha, tau, bs, n_max)
        total, want = boundary_share_explicit(d_mat)
        got = beamsplitter._boundary_share(d_mat, d_mat.conj().T @ d_mat)
        assert abs(got - want) <= 1e-12 * total
        if n_max == 5:  # the boundary is a sizeable share here
            assert want > 1e-4 * total
            assert abs(got - want) <= 1e-12 * abs(want)


def test_closed_form_boundary_warning_where_second_product_warned():
    fired = []
    for n_max in (3, 4, 6, 8, 12, 16, 24, 32):
        for alpha in (0.5, 1.0, 2.0, 3.0):
            total, share = boundary_share_explicit(_closed_form_d(alpha, 0.1, FIFTY, n_max))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                linear_entropy_closed_form(alpha, 0.1, FIFTY, n_max)
            warned = any("boundary" in str(w.message) for w in caught)
            assert warned == (abs(share) > 1e-12 * total), (n_max, alpha)
            fired.append(warned)
    assert any(fired) and not all(fired)


def test_squeezed_entropy_saturates_in_tau():
    # at fixed zeta the entropy climbs with tau and decelerates toward a
    # plateau
    vals = []
    for tau in (0.0, 0.5, 1.0, 2.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PerturbativeRegimeWarning)
            state = nc_squeezed(1.0, 0.5, tau)
        vals.append(
            linear_entropy(partial_trace(apply_beamsplitter(state, FIFTY), "c"))
        )
    assert vals[0] < vals[1] < vals[2] < vals[3]
    assert (vals[3] - vals[2]) < (vals[2] - vals[1])


def test_entropy_grows_with_tau():
    values = []
    for tau in (0.0, 0.5, 1.0, 2.0):
        state = nc_quiet(1.0, tau)
        values.append(
            linear_entropy(partial_trace(apply_beamsplitter(state, FIFTY), "c"))
        )
    assert all(b > a - 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] > 0.1


# ----------------------------------------- real route against the complex one

def transform_matrix_complex(c, t, r):
    """The transform in complex arithmetic, the binomial table rebuilt on
    every call; reference only."""
    n = len(c)
    q = np.arange(n)
    lf = log_factorial_table(2 * n - 1)
    hankel = np.lib.stride_tricks.sliding_window_view
    binom_half = hankel(lf, n) - lf[:n, None]
    binom_half -= lf[:n]
    binom_half *= 0.5
    np.exp(binom_half, out=binom_half)
    out = hankel(np.concatenate([c, np.zeros(n - 1, dtype=complex)]), n) * binom_half
    out *= (t ** q)[:, None]
    out *= r ** q
    return out


def reduced_state_complex(state, bs):
    """rho_c = M M^H from the complex transform; reference only."""
    m = transform_matrix_complex(state.amps, bs.t, bs.r)
    m /= math.sqrt(float(np.sum(np.abs(m) ** 2)))
    return m @ m.conj().T


def closed_form_complex(alpha, tau, bs, n_max):
    """1 - tr((D^H D)^2) / |c|^4 from the complex transform; reference only."""
    coeffs = nc_coherent_coeffs(alpha, tau, n_max)
    d_mat = transform_matrix_complex(coeffs, abs(bs.t), abs(bs.r)).T
    e_mat = d_mat.conj().T @ d_mat
    return 1.0 - float(np.sum(np.abs(e_mat) ** 2)) / float(np.sum(np.abs(coeffs) ** 2)) ** 2


@pytest.mark.parametrize("n_max", [5, 64, 256])
@pytest.mark.parametrize("theta, phi", [(math.pi / 2, 0.0), (1.1, 0.6)])
@pytest.mark.parametrize("family", ["glauber", "nlcs", "nc-squeezed", "ho-squeezed"])
def test_real_route_matches_complex_route(family, theta, phi, n_max):
    bs = BeamSplitter(theta=theta, phi=phi)
    spec = FAMILIES[family]
    # each family is given only the options it reads
    alphas = [0.5, 1.5]
    tau = 0.2 if "tau" in spec.requires else 0.0
    zeta = 0.2 if "zeta" in spec.defaults else 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = entropy_scan(family.replace("-", "_"), alphas, [tau] if tau else None,
                             zeta=zeta or None, bs=bs, n_max=n_max)
        for alpha, row in zip(alphas, table.rows):
            row = dict(zip(table.columns, row))
            assert (row["tau"], row["zeta"]) == (tau, zeta)
            p = SimpleNamespace(alpha=alpha, tau=tau, zeta=zeta, basis="perturbed")
            state = FAMILIES[family].build(p, n_max)
            real = partial_trace(apply_beamsplitter(state, BeamSplitter(theta)), "c")
            assert real.rho.dtype == np.float64
            want = 1.0 - float(np.sum(np.abs(reduced_state_complex(state, bs)) ** 2))
            assert abs(row["S_direct"] - want) <= 1e-15
            if family in ("glauber", "nlcs"):
                # glauber is nlcs at tau = 0
                closed = linear_entropy_closed_form(alpha, tau, bs, state.n_max)
                want = closed_form_complex(alpha, tau, bs, state.n_max)
                assert abs(closed - want) <= 1e-15
                if family == "nlcs":
                    assert abs(row["S_closed"] - want) <= 1e-15


def test_complex_amplitudes_take_the_complex_route():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PerturbativeRegimeWarning)
        cases = ((nlcs(0.5 + 0.8j, 0.5, 24), FIFTY),
                 (gk_coherent(1.5, 0.3, 0.1, 32), FIFTY),
                 (gk_coherent(1.5, 0.3, 0.1, 32), BeamSplitter(1.1, 0.6)),
                 (glauber(1.0, 32), BeamSplitter(1.1, 0.6)),  # real state, phi != 0
                 (glauber(1.0 + 1e-12j, 32), FIFTY))  # tiny, but not zero
    for state, bs in cases:
        rho = partial_trace(apply_beamsplitter(state, bs), "c").rho
        assert rho.dtype == np.complex128
        assert np.max(np.abs(rho - reduced_state_complex(state, bs))) <= 1e-15


# ------------------------------------------- products over the state's support

def transform_matrix_untrimmed(c, t, r):
    """M on the whole n x n grid, every level of c kept, from the same
    kernel and in the same arithmetic as the library; reference only."""
    n = len(c)
    if np.iscomplexobj(c) and not c.imag.any():
        c = c.real
    padded = np.concatenate([c, np.zeros(n - 1, dtype=c.dtype)])
    return (np.lib.stride_tricks.sliding_window_view(padded, n)
            * beamsplitter._splitter_kernel(n, t, r))


def support(c):
    """One past the last level with |c| >= 2^-300 max|c|."""
    mag = np.abs(c)
    return int(np.flatnonzero(mag >= 2.0**-300 * mag.max())[-1]) + 1


def assert_zero_past_support(amps, k):
    q = np.arange(len(amps))
    assert np.all(amps[(q[:, None] + q) >= k] == 0)


@pytest.mark.parametrize("alpha", [1.18, 2.05, 2.67])
def test_trimmed_products_match_the_untrimmed_ones(alpha):
    tau, n_max = 0.16, 256
    state = nc_quiet(alpha, tau, n_max)
    k = support(state.amps)
    assert state.n_max == n_max and k < n_max
    full = transform_matrix_untrimmed(state.amps, FIFTY.t, FIFTY.r.real)
    if alpha == 1.18:  # the untrimmed product runs over subnormal entries
        assert np.count_nonzero((full != 0) & (np.abs(full) < np.finfo(float).tiny)) > 2000
    full /= math.sqrt(float(np.sum(full**2)))
    rho_full = full @ full.T
    two = apply_beamsplitter(state, FIFTY)
    assert_zero_past_support(two.amps, k)
    rho = partial_trace(two, "c").rho
    assert np.max(np.abs(rho - rho_full)) <= 2.0**-290
    assert linear_entropy(partial_trace(two, "c")) == 1.0 - float(np.sum(rho_full**2))

    coeffs = nc_coherent_coeffs(alpha, tau, n_max)
    d_full = transform_matrix_untrimmed(coeffs, FIFTY.t, abs(FIFTY.r)).T
    want = 1.0 - (float(np.sum((d_full.T @ d_full) ** 2))
                  / float(np.sum(np.abs(coeffs) ** 2)) ** 2)
    assert linear_entropy_closed_form(alpha, tau, FIFTY, n_max) == want
    assert_zero_past_support(_closed_form_d(alpha, tau, FIFTY, n_max), support(coeffs))


@pytest.mark.parametrize("port", ["c", "d"])
def test_state_without_tiny_levels_gives_the_untrimmed_arrays(port):
    rng = np.random.default_rng(7)
    amps = rng.normal(size=64) + 0.5
    state = FockState(amps / np.linalg.norm(amps), 0.0, "random")
    assert support(state.amps) == 64
    m = beamsplitter._transform_matrix(state.amps, FIFTY.t, FIFTY.r)
    full = transform_matrix_untrimmed(state.amps, FIFTY.t, FIFTY.r.real)
    assert np.array_equal(m, full)
    two = apply_beamsplitter(state, FIFTY)
    full /= math.sqrt(float(np.sum(full**2)))
    assert np.array_equal(two.amps, full)
    want = full @ full.T if port == "c" else full.T @ full
    assert np.array_equal(partial_trace(two, port).rho, want)


def test_complex_route_is_trimmed_too():
    state = gk_coherent(1.5, 0.3, 0.1, 256)
    k = support(state.amps)
    assert state.n_max == 256 and k < 256
    two = apply_beamsplitter(state, FIFTY)
    assert two.amps.dtype == np.complex128
    assert_zero_past_support(two.amps, k)
    rho = partial_trace(two, "c").rho
    assert np.max(np.abs(rho - reduced_state_complex(state, FIFTY))) <= 1e-15


def test_hankel_view_matches_sliding_window_and_is_read_only():
    rng = np.random.default_rng(3)
    for x in (rng.normal(size=9), rng.normal(size=12) + 1j * rng.normal(size=12)):
        for n in (1, 4, len(x)):
            view = beamsplitter._hankel(x, n)
            assert np.array_equal(view, np.lib.stride_tricks.sliding_window_view(x, n))
            with pytest.raises(ValueError):
                view[0, 0] = 1.0


# -------------------------------------------- the gate on the boundary share

@settings(database=None, derandomize=True, deadline=None, max_examples=60)
@given(alpha=st.floats(0.0, 4.0), tau=st.floats(0.0, 0.5), n_max=st.integers(3, 64))
def test_boundary_warning_fires_exactly_when_the_share_is_large(alpha, tau, n_max):
    total, share = boundary_share_explicit(_closed_form_d(alpha, tau, FIFTY, n_max))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        linear_entropy_closed_form(alpha, tau, FIFTY, n_max)
    warned = any("boundary" in str(w.message) for w in caught)
    assert warned == (abs(share) > 1e-12 * total)


def test_scan_point_at_n_max_64_skips_the_boundary_share(monkeypatch):
    def boom(*args):
        raise AssertionError("boundary share computed")

    monkeypatch.setattr(beamsplitter, "_boundary_share", boom)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PerturbativeRegimeWarning)
        table = entropy_scan("nlcs", [0.5, 1.5, 2.5], [0.05, 0.3], n_max=64)
        assert all(row[-1] == "" and math.isfinite(row[4]) for row in table.rows)
        with pytest.raises(AssertionError, match="boundary share"):
            entropy_scan("nlcs", [2.0], [0.1], n_max=6)


# ------------------------------------------------ one Gram per scan point

@pytest.mark.parametrize("n_max", [64, 256])
def test_nlcs_scan_point_takes_one_transform_and_one_gram(monkeypatch, n_max):
    counts = dict.fromkeys(("_transform_matrix", "_leading_gram", "_boundary_share"), 0)
    for name in counts:
        def counted(*args, _real=getattr(beamsplitter, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(beamsplitter, name, counted)
    monkeypatch.setattr(beamsplitter, "nc_coherent_coeffs", None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PerturbativeRegimeWarning)
        table = entropy_scan("nlcs", [0.5, 1.5, 2.5], [0.05, 0.3], n_max=n_max)
    assert all(row[-1] == "" and math.isfinite(row[4]) for row in table.rows)
    assert counts == {"_transform_matrix": 6, "_leading_gram": 6, "_boundary_share": 0}


@pytest.mark.parametrize("alpha, levels", [(0.5, 25), (1.0, 32)])
def test_scan_point_reads_both_entropies_off_one_gram(alpha, levels):
    tau = 0.1
    # past `levels` every coefficient is below 1e-17 of the largest, so the
    # quadruple loop over that many levels stands for any longer truncation
    mag = np.abs(nc_coherent_coeffs(alpha, tau, 256))
    assert mag[levels:].max() < 1e-17 * mag.max()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        naive = linear_entropy_closed_form_naive(alpha, tau, FIFTY, levels)
        for n_max in (6, 64, 256):
            row = dict(zip(("S_direct", "S_closed"),
                           entropy_scan("nlcs", [alpha], [tau], n_max=n_max).rows[0][3:5]))
            state = nlcs(alpha, tau, n_max)
            direct = linear_entropy(partial_trace(apply_beamsplitter(state, FIFTY), "c"))
            assert row["S_direct"] == direct
            closed = linear_entropy_closed_form(alpha, tau, FIFTY, state.n_max)
            assert abs(row["S_closed"] - closed) <= 2e-15
            if state.n_max < levels:  # n_max 6 doubles to 12 levels only
                naive_here = linear_entropy_closed_form_naive(alpha, tau, FIFTY, state.n_max)
            else:
                naive_here = naive
            assert abs(row["S_closed"] - naive_here) <= 1e-12


# -------------------------------------------------------------------- scans

def test_scan_single_point_matches_direct():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = entropy_scan("nlcs", [1.0], [0.5], n_max=32)
        state = nlcs(1.0, 0.5, 32)
    direct = linear_entropy(partial_trace(apply_beamsplitter(state, FIFTY), "c"))
    assert len(table.rows) == 1
    row = dict(zip(table.columns, table.rows[0]))
    assert row["S_direct"] == pytest.approx(direct, abs=1e-12)
    assert row["S_closed"] == pytest.approx(direct, abs=1e-9)
    assert row["flag"] == ""


def test_scan_squeezed_ordering():
    alphas = np.linspace(0.0, 2.5, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        nc_table = entropy_scan("nc_squeezed", alphas, [0.5], zeta=0.25, n_max=40)
        ho_table = entropy_scan("ho_squeezed", alphas, None, zeta=0.25, n_max=40)
    nc_vals = nc_table.column("S_direct")
    ho_vals = ho_table.column("S_direct")
    assert all(a >= b - 1e-10 for a, b in zip(nc_vals, ho_vals))


def test_scan_never_aborts_on_point_failure():
    # alpha far outside what a 512-level truncation can hold
    table = entropy_scan("glauber", [1.0, 25.0], None, n_max=16)
    flags = table.column("flag")
    assert flags[0] == ""
    assert flags[1] == "TruncationError"
    assert math.isnan(table.rows[1][3])


def test_scan_validation():
    with pytest.raises(ValidationError):
        entropy_scan("nope", [1.0], [0.1])
    with pytest.raises(ValidationError):
        entropy_scan("nlcs", [], [0.1])


@pytest.mark.parametrize("family, tau_grid, zeta, message", [
    # nlcs used to run at tau = 0 and glauber to write the tau it did not read
    ("nlcs", None, None, "--taus is required for nlcs"),
    ("nc_squeezed", None, 0.2, "--taus is required for nc-squeezed"),
    ("glauber", [0.3], None, "--taus contradicts family glauber"),
    ("glauber", [0.3], 0.2, "--taus contradicts family glauber"),
    ("glauber", None, 0.0, "--zeta contradicts family glauber"),
    ("ho_squeezed", [0.3], 0.2, "--taus contradicts family ho-squeezed"),
    ("nlcs", [0.3], 0.2, "--zeta contradicts family nlcs"),
    ("nlcs", [0.3], 0.0, "--zeta contradicts family nlcs"),
])
def test_scan_refuses_what_its_family_does_not_read(monkeypatch, family, tau_grid, zeta,
                                                     message):
    monkeypatch.setattr(beamsplitter, "_scan_point", None)  # refused before any point
    with pytest.raises(ValidationError, match=f"^{message}$"):
        entropy_scan(family, [1.0], tau_grid, zeta=zeta)


@pytest.mark.parametrize("family, tau_grid, zeta, want", [
    ("glauber", None, None, (0.0, 0.0)),
    ("nlcs", [0.3], None, (0.3, 0.0)),
    ("nc_squeezed", [0.3], None, (0.3, 0.0)),
    ("nc_squeezed", [0.3], 0.2, (0.3, 0.2)),
    ("ho_squeezed", None, None, (0.0, 0.0)),
    ("ho_squeezed", None, 0.2, (0.0, 0.2)),
])
def test_scan_writes_0_for_what_its_family_does_not_read(family, tau_grid, zeta, want):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = entropy_scan(family, [0.5, 1.0], tau_grid, zeta=zeta, n_max=16)
    assert [tuple(row[1:3]) for row in table.rows] == [want, want]
    assert table.provenance["zeta"] == format(want[1], ".17g")
    assert table.column("flag") == ["", ""]


# ------------------------------------------ rows of states against points

def scan_by_points(family, alphas, tau, zeta, n_max):
    """(S_direct, flag, n_max used) of each alpha: the family's public
    constructor, one point at a time, then the public pipeline; reference only."""
    build = {"glauber": lambda a: glauber(a, n_max),
             "nlcs": lambda a: nlcs(a, tau, n_max),
             "nc-squeezed": lambda a: nc_squeezed(a, zeta, tau, n_max),
             "ho-squeezed": lambda a: ho_squeezed(a, zeta, n_max)}[family]
    out = []
    for a in alphas:
        try:
            state = build(a)
        except DefockError as exc:
            out.append((float("nan"), type(exc).__name__, None))
            continue
        rho = partial_trace(apply_beamsplitter(state, FIFTY), "c")
        out.append((linear_entropy(rho), "", state.n_max))
    return out


# each family's tau and zeta, as the scan takes them (None: not given)
_ROW_OPTIONS = {"glauber": (None, None), "nlcs": (0.2, None),
                "nc-squeezed": (0.2, 0.25), "ho-squeezed": (None, 0.25)}


def assert_rows_are_points(family, alphas, n_max):
    tau, zeta = _ROW_OPTIONS[family]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = entropy_scan(family.replace("-", "_"), alphas, None if tau is None else [tau],
                             zeta=zeta, n_max=n_max)
        want = scan_by_points(family, alphas, tau or 0.0, zeta or 0.0, n_max)
    got = [(row[3], row[5]) for row in table.rows]
    # bit patterns, so that the last bit of an entropy shows
    assert [(np.float64(s).tobytes(), flag) for s, flag in got] == \
        [(np.float64(s).tobytes(), flag) for s, flag, _ in want]
    return [used for _, _, used in want]


@pytest.mark.parametrize("n_max", [1, 2, 3, 64, 256])
@pytest.mark.parametrize("family", list(_ROW_OPTIONS))
def test_scan_rows_are_bit_equal_to_one_state_at_a_time(family, n_max, monkeypatch):
    rows = []
    real_recurrence = states._real_recurrence
    monkeypatch.setattr(states, "_real_recurrence",
                        lambda alphas, *args: rows.append(len(alphas))
                        or real_recurrence(alphas, *args))
    # the grid starts at alpha = 0; a squeezed row of 8 alphas or more
    # runs the recurrence's float64 loop, and one state its complex loop
    assert_rows_are_points(family, np.linspace(0.0, 2.2, 11), n_max)
    assert bool(rows) == family.endswith("squeezed")
    # negative alphas, which take the per-alpha complex loop
    assert_rows_are_points(family, np.linspace(-2.2, 0.4, 9), n_max)


@pytest.mark.parametrize("family", list(_ROW_OPTIONS))
def test_scan_row_where_only_some_points_double(family):
    used = assert_rows_are_points(family, np.linspace(0.0, 3.5, 12), 16)
    assert used[0] == 16 and max(used) > 16


@pytest.mark.parametrize("family", list(_ROW_OPTIONS))
def test_scan_flags_only_the_points_that_fail(family):
    # as entropy-scan --alphas=-1e308,0.5,1e308: only the outer two fail
    assert_rows_are_points(family, [-1e308, 0.5, 1e308], 64)
    table = entropy_scan(family.replace("-", "_"), [-1e308, 0.5, 1e308],
                         [0.2] if family in ("nlcs", "nc-squeezed") else None,
                         zeta=_ROW_OPTIONS[family][1], n_max=64)
    assert table.column("flag") == ["TruncationError", "", "TruncationError"]
    # a row of 8 non-negative alphas, whose squeezed series overflows for two
    assert_rows_are_points(family, [0.0, 0.5, 1e200, 1.0, 1e308, 1.5, 2.0, 2.5, 0.25], 64)


def test_every_family_that_fits_the_grid_has_a_row_builder():
    assert {name for name, spec in FAMILIES.items() if spec.scannable} == \
        {name for name, spec in FAMILIES.items() if set(spec.requires) <= {"tau"}}


@pytest.mark.parametrize("tau, zeta, basis", [(0.2, 0.25, "perturbed"), (0.05, -0.4, "bare"),
                                              (0.0, 0.0, "perturbed")])
@pytest.mark.parametrize("family", [name for name, spec in FAMILIES.items() if spec.scannable])
def test_row_builder_reads_the_options_as_build_does(family, tau, zeta, basis):
    # a family's rows and build read the same options the same way: each
    # state of a row is the state that build makes at its alpha
    spec = FAMILIES[family]
    rows = [[0.4 - 0.9j], [-1.3], list(np.linspace(0.0, 2.0, 9))]  # the last: a float64 row
    for alphas in rows:
        got = list(spec.rows(np.array(alphas), SimpleNamespace(tau=tau, zeta=zeta, basis=basis),
                             24))
        for alpha, state in zip(alphas, got):
            p = SimpleNamespace(**{**spec.defaults, "tau": tau, "zeta": zeta, "basis": basis,
                                   "alpha": complex(alpha)})
            want = spec.build(p, 24)
            assert (state.amps.tobytes(), state.tail_mass, state.n_max) == \
                (want.amps.tobytes(), want.tail_mass, want.n_max)


def test_n_max_bound(monkeypatch):
    # checked before any point runs: a point would only flag the error
    monkeypatch.setattr(beamsplitter, "_scan_point", None)
    with pytest.raises(ValidationError, match="n_max"):
        entropy_scan("glauber", [0.5, 1.0], None, n_max=MAX_N_MAX + 1)
    with pytest.raises(ValidationError, match="n_max"):
        linear_entropy_closed_form(1.0, 0.1, FIFTY, MAX_N_MAX + 1)


def test_n_max_at_bound_still_runs():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = entropy_scan("nlcs", [1.0], [0.1], n_max=MAX_N_MAX)
    row = dict(zip(table.columns, table.rows[0]))
    assert row["flag"] == ""
    assert row["S_direct"] == pytest.approx(row["S_closed"], abs=1e-9)


# ---------------------------------------------- the Gram on one OpenBLAS thread

needs_openblas = pytest.mark.skipif(
    beamsplitter._OPENBLAS is None,
    reason="numpy's BLAS has no OpenBLAS thread-count symbol: there is no count to check")


@pytest.fixture
def blas_count():
    """(get, set) of the OpenBLAS thread count, or None under another BLAS;
    the count before the test is put back after it."""
    pair = beamsplitter._OPENBLAS
    saved = pair and pair[0]()
    yield pair
    if saved:
        pair[1](saved)


class _ProductProbe(np.ndarray):
    """An array whose ``@`` records the OpenBLAS thread count it runs at,
    then computes the product, or raises if ``fail`` is set."""

    counts: list = []
    fail = False

    def __matmul__(self, other):
        _ProductProbe.counts.append(beamsplitter._OPENBLAS[0]())
        if _ProductProbe.fail:
            raise RuntimeError("product failed")
        return np.asarray(self) @ np.asarray(other)


def _gram_unpinned(a):
    """_leading_gram's block product as plain numpy runs it; reference only."""
    p = int(np.flatnonzero(a.any(axis=1))[-1]) + 1
    s = int(np.flatnonzero(a.any(axis=0))[-1]) + 1
    out = np.zeros((a.shape[0], a.shape[0]), dtype=a.dtype)
    out[:p, :p] = a[:p, :s] @ a[:p, :s].conj().T
    return out


def _random_transform(n_max, dtype, levels):
    rng = np.random.default_rng(7)
    c = rng.standard_normal(n_max)
    if dtype is complex:
        c = c + 1j * rng.standard_normal(n_max)
    c[levels:] = 0.0
    return beamsplitter._unit_transform(c / np.linalg.norm(c), FIFTY.t, FIFTY.r)[0]


@needs_openblas
@pytest.mark.parametrize("caller", [1, 2])
def test_gram_runs_on_one_thread_and_restores_the_callers_count(blas_count, monkeypatch,
                                                                caller):
    get, set_ = blas_count
    set_(caller)
    caller = get()
    monkeypatch.setattr(_ProductProbe, "counts", [])
    m = _random_transform(64, float, 64)
    gram = beamsplitter._leading_gram(m.view(_ProductProbe))
    assert _ProductProbe.counts == [1] and get() == caller
    assert np.array_equal(gram, _gram_unpinned(m))
    two = apply_beamsplitter(nc_quiet(1.2, 0.2, 256), FIFTY)
    for port in ("c", "d"):
        partial_trace(two, port)
        assert get() == caller
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = entropy_scan("nlcs", [0.5, 2.7], [0.2], n_max=256)
    assert get() == caller
    assert all(row[-1] == "" for row in table.rows)


@needs_openblas
@pytest.mark.parametrize("caller", [1, 2])
def test_count_restored_when_the_product_raises(blas_count, monkeypatch, caller):
    get, set_ = blas_count
    set_(caller)
    caller = get()
    monkeypatch.setattr(_ProductProbe, "counts", [])
    monkeypatch.setattr(_ProductProbe, "fail", True)
    with pytest.raises(RuntimeError, match="product failed"):
        beamsplitter._leading_gram(_random_transform(64, complex, 64).view(_ProductProbe))
    assert _ProductProbe.counts == [1] and get() == caller


@needs_openblas
@pytest.mark.parametrize("caller", [None, 3])
def test_importing_the_cli_leaves_the_thread_count_alone(caller):
    # a fresh interpreter: this one has imported defock already
    src = str(Path(defock.__file__).resolve().parent.parent)
    probe = (
        "import ctypes, sys\n"
        "import numpy\n"
        "lib = ctypes.CDLL(numpy.linalg._umath_linalg.__file__)\n"
        "names = ('scipy_openblas_get_num_threads64_', 'openblas_get_num_threads64_',\n"
        "         'openblas_get_num_threads')\n"
        "get = next(getattr(lib, g) for g in names if hasattr(lib, g))\n"
        "set_ = getattr(lib, get.__name__.replace('get', 'set'))\n"
        f"if {caller!r}:\n"
        f"    set_({caller!r})\n"
        "before = get()\n"
        f"sys.path.insert(0, {src!r})\n"
        "import defock.cli\n"
        "print(before, get(), 'defock.beamsplitter' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=120)
    before, after, loaded = done.stdout.split()
    assert after == before and loaded == "True"
    if caller:
        assert before == str(caller)


@pytest.mark.parametrize("n_max", [64, 256])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("support", ["full", "trimmed"])
def test_pinned_gram_bit_equal_to_the_unpinned_product(blas_count, n_max, dtype, support):
    if blas_count:
        blas_count[1](2)
    levels = n_max if support == "full" else n_max // 4
    m = _random_transform(n_max, dtype, levels)
    full = bool(m[-1].any() and m[:, -1].any())
    assert full == (support == "full") and m.dtype == dtype
    assert np.array_equal(beamsplitter._leading_gram(m), _gram_unpinned(m))


@needs_openblas
def test_pinned_gram_is_the_one_thread_product_where_two_threads_round_apart(blas_count):
    # the real n_max 256 Gram of an nlcs scan point: OpenBLAS at two threads
    # rounds 8 of its 122^2 entries differently, by an ulp each, so the pin
    # gives the one-thread product, within the dot-product rounding bound
    # of the two-thread one, whatever the caller's count
    get, set_ = blas_count
    m, _ = beamsplitter._unit_transform(nc_quiet(2.7, 0.2, 256).amps, FIFTY.t, FIFTY.r)
    set_(1)
    one = _gram_unpinned(m)
    set_(2)
    two = _gram_unpinned(m)
    pinned = beamsplitter._leading_gram(m)
    assert np.array_equal(pinned, one) and get() == 2
    k = int(np.flatnonzero(m.any(axis=0))[-1]) + 1
    norms = np.sqrt(np.diag(two))
    assert np.all(np.abs(pinned - two) <= 2 * k * np.finfo(float).eps * np.outer(norms, norms))


def test_gram_without_openblas_symbols_runs_the_product_as_is(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda path: SimpleNamespace())
    assert beamsplitter._openblas_threads() is None
    m = _random_transform(256, complex, 200)
    two = apply_beamsplitter(nc_quiet(2.7, 0.2, 256), FIFTY)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pinned_rows = entropy_scan("nlcs", [0.5, 2.7], [0.2], n_max=256).rows
        monkeypatch.setattr(beamsplitter, "_OPENBLAS", None)
        rows = entropy_scan("nlcs", [0.5, 2.7], [0.2], n_max=256).rows
        rho = partial_trace(two).rho
    assert np.array_equal(beamsplitter._leading_gram(m), _gram_unpinned(m))
    assert np.array_equal(rho, _gram_unpinned(two.amps))
    assert rows == pinned_rows
