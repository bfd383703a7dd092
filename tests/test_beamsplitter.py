import concurrent.futures
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from defock import beamsplitter
from defock.beamsplitter import (
    BeamSplitter,
    DensityMatrix,
    apply_beamsplitter,
    entropy_scan,
    linear_entropy,
    linear_entropy_closed_form,
    partial_trace,
    split_fock,
    von_neumann_entropy,
)
from defock.errors import PerturbativeRegimeWarning, ValidationError
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

FIFTY = BeamSplitter.fifty_fifty()


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


def test_split_fock_examples():
    assert split_fock(0, FIFTY) == [(0, (1 + 0j))]

    one = dict(split_fock(1, FIFTY))
    assert one[1] == pytest.approx(1 / math.sqrt(2), rel=1e-14)
    assert one[0] == pytest.approx(-1 / math.sqrt(2), rel=1e-14)

    two = dict(split_fock(2, FIFTY))
    probs = {q: abs(c) ** 2 for q, c in two.items()}
    assert probs[2] == pytest.approx(0.25, rel=1e-12)
    assert probs[1] == pytest.approx(0.50, rel=1e-12)
    assert probs[0] == pytest.approx(0.25, rel=1e-12)

    with pytest.raises(ValidationError):
        split_fock(-1, FIFTY)


def test_split_fock_binomial_oracle():
    n = 7
    bs = BeamSplitter(theta=1.1, phi=0.4)
    for q, coeff in split_fock(n, bs):
        ref = math.sqrt(math.comb(n, q)) * bs.t**q * bs.r ** (n - q)
        assert coeff == pytest.approx(ref, rel=1e-12)
    total = sum(abs(c) ** 2 for _, c in split_fock(n, bs))
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


def test_bad_density_matrix_rejected():
    with pytest.raises(ValidationError):
        DensityMatrix(np.array([[0.5, 0.4], [0.1, 0.5]], dtype=complex)).validate()
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([0.7, 0.7]).astype(complex)).validate()


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
    alphas, tau, zeta = [0.5, 1.5], 0.2, 0.2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = entropy_scan(family.replace("-", "_"), alphas, [tau], zeta=zeta,
                             bs=bs, n_max=n_max)
        for alpha, row in zip(alphas, table.rows):
            row = dict(zip(table.columns, row))
            p = SimpleNamespace(alpha=alpha, tau=tau, zeta=zeta, basis="perturbed")
            state = FAMILIES[family].build(p, n_max)
            real = partial_trace(apply_beamsplitter(state, BeamSplitter(theta)), "c")
            assert real.rho.dtype == np.float64
            want = 1.0 - float(np.sum(np.abs(reduced_state_complex(state, bs)) ** 2))
            assert abs(row["S_direct"] - want) <= 1e-15
            if family in ("glauber", "nlcs"):
                tau_cf = tau if family == "nlcs" else 0.0
                closed = linear_entropy_closed_form(alpha, tau_cf, bs, state.n_max)
                want = closed_form_complex(alpha, tau_cf, bs, state.n_max)
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


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps inline."""

    def __init__(self, seen, max_workers):
        seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_scan_workers_clamped_to_cpu_count(monkeypatch):
    seen = []
    # entropy_scan imports the pool class from concurrent.futures when it
    # needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: RecordingPool(seen, max_workers))
    monkeypatch.setattr(beamsplitter.os, "cpu_count", lambda: 2)
    table = entropy_scan("glauber", [0.5, 1.0, 1.5], None, n_max=16, workers=10**6)
    assert seen == [2]
    assert len(table.rows) == 3
    monkeypatch.setattr(beamsplitter.os, "cpu_count", lambda: None)
    entropy_scan("glauber", [0.5], None, n_max=16, workers=8)
    assert seen == [2]  # one usable CPU: no pool at all
    for bad in (0, -3):
        with pytest.raises(ValidationError):
            entropy_scan("glauber", [0.5], None, n_max=16, workers=bad)


def test_scan_workers_deterministic():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        seq = entropy_scan("nlcs", [0.5, 1.0], [0.1], n_max=24, workers=1)
        par = entropy_scan("nlcs", [0.5, 1.0], [0.1], n_max=24, workers=2)
    assert seq.rows == par.rows
