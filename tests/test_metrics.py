import math
import tracemalloc

import numpy as np
import pytest

from defock import metrics
from defock.deform import Deformation
from defock.errors import DegenerateStateError, TruncationError, ValidationError
from defock.metrics import (
    NonclassicalityReport,
    apply_ladder,
    detect_peaks,
    g2_zero,
    gk_autocorrelation,
    gk_uncertainty_product,
    ladder_weights,
    mandel_q,
    nonclassicality_report,
    photon_distribution,
    quadrature_stats,
    revival_times,
    xp_uncertainty,
)
from defock.states import (
    FockState,
    cat_q,
    gk_coherent,
    glauber,
    nc_squeezed,
    nlcs,
    pacs_q,
    q_coherent,
)

HARMONIC = Deformation.harmonic()


def fock_state(n, n_max=32):
    amps = np.zeros(n_max, dtype=complex)
    amps[n] = 1.0
    return FockState(amps, 0.0, f"fock({n})")


# ------------------------------------------------------------------ ladders

def test_lower_vacuum_is_zero():
    v = fock_state(0)
    out = apply_ladder(v, HARMONIC)
    assert np.max(np.abs(out)) == 0.0


def test_lower_glauber_gives_alpha_times_state():
    g = glauber(0.7 + 0.2j)
    out = apply_ladder(g, HARMONIC)
    resid = out - (0.7 + 0.2j) * g.amps
    resid[-2:] = 0.0
    assert np.linalg.norm(resid) < 1e-12


def test_q_lower_on_fock():
    d = Deformation.q_deformed(0.5)
    out = apply_ladder(fock_state(2), d)
    assert out[1] == pytest.approx(math.sqrt(1.25), rel=1e-14)
    assert np.sum(np.abs(out) > 0) == 1


def test_raise_headroom_guard():
    amps = np.zeros(8, dtype=complex)
    amps[-1] = 1.0
    s = FockState(amps, 0.0, "boundary")
    with pytest.raises(TruncationError):
        apply_ladder(s, HARMONIC, "raise")


def test_ladder_weights_are_sqrt_of_levels():
    d = Deformation.q_deformed(0.8)
    w = ladder_weights(d, 6)
    from oracles import q_bracket

    for n in range(6):
        assert w[n] == pytest.approx(math.sqrt(q_bracket(n, 0.8)), rel=1e-13)


def test_eigenstate_property_nlcs_bare():
    # A (deformed) acting on the bare-representation series returns
    # alpha times the state, up to the truncation boundary
    alpha, tau = 1.0, 0.1
    d = Deformation.perturbative_nc(tau)
    s = nlcs(alpha, tau, basis="bare")
    out = apply_ladder(s, d)
    resid = out - alpha * s.amps
    resid[-2:] = 0.0
    assert np.linalg.norm(resid) <= 1e-8


def test_eigenstate_property_q_coherent():
    alpha, q = 0.8, 0.9
    d = Deformation.q_deformed(q)
    s = q_coherent(alpha, q)
    out = apply_ladder(s, d)
    resid = out - alpha * s.amps
    resid[-2:] = 0.0
    assert np.linalg.norm(resid) <= 1e-8
    # <A> = alpha follows directly
    mean_a = complex(np.vdot(s.amps, out))
    assert mean_a == pytest.approx(alpha, abs=1e-9)


def test_generalized_eigenvalue_property_nc_squeezed():
    # (A + zeta A^dag) |alpha, zeta> = alpha |alpha, zeta> on the bare
    # representation, away from the truncation boundary
    alpha, zeta, tau = 1.0, 0.25, 0.1
    d = Deformation.perturbative_nc(tau)
    s = nc_squeezed(alpha, zeta, tau, basis="bare")
    vec = (
        apply_ladder(s, d)
        + zeta * apply_ladder(s, d, "raise")
        - alpha * s.amps
    )
    vec[s.n_max - 5:] = 0.0
    assert np.linalg.norm(vec) <= 1e-8


# ------------------------------------------------------- ladder quadratures

def test_glauber_quadratures_quarter():
    st = quadrature_stats(glauber(1.1), HARMONIC)
    assert st.var_y == pytest.approx(0.25, abs=1e-10)
    assert st.var_z == pytest.approx(0.25, abs=1e-10)
    assert st.gur_rhs == pytest.approx(0.25, abs=1e-10)


@pytest.mark.parametrize("q", [0.8, 0.9, 0.99])
def test_q_coherent_quadratures_saturate(q):
    d = Deformation.q_deformed(q)
    st = quadrature_stats(q_coherent(1.0, q), d)
    target = 0.25 * (1.0 + (q * q - 1.0))
    assert abs(st.var_y - st.var_z) <= 1e-8
    assert abs(st.var_y - st.gur_rhs) <= 1e-8
    assert st.var_y == pytest.approx(target, abs=1e-8)


def test_nlcs_bare_representation_saturates_exactly():
    # exact eigenstates of the deformed annihilator make the ladder pair
    # saturate identically with equal variances
    d = Deformation.perturbative_nc(0.1)
    st = quadrature_stats(nlcs(1.0, 0.1, basis="bare"), d)
    assert abs(st.var_y - st.gur_rhs) < 1e-12
    assert abs(st.var_z - st.gur_rhs) < 1e-12


def test_robertson_bound_across_families():
    cases = [
        (glauber(1.2), HARMONIC),
        (nlcs(1.0, 0.1), Deformation.perturbative_nc(0.1)),
        (nlcs(1.0, 0.1, basis="bare"), Deformation.perturbative_nc(0.1)),
        (q_coherent(0.8, 0.9), Deformation.q_deformed(0.9)),
        (cat_q(1.0, 0.9, "even"), Deformation.q_deformed(0.9)),
        (cat_q(1.0, 0.9, "odd"), Deformation.q_deformed(0.9)),
        (pacs_q(0.8, 0.9, 2), Deformation.q_deformed(0.9)),
        (nc_squeezed(1.0, 0.25, 0.1), Deformation.perturbative_nc(0.1)),
        (gk_coherent(1.5, 0.3, 0.1), Deformation.perturbative_nc(0.1)),
    ]
    for state, d in cases:
        st = quadrature_stats(state, d)
        assert st.var_y * st.var_z >= st.gur_rhs**2 - 1e-9, state.label


# ----------------------------------------------- minimal-length quadratures

@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_xp_split_matches_first_order(alpha):
    # var_x - rhs = +tau (1/4 + |alpha|^2/2) + O(tau^2), var_p - rhs mirrors it
    lam = alpha * alpha
    target_coef = 0.25 + lam / 2.0
    resid_x = {}
    resid_p = {}
    for tau in (0.01, 0.005):
        s = nlcs(alpha, tau, basis="perturbed")
        st = xp_uncertainty(s, tau)
        resid_x[tau] = abs((st.var_x - st.rhs) - tau * target_coef)
        resid_p[tau] = abs((st.var_p - st.rhs) + tau * target_coef)
        assert (st.var_x - st.rhs) == pytest.approx(tau * target_coef, rel=0.12)
        assert (st.var_p - st.rhs) == pytest.approx(-tau * target_coef, rel=0.12)
    assert 3.0 < resid_x[0.01] / resid_x[0.005] < 5.0
    assert 3.0 < resid_p[0.01] / resid_p[0.005] < 5.0


def test_xp_harmonic_baseline():
    s = glauber(1.0)
    st = xp_uncertainty(s, 0.0)
    assert st.var_x == pytest.approx(0.5, abs=1e-10)
    assert st.var_p == pytest.approx(0.5, abs=1e-10)
    assert st.rhs == pytest.approx(0.5, abs=1e-10)
    assert st.product == pytest.approx(0.5, abs=1e-10)


def test_xp_uncertainty_dense_matrix_oracle():
    # rebuild the corrected pair as explicit matrices and compare
    tau, m, omega, hbar = 0.08, 1.3, 0.6, 1.0
    state = nlcs(0.9, tau, basis="perturbed")
    n = state.n_max
    a = np.zeros((n, n), dtype=complex)
    a[np.arange(n - 1), np.arange(1, n)] = np.sqrt(np.arange(1, n))
    ad = a.conj().T
    x = math.sqrt(hbar / (2 * m * omega)) * (a + ad)
    p = 1j * math.sqrt(m * omega * hbar / 2) * (ad - a)
    tch = tau / (m * omega * hbar)
    hx = x + 0.5 * tch * (p @ p @ x + x @ p @ p)
    psi = state.amps

    def stat(op):
        e = complex(np.vdot(psi, op @ psi)).real
        e2 = complex(np.vdot(psi, op @ (op @ psi))).real
        return e2 - e * e

    var_x = stat(hx)
    var_p = stat(p)
    rhs = 0.5 * hbar * (1.0 + tch * complex(np.vdot(psi, p @ (p @ psi))).real)
    got = xp_uncertainty(state, tau, m=m, omega=omega, hbar=hbar)
    assert got.var_x == pytest.approx(var_x, rel=1e-12)
    assert got.var_p == pytest.approx(var_p, rel=1e-12)
    assert got.rhs == pytest.approx(rhs, rel=1e-12)


def test_xp_headroom_guard():
    amps = np.zeros(8, dtype=complex)
    amps[-3] = 1.0
    s = FockState(amps, 0.0, "boundary")
    with pytest.raises(TruncationError):
        xp_uncertainty(s, 0.1)


# ------------------------------------------------------------------- Mandel

def test_mandel_glauber_bare_zero():
    q = mandel_q(glauber(1.0), HARMONIC, "bare")
    assert abs(q) < 1e-10


def test_mandel_nlcs_first_order():
    # Q = -tau |alpha|^2 / 2 on the eigenbasis level weights; quadratic
    # residual verified by halving
    d = lambda tau: Deformation.perturbative_nc(tau)
    resid = {}
    for tau in (0.02, 0.01, 0.005):
        s = nlcs(1.0, tau, basis="bare")
        q = mandel_q(s, d(tau), "bare")
        resid[tau] = abs(q - (-tau / 2.0))
        # measured second-order coefficient is ~1.93 at |alpha| = 1
        assert resid[tau] <= 2.2 * tau**2
    assert 3.5 <= resid[0.02] / resid[0.01] <= 4.5
    assert 3.5 <= resid[0.01] / resid[0.005] <= 4.5


@pytest.mark.parametrize("q", [0.8, 0.9, 0.99])
def test_mandel_q_coherent_deformed(q):
    d = Deformation.q_deformed(q)
    val = mandel_q(q_coherent(1.0, q), d, "deformed")
    assert val == pytest.approx(q * q - 1.0, abs=1e-8)


def test_mandel_vacuum_degenerate():
    with pytest.raises(DegenerateStateError):
        mandel_q(fock_state(0), HARMONIC, "bare")


# ------------------------------------------------------------------- g2(0)

def test_g2_glauber_one():
    val = g2_zero(glauber(1.3), HARMONIC, "bare")
    assert val == pytest.approx(1.0, abs=1e-10)


def test_g2_q_coherent_deformed_one():
    d = Deformation.q_deformed(0.9)
    val = g2_zero(q_coherent(0.9, 0.9), d, "deformed")
    assert val == pytest.approx(1.0, abs=1e-10)


def test_g2_fock_two():
    val = g2_zero(fock_state(2), HARMONIC, "bare")
    assert val == pytest.approx(0.5, rel=1e-12)


def test_g2_vacuum_degenerate():
    with pytest.raises(DegenerateStateError):
        g2_zero(fock_state(0), HARMONIC, "bare")


def test_unknown_direction_or_convention_refused():
    s = glauber(1.0)
    with pytest.raises(ValidationError, match="direction must be lower/raise, got 'up'"):
        apply_ladder(s, HARMONIC, "up")
    for call in (mandel_q, g2_zero):
        with pytest.raises(ValidationError, match="must be bare/deformed, got 'photon'"):
            call(s, HARMONIC, "photon")
    with pytest.raises(ValidationError, match="must be bare/deformed, got 'photon'"):
        nonclassicality_report(s, HARMONIC, number_convention="photon")


# ------------------------------------------------------ photon distribution

def test_photon_distribution_families():
    odd = cat_q(1.0, 0.9, "odd")
    assert np.max(photon_distribution(odd)[0::2]) == 0.0
    pa = pacs_q(0.8, 0.9, 2)
    assert np.max(photon_distribution(pa)[:2]) == 0.0
    g = photon_distribution(glauber(1.0))
    ref = np.exp(-1.0) / np.array([math.factorial(k) for k in range(len(g))])
    assert np.max(np.abs(g - ref)) < 1e-12


# ------------------------------------------------------------------ reports

def test_report_roundtrip_and_invariants():
    rep = nonclassicality_report(q_coherent(1.0, 0.9), Deformation.q_deformed(0.9))
    assert rep.var_y * rep.var_z >= rep.gur_rhs**2 - 1e-9
    doc = rep.to_json()
    assert "mandel_q" in doc
    total = float(np.sum(rep.photon_dist))
    assert abs(total - 1.0) <= 1e-10


def test_report_vacuum_degenerate():
    with pytest.raises(DegenerateStateError):
        nonclassicality_report(fock_state(0), HARMONIC)


@pytest.mark.parametrize("convention", ["bare", "deformed"])
def test_report_reads_q_and_g2_off_the_diagnostics(convention):
    d = Deformation.q_deformed(0.9)
    s = q_coherent(0.9, 0.9)
    report = nonclassicality_report(s, d, number_convention=convention)
    assert report.mandel_q == mandel_q(s, d, convention)
    assert report.g2_zero == g2_zero(s, d, convention)
    # the bare convention is the default of all three
    if convention == "bare":
        assert nonclassicality_report(s, d).to_json() == report.to_json()
        assert (mandel_q(s, d), g2_zero(s, d)) == (report.mandel_q, report.g2_zero)


@pytest.mark.parametrize("var_y, var_z, gur_rhs", [
    (math.nan, 0.25, 0.25),
    (0.25, math.nan, 0.25),
    (0.25, 0.25, math.nan),
    (-0.1, 0.25, 0.0),
    (0.1, 0.1, 0.25),  # var_y var_z below gur_rhs^2
])
def test_bad_report_refused_when_built(var_y, var_z, gur_rhs):
    # each comparison is written so that a NaN fails it
    with pytest.raises(ValidationError):
        NonclassicalityReport(var_y, var_z, gur_rhs, 0.0, 1.0, 1.0, np.zeros(2))


# ----------------------------------------------------------- autocorrelation

def test_autocorrelation_basics():
    t, a = gk_autocorrelation(1.5, 0.1, 0.5, 300.0, 4001)
    assert np.array_equal(t, np.linspace(0.0, 300.0, 4001))
    assert a[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(a <= 1.0 + 1e-9)
    assert np.all(a >= 0.0)


def test_autocorrelation_full_revival_at_half_t_rev():
    rt = revival_times(1.5, 0.1, 0.5)
    t, val = gk_autocorrelation(1.5, 0.1, 0.5, rt.t_rev, 3)
    assert t[1] == rt.t_rev / 2.0 and t[2] == rt.t_rev
    assert val[1] == pytest.approx(1.0, abs=1e-9)
    assert val[2] == pytest.approx(1.0, abs=1e-9)


# the catalog's autocorr jobs of seeds 1-3, and the second figure's J 6, tau 0.01
_AUTOCORR_JOBS = [
    (1.0614, 0.2, 0.6075, 113.7696, 10_000),
    (2.2217, 0.4, 0.7799, 44.3102, 10_000),
    (0.7105, 0.25, 0.4979, 111.0505, 10_000),
    (2.5754, 0.1, 0.5692, 242.8497, 10_000),
    (0.6383, 0.25, 0.5441, 101.6211, 10_000),
    (2.8048, 0.4, 0.5507, 62.7520, 10_000),
    (6.0, 0.01, 0.5, 50.0, 401),
]


@pytest.mark.parametrize("J, tau, omega, tmax, points", _AUTOCORR_JOBS)
def test_autocorrelation_matches_an_mpmath_sum(J, tau, omega, tmax, points):
    from oracles import gk_autocorrelation_mp, gk_autocorrelation_pointwise

    t, a = gk_autocorrelation(J, tau, omega, tmax, points)
    block = math.isqrt(points) + 1
    edges = [k for j in (1, 2, points // block) for k in (j * block - 1, j * block)]
    rng = np.random.default_rng(points)
    idx = np.unique(np.concatenate([[0, 1, points - 2, points - 1], edges,
                                    rng.integers(0, points, 40)]))
    ref = gk_autocorrelation_mp(J, tau, omega, t[idx])
    err = np.max(np.abs(a[idx] - ref))
    err_pointwise = np.max(np.abs(gk_autocorrelation_pointwise(J, tau, omega, t[idx]) - ref))
    assert err <= 1e-13
    assert err <= 4.0 * err_pointwise
    assert abs(a[0] - 1.0) <= 1e-15


@pytest.mark.parametrize("points", [2, 3, 100**2 - 1, 100**2, 100**2 + 1, 10_000 + 17])
def test_autocorrelation_grid_tails(points):
    # the blocks of isqrt(points) + 1 rows overrun the grid, and the last
    # block is cut; every point, the last ones too, is one of the grid
    from oracles import gk_autocorrelation_pointwise

    t, a = gk_autocorrelation(1.5, 0.1, 0.5, 200.0, points)
    assert np.array_equal(t, np.linspace(0.0, 200.0, points))
    assert a.shape == (points,)
    assert np.max(np.abs(a - gk_autocorrelation_pointwise(1.5, 0.1, 0.5, t))) <= 1e-13


def test_autocorrelation_memory_bounded():
    # one phase matrix of 2e5 points x 64 levels of complex128 is ~200 MB
    tracemalloc.start()
    try:
        gk_autocorrelation(1.5, 0.1, 0.5, 100.0, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("tmax, points", [
    (math.nan, 11), (-1.0, 11), (0.0, 11), (math.inf, 11), (10.0, 1), (10.0, 0),
])
def test_autocorrelation_validation(tmax, points):
    with pytest.raises(ValidationError):
        gk_autocorrelation(1.5, 0.1, 0.5, tmax, points)


def _refused(tmax, points):
    try:
        gk_autocorrelation(1.0, 0.1, 0.5, tmax, points)
    except ValidationError:
        return True
    return False


@pytest.mark.parametrize("points", [2, 3, 10])
def test_autocorrelation_refuses_phases_past_the_double_range(points):
    # omega t e_n overflowed to inf, and exp made NaN amplitudes of it
    with pytest.raises(ValidationError, match="double range"):
        gk_autocorrelation(1.0, 0.1, 0.5, 1e308, points)
    # the check is tight: bisect the bits of the largest tmax that passes
    def as_float(bits):
        return float(np.int64(bits).view(np.float64))

    lo, hi = (int(bits) for bits in np.array([1e300, 1e308]).view(np.int64))
    assert not _refused(as_float(lo), points) and _refused(as_float(hi), points)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _refused(as_float(mid), points) else (mid, hi)
    top = as_float(lo)
    _, a = gk_autocorrelation(1.0, 0.1, 0.5, top, points)
    assert np.all(np.isfinite(a)) and a[0] == pytest.approx(1.0, abs=1e-12)
    assert _refused(np.nextafter(top, math.inf), points)


def test_fractional_revival_structure():
    # small deformation, large J: partial reconstructions at p/q of the
    # revival time with heights ~1/q, full reconstruction at t_rev/2.
    # One grid over the windows, at their spacing of 0.06 t_rev / 1500
    J, tau, omega = 6.0, 0.01, 0.5
    rt = revival_times(J, tau, omega)
    t, a = gk_autocorrelation(J, tau, omega, 0.53 * rt.t_rev, 13_251)
    heights = {}
    for frac in (0.25, 1.0 / 3.0, 0.5):
        center = frac * rt.t_rev
        window = np.abs(t - center) <= 0.03 * rt.t_rev
        heights[frac] = float(a[window].max())
    assert heights[0.5] == pytest.approx(1.0, abs=1e-6)
    assert heights[0.25] == pytest.approx(0.5, abs=0.05)
    assert heights[1.0 / 3.0] == pytest.approx(1.0 / 3.0, abs=0.05)


def gk_autocorrelation_full(J, tau, omega, tmax, points):
    """The same block-split kernel over all 64 levels; reference only."""
    from oracles import gk_level_weights

    p, e = gk_level_weights(J, tau)
    return metrics._lattice_autocorrelation(p, e, omega, tmax, points)[1]


@pytest.mark.parametrize("J", [0.5, 1.5, 3.0])
@pytest.mark.parametrize("tau", [0.1, 0.25, 0.4])
def test_autocorrelation_level_cutoff_matches_all_levels(J, tau):
    omega = 0.6
    t_rev = 2.0 * math.pi / (omega * tau / 2.0)
    _, a = gk_autocorrelation(J, tau, omega, 1.1 * t_rev, 10_000)
    full = gk_autocorrelation_full(J, tau, omega, 1.1 * t_rev, 10_000)
    assert np.max(np.abs(a - full)) <= 1e-15
    assert abs(a[0] - 1.0) <= 1e-15


def detect_peaks_loop(t, a, min_height=0.2):
    """One candidate point at a time; reference only."""
    peaks = []
    for i in range(1, len(t) - 1):
        if a[i] >= min_height and a[i] > a[i - 1] and a[i] >= a[i + 1]:
            denom = a[i - 1] - 2.0 * a[i] + a[i + 1]
            shift = 0.0 if denom == 0 else 0.5 * (a[i - 1] - a[i + 1]) / denom
            shift = float(np.clip(shift, -0.5, 0.5))
            peaks.append(t[i] + shift * (t[i + 1] - t[i]))
    return np.asarray(peaks)


@pytest.mark.parametrize("seed", range(6))
def test_detect_peaks_equal_to_loop_on_plateaus(seed):
    rng = np.random.default_rng(seed)
    n = 400
    t = np.sort(rng.uniform(0.0, 50.0, n))
    # coarse levels repeat, so plateaus and flat-topped peaks occur
    a = np.round(rng.uniform(0.0, 1.0, n) * 4) / 4
    a[100:140] = 0.75
    a[200:203] = [0.5, 1.0, 1.0]
    for min_height in (0.0, 0.2, 0.8):
        got = detect_peaks(t, a, min_height)
        want = detect_peaks_loop(t, a, min_height)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert detect_peaks(t, np.zeros(n)).shape == (0,)


def test_detect_peaks_quadratic_refinement():
    t = np.linspace(0.0, 10.0, 501)
    a = np.cos(t - 3.123) ** 2
    peaks = detect_peaks(t, a, min_height=0.5)
    assert any(abs(p - 3.123) < 1e-3 for p in peaks)


# -------------------------------------------------------------- revival times

def test_revival_times_values():
    rt = revival_times(1.5, 0.1, 0.5)
    assert rt.t_rev == pytest.approx(251.327, abs=0.001)
    rt2 = revival_times(6.0, 0.01, 0.5)
    assert rt2.t_rev == pytest.approx(2513.27, abs=0.01)
    rt3 = revival_times(1.0, 0.1, 0.5, nbar=2.0)
    assert rt3.t_cl == pytest.approx(2.0 * math.pi / (0.5 * 1.25), rel=1e-12)


def test_revival_time_invariant_under_nbar_rule():
    a = revival_times(1.5, 0.1, 0.5)
    b = revival_times(1.5, 0.1, 0.5, nbar=17.0)
    assert a.t_rev == b.t_rev


def test_revival_times_harmonic_limit_flagged_infinite():
    rt = revival_times(1.0, 0.0, 0.5)
    assert math.isinf(rt.t_rev)
    assert rt.t_cl == pytest.approx(2.0 * math.pi / 0.5, rel=1e-12)


def test_revival_times_validation():
    with pytest.raises(ValidationError):
        revival_times(0.0, 0.1, 0.5)
    with pytest.raises(ValidationError):
        revival_times(1.0, 0.1, -0.5)


# ------------------------------------------------------- uncertainty product

def test_gk_uncertainty_tau_zero_saturates():
    out = gk_uncertainty_product(1.5, 0.4, 0.0)
    assert out.numeric == pytest.approx(0.5, abs=1e-10)
    assert out.closed_form == 0.5


def test_gk_uncertainty_closed_form_gamma_zero():
    for j_val in (0.0, 1.5, 4.0):
        out = gk_uncertainty_product(j_val, 0.0, 0.1)
        assert out.closed_form == pytest.approx(0.5 * 1.05, rel=1e-12)


def test_gk_uncertainty_numeric_approaches_closed_form():
    # residual shrinks quadratically under tau halving
    resid = {}
    for tau in (0.01, 0.005):
        out = gk_uncertainty_product(1.5, math.pi / 2.0, tau)
        resid[tau] = abs(out.numeric - out.closed_form)
    assert resid[0.01] < 5e-4
    assert 3.0 < resid[0.01] / resid[0.005] < 5.0
    out = gk_uncertainty_product(1.5, math.pi / 2.0, 0.01)
    assert out.closed_form == pytest.approx(0.5175, rel=1e-12)
