import cmath
import math
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from defock import states
from defock.deform import Deformation, dimensionless_e, log_rho_table
from defock.errors import (
    DegenerateStateError,
    DivergenceError,
    TruncationError,
    ValidationError,
)
from defock.states import (
    FAMILIES,
    MAX_N_MAX,
    FockState,
    cat_q,
    cat_norm_sq,
    gk_coherent,
    gk_normalization,
    glauber,
    ho_squeezed,
    nc_coherent_coeffs,
    nc_squeezed,
    nlcs,
    nlcs_normalization,
    pacs_q,
    pacs_norm_sq,
    phi_eigenstate,
    q_coherent,
    q_normalization,
    squeezed_coeffs_recurrence,
    squeezed_normalization,
)
from defock.specfun import log_factorial_table
from oracles import (
    f_factorial_squared,
    q_exponential,
    squeezed_coeff_closed_form,
    squeezed_coeffs_per_level,
    summed_norm,
)

HARMONIC = Deformation.harmonic()


def poisson_weights(lam, n):
    return np.exp(-lam) * lam ** np.arange(n) / np.array(
        [math.factorial(k) for k in range(n)]
    )


# ---------------------------------------------------------------- FockState

def test_fockstate_invariants():
    with pytest.raises(ValidationError):
        FockState(np.array([1.0, 1.0], dtype=complex), 0.0, "bad")
    # a NaN norm fails the unit-norm check too
    for amps in ([math.nan, 0.0], [1.0, complex(0.0, math.nan)]):
        with pytest.raises(ValidationError, match="unit norm"):
            FockState(np.array(amps, dtype=complex), 0.0, "nan")
    s = glauber(1.0)
    assert abs(np.vdot(s.amps, s.amps).real - 1.0) < 1e-12
    with pytest.raises(ValueError):
        s.amps[0] = 0.0  # frozen


def test_every_family_unit_norm():
    states = [
        glauber(1.5 + 0.3j),
        nlcs(1.0, 0.1),
        nlcs(1.0, 0.1, basis="bare"),
        q_coherent(0.8, 0.9),
        gk_coherent(1.5, 0.4, 0.1),
        nc_squeezed(1.0, 0.25, 0.1),
        ho_squeezed(1.0, 0.25),
        cat_q(1.0, 0.9, "even"),
        cat_q(1.0, 0.9, "odd"),
        pacs_q(0.8, 0.9, 2),
        phi_eigenstate(3, 0.1),
    ]
    for s in states:
        assert abs(np.vdot(s.amps, s.amps).real - 1.0) <= 1e-12, s.label
        assert s.tail_mass >= 0.0


# ------------------------------------------------------------------ glauber

def test_glauber_vacuum():
    s = glauber(0.0)
    assert s.amps[0] == 1.0
    assert np.max(np.abs(s.amps[1:])) == 0.0
    assert s.tail_mass == 0.0


def test_glauber_poisson_weights():
    s = glauber(1.0, 32)
    target = poisson_weights(1.0, 32)
    assert np.max(np.abs(np.abs(s.amps) ** 2 - target)) < 1e-12


def test_glauber_mean():
    s = glauber(2.0)
    assert s.mean_n() == pytest.approx(4.0, abs=1e-9)


def test_glauber_auto_doubles_then_raises():
    s = glauber(3.0, n_max=8)
    assert s.n_max > 8
    assert s.tail_mass <= 1e-10
    with pytest.raises(TruncationError):
        glauber(25.0)


# ---------------------------------------------------------- phi eigenstates

def test_phi_eigenstate_coefficients():
    s = phi_eigenstate(0, 0.1)
    ratio = (s.amps[4] / s.amps[0]).real
    assert ratio == pytest.approx((0.1 / 16.0) * math.sqrt(24.0), rel=1e-12)

    s2 = phi_eigenstate(2, 0.0)
    assert s2.amps[2] == 1.0

    s5 = phi_eigenstate(5, 0.1)
    low = (s5.amps[1] / s5.amps[5]).real
    high = (s5.amps[9] / s5.amps[5]).real
    assert low == pytest.approx(-(0.1 / 16.0) * math.sqrt(2 * 3 * 4 * 5), rel=1e-12)
    assert high == pytest.approx((0.1 / 16.0) * math.sqrt(6 * 7 * 8 * 9), rel=1e-12)
    # numeric anchor for the upper coefficient
    assert high == pytest.approx(0.3436934, abs=5e-7)


def test_n_max_bound():
    for build in (
        lambda n: glauber(1.0, n),
        lambda n: nlcs(1.0, 0.1, n),
        lambda n: q_coherent(0.5, 0.9, n),
        lambda n: phi_eigenstate(0, 0.1, n),
    ):
        with pytest.raises(ValidationError, match="n_max"):
            build(MAX_N_MAX + 1)
        assert build(MAX_N_MAX).n_max == MAX_N_MAX


def test_phi_eigenstate_range_error():
    with pytest.raises(ValidationError):
        phi_eigenstate(61, 0.1, n_max=64)


@pytest.mark.parametrize("build", [
    lambda: phi_eigenstate(2, 1e200),
    lambda: nlcs_normalization(1.0, 1e308),
    lambda: gk_normalization(1.0, 1e308),
    lambda: squeezed_normalization(1.0, 0.3, Deformation("nc", tau=1e306)),
], ids=["phi_eigenstate", "nlcs_normalization", "gk_normalization", "squeezed_normalization"])
def test_a_tau_past_the_state_range_is_refused_before_numpy_overflows(build):
    # the norm of the dressing, or f^2(n) itself, overflowed with numpy's warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError, match=r"^tau must be at most 1e\+100 "):
            build()


@pytest.mark.parametrize("build", [
    lambda: nlcs(1.0, 1e200),
    lambda: gk_coherent(1.0, 0.0, 1e200),
    lambda: nc_squeezed(1.0, 0.3, 1e200),
    lambda: FAMILIES["nc-squeezed"].norm(SimpleNamespace(alpha=1.0, zeta=0.3, tau=1e200)),
], ids=["nlcs", "gk_coherent", "nc_squeezed", "nc-squeezed norm"])
def test_a_tau_past_the_state_range_is_refused_without_a_warning(build):
    # nc_squeezed and the registry's norm built their deformation first, so
    # a PerturbativeRegimeWarning came before the refusal
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValidationError, match=r"^tau must be at most 1e\+100 "):
            build()
    assert caught == []


def test_nc_squeezed_checks_zeta_before_tau():
    # the order of the command line's errors, which builds its deformation first
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceError, match=r"\|zeta\|=1\.5"):
            nc_squeezed(1.0, 1.5, 1e200)
    assert caught == []


# --------------------------------------------------------------------- nlcs

def test_nlcs_tau_zero_is_glauber():
    g = glauber(1.3)
    for basis in ("bare", "perturbed"):
        s = nlcs(1.3, 0.0, basis=basis)
        assert np.max(np.abs(s.amps - g.amps)) < 1e-12


def test_nlcs_normalization_first_order():
    # N^2 = e^{|a|^2} (1 - tau |a|^2 - tau |a|^4 / 4) + O(tau^2)
    lam = 1.0
    resid = {}
    for tau in (0.01, 0.005):
        n_sq = nlcs_normalization(1.0, tau) ** 2
        first = math.exp(lam) * (1.0 - tau * lam - tau * lam**2 / 4.0)
        resid[tau] = abs(n_sq - first)
    ratio = resid[0.01] / resid[0.005]
    assert 3.0 < ratio < 5.0


def _nlcs_normalization_loop(alpha, tau):
    """Reference: nlcs_normalization summed by its own doubling loop over
    the half-log denominators log(sqrt(n!) f(n)!)."""
    from defock.deform import log_f_factorial_table
    from defock.specfun import log_factorial_table
    from defock.states import _logsumexp

    d = Deformation.perturbative_nc(tau)  # a bad tau is refused at alpha = 0 too
    lam = abs(complex(alpha)) ** 2
    if lam == 0.0:
        return 1.0
    n = 128
    while True:
        log_denom = 0.5 * log_factorial_table(n) + 0.5 * log_f_factorial_table(d, n)
        log_w = np.arange(n) * math.log(lam) - 2.0 * log_denom
        if log_w[-1] < log_w.max() - 60.0:
            return math.exp(0.5 * _logsumexp(log_w))
        if n >= 8 * MAX_N_MAX:
            raise DivergenceError("nlcs normalization series did not converge")
        n *= 2


def _gk_normalization_loop(J, tau):
    """Reference: gk_normalization summed by its own doubling loop over
    the Gazeau-Klauder log weights J^n / rho_n."""
    from defock.states import _logsumexp

    if J < 0:
        raise ValidationError("J must be >= 0")
    d = Deformation.perturbative_nc(tau)  # a bad tau is refused at J = 0 too
    if J == 0.0:
        return 1.0
    n = 128
    while True:
        log_abs = 0.5 * np.arange(n, dtype=float) * math.log(J) - 0.5 * log_rho_table(d, n)
        log_w = 2.0 * log_abs
        if log_w[-1] < log_w.max() - 60.0:
            return math.exp(0.5 * _logsumexp(log_w))
        n *= 2
        if n > 8 * MAX_N_MAX:
            raise DivergenceError("gk normalization series did not converge")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the references must raise what the library raises
        return type(exc), str(exc)


def test_normalizations_bit_equal_to_separate_loops():
    taus = (0.0, 0.05, 0.3, 2.0, -0.1)
    for tau in taus:
        for mag in (0.0, 0.3, 1.0, 2.5, 7.0, 20.0, 1e6):
            for alpha in (mag, mag * complex(0.6, -0.8)):
                got = _outcome(nlcs_normalization, alpha, tau)
                assert got == _outcome(_nlcs_normalization_loop, alpha, tau), (alpha, tau)
        for J in (-1.0, 0.0, 0.5, 1.5, 3.0, 50.0, 400.0, 1e12):
            got = _outcome(gk_normalization, J, tau)
            assert got == _outcome(_gk_normalization_loop, J, tau), (J, tau)
    # the grid reaches the divergence branch of both
    assert _outcome(nlcs_normalization, 1e6, 0.0)[0] is DivergenceError
    assert _outcome(gk_normalization, 1e12, 0.0)[0] is DivergenceError


def test_gk_normalization_builds_no_phases(monkeypatch):
    # the norm reads log|c_n| only, so the phases exp(-i gamma e_n) are not built
    import defock.states

    monkeypatch.setattr(defock.states, "dimensionless_e", None)
    assert gk_normalization(1.5, 0.3) == _gk_normalization_loop(1.5, 0.3)
    with pytest.raises(TypeError):
        gk_coherent(1.5, 0.3, 0.3)


def test_nlcs_coeff_table_matches_dressing_algebra():
    # independent banded-dressing oracle applied to the raw series
    alpha, tau, n = 1.0, 0.1, 24
    coeffs = nc_coherent_coeffs(alpha, tau, n)
    d = Deformation.perturbative_nc(tau)
    from defock.deform import log_f_factorial_table
    from defock.specfun import log_gamma

    w = n + 4
    lg = np.array([0.5 * log_gamma(k + 1.0) for k in range(w)])
    lf = 0.5 * log_f_factorial_table(d, w)
    u = np.exp(np.arange(w) * math.log(abs(alpha)) - lg - lf).astype(complex)
    b = u[:n].copy()
    for m in range(n):
        b[m] -= (tau / 16.0) * math.sqrt((m + 1) * (m + 2) * (m + 3) * (m + 4)) * u[m + 4]
        if m >= 4:
            b[m] += (tau / 16.0) * math.sqrt((m - 3) * (m - 2) * (m - 1) * m) * u[m - 4]
    got = coeffs / coeffs[0]
    ref = b / b[0]
    assert np.max(np.abs(got - ref)) < 1e-12


def test_nlcs_matches_eigenvector_column_expansion_to_first_order():
    # stacking per-column-normalized perturbed eigenvectors differs from
    # the coefficient dressing only at second order in tau
    from defock.deform import log_f_factorial_table
    from defock.specfun import log_gamma

    alpha, n = 1.0, 40
    diffs = {}
    for tau in (0.1, 0.05):
        d = Deformation.perturbative_nc(tau)
        w = n + 4
        lg = np.array([0.5 * log_gamma(k + 1.0) for k in range(w)])
        lf = 0.5 * log_f_factorial_table(d, w)
        u = np.exp(np.arange(w) * math.log(abs(alpha)) - lg - lf)
        acc = np.zeros(n, dtype=complex)
        for k in range(n - 4):
            acc += u[k] * phi_eigenstate(k, tau, n).amps
        acc /= np.linalg.norm(acc)
        diffs[tau] = float(np.max(np.abs(acc - nlcs(alpha, tau, n).amps)))
        assert diffs[tau] <= 0.5 * tau**2
    assert 2.5 < diffs[0.1] / diffs[0.05] < 5.0


def test_nlcs_leading_coefficient_value():
    # the dressed coefficient at n = 0 for alpha = 1 is 1 - (tau/16)/f(4)!,
    # with f(4)! = sqrt(1.1 * 1.15 * 1.2 * 1.25) = 1.3774975...
    tau = 0.1
    d = Deformation.perturbative_nc(tau)
    f4 = math.sqrt(f_factorial_squared(d, 4))
    assert f4 == pytest.approx(math.sqrt(1.1 * 1.15 * 1.2 * 1.25), rel=1e-13)
    expected = 1.0 - (tau / 16.0) / f4
    assert expected == pytest.approx(0.9954626, abs=5e-7)
    # nc_coherent_coeffs carries a common scale exp(-top); undo it by
    # recomputing the raw-series log magnitudes over the same window
    coeffs = nc_coherent_coeffs(1.0, tau, 16)
    from defock.deform import log_f_factorial_table
    from defock.specfun import log_gamma

    w = 20
    lg = np.array([0.5 * log_gamma(k + 1.0) for k in range(w)])
    lf = 0.5 * log_f_factorial_table(d, w)
    log_raw = -lg - lf  # alpha = 1
    value = coeffs[0].real * math.exp(log_raw.max() - log_raw[0])
    assert value == pytest.approx(expected, rel=1e-12)


# -------------------------------------------------------------- q-coherent

def test_q_coherent_limits():
    g = glauber(0.9)
    s = q_coherent(0.9, 1.0)
    assert np.max(np.abs(s.amps - g.amps)) < 1e-12
    v = q_coherent(0.0, 0.8)
    assert v.amps[0] == 1.0


def test_q_coherent_normalization_is_q_exponential():
    lam = 0.64
    target = q_exponential(lam, 0.9)
    n = 200
    d = Deformation.q_deformed(0.9)
    log_w = np.arange(n) * math.log(lam) - log_rho_table(d, n)
    direct = float(np.sum(np.exp(log_w)))
    assert direct == pytest.approx(target, rel=1e-12)


def test_q_coherent_divergence():
    # |alpha|^2 = 1.44 exceeds 1/(1-q^2) = 1.333 at q = 0.5
    with pytest.raises(DivergenceError):
        q_coherent(1.2, 0.5)
    # inside the radius it still converges (slowly) or truncation-errors
    q_coherent(1.0, 0.5, 128)


@pytest.mark.parametrize("alpha", [0j, complex(-0.0, 0.0), complex(0.0, -0.0)])
def test_series_at_a_zero_argument(alpha):
    # one rule, 0 log 0 = 0: x^n is 1 at n = 0 for x = 0 too, so each series
    # keeps only its first level, with phase 1 for a zero of either sign
    assert np.array_equal(states._n_log(np.arange(3.0), 0.0), [0.0, -math.inf, -math.inf])
    w = 12
    empty = np.full(w - 1, -math.inf)
    for log_denom in (0.5 * log_factorial_table(w), np.linspace(0.25, 3.0, w)):
        (log_abs,), (phase,) = states._power_series_logs([alpha], log_denom)
        assert np.array_equal(log_abs, np.r_[-log_denom[0], empty])
        assert phase.tobytes() == np.ones(w, dtype=complex).tobytes()
    (log_abs,), (phase,) = states._gk_series(0.0, 0.7, 0.1)(w, [0])
    assert np.array_equal(log_abs, np.r_[0.0, empty])
    e_n = dimensionless_e(Deformation.perturbative_nc(0.1), np.arange(w))
    assert np.array_equal(phase, np.exp(-1j * 0.7 * e_n))
    for m in (0, 2):
        (log_abs,), (phase,) = states._pacs_series(alpha, 0.9, m)(w, [0])
        wide = len(log_abs)
        want = np.full(wide, -math.inf)
        want[m] = 0.5 * log_rho_table(Deformation.q_deformed(0.9), wide)[m]
        assert np.array_equal(log_abs, want)
        assert phase.tobytes() == np.ones(wide, dtype=complex).tobytes()


# ------------------------------------------------------------ Gazeau-Klauder

def test_gk_j_zero_is_ground_eigenstate():
    s = gk_coherent(0.0, 0.7, 0.1)
    phi0 = phi_eigenstate(0, 0.1, s.n_max)
    assert np.max(np.abs(np.abs(s.amps) - np.abs(phi0.amps))) < 1e-12


def test_gk_gamma_shift_is_time_evolution():
    # in the eigenbasis representation the shift multiplies coefficient n
    # by exp(-i e_n omega t)
    J, tau, omega, t = 1.5, 0.1, 0.5, 3.7
    a = gk_coherent(J, 0.2, tau, basis="bare")
    b = gk_coherent(J, 0.2 + omega * t, tau, basis="bare")
    n = np.arange(a.n_max)
    e = (1 + tau / 2) * n + (tau / 2) * n * n
    evolved = a.amps * np.exp(-1j * e * omega * t)
    assert np.max(np.abs(evolved - b.amps)) < 1e-12


def test_gk_mean_occupation_oracle():
    # direct weighted mean of the level distribution
    J, tau = 1.5, 0.1
    s = gk_coherent(J, 0.0, tau, basis="bare")
    d = Deformation.perturbative_nc(tau)
    n = s.n_max
    log_w = np.arange(n) * math.log(J) - log_rho_table(d, n)
    w = np.exp(log_w - log_w.max())
    oracle = float(np.sum(np.arange(n) * w) / np.sum(w))
    assert s.mean_n() == pytest.approx(oracle, abs=1e-10)
    # frozen regression value (independent high-precision summation)
    assert s.mean_n() == pytest.approx(1.2908759150767, abs=1e-12)


# ------------------------------------------------------------ squeezed seeds

def test_recurrence_trivial_cases():
    log_abs, phase = squeezed_coeffs_recurrence(1.3, 0.0, HARMONIC, 12)
    vals = np.exp(log_abs) * phase
    assert np.max(np.abs(vals - 1.3 ** np.arange(12))) < 1e-10

    log_abs, _ = squeezed_coeffs_recurrence(0.0, 0.4, HARMONIC, 12)
    assert np.all(~np.isfinite(log_abs[1::2]))

    log_abs, phase = squeezed_coeffs_recurrence(1.0, 0.25, HARMONIC, 8)
    i2 = math.exp(log_abs[2]) * phase[2]
    assert i2 == pytest.approx(0.75, rel=1e-13)


def test_recurrence_overflow_names_its_level():
    # I(2) = alpha^2 - zeta overflows past |alpha| = 1.34e154, before any
    # rescale; its NaN went on into the logs
    log_abs, _ = squeezed_coeffs_recurrence(1.3e154, 0.5, HARMONIC, 8)
    assert np.all(np.isfinite(log_abs))
    for d in (HARMONIC, Deformation.perturbative_nc(0.1)):
        with pytest.raises(TruncationError, match="overflows the double range at level 2 "):
            squeezed_coeffs_recurrence(1.4e154j, 0.5, d, 8)


def test_closed_form_trivial():
    assert squeezed_coeff_closed_form(1.0, 0.25, 0.1, 0) == pytest.approx(1.0, abs=1e-12)
    assert squeezed_coeff_closed_form(1.0, 0.25, 0.1, 1) == pytest.approx(
        1.0 + 0.0j, rel=1e-10
    )
    v = squeezed_coeff_closed_form(0.7, 0.25, 0.1, 1)
    assert v == pytest.approx(0.7 + 0.0j, rel=1e-10)


def test_closed_form_rejects_harmonic_and_zero_zeta():
    with pytest.raises(ValidationError):
        squeezed_coeff_closed_form(1.0, 0.25, 0.0, 3)
    with pytest.raises(ValidationError):
        squeezed_coeff_closed_form(1.0, 0.0, 0.1, 3)


def test_closed_form_complex_zeta_warns():
    with pytest.warns(UserWarning):
        squeezed_coeff_closed_form(1.0, 0.2 + 0.1j, 0.1, 3)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("zeta", [0.1, 0.25, 0.5])
@pytest.mark.parametrize("tau", [0.05, 0.1, 0.5])
def test_closed_form_matches_recurrence(alpha, zeta, tau):
    d = Deformation.perturbative_nc(tau)
    log_abs, phase = squeezed_coeffs_recurrence(alpha, zeta, d, 31)
    for n in (5, 17, 30):
        rec = math.exp(log_abs[n]) * phase[n]
        cf = squeezed_coeff_closed_form(alpha, zeta, tau, n)
        assert abs(cf - rec) <= 1e-8 * abs(rec)
        # the i^n prefactor is exactly compensated: result is real
        assert abs(cf.imag) <= 1e-10 * abs(cf)


def test_recurrence_large_n_rescaling():
    # no overflow out to n = 400; log magnitudes grow smoothly
    d = Deformation.perturbative_nc(0.1)
    log_abs, phase = squeezed_coeffs_recurrence(1.0, 0.25, d, 401)
    assert np.all(np.isfinite(log_abs[2:]))
    assert np.max(np.abs(np.abs(phase) - 1.0)) < 1e-12


def assert_bits_equal(got, want):
    """(log|I|, phase) pairs equal bit for bit, so that a signed zero or the
    last bit of a log shows."""
    assert got[0].view(np.uint64).tolist() == want[0].view(np.uint64).tolist()
    assert got[1].view(np.float64).view(np.uint64).tolist() == \
        want[1].view(np.float64).view(np.uint64).tolist()


# A row of 8 non-negative reals or more runs the float64 loop; a shorter one,
# or one with a negative alpha (or -0.0), the complex loop alpha by alpha.
_ROW = (st.lists(st.floats(0.0, 4.0), min_size=8, max_size=12)
        | st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=12))


@settings(database=None, derandomize=True, deadline=None, max_examples=400)
@given(alpha=st.complex_numbers(max_magnitude=4.0) | st.floats(-4.0, 4.0).map(complex),
       zeta=st.complex_numbers(max_magnitude=1.2) | st.floats(-1.2, 1.2).map(complex),
       tau=st.none() | st.floats(min_value=0.0, max_value=0.5),
       n_max=st.integers(min_value=2, max_value=1100), row=_ROW)
@example(alpha=0j, zeta=0.5 + 0.2j, tau=0.1, n_max=40, row=[0.0] * 8)
@example(alpha=1.5 - 0.5j, zeta=0j, tau=None, n_max=40, row=[-0.0] + [1.0] * 8)
@example(alpha=0j, zeta=0j, tau=0.3, n_max=2, row=[0.5] * 8)
# rescales past 1e120, the alphas of the row at levels of their own
@example(alpha=2.0 + 0j, zeta=0.9 + 0j, tau=0.5, n_max=1100,
         row=[2.0, 0.0, 2.0001, 0.3, 2.0, 1.0, 3.9, 0.5, 2.0])
# alphas above 1e120, which rescale from the first step on
@example(alpha=1e130 + 0j, zeta=0.3 + 0j, tau=0.1, n_max=60,
         row=[1e130, 0.5, 2.0, 0.0, 1.0, 3.0, 1e125, 0.25])
def test_recurrence_bit_equal_to_the_per_level_loop(alpha, zeta, tau, n_max, row):
    d = HARMONIC if tau is None else Deformation.perturbative_nc(tau)
    assert_bits_equal(squeezed_coeffs_recurrence(alpha, zeta, d, n_max),
                      squeezed_coeffs_per_level(alpha, zeta, d, n_max))
    # each alpha of a row, at the real part of zeta, as a scan row takes it
    got = squeezed_coeffs_recurrence(np.array(row), zeta.real, d, n_max)
    for k, a in enumerate(row):
        assert_bits_equal((got[0][k], got[1][k]),
                          squeezed_coeffs_per_level(a, zeta.real, d, n_max))


def test_recurrence_row_refuses_the_first_alpha_that_overflows():
    row = np.array([0.5] * 7 + [1e200, 2.0, 1e308])
    with pytest.raises(TruncationError, match=r"at level 2 \(\|alpha\| = 1e\+200\)$"):
        squeezed_coeffs_recurrence(row, 0.25, HARMONIC, 40)


# ------------------------------------------------------------ squeezed states

def test_nc_squeezed_zeta_zero_is_nlcs():
    for basis in ("bare", "perturbed"):
        a = nc_squeezed(1.0, 0.0, 0.1, basis=basis)
        b = nlcs(1.0, 0.1, basis=basis)
        assert np.max(np.abs(a.amps - b.amps)) < 1e-10


def test_nc_squeezed_tau_zero_is_ho_squeezed():
    # both run the squeezed recurrence at f^2 = 1; this pins the guard
    # levels and the tau = 0 dressing of nc_squeezed to the plain series
    a = nc_squeezed(1.0, 0.25, 0.0)
    b = ho_squeezed(1.0, 0.25)
    assert np.max(np.abs(a.amps - b.amps)) < 1e-10


def test_squeezed_complex_parameters_agree_between_routes():
    # the same recurrence on both sides, once through the nc kernel at
    # tau = 0 and once through the harmonic one; the Hermite identity is
    # checked independently by test_ho_squeezed_matches_hermite_oracle
    zeta = 0.2 + 0.15j
    a = nc_squeezed(0.7 + 0.2j, zeta, 0.0)
    b = ho_squeezed(0.7 + 0.2j, zeta)
    assert np.max(np.abs(a.amps - b.amps)) < 1e-10


def test_ho_squeezed_hermite_ratio():
    # (zeta/2) H_2(x) against the harmonic recurrence value at n = 2
    from oracles import hermite

    alpha, zeta = 1.0, 0.25
    x = alpha / math.sqrt(2 * zeta)
    ratio_hermite = (zeta / 2.0) * hermite(2, x) / hermite(0, x)
    log_abs, phase = squeezed_coeffs_recurrence(alpha, zeta, HARMONIC, 4)
    ratio_rec = math.exp(log_abs[2] - log_abs[0]) * (phase[2] / phase[0])
    assert ratio_hermite == pytest.approx(ratio_rec.real, rel=1e-12)


@pytest.mark.parametrize("alpha, zeta", [
    (1.0, 0.25), (1.6, 0.6), (0.0, 0.3), (0.9, -0.35), (-0.4, -0.7),
    (0.7 + 0.2j, 0.2 + 0.15j), (-1.1 + 0.5j, -0.3 + 0.4j), (0.3 - 0.8j, 0.5j),
])
def test_ho_squeezed_matches_hermite_oracle(alpha, zeta):
    # whole normalized vectors against (zeta/2)^(n/2) H_n(alpha/sqrt(2 zeta)) / sqrt(n!)
    from oracles import hermite

    s = ho_squeezed(alpha, zeta)
    x = alpha / cmath.sqrt(2 * zeta)
    ref = np.array([(zeta / 2) ** (n / 2) * hermite(n, x) / math.sqrt(math.factorial(n))
                    for n in range(s.n_max)], dtype=complex)
    ref /= np.linalg.norm(ref)
    assert np.max(np.abs(s.amps - ref)) <= 1e-12


def test_ho_squeezed_parity_and_limit():
    s = ho_squeezed(0.0, 0.3)
    assert np.max(np.abs(s.amps[1::2])) == 0.0
    near = ho_squeezed(0.9, 1e-9)
    g = glauber(0.9)
    assert np.max(np.abs(near.amps - g.amps)) < 1e-6
    exact = ho_squeezed(0.9, 0.0)
    assert np.max(np.abs(exact.amps - g.amps)) == 0.0


@pytest.mark.parametrize("zeta", [1.5, 1.0, -1.0, 0.6 + 0.8j, 2j])
def test_ho_squeezed_outside_radius_fails_before_any_build(monkeypatch, zeta):
    import defock.states as states

    def no_build(*args):
        raise AssertionError("the squeezed recurrence ran")

    monkeypatch.setattr(states, "squeezed_coeffs_recurrence", no_build)
    with pytest.raises(DivergenceError, match=r"\|zeta\|=.* convergence radius 1"):
        ho_squeezed(1.0, zeta)


@pytest.mark.parametrize("tau", [0.0, 0.1])
@pytest.mark.parametrize("zeta", [1.5, 1.0, -1.0, 0.6 + 0.8j, 2j])
def test_nc_squeezed_outside_radius_fails_before_any_build(monkeypatch, zeta, tau):
    import defock.states as states

    def no_recurrence(*args):
        raise AssertionError("the squeezed recurrence ran")

    monkeypatch.setattr(states, "squeezed_coeffs_recurrence", no_recurrence)
    for basis in ("bare", "perturbed"):
        with pytest.raises(DivergenceError,
                           match=r"^nc_squeezed: \|zeta\|=.* outside the convergence radius 1$"):
            nc_squeezed(1.0, zeta, tau, basis=basis)


@pytest.mark.parametrize("tau", [0.05, 2.0])
@pytest.mark.parametrize("zeta", [0.9, 1.1])
def test_nc_squeezed_coefficient_ratio_tends_to_zeta(tau, zeta):
    # |c_{n+1} / c_{n-1}| -> |zeta| for f^2 affine in n, so the radius is 1
    d = Deformation.perturbative_nc(tau)
    # log|c_n| = log|I(n)| - log rho_n / 2, the series past the radius as well
    log_c = squeezed_coeffs_recurrence(1.0, zeta, d, 4002)[0] - 0.5 * log_rho_table(d, 4002)
    # geometric mean of the two-level ratio over levels 3980 .. 4000
    ratio = math.exp((log_c[4001] - log_c[3981]) / 10.0)
    assert ratio == pytest.approx(zeta, abs=0.005)


def _squeezed_norm_40_digits(alpha, zeta, tau):
    """sqrt(sum_n |I(n)|^2 / rho_n) at 40 digits, with the seed I(n) run by
    its own recurrence and f^2(n) = 1 + tau/2 + tau n/2, so
    rho_n = prod_{k <= n} k f^2(k); tau = 0 is the harmonic kernel.  The
    sum stops once two successive terms are below 1e-50 of the partial sum
    (two, because the series of alpha = 0 is zero at every odd level)."""
    with mp.workdps(40):
        alpha, zeta, tau = mp.mpc(alpha), mp.mpc(zeta), mp.mpf(tau)
        prev, cur = mp.mpc(1), alpha  # I(n - 1), I(n)
        rho, total, last = mp.mpf(1), mp.mpf(1), mp.mpf(1)
        for n in range(1, 100_000):
            f2 = 1 + tau / 2 + tau * n / 2
            rho *= n * f2
            term = abs(cur) ** 2 / rho
            total += term
            if max(term, last) < 1e-50 * total:
                return float(mp.sqrt(total))
            last = term
            prev, cur = cur, alpha * cur - zeta * n * f2 * prev
    raise AssertionError(f"40-digit squeezed sum did not converge at zeta={zeta}")


def test_squeezed_normalization_helper():
    for alpha, zeta, d, tau in (
        (1.0, 0.25, Deformation.perturbative_nc(0.1), 0.1),
        (1.3, -0.8, HARMONIC, 0.0),  # slow: the first 64 levels sum to 8.3% too little
        (0.7 + 0.2j, 0.2 + 0.15j, Deformation.perturbative_nc(0.05), 0.05),
    ):
        got = squeezed_normalization(alpha, zeta, d)
        want = _squeezed_norm_40_digits(alpha, zeta, tau)
        assert got == pytest.approx(want, rel=1e-14), (alpha, zeta, tau)
    # the series diverges on and outside the unit circle
    for zeta in (1.0, -1.2, 0.6 + 0.8j):
        with pytest.raises(DivergenceError, match="outside the convergence radius 1"):
            squeezed_normalization(1.0, zeta, HARMONIC)


# -------------------------------------------------------------------- cats

def test_cat_parity():
    even = cat_q(1.0, 0.9, "even")
    odd = cat_q(1.0, 0.9, "odd")
    assert np.max(np.abs(even.amps[1::2])) == 0.0
    assert np.max(np.abs(odd.amps[0::2])) == 0.0


def test_cat_odd_alpha_zero_degenerate():
    with pytest.raises(DegenerateStateError):
        cat_q(0.0, 0.9, "odd")


def test_cat_norm_q_one():
    # at q = 1 the overlap identity reduces to 2 (1 + e^{-2|a|^2})
    assert cat_norm_sq(1.0, 1.0, "even") == pytest.approx(
        2.0 * (1.0 + math.exp(-2.0)), rel=1e-12
    )
    assert cat_norm_sq(1.0, 1.0, "odd") == pytest.approx(
        2.0 * (1.0 - math.exp(-2.0)), rel=1e-12
    )


def test_cat_norm_direct_series_oracle():
    # || |a>_q +- |-a>_q ||^2 with normalized inputs, via the amplitudes
    alpha, q = 1.0, 0.9
    plus = q_coherent(alpha, q, 64)
    minus = q_coherent(-alpha, q, 64)
    for parity, sign in (("even", 1.0), ("odd", -1.0)):
        direct = float(np.vdot(plus.amps + sign * minus.amps,
                               plus.amps + sign * minus.amps).real)
        assert cat_norm_sq(alpha, q, parity) == pytest.approx(direct, rel=1e-10)


# -------------------------------------------------------------------- PACS

def test_pacs_limits_and_support():
    a = pacs_q(0.7, 0.9, 0)
    b = q_coherent(0.7, 0.9)
    assert np.max(np.abs(a.amps - b.amps)) == 0.0
    s = pacs_q(0.8, 0.9, 3)
    assert np.max(np.abs(s.amps[:3])) == 0.0
    assert abs(s.amps[3]) > 0.0


def test_pacs_norm_q_one():
    # <a| a a^dag |a> = 1 + |a|^2 at q = 1, m = 1
    assert pacs_norm_sq(1.0, 1.0, 1) == pytest.approx(2.0, rel=1e-10)


def test_pacs_norm_matches_amplitude_series():
    # rebuild N_q^2(alpha, m) from the raw series and compare
    alpha, q, m = 0.8, 0.9, 2
    from oracles import q_log_factorial

    lam = abs(alpha) ** 2
    total = 0.0
    for n in range(200):
        log_term = (
            n * math.log(lam)
            + q_log_factorial(n + m, q)
            - 2.0 * q_log_factorial(n, q)
        )
        total += math.exp(log_term)
    assert pacs_norm_sq(alpha, q, m) == pytest.approx(
        total / q_exponential(lam, q), rel=1e-10
    )


def test_pacs_validation():
    with pytest.raises(ValidationError):
        pacs_q(0.5, 0.9, -1)
    with pytest.raises(ValidationError):
        pacs_q(0.5, 0.9, 70, n_max=64)
    with pytest.raises(DivergenceError):
        pacs_q(1.2, 0.5, 1)


# ------------------------------------------------------------- serialization

@pytest.mark.parametrize(
    "state_factory",
    [
        lambda: glauber(0.0, 8),
        lambda: glauber(1.0 + 0.5j),
        lambda: nc_squeezed(1.0, 0.25, 0.1),
    ],
)
def test_json_roundtrip_bit_exact(state_factory):
    s = state_factory()
    t = FockState.from_json(s.to_json())
    assert t.n_max == s.n_max
    assert t.tail_mass == s.tail_mass
    assert t.label == s.label
    assert np.array_equal(t.amps, s.amps)


def test_from_json_malformed():
    with pytest.raises(ValidationError):
        FockState.from_json("{not json")
    with pytest.raises(ValidationError):
        FockState.from_json('{"label": "x", "n_max": 3, "tail_mass": 0, "amps": [[1,0]]}')


# ------------------------------------------------- summed normalizations

_NORM_PROPERTY = settings(database=None, derandomize=True, deadline=None, max_examples=60)


def _assert_norm_matches_raw_series(family, **opts):
    p = SimpleNamespace(**opts)
    assert FAMILIES[family].norm(p) == pytest.approx(summed_norm(family, p), rel=1e-13)


@_NORM_PROPERTY
@given(mag=st.floats(0.0, 6.0), arg=st.floats(-math.pi, math.pi), tau=st.floats(0.0, 0.5))
def test_nlcs_norm_matches_raw_series(mag, arg, tau):
    _assert_norm_matches_raw_series("nlcs", alpha=cmath.rect(mag, arg), tau=tau)


@_NORM_PROPERTY
@given(J=st.floats(0.0, 40.0), tau=st.floats(0.0, 0.5))
def test_gk_norm_matches_raw_series(J, tau):
    _assert_norm_matches_raw_series("gk", J=J, tau=tau)


@_NORM_PROPERTY
@given(family=st.sampled_from(("q-coherent", "cat", "pacs")),
       q=st.one_of(st.just(1.0), st.floats(0.5, 0.98)), mag=st.floats(0.0, 6.0),
       arg=st.floats(-math.pi, math.pi), parity=st.sampled_from(("even", "odd")),
       m=st.integers(0, 5))
@example(family="cat", q=0.9, mag=1e-4, arg=0.0, parity="odd", m=0)
@example(family="cat", q=0.9, mag=3e-5, arg=0.0, parity="odd", m=0)
def test_q_family_norms_match_raw_series(family, q, mag, arg, parity, m):
    # up to x = |alpha|^2 (1 - q^2) = 0.95, inside the radius x < 1
    if q < 1.0:
        mag = min(mag, math.sqrt(0.95 / (1.0 - q * q)))
    if family == "cat" and parity == "odd" and mag == 0.0:
        return  # the zero vector; cat_q refuses it
    _assert_norm_matches_raw_series(family, alpha=cmath.rect(mag, arg), q=q,
                                    parity=parity, m=m)


@_NORM_PROPERTY
@given(family=st.sampled_from(("nc-squeezed", "ho-squeezed")), mag=st.floats(0.0, 6.0),
       arg=st.floats(-math.pi, math.pi), zeta_mag=st.floats(0.0, 0.9),
       zeta_arg=st.floats(-math.pi, math.pi), tau=st.floats(0.0, 0.5))
@example(family="nc-squeezed", mag=6.0, arg=0.0, zeta_mag=0.8, zeta_arg=math.pi, tau=0.1)
@example(family="ho-squeezed", mag=1.5, arg=0.0, zeta_mag=0.8, zeta_arg=math.pi, tau=0.0)
def test_squeezed_norms_match_raw_series(family, mag, arg, zeta_mag, zeta_arg, tau):
    # the whole series, whatever truncation the state needed
    p = SimpleNamespace(alpha=cmath.rect(mag, arg), zeta=cmath.rect(zeta_mag, zeta_arg),
                        tau=tau, basis="perturbed")
    try:
        FAMILIES[family].build(p, 64)
    except TruncationError:
        assume(False)  # `state` prints no norm_const for a state it cannot build
    want = _squeezed_norm_40_digits(p.alpha, p.zeta, tau if family == "nc-squeezed" else 0.0)
    assert FAMILIES[family].norm(p) == pytest.approx(want, rel=1e-13)


def test_summed_norms_stop_at_eight_times_max_n_max():
    from defock.specfun import _log_factorials
    from defock.states import _series_norm

    lengths = []

    def flat(w, rows):
        lengths.append(w)
        return np.zeros((1, w)), np.ones((1, w))

    with pytest.raises(DivergenceError, match="^flat normalization series did not converge$"):
        _series_norm(flat, "flat")
    assert lengths == [128, 256, 512, 1024, 2048, 8 * MAX_N_MAX]
    _log_factorials.cache_clear()  # time the factorial table this call needs, too
    start = time.perf_counter()
    with pytest.raises(DivergenceError, match="^nlcs normalization series did not converge$"):
        nlcs_normalization(1e6, 0.0)
    assert time.perf_counter() - start < 0.5
    # the q edge of the command line: x = 0.95 at q = 0.9 fits in 512 levels
    q = 0.9
    alpha = math.sqrt(0.95 / (1.0 - q * q))
    assert q_coherent(alpha, q, MAX_N_MAX).n_max == MAX_N_MAX
    for family, parity in (("q-coherent", "even"), ("cat", "even"), ("cat", "odd"),
                           ("pacs", "even")):
        _assert_norm_matches_raw_series(family, alpha=complex(alpha), q=q, parity=parity, m=2)
    assert q_normalization(alpha, q) == pytest.approx(
        math.sqrt(q_exponential(alpha ** 2, q)), rel=1e-13)


# ------------------------------------------------------------ rows of states

def tail_mass_one_row(log_w, n_keep):
    """The tail estimate of one weight series by 1-D reductions, as the
    driver took it before it built rows of states; reference only."""
    finite = log_w[np.isfinite(log_w)]
    if finite.size == 0:
        return 0.0
    w = np.exp(log_w - finite.max())
    sums = [float(np.sum(part)) for part in (w[:n_keep], w[n_keep:], w[-4:], w[-8:-4])]
    return states._tail_fraction(*sums)


def scaled_values_one_row(log_abs, phase):
    """One row's coefficients over their largest magnitude, by 1-D
    reductions; reference only."""
    finite = log_abs[np.isfinite(log_abs)]
    return np.exp(log_abs - (finite.max() if finite.size else 0.0)) * phase


@settings(database=None, derandomize=True, deadline=None, max_examples=150)
@given(rows=st.integers(1, 70), width=st.integers(9, 600), scale=st.sampled_from([1, 30, 300]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_row_reductions_bit_equal_to_one_row_at_a_time(rows, width, scale, seed, data):
    rng = np.random.default_rng(seed)
    n_keep = data.draw(st.integers(1, width - 8))
    log_w = rng.normal(size=(rows, width)) * scale
    log_w[rng.random(log_w.shape) < 0.1] = -math.inf  # zeros of a series
    log_w[rng.random(rows) < 0.1] = -math.inf  # a row without a weight
    phase = np.exp(1j * rng.normal(size=(rows, width)))
    got = states._tail_mass(log_w, n_keep)
    assert np.array(got).tobytes() == \
        np.array([tail_mass_one_row(row, n_keep) for row in log_w]).tobytes()
    # sliced as the driver slices the guarded levels
    got = states._scaled_values(log_w[:, :n_keep + 4], phase[:, :n_keep + 4])
    assert got.tobytes() == np.array([scaled_values_one_row(a[:n_keep + 4], p[:n_keep + 4])
                                      for a, p in zip(log_w, phase)]).tobytes()


@pytest.mark.parametrize("family, n_max, long", [("nlcs", MAX_N_MAX, 4096),
                                                   ("nc-squeezed", 64, 1024)])
def test_row_builder_memory_does_not_grow_with_the_row(family, n_max, long):
    # the squeezed row runs the float64 recurrence, whose logs make one
    # Python float per level and alpha: slow under tracemalloc
    options = SimpleNamespace(tau=0.1, zeta=0.25, basis="perturbed")
    peaks = []
    for count in (64, 64, long):  # the first run fills the caches
        alphas = np.linspace(0.0, 2.0, count)
        tracemalloc.start()
        for state in states._scan_states(family, alphas, options, n_max):
            assert state.n_max == n_max
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # one block of 64 states holds at most a few MB; the whole row would
    # hold 16 or 64 times more
    assert peaks[2] <= 1.1 * peaks[1]
