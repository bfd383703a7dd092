import math
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defock import measure
from defock.deform import Deformation, log_rho_table
from defock.errors import QuadratureError, ValidationError
from defock.measure import MeasureParams, moment_table, omega
from oracles import measure_moment_integral

_MEMO_TAUS = [measure.MIN_TAU, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0]


def test_calibrate_parameter_identification():
    assert MeasureParams(0.1).mu == pytest.approx(21.0, abs=1e-12)
    assert MeasureParams(0.1).beta == 0.0
    assert MeasureParams(2.0).mu == pytest.approx(2.0, abs=1e-12)


def test_zeroth_moment_is_enforced():
    p = MeasureParams(0.5)
    chk = moment_table(p, 0)[0]
    assert chk.target == pytest.approx(1.0, abs=1e-13)
    assert chk.rel_err <= 1e-10


@pytest.mark.parametrize("tau", [0.1, 2.0])
def test_moments_match_rho(tau):
    p = MeasureParams(tau)
    for chk in moment_table(p, 6):
        assert chk.rel_err <= 1e-6, (tau, chk.n, chk.rel_err)


def test_omega_against_mpmath_kernel():
    # same formula evaluated with the mpmath Bessel as an independent route
    p = MeasureParams(0.1)
    for t in np.geomspace(1e-8, 1e3, 12).tolist():
        x = 2.0 * math.sqrt(2.0 * t / p.tau)
        with mp.workdps(30):
            log_k = float(mp.log(mp.besselk(p.mu, x)))
        log_ref = (
            math.log(p.norm)
            + 0.5 * (4.0 + p.mu) * math.log(2.0)
            - math.log(p.tau)
            + 0.5 * p.mu * math.log(t / p.tau)
            + log_k
        )
        assert omega(t, p) == pytest.approx(math.exp(log_ref), rel=1e-12), t


@pytest.mark.parametrize("tau", [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0])
def test_ten_moments_and_quad_error(tau):
    for chk in moment_table(MeasureParams(tau), 10):
        assert chk.rel_err <= 1e-13, (tau, chk.n, chk.rel_err)
        assert 0.0 <= chk.quad_err <= 1e-8 * chk.computed, (tau, chk.n, chk.quad_err)


def test_prefactor_evaluated_once_per_tau(monkeypatch):
    # the norm 1/Gamma(2 + 2/tau) is the only log_gamma of a moment table
    calls = []
    monkeypatch.setattr(measure, "log_gamma", lambda x: calls.append(x) or math.lgamma(x))
    tau = 0.3125
    moment_table(MeasureParams(tau), 10)
    assert calls == [2.0 + 2.0 / tau]


def test_one_rho_table_and_one_deformation_per_moment_table(monkeypatch):
    # every target, and the overflow refusal, reads one table of n_top + 1 entries
    tables, built = [], []
    monkeypatch.setattr(measure, "log_rho_table",
                        lambda d, n: tables.append((d, n)) or log_rho_table(d, n))
    init = Deformation.__post_init__
    monkeypatch.setattr(Deformation, "__post_init__", lambda d: built.append(d) or init(d))
    for tau in (0.3125, 4.0):  # 4 is past the perturbative limit, which warns
        tables.clear()
        built.clear()
        moment_table(MeasureParams(tau), 10)
        assert len(built) == 1
        assert tables == [(Deformation("nc", tau=tau), 11)]


@pytest.mark.parametrize("tau", [measure.MIN_TAU, 0.05, 0.5, 1.0, 4.0, 1e6])
def test_targets_bit_equal_to_one_table_per_moment(tau):
    # the one table's entries equal the last entry of a table per n, as cumsum
    # runs in order; up to the last rho_n that fits a double
    d = Deformation("nc", tau=tau)
    top = max(n for n, value in enumerate(log_rho_table(d, 171)) if value <= measure._LOG_MAX)
    checks = moment_table(MeasureParams(tau), top)
    assert [chk.n for chk in checks] == list(range(top + 1))
    for chk in checks:
        assert chk.target == math.exp(log_rho_table(d, chk.n + 1)[chk.n]), chk.n


@pytest.mark.parametrize("tau", _MEMO_TAUS)
def test_moment_table_agrees_with_the_adaptive_quadrature(tau):
    # QUADPACK's qagie over u = sqrt(t), with Amos' K, is an independent route
    for chk in moment_table(MeasureParams(tau), 10):
        value, _ = measure_moment_integral(chk.n, tau)
        assert abs(chk.computed - value) <= 1e-12 * value, chk.n


@pytest.mark.parametrize("tau", _MEMO_TAUS)
def test_one_bessel_call_per_distinct_node(monkeypatch, tau):
    # one bessel_k_log call takes every node of a moment table at once
    calls = []
    real = measure.bessel_k_log
    monkeypatch.setattr(measure, "bessel_k_log", lambda nu, x: calls.append(x) or real(nu, x))
    per_job = []
    for _ in range(2):  # a second job at the same tau reuses nothing of the first
        calls.clear()
        q = MeasureParams(tau)
        moment_table(q, 10)
        assert len(calls) == 1
        per_job.append(len(calls[0]))
        assert len(np.unique(calls[0])) == len(calls[0])
    assert per_job[0] == per_job[1] <= 700
    # nothing else is held: equality and repr read tau only
    assert q == MeasureParams(tau=tau)
    assert repr(q) == f"MeasureParams(tau={tau!r})"


def _closed_form_log_rho(tau: float) -> list:
    # ln rho_n = n ln(tau/2) + ln n! + ln Gamma(n+2+2/tau) - ln Gamma(2+2/tau),
    # at 40 digits, for n = 0 .. 170
    with mp.workdps(40):
        t = mp.mpf(tau)
        logs = [mp.mpf(0)]
        for n in range(1, 171):
            logs.append(logs[-1] + mp.log(t / 2) + mp.log(n) + mp.log(n + 1 + 2 / t))
    return logs


@settings(database=None, derandomize=True, deadline=None, max_examples=60)
@given(tau=st.floats(min_value=measure.MIN_TAU, max_value=sys.float_info.max),
       share=st.floats(min_value=0.0, max_value=1.0))
@example(tau=measure.MIN_TAU, share=1.0)
@example(tau=100.0, share=0.0)  # moment 0 alone sets the widest step
@example(tau=4.0, share=1.0)
@example(tau=10.0, share=1.0)
@example(tau=1e6, share=1.0)
@example(tau=sys.float_info.max, share=1.0)
def test_moments_within_1e_12_of_the_closed_form_under_their_error_estimate(tau, share):
    # every accepted tau and every n_top up to the last rho_n that fits a
    # double (the margin keeps the target's own rounding off that edge)
    logs = _closed_form_log_rho(tau)
    cap = max(n for n, value in enumerate(logs) if value <= math.log(sys.float_info.max) - 1e-9)
    for chk in moment_table(MeasureParams(tau), round(share * cap)):
        with mp.workdps(40):
            exact = mp.exp(logs[chk.n])
            err = float(abs(mp.mpf(chk.computed) - exact))
            assert err <= 1e-12 * float(exact), (chk.n, err / float(exact))
        assert chk.quad_err >= err, (chk.n, err, chk.quad_err)


def test_omega_positive_on_log_grid():
    p = MeasureParams(0.5)
    for t in np.geomspace(1e-6, 60.0, 40):
        assert omega(float(t), p) > 0.0


def test_omega_limits():
    p = MeasureParams(0.5)
    # exponential Bessel decay: monotone to zero on the far tail
    tail = [omega(t, p) for t in (50.0, 80.0, 120.0, 200.0)]
    assert all(b < a for a, b in zip(tail, tail[1:]))
    assert omega(60000.0, p) == 0.0  # graceful underflow
    # t -> 0+ approaches a finite limit for mu > 0
    near0 = [omega(t, p) for t in (1e-10, 1e-12)]
    assert near0[0] == pytest.approx(near0[1], rel=1e-4)
    assert near0[0] > 0.0


def test_domain_errors():
    p = MeasureParams(0.5)
    with pytest.raises(ValidationError):
        omega(0.0, p)
    with pytest.raises(ValidationError):
        omega(-1.0, p)
    with pytest.raises(ValidationError):
        MeasureParams(0.0)
    with pytest.raises(ValidationError):
        moment_table(p, -1)
    # tau is the one field; mu, beta and norm follow from it
    with pytest.raises(ValidationError, match="tau must be >= 0.0125"):
        MeasureParams(tau=0.01)
    with pytest.raises(ValidationError, match="tau must be finite"):
        MeasureParams(tau=math.inf)
    with pytest.raises(TypeError):
        MeasureParams(tau=0.5, mu=1.0, beta=2.0, norm=1.0)
    with pytest.raises(AttributeError):
        p.mu = 2.0


def _no_quadrature(*args, **kwargs):
    raise AssertionError("quadrature ran")


def test_tau_below_the_floor_refused_before_any_quadrature(monkeypatch):
    monkeypatch.setattr(measure, "_trapezoid", _no_quadrature)
    monkeypatch.setattr(measure, "bessel_k_log", _no_quadrature)
    for tau in (measure.MIN_TAU * (1.0 - 1e-12), 0.01, 1e-300, 0.0, -1.0, math.nan):
        with pytest.raises(ValidationError, match="tau must be >= 0.0125"):
            MeasureParams(tau)
    with pytest.raises(ValidationError, match="tau must be finite"):
        MeasureParams(math.inf)


def test_tau_at_the_floor_calibrates():
    checks = moment_table(MeasureParams(measure.MIN_TAU), 10)
    assert max(chk.rel_err for chk in checks) < 1e-12


@pytest.mark.parametrize("tau, top", [(0.5, 112), (4.0, 90)])
def test_moment_past_the_double_range_refused_before_any_quadrature(monkeypatch, tau, top):
    # rho_n leaves the double range from n = top + 1 on
    p = MeasureParams(tau)
    monkeypatch.setattr(measure, "_trapezoid", _no_quadrature)
    for n_top in (top + 1, 170, 171, 10**12):
        with pytest.raises(ValidationError, match=f"rho_{n_top} at tau={tau!r} exceeds"):
            moment_table(p, n_top)
    with pytest.raises(AssertionError, match="quadrature ran"):
        moment_table(p, top)


@pytest.mark.parametrize("n_top", [171, 10**9])
def test_moment_past_the_table_cap_refused_without_a_long_table(monkeypatch, n_top):
    # the table stops at the cap, n = 170, however large n_top is
    p = MeasureParams(0.5)
    monkeypatch.setattr(measure, "_trapezoid", _no_quadrature)
    lengths = []
    monkeypatch.setattr(measure, "log_rho_table",
                        lambda d, n: lengths.append(n) or log_rho_table(d, n))
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=rf"^rho_{n_top} at tau=0.5 exceeds the double range$"):
            moment_table(p, n_top)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(lengths, default=1) <= 171
    assert peak < 64 * 1024, peak


def test_overflow_in_the_quadrature_is_a_quadrature_error(monkeypatch):
    # a rule that sums to inf is not a moment
    real = measure.bessel_k_log
    monkeypatch.setattr(measure, "bessel_k_log", lambda nu, x: real(nu, x) + 1000.0)
    with pytest.raises(QuadratureError, match=r"left the double range \(n=0\)"):
        moment_table(MeasureParams(0.5), 0)
    monkeypatch.setattr(measure, "bessel_k_log", real)
    # the adaptive quadrature summed moment 143 at tau 0.05 (2.07e307) to
    # inf; the rule has it, and moment 144 is refused before it runs
    assert moment_table(MeasureParams(0.05), 143)[143].rel_err < 1e-12
    with pytest.raises(ValidationError, match="rho_144 at tau=0.05 exceeds"):
        moment_table(MeasureParams(0.05), 144)
