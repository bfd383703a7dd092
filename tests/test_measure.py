import math

import mpmath as mp
import numpy as np
import pytest

from defock import measure
from defock.errors import QuadratureError, ValidationError
from defock.measure import MeasureParams, calibrate, moment_check, moment_table, omega
from oracles import measure_log_omega, measure_moment_integral

_MEMO_TAUS = [measure.MIN_TAU, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0]


def test_calibrate_parameter_identification():
    assert calibrate(0.1).mu == pytest.approx(21.0, abs=1e-12)
    assert calibrate(0.1).beta == 0.0
    assert calibrate(2.0).mu == pytest.approx(2.0, abs=1e-12)


def test_zeroth_moment_is_enforced():
    p = calibrate(0.5)
    chk = moment_check(0, p)
    assert chk.target == pytest.approx(1.0, abs=1e-13)
    assert chk.rel_err <= 1e-10


@pytest.mark.parametrize("tau", [0.1, 2.0])
def test_moments_match_rho(tau):
    p = calibrate(tau)
    for chk in moment_table(p, 6):
        assert chk.rel_err <= 1e-6, (tau, chk.n, chk.rel_err)


def test_omega_against_mpmath_kernel():
    # same formula evaluated with the mpmath Bessel as an independent route
    p = calibrate(0.1)
    t = 1.0
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
    assert omega(t, p) == pytest.approx(math.exp(log_ref), rel=1e-8)


@pytest.mark.parametrize("tau", [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0])
def test_ten_moments_and_quad_error(tau):
    for chk in moment_table(calibrate(tau), 10):
        assert chk.rel_err <= 1e-13, (tau, chk.n, chk.rel_err)
        assert 0.0 <= chk.quad_err <= 1e-8 * chk.computed, (tau, chk.n, chk.quad_err)


def test_prefactor_evaluated_once_per_tau(monkeypatch):
    calls = []
    monkeypatch.setattr(measure, "log_gamma", lambda x: calls.append(x) or math.lgamma(x))
    tau = 0.3125  # a value no other test calibrates, so the prefactor cache is cold
    moment_table(calibrate(tau), 10)
    assert calls == [1.0]


@pytest.mark.parametrize("tau", _MEMO_TAUS)
def test_shared_nodes_give_the_bits_of_one_bessel_call_per_integrand_call(tau):
    raw = MeasureParams(tau=tau, mu=1.0 + 2.0 / tau, beta=0.0, norm=1.0)
    p = calibrate(tau)
    assert p.norm == 1.0 / measure_moment_integral(0, raw)[0]
    for chk in moment_table(p, 10):
        assert (chk.computed, chk.quad_err) == measure_moment_integral(chk.n, p), chk.n
    for t in np.geomspace(1e-8, 1e3, 50):
        assert omega(float(t), p) == math.exp(measure_log_omega(float(t), p)), t


@pytest.mark.parametrize("tau", _MEMO_TAUS)
def test_one_bessel_call_per_distinct_node(monkeypatch, tau):
    # calibrate's raw zeroth moment and moments 0..10 visit these nodes
    raw = MeasureParams(tau=tau, mu=1.0 + 2.0 / tau, beta=0.0, norm=1.0)
    nodes = set()
    measure_moment_integral(0, raw, nodes)
    p = calibrate(tau)
    for n in range(11):
        measure_moment_integral(n, p, nodes)
    nodes.discard(0.0)  # the integrand returns 0 there before any Bessel call
    calls = []
    real = measure.bessel_k_log
    monkeypatch.setattr(measure, "bessel_k_log", lambda nu, x: calls.append(x) or real(nu, x))
    per_job = []
    for _ in range(2):  # a second job at the same tau reuses nothing of the first
        calls.clear()
        q = calibrate(tau)
        moment_table(q, 10)
        per_job.append(len(calls))
    assert per_job == [len(nodes)] * 2
    assert len(nodes) <= 400
    # the memo is invisible: equality and repr read the four fields only
    assert q == MeasureParams(tau=tau, mu=p.mu, beta=p.beta, norm=p.norm)
    assert repr(q) == f"MeasureParams(tau={tau!r}, mu={p.mu!r}, beta=0.0, norm={p.norm!r})"


def test_omega_positive_on_log_grid():
    p = calibrate(0.5)
    for t in np.geomspace(1e-6, 60.0, 40):
        assert omega(float(t), p) > 0.0


def test_omega_limits():
    p = calibrate(0.5)
    # exponential Bessel decay: monotone to zero on the far tail
    tail = [omega(t, p) for t in (50.0, 80.0, 120.0, 200.0)]
    assert all(b < a for a, b in zip(tail, tail[1:]))
    assert omega(60000.0, p) == 0.0  # graceful underflow
    # t -> 0+ approaches a finite limit for mu > 0
    near0 = [omega(t, p) for t in (1e-10, 1e-12)]
    assert near0[0] == pytest.approx(near0[1], rel=1e-4)
    assert near0[0] > 0.0


def test_domain_errors():
    p = calibrate(0.5)
    with pytest.raises(ValidationError):
        omega(0.0, p)
    with pytest.raises(ValidationError):
        omega(-1.0, p)
    with pytest.raises(ValidationError):
        calibrate(0.0)
    with pytest.raises(ValidationError):
        moment_check(-1, p)
    with pytest.raises(ValidationError):
        MeasureParams(tau=0.5, mu=1.0, beta=2.0, norm=1.0)
    with pytest.raises(ValidationError):
        MeasureParams(tau=0.5, mu=1.0, beta=0.0, norm=0.0)


def _no_quadrature(*args, **kwargs):
    raise AssertionError("quadrature ran")


def test_tau_below_the_floor_refused_before_any_quadrature(monkeypatch):
    monkeypatch.setattr(measure, "_moment_integral", _no_quadrature)
    for tau in (measure.MIN_TAU * (1.0 - 1e-12), 0.01, 1e-300, 0.0, -1.0, math.nan):
        with pytest.raises(ValidationError, match="tau must be >= 0.0125"):
            calibrate(tau)


def test_tau_at_the_floor_calibrates():
    checks = moment_table(calibrate(measure.MIN_TAU), 10)
    assert max(chk.rel_err for chk in checks) < 1e-12


@pytest.mark.parametrize("tau, top", [(0.5, 112), (4.0, 90)])
def test_moment_past_the_double_range_refused_before_any_quadrature(monkeypatch, tau, top):
    # rho_n leaves the double range from n = top + 1 on
    p = calibrate(tau)
    monkeypatch.setattr(measure, "_moment_integral", _no_quadrature)
    for n_top in (top + 1, 170, 171, 10**12):
        with pytest.raises(ValidationError, match=f"rho_{n_top} at tau={tau!r} exceeds"):
            moment_table(p, n_top)
    with pytest.raises(AssertionError, match="quadrature ran"):
        moment_table(p, top)


def test_overflow_in_the_quadrature_is_a_quadrature_error():
    # the uncalibrated integrand at tau 0.01 peaks near e^868
    raw = MeasureParams(tau=0.01, mu=1.0 + 2.0 / 0.01, beta=0.0, norm=1.0)
    with pytest.raises(QuadratureError, match="left the double range"):
        moment_check(0, raw)
    # a quadrature that sums to inf is not a moment
    with pytest.raises(QuadratureError, match="value=inf"):
        moment_check(143, calibrate(0.05))
