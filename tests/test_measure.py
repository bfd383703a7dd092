import math

import mpmath as mp
import numpy as np
import pytest

from defock.errors import ValidationError
from defock.measure import MeasureParams, calibrate, moment_check, moment_table, omega


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


def test_truncated_upper_limit_monotone():
    p = calibrate(0.5)
    values = [moment_check(2, p, upper=r).computed for r in (2.0, 8.0, 32.0)]
    full = moment_check(2, p).computed
    assert values[0] < values[1] < values[2] <= full * (1 + 1e-12)


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
