import math

import numpy as np
import pytest

from defock.deform import (
    Deformation,
    SpectrumCoeffs,
    dimensionless_e,
    energy_level,
    f_factorial_squared,
    f_squared,
    log_f_factorial_squared,
    log_f_factorial_table,
    log_rho,
    rho,
)
from defock.errors import PerturbativeRegimeWarning, ValidationError
from defock.specfun import pochhammer


def nc(tau):
    if tau > 0.5:
        with pytest.warns(PerturbativeRegimeWarning):
            return Deformation.perturbative_nc(tau)
    return Deformation.perturbative_nc(tau)


def test_spectrum_coeffs():
    sc = SpectrumCoeffs.from_tau(0.1)
    assert sc.A == pytest.approx(1.05)
    assert sc.B == pytest.approx(0.05)
    assert sc.A == pytest.approx(1.0 + sc.B)


def test_f_squared_examples():
    h = Deformation.harmonic()
    for n in (0, 1, 7, 100):
        assert f_squared(h, n) == 1.0
    assert f_squared(nc(0.1), 2) == pytest.approx(1.15, abs=1e-15)
    assert f_squared(Deformation.q_deformed(0.5), 2) == pytest.approx(0.625, rel=1e-14)
    assert f_squared(Deformation.q_deformed(0.5), 0) == 1.0


@pytest.mark.parametrize("d", [
    Deformation.harmonic(),
    Deformation.perturbative_nc(0.3),
    Deformation.q_deformed(0.7),
    Deformation.q_deformed(1.0),
], ids=["harmonic", "nc", "q", "q1"])
def test_f_squared_array_equals_scalar(d):
    ns = np.arange(200)
    arr = f_squared(d, ns)
    assert arr.shape == ns.shape
    assert arr.tolist() == [f_squared(d, int(k)) for k in ns]
    assert f_squared(d, ns.reshape(10, 20)).tolist() == arr.reshape(10, 20).tolist()
    with pytest.raises(ValidationError):
        f_squared(d, np.array([1, -1]))


def test_f_factorial_examples():
    assert f_factorial_squared(Deformation.harmonic(), 0) == 1.0
    assert f_factorial_squared(nc(0.1), 0) == 1.0
    assert f_factorial_squared(nc(0.1), 1) == pytest.approx(1.1, rel=1e-14)


@pytest.mark.parametrize("tau", [0.01, 0.1, 0.5, 2.0])
def test_f_factorial_closed_form_identity(tau):
    # running product equals (tau/2)^n (2 + 2/tau)^(n)
    d = nc(tau)
    for n in range(0, 101, 7):
        running = log_f_factorial_squared(d, n)
        closed = n * math.log(tau / 2.0) + math.log(pochhammer(2.0 + 2.0 / tau, n)) if n else 0.0
        assert abs(running - closed) <= 1e-12 * max(1.0, abs(closed))


def test_inverse_f_factorial_first_order():
    # 1/f^2(n)! = 1 - (tau/4) n (3 + n) + O(tau^2), residual scaling checked by halving
    for n in range(1, 11):
        resid = {}
        for tau in (0.01, 0.005):
            value = 1.0 / f_factorial_squared(nc(tau), n)
            first = 1.0 - (tau / 4.0) * n * (3 + n)
            resid[tau] = abs(value - first)
        assert resid[0.01] <= 5.0 * n**4 * 0.01**2
        ratio = resid[0.01] / resid[0.005]
        assert 3.0 < ratio < 5.0


def test_rho_examples():
    assert rho(Deformation.harmonic(), 0) == 1.0
    assert rho(nc(0.1), 0) == 1.0
    assert rho(Deformation.harmonic(), 4) == pytest.approx(24.0, rel=1e-13)
    assert rho(nc(0.1), 2) == pytest.approx(2.0 * 1.1 * 1.15, rel=1e-13)


def test_rho_ratio_is_level_sequence():
    for d in (Deformation.harmonic(), nc(0.1), Deformation.q_deformed(0.8)):
        for n in range(1, 60):
            ratio = math.exp(log_rho(d, n) - log_rho(d, n - 1))
            assert ratio == pytest.approx(dimensionless_e(d, n), rel=1e-12)


def test_q_one_reproduces_harmonic_exactly():
    h = Deformation.harmonic()
    q1 = Deformation.q_deformed(1.0)
    for n in range(50):
        assert f_squared(q1, n) == f_squared(h, n)
        assert log_f_factorial_squared(q1, n) == log_f_factorial_squared(h, n)
        assert log_rho(q1, n) == log_rho(h, n)


def test_energy_levels():
    assert energy_level(nc(0.1), 0, omega=0.5) == 0.0
    assert energy_level(nc(0.1), 1, omega=0.5, hbar=1.0) == pytest.approx(0.55, rel=1e-14)
    for n in range(5):
        assert energy_level(Deformation.perturbative_nc(0.0), n, omega=2.0) == pytest.approx(
            2.0 * n, rel=1e-14
        )
    assert dimensionless_e(nc(0.1), 0) == 0.0


def test_dimensionless_e_vectorized():
    d = nc(0.2)
    ns = np.arange(6)
    vals = dimensionless_e(d, ns)
    assert vals.shape == (6,)
    assert vals[3] == pytest.approx(1.1 * 3 + 0.1 * 9, rel=1e-14)


def test_tables_are_readonly_and_consistent():
    d = nc(0.1)
    table = log_f_factorial_table(d, 20)
    with pytest.raises(ValueError):
        table[0] = 1.0
    assert table[5] == pytest.approx(log_f_factorial_squared(d, 5), abs=1e-15)
    # tables are built once per (deformation, length) and shared
    assert log_f_factorial_table(Deformation.perturbative_nc(0.1), 20) is table


def test_validation():
    with pytest.raises(ValidationError):
        Deformation.perturbative_nc(-0.1)
    with pytest.raises(ValidationError):
        Deformation.q_deformed(0.0)
    with pytest.raises(ValidationError):
        Deformation.q_deformed(1.2)
    with pytest.raises(ValidationError):
        Deformation("weird")
    with pytest.warns(PerturbativeRegimeWarning):
        Deformation.perturbative_nc(2.0)
