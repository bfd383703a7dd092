import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kve

from defock.errors import ValidationError
from defock.specfun import (
    bessel_k,
    bessel_k_log,
    gauss_2f1_terminating,
    hermite,
    log_factorial_table,
    log_gamma,
    pochhammer,
    q_bracket,
    q_factorial,
    q_log_factorial,
)


# ---------------------------------------------------------------- q-brackets

def exact_q_bracket(n, q: Fraction) -> Fraction:
    return sum(q ** (2 * k) for k in range(n))


def test_q_bracket_examples():
    assert q_bracket(0, 0.5) == 0.0
    for n in (0, 1, 5, 17):
        assert q_bracket(n, 1.0) == float(n)
    assert q_bracket(2, 0.5) == pytest.approx(1.25, abs=1e-15)


def test_q_bracket_exact_arithmetic_oracle():
    for n in range(9):
        for q in (Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)):
            expected = exact_q_bracket(n, q)
            assert q_bracket(n, float(q)) == pytest.approx(float(expected), rel=1e-14)


def test_q_bracket_q_to_one_limit():
    eps = 1e-6
    for n in range(1, 101):
        assert abs(q_bracket(n, 1.0 - eps) - n) <= 3.0 * n * n * eps


def test_q_bracket_domain():
    with pytest.raises(ValidationError):
        q_bracket(2, 0.0)
    with pytest.raises(ValidationError):
        q_bracket(2, 1.5)
    with pytest.raises(ValidationError):
        q_bracket(-1, 0.5)


def test_q_factorial_examples():
    assert q_factorial(0, 0.7) == pytest.approx(1.0, abs=1e-15)
    assert q_factorial(5, 1.0) == pytest.approx(120.0, rel=1e-14)
    assert q_factorial(2, 0.5) == pytest.approx(1.25, rel=1e-14)


def test_q_factorial_recurrence_exact_oracle():
    # [n]! = [n] [n-1]! checked against exact rational arithmetic
    for q in (Fraction(1, 2), Fraction(4, 5)):
        exact = Fraction(1)
        for n in range(1, 9):
            exact *= exact_q_bracket(n, q)
            assert q_factorial(n, float(q)) == pytest.approx(float(exact), rel=1e-13)


def test_q_log_factorial_matches_linear():
    for n in (0, 3, 10, 40):
        assert q_log_factorial(n, 0.9) == pytest.approx(
            math.log(q_factorial(n, 0.9)), abs=1e-12
        )


# -------------------------------------------------------------- pochhammer

def test_pochhammer():
    assert pochhammer(3.7, 0) == 1.0
    assert pochhammer(1.0, 4) == 24.0
    assert pochhammer(2.5, 3) == pytest.approx(2.5 * 3.5 * 4.5, rel=1e-15)
    with pytest.raises(ValidationError):
        pochhammer(1.0, -1)


# ------------------------------------------------------------------ hermite

def test_hermite_examples():
    assert hermite(0, 0.3) == 1.0
    assert hermite(1, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert hermite(3, 1.0) == pytest.approx(8.0 - 12.0, rel=1e-14)


def test_hermite_polynomial_oracle():
    # H4 = 16x^4 - 48x^2 + 12, H5 = 32x^5 - 160x^3 + 120x
    for x in (-2.0, -0.3, 0.0, 0.7, 1.9):
        assert hermite(4, x) == pytest.approx(16 * x**4 - 48 * x**2 + 12, rel=1e-12, abs=1e-12)
        assert hermite(5, x) == pytest.approx(32 * x**5 - 160 * x**3 + 120 * x, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", range(1, 21))
def test_hermite_derivative_identity(n):
    # H_n'(x) = 2 n H_{n-1}(x) against central differences
    for x in (-5.0, -1.2, 0.4, 3.3, 5.0):
        h = 1e-6 * max(1.0, abs(x))
        deriv = (hermite(n, x + h) - hermite(n, x - h)) / (2 * h)
        target = 2.0 * n * hermite(n - 1, x)
        scale = max(abs(target), abs(hermite(n, x)), 1.0)
        assert abs(deriv - target) / scale < 1e-6


def test_hermite_complex_argument():
    z = 0.4 + 0.9j
    assert hermite(2, z) == pytest.approx(4 * z * z - 2, rel=1e-13)


# ---------------------------------------------------------- terminating 2F1

def naive_2f1(n, b, c, z):
    total = 0j
    for k in range(n + 1):
        num = 1.0 + 0j
        for j in range(k):
            num *= (-n + j) * (b + j)
        den = 1.0
        for j in range(k):
            den *= (c + j) * (j + 1)
        total += num * z**k / den
    return total


def exact_2f1(n, b_re, b_im, c, z):
    # term-by-term summation in exact rational arithmetic
    tot_re, tot_im = Fraction(0), Fraction(0)
    term_re, term_im = Fraction(1), Fraction(0)
    for k in range(n + 1):
        tot_re += term_re
        tot_im += term_im
        f_re = Fraction(-(n - k)) * (b_re + k)
        f_im = Fraction(-(n - k)) * b_im
        new_re = term_re * f_re - term_im * f_im
        new_im = term_re * f_im + term_im * f_re
        scale = Fraction(z) / ((c + k) * (k + 1))
        term_re, term_im = new_re * scale, new_im * scale
    return complex(float(tot_re), float(tot_im))


def test_gauss_2f1_trivial():
    assert gauss_2f1_terminating(0, 0.3 + 1j, 2.0, 2.0) == 1.0 + 0j
    b, c, z = 0.7 - 0.2j, 1.5, 2.0
    assert gauss_2f1_terminating(1, b, c, z) == pytest.approx(1 - b * z / c, rel=1e-14)


def test_gauss_2f1_naive_oracle_low_n():
    assert gauss_2f1_terminating(5, 0.8, 2.0, 2.0) == pytest.approx(
        naive_2f1(5, 0.8, 2.0, 2.0), rel=1e-12
    )


def test_gauss_2f1_exact_rational_oracle():
    # Fraction(float) is the exact binary rational of the double, so the
    # oracle evaluates precisely the sum the implementation is given
    c = 2.25
    for n in range(2, 21):
        for b in (0.8 + 0.0j, 1.3 + 0.4j):
            got = gauss_2f1_terminating(n, b, c, 2.0)
            ref = exact_2f1(n, Fraction(b.real), Fraction(b.imag), Fraction(c), 2)
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-13)


def test_gauss_2f1_domain():
    with pytest.raises(ValidationError):
        gauss_2f1_terminating(5, 0.8, -2.0, 2.0)
    # c below -n never hits a zero denominator inside the finite sum
    gauss_2f1_terminating(2, 0.8, -7.0, 2.0)


# ----------------------------------------------------------------- bessel K

def test_bessel_k_half_closed_form():
    assert bessel_k(0.5, 1.0) == pytest.approx(
        math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-11
    )
    for x in (0.2, 1.7, 9.0):
        assert bessel_k(0.5, x) == pytest.approx(
            math.sqrt(math.pi / (2.0 * x)) * math.exp(-x), rel=1e-11
        )


def test_bessel_k_large_x_asymptotic():
    for nu in (0.0, 1.0, 2.5):
        x = 600.0
        lead = bessel_k_log(nu, x) - (0.5 * math.log(math.pi / (2 * x)) - x)
        # first correction term is (4 nu^2 - 1) / (8 x)
        assert abs(lead - (4 * nu * nu - 1) / (8 * x)) < 1e-5


def test_bessel_k_quadrature_oracle():
    # independent route: scipy quadrature of the cosh integral
    nu, x = 1.5, 2.0
    ref, _ = quad(lambda u: math.exp(-x * math.cosh(u)) * math.cosh(nu * u), 0, 30)
    assert bessel_k(nu, x) == pytest.approx(ref, rel=1e-7)


def test_bessel_k_recurrence():
    # K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x)
    for nu in (1.0, 4.5, 12.0, 20.0):
        for x in (0.1, 1.0, 8.0, 50.0):
            lhs = bessel_k_log(nu + 1, x)
            a = bessel_k_log(nu - 1, x)
            b = bessel_k_log(nu, x)
            top = max(a, b)
            rhs = top + math.log(math.exp(a - top) + (2 * nu / x) * math.exp(b - top))
            assert abs(math.expm1(lhs - rhs)) < 1e-8


def mp_bessel_k_log(nu, x):
    # 30-digit mpmath reference, independent of the scipy kernel under test
    with mp.workdps(30):
        return float(mp.log(mp.besselk(nu, float(x))))


def test_bessel_k_mpmath_grid():
    worst = 0.0
    for nu in (0.0, 0.5, 1.5, 7.3, 21.0, 40.0, 60.0):
        for x in np.geomspace(0.01, 700.0, 17):
            rel = abs(math.expm1(bessel_k_log(nu, x) - mp_bessel_k_log(nu, x)))
            worst = max(worst, rel)
    assert worst < 1e-10


@pytest.mark.parametrize("nu", [41.0, 60.0])
@pytest.mark.parametrize("x", [1e-6, 1e-4])
def test_bessel_k_log_past_double_range(nu, x):
    # kve overflows at (41, 1e-6), (60, 1e-6) and (60, 1e-4); the
    # log-domain fallback must agree with the finite route at (41, 1e-4)
    # and with mpmath everywhere
    assert math.isfinite(kve(nu, x)) == ((nu, x) == (41.0, 1e-4))
    assert abs(math.expm1(bessel_k_log(nu, x) - mp_bessel_k_log(nu, x))) < 1e-10


def test_bessel_k_errors():
    with pytest.raises(ValidationError):
        bessel_k(1.0, 0.0)
    with pytest.raises(ValidationError):
        bessel_k(1.0, -3.0)
    with pytest.raises(OverflowError):
        bessel_k(60.0, 1e-4)
    # the log variant stays finite there
    assert bessel_k_log(60.0, 1e-4) > 700.0


# ---------------------------------------------------------------- log gamma

def test_log_gamma_examples():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(2.0) == 0.0
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)


def test_log_gamma_mpmath_grid():
    for x in np.geomspace(0.05, 500.0, 60):
        with mp.workdps(30):
            ref = float(mp.loggamma(float(x)))
        assert log_gamma(float(x)) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_log_factorial_table_mpmath():
    table = log_factorial_table(600)
    assert len(table) == 600
    assert table[0] == 0.0 and table[1] == 0.0
    with mp.workdps(30):
        ref = [float(mp.loggamma(k + 1)) for k in range(600)]
    np.testing.assert_allclose(table, ref, rtol=1e-15, atol=0.0)


def test_log_factorial_table_read_only_at_every_length():
    short = log_factorial_table(5)
    with pytest.raises(ValueError):
        short[2] = 1.0
    long = log_factorial_table(5000)
    assert not long.flags.writeable
    assert long[:5].tolist() == short.tolist()
    assert long[4999] == pytest.approx(math.lgamma(5000.0), rel=1e-15)


def test_log_gamma_domain():
    with pytest.raises(ValidationError):
        log_gamma(0.0)
    with pytest.raises(ValidationError):
        log_gamma(-2.5)
