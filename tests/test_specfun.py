import ast
import importlib
import inspect
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kve

import defock
from defock.errors import ValidationError
from defock.measure import MIN_TAU
from defock.specfun import (
    bessel_k_log,
    log_factorial_table,
    log_gamma,
)
from oracles import (
    bessel_k,
    gauss_2f1_terminating,
    hermite,
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


def test_bessel_k_log_on_every_node_of_the_measure_against_mpmath():
    # the measure's orders mu = 1 + 2/tau for tau from MIN_TAU to the largest
    # double, and its nodes x from (2 + mu) e^-22.5 (5e-10) to past
    # 2 n + 2 + mu + 10 sqrt(2 n + 2 + mu) + 60 at n = 170 (830), with the
    # span 0.5 < x <= 2 where kve alone is off by up to 2e-13; the error of
    # ln K relative to max(1, |ln K|), since ln K crosses 0
    mus = [1.0 + 2.0 / tau for tau in (sys.float_info.max, 1e6, 13.69, 10.0, 4.0, 2.0, 1.0,
                                       0.5, 0.2, 0.1, 0.05, 0.02, MIN_TAU)] + [1.1, 2.1, 3.1, 7.5]
    xs = np.concatenate([np.geomspace(5e-10, 1200.0, 24), np.linspace(0.45, 2.5, 9)])
    worst = 0.0
    for mu in mus:
        for x, value in zip(xs.tolist(), bessel_k_log(mu, xs).tolist()):
            ref = mp_bessel_k_log(mu, x)
            worst = max(worst, abs(value - ref) / max(1.0, abs(ref)))
    assert worst < 1e-13


@pytest.mark.parametrize("nu", [41.0, 60.0])
@pytest.mark.parametrize("x", [1e-6, 1e-4])
def test_bessel_k_log_past_double_range(nu, x):
    # kve overflows at (41, 1e-6), (60, 1e-6) and (60, 1e-4); the log of the
    # recurrence must agree with the finite route at (41, 1e-4) and with
    # mpmath everywhere
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


def test_the_library_imports_no_mpmath():
    # not even in the Bessel overflow fallback it once had; its mpmath
    # oracles live in tests/oracles.py
    found = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
            if isinstance(child, ast.Import):
                found.extend((module, where) for alias in child.names
                             if alias.name.split(".")[0] == "mpmath")
            elif isinstance(child, ast.ImportFrom) and not child.level \
                    and child.module.split(".")[0] == "mpmath":
                found.append((module, where))
            visit(child, module, inner)

    for path in sorted(Path(defock.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert found == []


def test_no_process_pool_in_the_library():
    # defock runs in one process: no module may import a pool, even lazily
    pools = ("concurrent.futures", "multiprocessing")
    found = []
    for path in sorted(Path(defock.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                # from concurrent import futures names the package and the module
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found.extend((path.stem, name) for name in names
                         if any(name == pool or name.startswith(pool + ".") for pool in pools))
    assert found == []


def test_no_public_parameter_goes_unread():
    # a parameter that its function never reads is a setting no caller can use
    unread = []
    for path in sorted(Path(defock.__file__).parent.glob("*.py")):
        body = ast.parse(path.read_text()).body
        scopes = [("", body)] + [(f"{node.name}.", node.body) for node in body
                                 if isinstance(node, ast.ClassDef) and node.name[0] != "_"]
        for owner, nodes in scopes:
            for fn in nodes:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        or fn.name.startswith("_"):
                    continue
                a = fn.args
                params = {arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                              a.vararg, a.kwarg) if arg}
                read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
                unread.extend(f"{path.stem}.{owner}{fn.name}({name})"
                              for name in sorted(params - read))
    assert unread == []


def test_no_public_function_is_an_alias():
    # a public function whose body only hands its own parameters on to
    # another public name is a second name for one value
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(defock.__file__).parent.glob("*.py"))}
    public = {node.name for tree in trees.values() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_"}
    aliases = []
    for module, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name[0] == "_":
                continue
            body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
            if len(body) != 1 or not isinstance(body[0], ast.Return) \
                    or not isinstance(body[0].value, ast.Call):
                continue
            call = body[0].value
            callee = call.func.id if isinstance(call.func, ast.Name) else \
                getattr(call.func, "attr", None)
            passed = [*call.args, *(keyword.value for keyword in call.keywords)]
            params = [arg.arg for arg in (*fn.args.posonlyargs, *fn.args.args,
                                          *fn.args.kwonlyargs)]
            if callee in public - {fn.name} and all(isinstance(v, ast.Name) for v in passed) \
                    and sorted(v.id for v in passed) == sorted(params):
                aliases.append(f"{module}.{fn.name}")
    assert aliases == []


# What README lists as gone: names that no longer resolve, and keywords that
# their function no longer takes.
_GONE_NAMES = ("CoeffTable", "split_fock", "squeezed_coeff_closed_form",
               "specfun.gauss_2f1_terminating", "fock_io.state_roundtrip",
               "metrics.LadderAction", "BeamSplitter.fifty_fifty", "measure.calibrate",
               "measure.moment_check", "deform.log_rho")
_GONE_KEYWORDS = (("entropy_scan", "workers"), ("revival_times", "hbar"),
                  ("partial_trace", "validate"), ("gk_autocorrelation", "gamma"),
                  *(("gk_uncertainty_product", name) for name in ("m", "omega", "hbar", "n_max")),
                  *(("xp_uncertainty", name) for name in ("m", "omega", "hbar")),
                  ("revival_times", "n_max"))


def _readme_text():
    """README outside its fenced blocks, whitespace folded."""
    text = (Path(defock.__file__).resolve().parents[2] / "README.md").read_text()
    return " ".join(re.sub(r"```.*?```", "", text, flags=re.S).split())


def _resolve(dotted):
    """The public defock object that a README name such as ``nlcs``,
    ``measure.omega`` or ``Deformation.perturbative_nc`` names, or None."""
    modules = {path.stem: importlib.import_module(f"defock.{path.stem}")
               for path in Path(defock.__file__).parent.glob("*.py") if path.stem[0] != "_"}
    first, *rest = dotted.split(".")
    if first in modules:
        obj = modules[first]
    else:
        owners = [m for m in (defock, *modules.values()) if hasattr(m, first)]
        if first[0] == "_" or not owners:
            return None
        obj = getattr(owners[0], first)
    for name in rest:
        if name[0] == "_" or not hasattr(obj, name):
            return None
        obj = getattr(obj, name)
    return obj


def test_readme_signatures_match_the_library():
    # a backticked name(...) whose arguments are all parameter names,
    # name=default, * or ... is a signature: the names it lists exist in
    # that order with the defaults it states, and one that states a default
    # or * without ... lists them all, with the * where it is.  Any other
    # argument makes it an example call, which this does not check.
    checked, wrong = set(), []
    for span in re.findall(r"`([^`]+)`", _readme_text()):
        match = re.fullmatch(r"([A-Za-z]\w*(?:\.\w+)*)\((.*)\)", span)
        obj = match and _resolve(match[1])
        if not callable(obj):
            continue
        tokens = [t.strip() for t in match[2].split(",")] if match[2].strip() else []
        parts = [re.fullmatch(r"(\w+)(?:=(.+))?|(\*)|(\.\.\.)", t) for t in tokens]
        if not all(parts):
            continue
        params = inspect.signature(obj).parameters
        order = list(params)
        named = [p[1] for p in parts if p[1]]
        elided = any(p[4] or p[2] == "..." for p in parts)
        checked.add(match[1])
        if not set(named) <= set(order) or sorted(named, key=order.index) != named:
            wrong.append(f"{span}: parameters {order}")
            continue
        for p in parts:
            if p[2] and p[2] != "..." and ast.literal_eval(p[2]) != params[p[1]].default:
                wrong.append(f"{span}: {p[1]} defaults to {params[p[1]].default!r}")
            if p[3]:
                after = next((q[1] for q in parts[parts.index(p) + 1:] if q[1]), None)
                keyword_only = [n for n, q in params.items() if q.kind is q.KEYWORD_ONLY]
                if after not in keyword_only[:1]:
                    wrong.append(f"{span}: keyword-only parameters {keyword_only}")
        full = []  # the parameter names, with * before the first keyword-only one
        for name, q in params.items():
            full += ["*"] * (q.kind is q.KEYWORD_ONLY and "*" not in full) + [name]
        if any(p[2] or p[3] for p in parts) and not elided \
                and [p[1] or "*" for p in parts] != full:
            wrong.append(f"{span}: parameters {full}")
    assert wrong == []
    assert {"nlcs", "revival_times", "gk_autocorrelation", "nonclassicality_report",
            "xp_uncertainty", "gk_uncertainty_product", "BeamSplitter"} <= checked


def test_what_readme_lists_as_gone_is_gone():
    text = _readme_text()
    for name in _GONE_NAMES:
        assert re.search(rf"`{re.escape(name)}(\([^`]*\))?`", text), name
        assert _resolve(name) is None, name
    for function, keyword in _GONE_KEYWORDS:
        # README names the function, then its keywords: `fn`'s `a`, `b` and `c`
        assert re.search(rf"`{function}`'s? (`\w+`(, | and ))*`{keyword}`", text), \
            (function, keyword)
        assert keyword not in inspect.signature(_resolve(function)).parameters, (function, keyword)


def test_every_matrix_product_runs_on_one_blas_thread():
    # numpy's OpenBLAS runs a matrix product on every core, and on the
    # library's small products a second thread only busy-waits: each
    # product sits in a `with _one_blas_thread():` block.  np.vdot and
    # einsum(..., optimize=False) do not reach a threaded BLAS routine.
    pinned, loose = [], []

    def is_pin(node):
        return isinstance(node, ast.With) and any(
            isinstance(item.context_expr, ast.Call)
            and getattr(item.context_expr.func, "id", None) == "_one_blas_thread"
            for item in node.items)

    def is_product(node):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            return isinstance(node.op, ast.MatMult)
        if isinstance(node, ast.Call):
            func = node.func
            return (getattr(func, "attr", None) or getattr(func, "id", None)) in ("dot", "matmul")
        return False

    def visit(node, module, inside):
        for child in ast.iter_child_nodes(node):
            if is_product(child):
                (pinned if inside else loose).append(f"{module}:{child.lineno}")
            visit(child, module, inside or is_pin(child))

    for path in sorted(Path(defock.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, False)
    assert loose == []
    assert pinned  # the scan's Gram


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


def test_log_factorial_table_within_one_ulp():
    table = log_factorial_table(1024)
    assert table[0] == 0.0 and table[1] == 0.0
    assert not table.flags.writeable and not table.base.flags.writeable
    with mp.workdps(40):
        ref = [float(mp.loggamma(k + 1)) for k in range(1024)]
    # faithfully rounded: each entry is the correctly rounded ln k! or one
    # of its two neighbours
    ulps = [abs(v - r) / math.ulp(r) for v, r in zip(table[2:].tolist(), ref[2:])]
    assert max(ulps) <= 1.0


def test_log_gamma_domain():
    with pytest.raises(ValidationError):
        log_gamma(0.0)
    with pytest.raises(ValidationError):
        log_gamma(-2.5)
