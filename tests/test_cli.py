import argparse
import inspect
import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defock
from defock import fock_io, states
from defock.cli import MAX_GRID_POINTS, build_parser, main
from defock.states import FockState
from oracles import read_csv


def run(args):
    return main(args)


def test_state_glauber(tmp_path, capsys):
    code = run([
        "state", "--family", "glauber", "--alpha-re", "1", "--nmax", "32",
        "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "norm_const=" in out and "tail_mass=" in out
    state = FockState.from_json((tmp_path / "state.json").read_text())
    assert state.n_max == 32
    table = read_csv(tmp_path / "photon_distribution.csv")
    assert table.columns == ["n", "P_n"]
    assert abs(sum(table.column("P_n")) - 1.0) < 1e-10


def test_state_nlcs_and_contradictory_flags(tmp_path):
    assert run([
        "state", "--family", "nlcs", "--tau", "0.1", "--alpha-re", "1",
        "--out", str(tmp_path),
    ]) == 0
    assert run([
        "state", "--family", "nlcs", "--tau", "0.1", "--q", "0.9",
        "--alpha-re", "1", "--out", str(tmp_path),
    ]) == 2


def test_state_cat_degenerate_exit_2(tmp_path):
    code = run([
        "state", "--family", "cat", "--parity", "odd", "--q", "0.9",
        "--alpha-re", "0", "--out", str(tmp_path),
    ])
    assert code == 2


def test_state_truncation_exit_3(tmp_path):
    code = run([
        "state", "--family", "glauber", "--alpha-re", "25", "--out", str(tmp_path),
    ])
    assert code == 3


def test_ho_squeezed_outside_radius_exit_3(tmp_path, capsys):
    code = run([
        "state", "--family", "ho-squeezed", "--zeta", "1.5", "--alpha-re", "1",
        "--out", str(tmp_path),
    ])
    assert code == 3
    assert capsys.readouterr().err == (
        "divergence error: ho_squeezed: |zeta|=1.5 outside the convergence radius 1\n"
    )


def test_nc_squeezed_outside_radius_exit_3(tmp_path, capsys):
    code = run([
        "state", "--family", "nc-squeezed", "--tau", "0.1", "--zeta", "1.5",
        "--alpha-re", "1", "--out", str(tmp_path),
    ])
    assert code == 3
    assert capsys.readouterr().err == (
        "divergence error: nc_squeezed: |zeta|=1.5 outside the convergence radius 1\n"
    )


@pytest.mark.parametrize("family", [["ho-squeezed"], ["nc-squeezed", "--tau", "0.1"]])
def test_squeezed_overflow_exit_3_names_its_level(tmp_path, capsys, family):
    # alpha I(1) overflowed, and its NaN was reported as "tail mass nan"
    assert run(["state", "--family", *family, "--alpha-re", "1e200", "--zeta", "0.5",
                "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "truncation error: the squeezed coefficient series overflows the double range "
        "at level 2 (|alpha| = 1e+200)\n")
    assert not any(tmp_path.iterdir())


def _printed_norm_const(capsys):
    fields = dict(kv.split("=", 1) for kv in capsys.readouterr().out.split())
    return float(fields["norm_const"])


_NORM_OPTIONS = {
    "glauber": [], "nlcs": ["--tau", "0.1"], "q-coherent": ["--q", "0.9"],
    "gk": ["--tau", "0.1", "--J", "1.5"], "nc-squeezed": ["--tau", "0.1", "--zeta", "0.5"],
    "ho-squeezed": ["--zeta", "0.5"], "cat": ["--q", "0.9", "--parity", "odd"],
    "pacs": ["--q", "0.9", "--m", "2"],
}


@pytest.mark.parametrize("family", list(_NORM_OPTIONS))
def test_state_norm_const_does_not_depend_on_nmax(tmp_path, capsys, family):
    # norm_const is the norm of the whole raw series, not of its first n_max levels
    printed = []
    alpha = [] if family == "gk" else ["--alpha-re", "1.2"]  # gk reads no alpha
    for nmax in ("16", "64"):
        assert run(["state", "--family", family, *alpha, "--nmax", nmax,
                    *_NORM_OPTIONS[family], "--out", str(tmp_path)]) == 0
        printed.append(_printed_norm_const(capsys))
    assert printed[0] == printed[1]


def test_state_squeezed_norm_const_of_a_doubled_state(tmp_path, capsys):
    # the state doubles to 512 levels; the first 64 hold 1/23 of the norm
    assert run(["state", "--family", "nc-squeezed", "--tau", "0.1", "--alpha-re", "6",
                "--zeta=-0.8", "--out", str(tmp_path)]) == 0
    assert _printed_norm_const(capsys) == pytest.approx(437476356563.2128, rel=1e-12)


def test_metrics_q_coherent(tmp_path, capsys):
    code = run([
        "metrics", "--family", "q-coherent", "--q", "0.9", "--alpha-re", "1",
        "--number", "deformed", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    report = json.loads((tmp_path / "metrics.json").read_text())
    assert report["mandel_q"] == pytest.approx(-0.19, abs=1e-8)
    assert "mandel_q" in out


def test_metrics_glauber(tmp_path):
    code = run([
        "metrics", "--family", "glauber", "--alpha-re", "1", "--out", str(tmp_path),
    ])
    assert code == 0
    report = json.loads((tmp_path / "metrics.json").read_text())
    assert abs(report["mandel_q"]) < 1e-10
    assert report["g2_zero"] == pytest.approx(1.0, abs=1e-10)


def test_metrics_vacuum_degenerate_exit_2(tmp_path):
    code = run([
        "metrics", "--family", "glauber", "--alpha-re", "0", "--out", str(tmp_path),
    ])
    assert code == 2


def test_autocorr_fig_params(tmp_path, capsys):
    code = run([
        "autocorr", "--J", "1.5", "--tau", "0.1", "--omega", "0.5",
        "--tmax", "260", "--points", "2001", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "t_rev=251.33" in out
    assert (tmp_path / "autocorr.csv").exists()
    assert (tmp_path / "autocorr.svg").exists()
    table = read_csv(tmp_path / "autocorr.csv")
    assert table.columns == ["t", "A"]
    assert table.rows[0][1] == pytest.approx(1.0, abs=1e-12)


def test_autocorr_second_figure_revival_time(tmp_path, capsys):
    code = run([
        "autocorr", "--J", "6", "--tau", "0.01", "--omega", "0.5",
        "--tmax", "50", "--points", "401", "--out", str(tmp_path),
    ])
    assert code == 0
    assert "t_rev=2513.27" in capsys.readouterr().out


def test_io_error_exit_1(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = run([
        "state", "--family", "glauber", "--alpha-re", "1",
        "--out", str(blocker / "sub"),
    ])
    assert code == 1


def test_autocorr_empty_grid_exit_2(tmp_path):
    code = run([
        "autocorr", "--J", "1.5", "--tau", "0.1", "--tmax", "10",
        "--points", "0", "--out", str(tmp_path),
    ])
    assert code == 2


def test_autocorr_two_points_exit_2_before_any_file(tmp_path, capsys):
    # the peak search needs 3 samples, so 2 points are refused with the
    # grid check, before the grid or an artifact exists
    out = tmp_path / "out"
    assert run(["autocorr", "--J", "1.5", "--tau", "0.1", "--tmax", "10",
                "--points", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "validation error: need --points >= 3 and --tmax > 0\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, option", [
    (["autocorr", "--J", "1.5", "--tau", "0.1", "--tmax", "10", "--points"], "--points"),
    (["entropy-scan", "--family", "glauber", "--alpha-max", "2", "--alpha-steps"],
     "--alpha-steps"),
])
def test_grid_sizes_capped_before_any_allocation(tmp_path, capsys, monkeypatch, argv, option):
    def no_linspace(*args, **kwargs):
        raise AssertionError("np.linspace ran")

    monkeypatch.setattr(np, "linspace", no_linspace)
    for size in (MAX_GRID_POINTS + 1, 10**9):
        assert run(argv + [str(size), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: {option} must") and f"got {size}" in err
    assert not any(tmp_path.iterdir())


def test_entropy_scan_cli(tmp_path, capsys):
    code = run([
        "entropy-scan", "--family", "nlcs", "--alphas", "0.5,1.0",
        "--taus", "0.1", "--nmax", "24", "--out", str(tmp_path),
    ])
    assert code == 0
    table = read_csv(tmp_path / "entropy_scan.csv")
    assert table.columns == ["alpha", "tau", "zeta", "S_direct", "S_closed", "flag"]
    assert len(table.rows) == 2
    assert (tmp_path / "entropy_scan.svg").exists()


def test_entropy_scan_negative_first_alpha_with_equals_form(tmp_path):
    # argparse reads "-1,0.5" given as a separate argument as an option
    code = run([
        "entropy-scan", "--family", "glauber", "--alphas=-1,0.5", "--nmax", "16",
        "--format", "csv", "--out", str(tmp_path),
    ])
    assert code == 0
    table = read_csv(tmp_path / "entropy_scan.csv")
    assert table.column("alpha") == [-1.0, 0.5]
    assert table.column("flag") == ["", ""]


def test_entropy_scan_empty_grid_exit_2(tmp_path):
    code = run([
        "entropy-scan", "--family", "nlcs", "--alphas", "",
        "--taus", "0.1", "--out", str(tmp_path),
    ])
    assert code == 2


def test_entropy_scan_nonpositive_workers_exit_2(tmp_path):
    code = run([
        "entropy-scan", "--family", "glauber", "--alphas", "0.5",
        "--workers", "0", "--out", str(tmp_path),
    ])
    assert code == 2


def test_nmax_above_limit_exit_2(tmp_path):
    for argv in (
        ["state", "--family", "glauber", "--alpha-re", "1"],
        ["entropy-scan", "--family", "glauber", "--alphas", "0.5"],
    ):
        assert run(argv + ["--nmax", "513", "--out", str(tmp_path)]) == 2


def test_measure_check_ok_and_domain(tmp_path):
    code = run([
        "measure-check", "--tau", "0.5", "--moments", "4", "--out", str(tmp_path),
    ])
    assert code == 0
    table = read_csv(tmp_path / "measure_check.csv")
    assert table.columns == ["n", "computed", "target", "rel_err"]
    assert max(table.column("rel_err")) <= 1e-6
    assert run(["measure-check", "--tau", "0", "--out", str(tmp_path)]) == 2


def test_measure_check_tolerance_exit_4(tmp_path):
    code = run([
        "measure-check", "--tau", "0.5", "--moments", "3", "--tol", "1e-18",
        "--out", str(tmp_path),
    ])
    assert code == 4


def test_unknown_flags_exit_2(tmp_path):
    assert run(["state", "--family", "glauber", "--bogus", "1"]) == 2
    assert run(["nonsense"]) == 2


def test_mass_is_not_an_option(tmp_path, capsys):
    # no command reads a mass, so --mass is refused like any unknown option
    assert run(["state", "--family", "glauber", "--mass", "3", "--out", str(tmp_path)]) == 2
    assert "unrecognized arguments: --mass 3" in capsys.readouterr().err


def test_config_merge(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha-re": 1.0, "nmax": 16}))
    code = run([
        "state", "--family", "glauber", "--config", str(cfg),
        "--out", str(tmp_path),
    ])
    assert code == 0
    state = FockState.from_json((tmp_path / "state.json").read_text())
    assert state.n_max == 16
    # flags win over config values
    code = run([
        "state", "--family", "glauber", "--config", str(cfg), "--nmax", "12",
        "--alpha-re", "0.5", "--out", str(tmp_path),
    ])
    assert code == 0
    state = FockState.from_json((tmp_path / "state.json").read_text())
    assert state.n_max == 12


def test_config_before_the_subcommand(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nmax": 16}))
    assert run(["--config", str(cfg), "state", "--family", "glauber",
                "--out", str(tmp_path)]) == 0
    state = FockState.from_json((tmp_path / "state.json").read_text())
    assert state.n_max == 16


def test_config_errors(tmp_path, capsys):
    good = ["state", "--family", "glauber", "--out", str(tmp_path)]
    missing = tmp_path / "missing.json"
    assert run(good + ["--config", str(missing)]) == 1
    assert capsys.readouterr().err == f"cannot read config {missing}\n"
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    assert run(good + ["--config", str(malformed)]) == 2
    assert capsys.readouterr().err.startswith(f"malformed config {malformed}: ")
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    assert run(good + ["--config", str(listed)]) == 2
    assert capsys.readouterr().err == "config must be a JSON object\n"
    # a bad command line is reported before the config is read
    assert run(good + ["--nmax", "x1", "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "argument --nmax: invalid int value: 'x1'" in err
    assert "cannot read config" not in err
    # a missing --family is not one: the config could supply it
    assert run(["state", "--out", str(tmp_path), "--config", str(missing)]) == 1
    assert capsys.readouterr().err == f"cannot read config {missing}\n"
    # so is a missing config path, which ends the command line
    assert run(good + ["--config"]) == 2
    assert "argument --config: expected one argument" in capsys.readouterr().err


def test_determinism_byte_identical(tmp_path):
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    for d in (d1, d2):
        code = run([
            "autocorr", "--J", "1.5", "--tau", "0.1", "--tmax", "40",
            "--points", "301", "--out", str(d),
        ])
        assert code == 0
        code = run([
            "state", "--family", "nc-squeezed", "--tau", "0.1",
            "--alpha-re", "1", "--zeta", "0.25", "--out", str(d),
        ])
        assert code == 0
        code = run([
            "entropy-scan", "--family", "nlcs", "--alphas", "0.5,1.0",
            "--taus", "0.2", "--nmax", "20", "--out", str(d),
        ])
        assert code == 0
    for name in (
        "autocorr.csv", "autocorr.svg", "state.json",
        "photon_distribution.csv", "entropy_scan.csv", "entropy_scan.svg",
    ):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


# A small run of each subcommand and the artifacts it writes with --format all.
_ARTIFACTS = [
    (["state", "--family", "glauber", "--alpha-re", "1"],
     {"state.json", "photon_distribution.csv"}),
    (["metrics", "--family", "glauber", "--alpha-re", "1"], {"metrics.json"}),
    (["autocorr", "--J", "1.5", "--tau", "0.1", "--tmax", "10", "--points", "11"],
     {"autocorr.csv", "autocorr.svg"}),
    (["entropy-scan", "--family", "glauber", "--alphas", "0.5,1", "--nmax", "16"],
     {"entropy_scan.csv", "entropy_scan.svg"}),
    (["measure-check", "--tau", "1", "--moments", "2"], {"measure_check.csv"}),
]


def test_format_filter(tmp_path):
    code = run([
        "state", "--family", "glauber", "--alpha-re", "1", "--format", "json",
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "state.json").exists()
    assert not (tmp_path / "photon_distribution.csv").exists()


@pytest.mark.parametrize("argv, names", _ARTIFACTS, ids=[argv[0] for argv, _ in _ARTIFACTS])
@pytest.mark.parametrize("kind", ["csv", "json", "svg", "all"])
def test_format_filter_each_subcommand(tmp_path, argv, names, kind):
    # --out is created whatever --format selects; a file is written if
    # --format selects the kind its suffix names
    out = tmp_path / "out"
    assert run(argv + ["--format", kind, "--out", str(out)]) == 0
    want = {name for name in names if kind in ("all", name.rsplit(".", 1)[1])}
    assert {path.name for path in out.iterdir()} == want


def test_repeated_main_calls_identical_stdout(tmp_path, capsys):
    argv = ["metrics", "--family", "nlcs", "--tau", "0.1", "--alpha-re", "0.8",
            "--out", str(tmp_path)]
    outputs = []
    for _ in range(3):
        assert run(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] and outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_config_defaults_do_not_leak_into_later_calls(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha-re": 1.0, "nmax": 16, "family": "glauber"}))
    plain = ["state", "--family", "glauber", "--out", str(tmp_path)]
    assert run(plain) == 0
    before = capsys.readouterr().out
    assert run(["state", "--family", "glauber", "--config", str(cfg),
                "--out", str(tmp_path)]) == 0
    assert "n_max=16" in capsys.readouterr().out
    assert run(plain) == 0
    after = capsys.readouterr().out
    # the defaults of the parser, not the config's alpha-re 1 and nmax 16
    assert after == before
    assert before == "family=glauber n_max=64 norm_const=1 tail_mass=0.000e+00 mean_n=0\n"


def _fresh_probe(code):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    ``defock``; return its stripped stdout."""
    src = str(Path(defock.__file__).resolve().parent.parent)
    probe = f"import sys\nsys.path.insert(0, {src!r})\n" + code
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, timeout=120)
    return done.stdout.strip()


def test_scipy_integrate_imported_only_by_measure_check(tmp_path):
    # not even by measure-check: its trapezoid rule needs only scipy.special
    lines = _fresh_probe(
        "import contextlib, io\n"
        "import defock.cli\n"
        "def job(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        code = defock.cli.main([*argv, '--out', {str(tmp_path)!r}])\n"
        "    print(argv[0], code, 'scipy.integrate' in sys.modules)\n"
        "print('import', 0, 'scipy.integrate' in sys.modules)\n"
        "job('state', '--family', 'nlcs', '--tau', '0.1', '--alpha-re', '1')\n"
        "job('metrics', '--family', 'glauber', '--alpha-re', '1')\n"
        "job('autocorr', '--J', '1.5', '--tau', '0.1', '--tmax', '5', '--points', '50')\n"
        "job('entropy-scan', '--family', 'nlcs', '--alphas', '0.5', '--taus', '0.1',\n"
        "    '--nmax', '16')\n"
        "job('measure-check', '--tau', '1', '--moments', '1')\n"
    ).splitlines()
    assert lines == [f"{name} 0 False" for name in (
        "import", "state", "metrics", "autocorr", "entropy-scan", "measure-check")]


@pytest.mark.parametrize("argv", [
    ["--tau", "10", "--moments", "82"],
    ["--tau", "4", "--moments", "90"],
    ["--tau", "1e6", "--moments", "10"],
    ["--tau", "1.7976931348623157e308", "--moments", "1"],
])
def test_measure_check_where_the_adaptive_quadrature_failed(tmp_path, capsys, argv):
    # qagie reported a relative error of 1.0 at tau 10, summed moment 90 at
    # tau 4 to inf, and did not converge at tau 1e6 (with scipy's warning on
    # stderr) or at the largest double
    assert run(["measure-check", *argv, "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert float(captured.out.split("worst_rel_err=")[1]) < 1e-12
    assert read_csv(tmp_path / "measure_check.csv").column("n")[-1] == int(argv[-1])


def test_measure_check_at_the_largest_tau_refuses_rho_past_the_double_range(tmp_path, capsys):
    assert run(["measure-check", "--tau", "1e308", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "validation error: rho_10 at tau=1e+308 exceeds the double range\n")


def test_import_loads_no_process_pool():
    out = _fresh_probe(
        "import defock.cli\n"
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')\n"
        "             if m in sys.modules))\n"
    )
    assert out == "[]"


def test_import_and_light_jobs_load_no_scipy_or_mpmath(tmp_path):
    # only measure-check needs scipy (kve, quad); nothing on the light paths
    # may pull scipy or mpmath into a short job's start-up
    out = str(tmp_path)
    lines = _fresh_probe(
        "import contextlib, io\n"
        "def heavy():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.split('.')[0] in ('scipy', 'mpmath'))\n"
        "def job(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        return defock.cli.main([*argv, '--out', {out!r}])\n"
        "import defock\n"
        "print(heavy())\n"
        "import defock.cli\n"
        "print(heavy())\n"
        "print(job('state', '--family', 'nlcs', '--tau', '0.1', '--alpha-re', '1'),\n"
        "      heavy())\n"
        "print(job('entropy-scan', '--family', 'nlcs', '--alphas', '0.5,1',\n"
        "          '--taus', '0.1', '--nmax', '16', '--workers', '1'), heavy())\n"
        "print(job('measure-check', '--tau', '1', '--moments', '1'),\n"
        "      'scipy.special' in sys.modules)\n"
    ).splitlines()
    assert lines == ["[]", "[]", "0 []", "0 []", "0 True"]


# The family contract of `state` and `metrics`: which options each family
# requires, and which options contradict it.  Restated here, independently
# of the program, so a change to the dispatch shows.
_FAMILY_KIND = {
    "glauber": "harmonic", "nlcs": "nc", "q-coherent": "q", "gk": "nc",
    "nc-squeezed": "nc", "ho-squeezed": "harmonic", "cat": "q", "pacs": "q",
}
_FAMILY_REQUIRES = {
    "nlcs": ("tau",), "q-coherent": ("q",), "gk": ("tau", "J"),
    "nc-squeezed": ("tau",), "cat": ("q", "parity"), "pacs": ("q",),
}
# the families that take each family option, in the order the program checks
# them: tau the minimal-length ones, q the q-deformed ones (so a harmonic
# family takes neither), alpha every family but gk, zeta the squeezed ones, J
# and gamma only gk, m only pacs, parity only cat and basis the minimal-length
# ones with a basis (nlcs, gk, nc-squeezed); every other family refuses it
_READS_ALPHA = set(_FAMILY_KIND) - {"gk"}
_TAKES = {
    "tau": {family for family, kind in _FAMILY_KIND.items() if kind == "nc"},
    "q": {family for family, kind in _FAMILY_KIND.items() if kind == "q"},
    "alpha-re": _READS_ALPHA,
    "alpha-im": _READS_ALPHA,
    "zeta": {"nc-squeezed", "ho-squeezed"},
    "J": {"gk"},
    "gamma": {"gk"},
    "m": {"pacs"},
    "parity": {"cat"},
    "basis": {"nlcs", "gk", "nc-squeezed"},
}
_OPTION_VALUES = {"tau": "0.1", "q": "0.9", "alpha-re": "0.8", "alpha-im": "0.1",
                  "zeta": "0.3", "J": "1.5", "gamma": "0.7", "m": "1", "parity": "even",
                  "basis": "bare"}
_OPTION_SETS = ((), ("tau",), ("q",), ("J",), ("parity",), ("tau", "q"), ("tau", "J"),
                ("q", "parity"), ("tau", "q", "J", "parity"), ("alpha-re",), ("alpha-im",),
                ("zeta",), ("gamma",), ("m",), ("basis",), ("alpha-re", "tau", "zeta", "basis"),
                ("alpha-re", "q", "m"), ("tau", "J", "gamma", "basis"), tuple(_OPTION_VALUES))


def _contract_error(family, given):
    for name, takers in _TAKES.items():
        if name in given and family not in takers:
            return f"--{name} contradicts family {family}"
    for name in _FAMILY_REQUIRES.get(family, ()):
        if name not in given:
            return f"--{name} is required for {family}"
    return None


@pytest.mark.parametrize("command", ["state", "metrics"])
@pytest.mark.parametrize("family", list(_FAMILY_KIND))
def test_family_contract_matrix(tmp_path, capsys, command, family):
    for given in _OPTION_SETS:
        argv = [command, "--family", family, "--format", "json", "--out", str(tmp_path)]
        if family in _READS_ALPHA and "alpha-re" not in given:
            argv += ["--alpha-re", "0.8"]  # the vacuum has no Mandel Q
        for name in given:
            argv += [f"--{name}", _OPTION_VALUES[name]]
        code = run(argv)
        err = capsys.readouterr().err
        first = err.splitlines()[0] if err else ""
        message = _contract_error(family, given)
        want = (2, f"validation error: {message}") if message else (0, "")
        assert (code, first) == want, argv


def test_entropy_scan_family_contract(tmp_path, capsys):
    base = ["entropy-scan", "--alphas", "0.5", "--nmax", "16", "--format", "csv",
            "--out", str(tmp_path)]
    for family in ("q-coherent", "gk", "cat", "pacs"):
        assert run(base + ["--family", family, "--taus", "0.1"]) == 2
        assert "invalid choice" in capsys.readouterr().err.splitlines()[-1]
    for family in ("nlcs", "nc-squeezed"):
        assert run(base + ["--family", family]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[0] == f"validation error: --taus is required for {family}"
        assert run(base + ["--family", family, "--taus", "0.1"]) == 0
    for family in ("glauber", "ho-squeezed"):
        assert run(base + ["--family", family]) == 0
    assert capsys.readouterr().err == ""
    # a tau or zeta that the family does not read is refused, as state refuses it;
    # these scans exited 0 with rows that named the tau and zeta they did not read
    for family, extra, flag in (("glauber", ["--taus", "0.2"], "--taus"),
                                ("glauber", ["--zeta", "0.7"], "--zeta"),
                                ("glauber", ["--taus", "0.2", "--zeta", "0.7"], "--taus"),
                                ("ho-squeezed", ["--taus", "0.2"], "--taus"),
                                ("nlcs", ["--taus", "0.1", "--zeta", "0.3"], "--zeta"),
                                ("nlcs", ["--taus", "0.1", "--zeta", "0"], "--zeta")):
        assert run(base + ["--family", family, *extra]) == 2
        assert capsys.readouterr().err == (f"validation error: {flag} contradicts family "
                                           f"{family}\n")


_SCANNABLE = [name for name, spec in states.FAMILIES.items() if spec.scannable]
# the tau and zeta options of one run: (state's, entropy-scan's)
_TAU_ZETA_SETS = [[], [("--tau", "--taus", "0.2")], [("--zeta", "--zeta", "0.3")],
                  [("--zeta", "--zeta", "0")],
                  [("--tau", "--taus", "0.2"), ("--zeta", "--zeta", "0.3")],
                  [("--tau", "--taus", "0.2"), ("--zeta", "--zeta", "0")]]


@pytest.mark.parametrize("family", _SCANNABLE)
def test_entropy_scan_and_state_take_the_same_tau_and_zeta(tmp_path, capsys, monkeypatch,
                                                           family):
    # derived from the registry, so that a new scannable family is held to it.
    # The scan builds each tau row of states at once, so the row builders
    # record the (tau, zeta) of each state of their row.
    built, depth = [], [0]

    def recording(name):
        make = getattr(states, name)

        def wrapper(*args, **kwargs):
            # the outermost builder only: the ho-squeezed row at zeta 0 is glauber's
            if not depth[0]:
                bound = inspect.signature(make).bind(*args, **kwargs).arguments
                built.extend([(bound.get("tau", 0.0), bound.get("zeta", 0.0))]
                             * len(bound["alphas"]))
            depth[0] += 1
            try:
                return make(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    for name in ("_glauber_row", "_nlcs_row", "_nc_squeezed_row", "_ho_squeezed_row"):
        monkeypatch.setattr(states, name, recording(name))
    for k, given in enumerate(_TAU_ZETA_SETS):
        state_argv = ["state", "--family", family, "--alpha-re", "0.5", "--nmax", "16"]
        scan_argv = ["entropy-scan", "--family", family, "--alphas", "0.5,1", "--nmax", "32"]
        for state_flag, scan_flag, value in given:
            state_argv += [state_flag, value]
            scan_argv += [scan_flag, value]
        state_out, scan_out = tmp_path / f"state{k}", tmp_path / f"scan{k}"
        state_code = run(state_argv + ["--out", str(state_out)])
        state_err = capsys.readouterr().err
        built.clear()
        scan_code = run(scan_argv + ["--out", str(scan_out)])
        scan_err = capsys.readouterr().err
        assert scan_code == state_code, scan_argv
        if state_code:
            # the same refusal, in the words of each subcommand's own flag
            assert scan_err == state_err.replace("--tau ", "--taus "), scan_argv
            assert not scan_out.exists()
            continue
        table = read_csv(scan_out / "entropy_scan.csv")
        rows = [(row[1], row[2]) for row in table.rows]
        # each row names the tau and zeta its state was built from: 0 for
        # the one its family does not read
        assert rows == built, scan_argv
        assert table.provenance["zeta"] == fock_io.format_real(rows[0][1])


def test_tracer_counts_one_build_per_state_job_and_scan_point(tmp_path):
    # The benchmark's tracer wraps the constructors at their module globals,
    # so it sees a build only if the family registry looks them up there.
    # A fresh interpreter keeps the wrapped globals out of the other tests.
    root = Path(defock.__file__).resolve().parent.parent.parent
    probe = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'perfbench')!r}]\n"
        "import defock.cli\n"
        "import layers\n"
        "tracer = layers.Tracer()\n"
        "tracer.install()\n"
        "opts = {'glauber': [], 'nlcs': ['--tau', '0.1'], 'q-coherent': ['--q', '0.9'],\n"
        "        'gk': ['--tau', '0.1', '--J', '1.5'],\n"
        "        'nc-squeezed': ['--tau', '0.1', '--zeta', '0.2'],\n"
        "        'ho-squeezed': ['--zeta', '0.2'], 'cat': ['--q', '0.9', '--parity', 'even'],\n"
        "        'pacs': ['--q', '0.9', '--m', '1']}\n"
        "jobs = [['state', '--family', f, *o] + ([] if f == 'gk' else ['--alpha-re', '0.8'])\n"
        "        for f, o in opts.items()]\n"
        "jobs.append(['entropy-scan', '--family', 'nlcs', '--alphas', '0.5,1.0',\n"
        "             '--taus', '0.1,0.2', '--nmax', '16'])\n"
        f"codes = [defock.cli.main(argv + ['--out', {str(tmp_path)!r}]) for argv in jobs]\n"
        "top = {name for name, _, _, parent, _ in tracer.spans\n"
        "       if name.startswith('states.') and tracer.spans[parent][0] == 'cli.main'}\n"
        "scan = {name for name, _, _, parent, _ in tracer.spans\n"
        "        if parent >= 0 and tracer.spans[parent][0] == 'beamsplitter.entropy_scan'}\n"
        "print(json.dumps([codes, tracer.counts['states.builds'], sorted(top), sorted(scan)]))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, timeout=120)
    codes, builds, top, scan = json.loads(done.stdout.strip().splitlines()[-1])
    assert codes == [0] * 9
    # 8 state jobs.  The scan builds each tau row of states at once, through
    # the private row builders, not the registry constructors, so the tracer
    # sees none of its 4 states and no span below the scan
    assert builds == 8
    assert scan == []
    assert top == sorted(
        f"states.{name}" for name in (
            "glauber", "nlcs", "q_coherent", "gk_coherent", "nc_squeezed", "ho_squeezed",
            "cat_q", "pacs_q", "nlcs_normalization", "q_normalization", "gk_normalization",
            "squeezed_normalization", "cat_norm_sq", "pacs_norm_sq",
        )
    )


# The options each subcommand reads, restated here, independently of the
# program, so a change to the commands table shows.  Every subcommand also
# reads --config, --out and --format.
_STATE_READS = {"--family", "--tau", "--q", "--alpha-re", "--alpha-im", "--zeta", "--J",
                "--gamma", "--m", "--parity", "--basis", "--nmax"}
_READS = {
    "state": _STATE_READS,
    "metrics": _STATE_READS | {"--number"},
    "autocorr": {"--J", "--tau", "--omega", "--nmax", "--tmax", "--points", "--nbar"},
    "entropy-scan": {"--family", "--alphas", "--alpha-max", "--alpha-steps", "--taus",
                     "--zeta", "--theta", "--phi", "--nmax", "--workers"},
    "measure-check": {"--tau", "--moments", "--tol"},
}


def test_each_subcommand_reads_its_own_options():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(_READS)
    for name, parser in sub.choices.items():
        flags = {flag for a in parser._actions for flag in a.option_strings}
        assert flags == _READS[name] | {"--config", "--out", "--format", "-h", "--help"}, name


@pytest.mark.parametrize("argv", [
    ["measure-check", "--tau", "0.5", "--nmax", "64"],
    ["entropy-scan", "--family", "glauber", "--alphas", "0.5", "--tau", "0.1"],
    ["state", "--family", "glauber", "--workers", "2"],
    ["autocorr", "--J", "1.5", "--tau", "0.1", "--tmax", "10", "--points", "11",
     "--alpha-re", "1"],
    ["metrics", "--family", "glauber", "--alpha-re", "1", "--tol", "1e-3"],
    # options that changed no output, now read by no subcommand
    ["state", "--family", "glauber", "--deformation", "q"],
    ["metrics", "--family", "nlcs", "--tau", "0.1", "--deformation", "nc"],
    ["autocorr", "--J", "1.5", "--tau", "0.1", "--tmax", "10", "--points", "11",
     "--hbar", "1000"],
    # the angle cancels from |<J,gamma|J,gamma+omega t>|^2
    ["autocorr", "--J", "1.5", "--tau", "0.1", "--tmax", "10", "--points", "11",
     "--gamma", "1"],
])
def test_an_option_the_subcommand_does_not_read_exits_2(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path)]) == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, option", [
    (["state", "--family", "glauber", "--alpha-re", "nan"], "--alpha-re"),
    (["state", "--family", "nlcs", "--tau", "inf", "--alpha-re", "1"], "--tau"),
    (["measure-check", "--tau", "0.5", "--tol", "nan"], "--tol"),
    (["autocorr", "--J", "1.5", "--tau", "0.1", "--tmax=-inf", "--points", "11"], "--tmax"),
    (["entropy-scan", "--family", "glauber", "--alphas", "1,x"], "--alphas"),
    (["entropy-scan", "--family", "nlcs", "--alphas", "1", "--taus", "0.1,nan"], "--taus"),
    (["entropy-scan", "--family", "glauber", "--alphas", "1", "--theta", "1e400"], "--theta"),
])
def test_non_finite_and_malformed_reals_exit_2(tmp_path, capsys, argv, option):
    assert run(argv + ["--out", str(tmp_path)]) == 2
    assert f"argument {option}: invalid finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("config, message", [
    ({"nmax": None}, "argument --nmax: invalid int value: 'null'"),
    ({"nmax": 16.5}, "argument --nmax: invalid int value: '16.5'"),
    ({"nmax": True}, "argument --nmax: invalid int value: 'true'"),
    ({"alpha-re": [1]}, "argument --alpha-re: invalid finite value: '[1]'"),
    ({"alpha-re": "nan"}, "argument --alpha-re: invalid finite value: 'nan'"),
    ({"format": "png"}, "config value 'png' is not a choice of --format"),
    ({"basis": 1}, "config value '1' is not a choice of --basis"),
])
def test_config_values_pass_the_option_types_and_choices(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run(["state", "--family", "glauber", "--config", str(cfg),
                "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_values_pass_the_subcommands_own_choices(tmp_path, capsys):
    # entropy-scan narrows --family to the scannable families
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "cat"}))
    out = tmp_path / "out"
    assert run(["entropy-scan", "--alphas", "0.5", "--config", str(cfg),
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config value 'cat' is not a choice of --family\n"
    assert not out.exists()


def test_config_keys_a_subcommand_does_not_read_are_ignored(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha-re": 1.0, "nmax": 16, "moments": 2, "points": 11,
                               "workers": "many", "tol": None, "deformation": 1,
                               "hbar": None}))
    assert run(["state", "--family", "glauber", "--config", str(cfg),
                "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("family=glauber n_max=16 ")
    assert run(["metrics", "--family", "glauber", "--nmax", "64", "--config", str(cfg),
                "--out", str(tmp_path)]) == 0
    assert run(["autocorr", "--J", "1.5", "--tau", "0.1", "--tmax", "10", "--points", "11",
                "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    assert run(["measure-check", "--tau", "1", "--config", str(cfg),
                "--out", str(tmp_path)]) == 2
    assert "argument --tol: invalid finite value: 'null'" in capsys.readouterr().err


def test_entropy_scan_workers_takes_only_1(tmp_path, capsys):
    # the scan runs in one process; --workers 1 still parses
    base = ["entropy-scan", "--family", "glauber", "--alphas", "0.5,1", "--format", "csv"]
    assert run(base + ["--out", str(tmp_path / "default")]) == 0
    assert run(base + ["--workers", "1", "--out", str(tmp_path / "one")]) == 0
    assert ((tmp_path / "one" / "entropy_scan.csv").read_bytes()
            == (tmp_path / "default" / "entropy_scan.csv").read_bytes())
    capsys.readouterr()
    for value in ("2", "0", "-1"):
        assert run(base + ["--workers", value, "--out", str(tmp_path / value)]) == 2
        assert f"argument --workers: invalid choice: {value}" in capsys.readouterr().err
        assert not (tmp_path / value).exists()
    for value, code in ((2, 2), (1, 0)):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": value}))
        out = tmp_path / f"cfg{value}"
        assert run(base + ["--config", str(cfg), "--out", str(out)]) == code
        assert out.exists() == (code == 0)
    assert "config value 2 is not a choice of --workers" in capsys.readouterr().err


def test_typed_config_values_match_the_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alphas": "0.5,1", "taus": 0.1, "nmax": "24"}))
    assert run(["entropy-scan", "--family", "nlcs", "--config", str(cfg), "--format", "csv",
                "--out", str(tmp_path / "c")]) == 0
    assert run(["entropy-scan", "--family", "nlcs", "--alphas", "0.5,1", "--taus", "0.1",
                "--nmax", "24", "--format", "csv", "--out", str(tmp_path / "f")]) == 0
    assert ((tmp_path / "c" / "entropy_scan.csv").read_bytes()
            == (tmp_path / "f" / "entropy_scan.csv").read_bytes())


# A command that runs, with its required options left out, and a config
# that supplies them.
_FROM_CONFIG = [
    (["entropy-scan", "--alphas", "0.5"], {"family": "nlcs", "taus": "0.1"}),
    (["state", "--alpha-re", "0.5"], {"family": "glauber"}),
    (["metrics", "--alpha-re", "0.5"], {"family": "glauber"}),
    (["autocorr", "--J", "1.5", "--tau", "0.1"], {"tmax": 10, "points": 11}),
    (["autocorr", "--tmax", "10", "--points", "11"], {"J": 1.5, "tau": 0.1}),
    (["measure-check", "--moments", "2"], {"tau": 0.5}),
]


@pytest.mark.parametrize("argv, config", _FROM_CONFIG)
def test_required_options_come_from_a_config(tmp_path, argv, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(argv + ["--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
    flags = [text for key, value in config.items() for text in (f"--{key}", str(value))]
    assert run(argv + flags + ["--out", str(tmp_path / "f")]) == 0
    for path in (tmp_path / "f").iterdir():
        assert (tmp_path / "c" / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("argv, config", _FROM_CONFIG)
def test_a_required_option_missing_everywhere_exits_2(tmp_path, capsys, argv, config):
    command = argv[0]
    out = tmp_path / "out"
    for missing in [key for key in config if key != "taus"]:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({k: v for k, v in config.items() if k != missing}))
        assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"validation error: --{missing} is required for {command}\n")
    # and with no config at all
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith(f" is required for {command}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["measure-check", "--tau", "0.01"], "tau must be >= 0.0125, got 0.01"),
    (["measure-check", "--tau", "1e-300"], "tau must be >= 0.0125, got 1e-300"),
    (["measure-check", "--tau", "0.5", "--moments", "150"],
     "rho_150 at tau=0.5 exceeds the double range"),
    # f^2(n) overflowed, and numpy's warnings preceded a nan norm
    (["state", "--family", "nlcs", "--tau", "1e308", "--alpha-re", "1"],
     "tau must be at most 1e+100 for a minimal-length state, got 1e+308"),
    # omega t e_n overflowed, and autocorr.csv held nan from t = 2.5e307 on
    (["autocorr", "--J", "1", "--tau", "0.1", "--tmax", "1e308", "--points", "5"],
     "the phases omega t e_n exceed the double range; shorten the time grid"),
])
def test_inputs_outside_the_numeric_domain_exit_2(tmp_path, capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"validation error: {message}"
    assert not any(tmp_path.iterdir())


# One job of each command that builds a minimal-length state, in both bases
_NC_JOBS = [
    ["state", "--family", "nlcs", "--alpha-re", "1"],
    ["state", "--family", "nlcs", "--alpha-re", "1", "--basis", "bare"],
    ["state", "--family", "gk", "--J", "1"],
    ["state", "--family", "gk", "--J", "1", "--basis", "bare"],
    ["state", "--family", "nc-squeezed", "--alpha-re", "1", "--zeta", "0.3"],
    ["state", "--family", "nc-squeezed", "--alpha-re", "1", "--zeta", "0.3", "--basis", "bare"],
    ["metrics", "--family", "nlcs", "--alpha-re", "1e52", "--basis", "bare", "--number",
     "deformed"],
    ["metrics", "--family", "gk", "--J", "1"],
    ["autocorr", "--J", "1", "--tmax", "10", "--points", "100"],
    ["entropy-scan", "--family", "nlcs", "--alphas", "0.5,1"],
    ["entropy-scan", "--family", "nc-squeezed", "--alphas", "0.5,1", "--zeta", "0.3"],
]


def _run_at_tau(argv, tau, out):
    """Exit code and numpy's warnings of one _NC_JOBS job at ``tau``."""
    flag = "--taus" if argv[0] == "entropy-scan" else "--tau"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv + [flag, tau, "--out", str(out)])
    return code, [w for w in caught if w.category is not defock.PerturbativeRegimeWarning]


@pytest.mark.parametrize("tau", ["1e200", "1e308", "1.7976931348623157e308"])
@pytest.mark.parametrize("argv", _NC_JOBS, ids=" ".join)
def test_a_tau_past_the_state_range_exits_2_before_any_series(tmp_path, capsys, argv, tau):
    # numpy overflowed in f^2(n), the dressing or the norm, and its warnings
    # reached stderr; some of these jobs exited 0, the scan with nan rows
    assert _run_at_tau(argv, tau, tmp_path) == (2, [])
    assert capsys.readouterr().err == ("validation error: tau must be at most 1e+100 for a "
                                       f"minimal-length state, got {float(tau)!r}\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", _NC_JOBS, ids=" ".join)
def test_a_tau_at_the_state_range_gives_finite_numbers(tmp_path, capsys, argv):
    assert _run_at_tau(argv, "1e100", tmp_path) == (0, [])
    text = capsys.readouterr().out + "".join(
        path.read_text() for path in tmp_path.iterdir() if path.suffix != ".svg")
    # the scan's S_closed column is nan for every family but nlcs
    if argv[:3] == ["entropy-scan", "--family", "nc-squeezed"]:
        text = text.replace(",nan,", ",")
    assert "nan" not in text and "inf" not in text


@pytest.mark.parametrize("argv, count", [
    (["state", "--family", "nlcs", "--tau", "0.8", "--alpha-re", "1"], 1),
    (["metrics", "--family", "gk", "--tau", "0.8", "--J", "1"], 1),
    (["autocorr", "--tau", "0.8", "--J", "1", "--tmax", "10", "--points", "100"], 1),
    (["entropy-scan", "--family", "nlcs", "--alphas", "1", "--taus", "0.8,0.9"], 2),
])
def test_one_perturbative_warning_per_job_and_tau(tmp_path, argv, count):
    # the CLI and the state builder each made a deformation, and each
    # warning named its own line in the package, so the default filter
    # showed both; now both name the caller's line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        assert run(argv + ["--out", str(tmp_path)]) == 0
    assert [w.category for w in caught] == [defock.PerturbativeRegimeWarning] * count
    assert all(w.filename == __file__ for w in caught)


def test_python_m_warning_names_cli_py(tmp_path):
    # under python -m, cli.py is __main__ and the walk out of the package
    # ran on into runpy: the warning named <frozen runpy>:88, with no source
    src = str(Path(defock.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "defock.cli", "state", "--family", "nlcs", "--tau", "0.8",
         "--alpha-re", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"})
    assert done.returncode == 0
    warned = [line for line in done.stderr.splitlines() if "PerturbativeRegimeWarning" in line]
    assert len(warned) == 1
    assert warned[0].startswith(str(Path(src) / "defock" / "cli.py") + ":")
    assert "runpy" not in done.stderr


def test_entropy_scan_of_one_huge_alpha_writes_its_plot(tmp_path):
    assert run(["entropy-scan", "--family", "glauber", "--alphas", "1e308",
                "--out", str(tmp_path)]) == 0
    assert "<svg" in (tmp_path / "entropy_scan.svg").read_text()


def test_entropy_scan_over_the_whole_double_range_writes_no_nan(tmp_path, capsys):
    # x_hi - x_lo overflowed, and the plot held nan in 10 places
    assert run(["entropy-scan", "--family", "glauber", "--alphas=-1e308,0.5,1e308",
                "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "rows=3 flagged=2\n"
    svg = (tmp_path / "entropy_scan.svg").read_text()
    assert "<polyline" in svg and "nan" not in svg and "inf" not in svg


def _readme_commands():
    """The ``defock`` commands of README's "Command line" block, as argv lists."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(cmd)[1:] for cmd in block.replace("\\\n", " ").splitlines()
            if cmd.startswith("defock ")]


def test_readme_commands_run(tmp_path):
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == set(_READS)
    for argv in commands:
        assert run(argv + ["--out", str(tmp_path)]) == 0, argv


# Bad and edge values for every option: reals, integers and comma grids.
# The sizes that set an example's cost are capped: --points at 50,
# --alpha-steps at 5 and --moments at 3.
_REALS = ("nan", "inf", "-inf", "1e308", "-1e308", "1.7976931348623157e308", "1e-300", "0",
          "-1", "x1", "0.5", "5e-324", "-5e-324")
_INTS = ("-1", "0", "1", "513", "1.5", "x1", "3")
_GRIDS = ("", "1,x", "nan", "1e308", "-1,0.5", "0.5,1", "0,5e-324")


def _sized(top):
    return tuple(v for v in _INTS if v in ("1.5", "x1") or int(v) <= top) + (str(top),)


_POOLS = {
    "--family": tuple(defock.states.FAMILIES) + ("bogus",),
    "--parity": ("even", "odd"),
    "--basis": ("bare", "perturbed"), "--number": ("bare", "deformed"),
    "--format": ("csv", "json", "svg", "all"),
    "--m": _INTS, "--nmax": _INTS, "--points": _sized(50), "--alpha-steps": _sized(5),
    "--moments": _sized(3), "--workers": _INTS,
    "--alphas": _GRIDS, "--taus": _GRIDS,
}
_CONFIGS = ({"nmax": None}, {"alpha-re": [1]}, {"nmax": 16.5}, {"tau": "inf"},
            {"format": "png"})
# A command that runs, per subcommand.  An example drops some of its options
# or sets them to pool values, so that most bad values meet otherwise good
# input and reach the code past the parser.
_GOOD = {
    "state": {"--family": "nlcs", "--tau": "0.1", "--alpha-re": "1"},
    "metrics": {"--family": "q-coherent", "--q": "0.9", "--alpha-re": "1"},
    "autocorr": {"--J": "1.5", "--tau": "0.1", "--tmax": "30", "--points": "50"},
    "entropy-scan": {"--family": "nlcs", "--alphas": "0.5,1", "--taus": "0.1", "--nmax": "16"},
    "measure-check": {"--tau": "0.5", "--moments": "3"},
}


# the settings of the norm property tests in test_states.py
@settings(database=None, derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
@pytest.mark.parametrize("command", list(_READS))
def test_main_never_raises(tmp_path_factory, command, data):
    out = tmp_path_factory.mktemp("fuzz")
    opts = dict(_GOOD[command])
    options = sorted(_READS[command] | {"--format"})
    for option in data.draw(st.sets(st.sampled_from(options), min_size=1), "changed"):
        value = data.draw(st.none() | st.sampled_from(_POOLS.get(option, _REALS)), option)
        opts.pop(option, None)
        if value is not None:
            opts[option] = value
    argv = [command] + [f"{option}={value}" for option, value in opts.items()]
    config = data.draw(st.none() | st.sampled_from(_CONFIGS), "config")
    if config is not None:
        (out / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(out / "cfg.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv + ["--out", str(out / "o")])
    assert type(code) is int and 0 <= code <= 4


@pytest.mark.parametrize("command", list(_READS))
def test_main_never_raises_on_one_changed_option(tmp_path, command):
    # every pool value, and the option left out, for each option in turn
    for option in sorted(_READS[command] | {"--format"}):
        for value in (None, *_POOLS.get(option, _REALS)):
            opts = dict(_GOOD[command])
            opts.pop(option, None)
            if value is not None:
                opts[option] = value
            argv = [command] + [f"{key}={text}" for key, text in opts.items()]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(argv + ["--out", str(tmp_path)])
            assert type(code) is int and 0 <= code <= 4, argv


# Inputs that raised out of main before, one per place in the code.
@pytest.mark.parametrize("argv, code", [
    # abs(alpha) ** 2 overflowed in the q radius check
    (["state", "--family", "pacs", "--q", "0.5", "--alpha-im=1e308"], 3),
    # cmath.phase raised where the angle of alpha underflows
    (["metrics", "--family", "glauber", "--alpha-re", "1e308", "--alpha-im", "1e-300"], 3),
    # abs(alpha) of two components near the largest double
    (["state", "--family", "glauber", "--alpha-re", "1.7e308", "--alpha-im", "1.7e308"], 2),
    # omega B underflowed to 0 in the revival time
    (["autocorr", "--J", "1", "--tau", "1e-300", "--omega", "1e-300", "--tmax", "1",
      "--points", "3"], 0),
    # A + 2 B nbar = 0 at tau 2 and nbar -1
    (["autocorr", "--J", "1", "--tau", "2", "--nbar=-1", "--tmax", "1", "--points", "3"], 2),
    # the plot's x half-span tmax/2 rounded to 0 and divided the SVG writer by it
    (["autocorr", "--J", "1.5", "--tau", "0.1", "--omega", "0.5", "--tmax", "5e-324",
      "--points", "10"], 0),
    (["entropy-scan", "--family", "glauber", "--alphas", "0,5e-324"], 0),
])
def test_extreme_finite_inputs_exit_with_a_code(tmp_path, argv, code):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(argv + ["--out", str(tmp_path)]) == code
    if code == 0:  # both artifacts are written
        assert sorted(path.suffix for path in tmp_path.iterdir()) == [".csv", ".svg"]
