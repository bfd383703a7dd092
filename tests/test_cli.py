import json

import pytest

from defock.cli import main
from defock.fock_io import read_csv
from defock.states import FockState


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


def test_format_filter(tmp_path):
    code = run([
        "state", "--family", "glauber", "--alpha-re", "1", "--format", "json",
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "state.json").exists()
    assert not (tmp_path / "photon_distribution.csv").exists()
