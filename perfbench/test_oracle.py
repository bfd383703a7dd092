"""Each output check of the benchmark passes on real CLI output and fails on
a deliberately corrupted copy of it.

Run from the root of the repository:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from defock import cli  # noqa: E402
from workloads import Job  # noqa: E402


def _run(job: Job, outdir: Path):
    return run._run_job(cli, job, outdir)


def _ids(failures):
    return {f.split(":")[0] for f in failures}


def _passing(job: Job, outdir: Path):
    code, stdout = _run(job, outdir)
    assert oracle.check_job(job, outdir, stdout, code) == []
    return stdout


def _edit_csv(path: Path, column: str, row: int, edit):
    lines = path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header].split(",").index(column)
    cells = lines[header + 1 + row].split(",")
    cells[col] = edit(cells[col])
    lines[header + 1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _edit_json(path: Path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _bump(delta):
    return lambda cell: repr(float(cell) + delta)


# -- scan ---------------------------------------------------------------------

def _scan(family, **opts):
    return Job("entropy-scan", {"family": family, "alphas": "0.5,1.5", "nmax": "32",
                                "workers": "1", **opts})


@pytest.mark.parametrize("column, expected", [
    ("S_direct", "scan.linear_entropy"),
    ("S_closed", "scan.direct_vs_closed"),
])
def test_scan_nlcs_entropy(tmp_path, column, expected):
    job = _scan("nlcs", taus="0.1")
    stdout = _passing(job, tmp_path)
    _edit_csv(tmp_path / "entropy_scan.csv", column, 1, _bump(1e-7))
    assert expected in _ids(oracle.check_job(job, tmp_path, stdout, 0))


def test_scan_flagged_row(tmp_path):
    job = _scan("nlcs", taus="0.1")
    stdout = _passing(job, tmp_path)
    _edit_csv(tmp_path / "entropy_scan.csv", "flag", 0, lambda _: "TruncationError")
    assert "scan.flagged" in _ids(oracle.check_job(job, tmp_path, stdout, 0))


def test_scan_nc_squeezed_entropy(tmp_path):
    job = _scan("nc-squeezed", taus="0.2", zeta="0.2")
    stdout = _passing(job, tmp_path)
    _edit_csv(tmp_path / "entropy_scan.csv", "S_direct", 0, _bump(1e-7))
    assert "scan.linear_entropy" in _ids(oracle.check_job(job, tmp_path, stdout, 0))


def test_scan_glauber_zero(tmp_path):
    job = _scan("glauber")
    stdout = _passing(job, tmp_path)
    _edit_csv(tmp_path / "entropy_scan.csv", "S_direct", 1, _bump(1e-9))
    assert "scan.glauber_zero" in _ids(oracle.check_job(job, tmp_path, stdout, 0))


def test_scan_gaussian_purity(tmp_path):
    job = _scan("ho-squeezed", zeta="0.3")
    stdout = _passing(job, tmp_path)
    _edit_csv(tmp_path / "entropy_scan.csv", "S_direct", 0, _bump(1e-7))
    assert "scan.gaussian_purity" in _ids(oracle.check_job(job, tmp_path, stdout, 0))


# -- moments ------------------------------------------------------------------

def test_moments(tmp_path):
    job = Job("measure-check", {"tau": "1.0", "moments": "3"})
    stdout = _passing(job, tmp_path)
    path = tmp_path / "measure_check.csv"
    good = path.read_text()
    _edit_csv(path, "computed", 2, lambda cell: repr(float(cell) * (1 + 1e-6)))
    assert "moments.rho" in _ids(oracle.check_job(job, tmp_path, stdout, 0))
    path.write_text(good.replace("# mu=3\n", "# mu=3.0001\n"))
    assert _ids(oracle.check_job(job, tmp_path, stdout, 0)) == {"moments.mu"}


# -- catalog ------------------------------------------------------------------

def test_state_checks(tmp_path):
    job = Job("state", {"family": "nlcs", "tau": "0.2", "alpha-re": "1.0"})
    stdout = _passing(job, tmp_path)
    state, dist = tmp_path / "state.json", tmp_path / "photon_distribution.csv"
    good_state, good_dist = state.read_text(), dist.read_text()

    def amp(doc):
        doc["amps"][3][0] += 1e-4

    _edit_json(state, amp)
    assert "state.fidelity" in _ids(oracle.check_job(job, tmp_path, stdout, 0))
    state.write_text(good_state)
    _edit_json(state, lambda doc: doc.update(tail_mass=2e-10))
    assert _ids(oracle.check_job(job, tmp_path, stdout, 0)) == {"state.tail"}
    state.write_text(good_state)
    _edit_csv(dist, "P_n", 2, lambda cell: repr(float(cell) * (1 + 1e-9)))
    assert _ids(oracle.check_job(job, tmp_path, stdout, 0)) == {"state.photon_csv"}
    dist.write_text(good_dist)
    for key, check in (("norm_const", "state.norm_const"), ("mean_n", "state.mean_n")):
        value = stdout.split(f"{key}=")[1].split()[0]
        bad = stdout.replace(f"{key}={value}", f"{key}={float(value) * (1 + 1e-6)!r}")
        assert _ids(oracle.check_job(job, tmp_path, bad, 0)) == {check}


@pytest.mark.parametrize("opts, key, expected", [
    ({"family": "glauber", "alpha-re": "1.0"}, "mandel_q", "metrics.glauber"),
    ({"family": "q-coherent", "q": "0.9", "alpha-re": "1.0", "number": "deformed"},
     "var_y", "metrics.q_identity"),
    ({"family": "nlcs", "tau": "0.2", "alpha-re": "1.0", "basis": "bare"},
     "var_z", "metrics.saturation"),
    ({"family": "pacs", "q": "0.8", "alpha-re": "0.7", "m": "1"}, "g2_zero",
     "metrics.reference"),
])
def test_metrics_checks(tmp_path, opts, key, expected):
    job = Job("metrics", opts)
    stdout = _passing(job, tmp_path)
    _edit_json(tmp_path / "metrics.json", lambda doc: doc.update({key: doc[key] + 1e-6}))
    assert expected in _ids(oracle.check_job(job, tmp_path, stdout, 0))


def test_autocorr_checks(tmp_path):
    omega, tau = 0.5, 0.25
    t_rev = 4.0 * math.pi / (omega * tau)
    job = Job("autocorr", {"J": "1.0", "tau": "0.25", "omega": "0.5",
                           "tmax": f"{1.1 * t_rev:.4f}", "points": "4000"})
    stdout = _passing(job, tmp_path)
    path = tmp_path / "autocorr.csv"
    good = path.read_text()
    _edit_csv(path, "A", 0, lambda _: "0.9")
    assert _ids(oracle.check_job(job, tmp_path, stdout, 0)) == {"autocorr.a0"}
    path.write_text(good)
    _edit_csv(path, "A", 100, lambda _: "1.2")
    assert _ids(oracle.check_job(job, tmp_path, stdout, 0)) == {"autocorr.range"}
    path.write_text(good)
    peak = round(t_rev / (1.1 * t_rev) * 3999)
    for row in range(peak - 80, peak + 81):
        _edit_csv(path, "A", row, lambda cell: repr(float(cell) * 0.5))
    assert _ids(oracle.check_job(job, tmp_path, stdout, 0)) == {"autocorr.revival"}


# -- whole-run properties -----------------------------------------------------

def test_exit_code_fails():
    assert _ids(oracle.check_job(Job("state", {"family": "glauber"}), ".", "", 3)) == {"exit"}


def test_determinism_digest(tmp_path):
    job = Job("state", {"family": "glauber", "alpha-re": "1.0"})
    code, stdout = _run(job, tmp_path)
    before = oracle.output_digest(tmp_path, stdout, code)
    code, stdout = _run(job, tmp_path)
    assert oracle.output_digest(tmp_path, stdout, code) == before
    path = tmp_path / "state.json"
    path.write_bytes(path.read_bytes().replace(b"1", b"2", 1))
    assert oracle.output_digest(tmp_path, stdout, code) != before


def test_catalog_seed_passes_and_faults_fail(tmp_path):
    for i, job in enumerate(workloads.catalog_jobs(7)):
        code, stdout = _run(job, tmp_path / str(i))
        failures = oracle.check_job(job, tmp_path / str(i), stdout, code)
        assert bool(failures) == bool(job.fault), (job.argv, failures)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
