"""End-to-end benchmark of the defock command line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload scan|moments|catalog --seed N \
        --seconds S --trace 0|1

One interpreter runs every job of the workload through the CLI's public
entry ``defock.cli.main(argv)``.  A job fails if it exits non-zero or if its
output check fails.  The run is:

1. set-up: import ``defock.cli`` from ``src/`` (and, untraced, time that
   import in fresh interpreters);
2. a warm-up pass over the job list, untimed, whose outputs are checked
   against the references of ``oracle.py``;
3. timed passes over the same list until ``--seconds`` of timed work is
   done; every timed job must write byte-identical artifacts and stdout to
   its warm-up run, so every output is checked.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics of ``layers.py`` with ``--trace 1``).  A summary goes to
stderr.  Exits 2 without a result when ``src/defock`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
# a run ends after the pass that crosses this, whatever --seconds says
WALL_CAP_S = 150.0

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import defock.cli\n"
    "print(repr(time.perf_counter() - start))\n"
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_cli():
    if not (SRC / "defock" / "cli.py").is_file():
        print(f"perfbench: no defock sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import defock.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "defock").resolve():
        print(f"perfbench: imported defock from {cli.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return cli


def _setup_seconds() -> float:
    """Median time to import ``defock.cli`` in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _blas_threads() -> str:
    """Thread count of numpy's bundled OpenBLAS, or 'unknown'."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return str(getattr(lib, symbol)())
    return "unknown"


def _run_job(cli, job, outdir: Path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(job.argv + ["--out", str(outdir)])
        except Exception:  # a crash is a failed job, not a failed run
            print(f"perfbench: {' '.join(job.argv)} raised\n{traceback.format_exc()}",
                  file=sys.__stderr__)
            code = -1
    return code, out.getvalue()


def _run_pass(cli, jobs, dirs, tracer, pass_no):
    """Run every job once; return per-job seconds, pass wall and CPU seconds,
    and the (exit code, stdout) of each job."""
    times, results = [], []
    cpu0 = time.process_time()
    start = time.perf_counter()
    for idx, (job, outdir) in enumerate(zip(jobs, dirs)):
        if tracer is not None:
            tracer.job = pass_no * len(jobs) + idx
        t0 = time.perf_counter()
        results.append(_run_job(cli, job, outdir))
        times.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    return times, wall, time.process_time() - cpu0, results


def _clear(dirs):
    for outdir in dirs:
        if outdir.is_dir():
            for path in outdir.iterdir():
                path.unlink()


def main(argv=None) -> int:
    args = _parse_args(argv)
    started = time.perf_counter()
    cli = _import_cli()
    setup_s = _setup_seconds() if not args.trace else None
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()

    jobs = workloads.jobs_for(args.workload, args.seed)
    workdir = HERE / "_out" / f"{args.workload}-{os.getpid()}"
    dirs = [workdir / f"{i:03d}" for i in range(len(jobs))]
    try:
        # warm-up pass: fills the per-process caches; its outputs are checked
        _, _, _, results = _run_pass(cli, jobs, dirs, tracer, -1)
        failures = [oracle.check_job(job, d, out, code)
                    for job, d, (code, out) in zip(jobs, dirs, results)]
        expected = [oracle.output_digest(d, out, code) for d, (code, out) in zip(dirs, results)]
        if tracer is not None:
            tracer.reset()

        job_times, wall, cpu, passes, failed = [], 0.0, 0.0, 0, 0
        nondeterministic = set()
        while True:
            _clear(dirs)
            times, pass_wall, pass_cpu, results = _run_pass(cli, jobs, dirs, tracer, passes)
            job_times += times
            wall += pass_wall
            cpu += pass_cpu
            passes += 1
            for i, (d, (code, out)) in enumerate(zip(dirs, results)):
                differs = oracle.output_digest(d, out, code) != expected[i]
                if differs and not failures[i]:
                    nondeterministic.add(i)
                failed += bool(failures[i]) or differs
            if wall >= args.seconds or time.perf_counter() - started > WALL_CAP_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = passes * len(jobs)
    for i in nondeterministic:
        failures[i] = ["determinism: output differs from an identical run"]
    correct = not any(fails and not job.fault for job, fails in zip(jobs, failures))
    for job, fails in zip(jobs, failures):
        if fails:
            label = f"known fault ({job.fault})" if job.fault else "FAILED"
            print(f"perfbench: {label}: {' '.join(job.argv)}: {fails[0]}", file=sys.stderr)

    per_job_ms = 1000.0 * statistics.median(job_times)
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} passes={passes} "
          f"jobs={attempted} failed={failed} wall={wall:.3f}s jobs/s={attempted / wall:.3f} "
          f"job_ms_p50={per_job_ms:.3f} blas_threads={_blas_threads()}", file=sys.stderr)

    if tracer is not None:
        tracer.write(HERE / "_traces" / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = tracer.metrics(attempted, len(jobs))
    else:
        metrics = {
            "jobs_per_s": {"value": attempted / wall, "unit": "1/s"},
            "job_ms_p50": {"value": per_job_ms, "unit": "ms"},
            "cpu_ms_per_job": {"value": 1000.0 * cpu / attempted, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
