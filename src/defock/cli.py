"""Command-line front end.

Subcommands: ``state``, ``metrics``, ``autocorr``, ``entropy-scan``,
``measure-check``.  Exit codes: 0 ok, 1 I/O failure, 2 validation
failure, 3 truncation/divergence, 4 tolerance failure.  Identical
invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import beamsplitter as bsm
from . import fock_io, measure, metrics, states
from .deform import Deformation
from .errors import (
    DefockError,
    DegenerateStateError,
    DivergenceError,
    ToleranceError,
    TruncationError,
    ValidationError,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_TRUNCATION = 3
EXIT_TOLERANCE = 4

# largest --points and --alpha-steps: both go straight into np.linspace,
# so they are checked before anything is allocated
MAX_GRID_POINTS = 10**6


def finite(text: str) -> float:
    """A finite real: argparse reports nan, inf and malformed text as
    "invalid finite value"."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def finite_list(text: str) -> list:
    """A comma list of finite reals; empty entries are skipped."""
    return [finite(v) for v in text.split(",") if v.strip() != ""]


# Every option once, as its add_argument keywords.
_OPTIONS = {
    "--family": dict(choices=tuple(states.FAMILIES)),
    "--tau": dict(type=finite),
    "--q": dict(type=finite),
    # the family options default to None: each family fills in its own
    # defaults and refuses the options it does not read
    "--alpha-re": dict(type=finite),
    "--alpha-im": dict(type=finite),
    "--zeta": dict(type=finite),
    "--J": dict(type=finite),
    "--gamma": dict(type=finite),
    "--m": dict(type=int),
    "--parity": dict(choices=("even", "odd")),
    "--basis": dict(choices=("bare", "perturbed")),
    "--nmax": dict(type=int, default=states.DEFAULT_N_MAX),
    "--number": dict(choices=("bare", "deformed"), default="bare"),
    "--omega": dict(type=finite, default=0.5),
    "--tmax": dict(type=finite),
    "--points": dict(type=int),
    "--nbar": dict(type=finite, help="explicit nbar for t_cl"),
    "--alphas": dict(type=finite_list, help="comma list of alpha values; a list that starts "
                     "with a negative value needs the = form, --alphas=-1,0.5"),
    "--alpha-max": dict(type=finite),
    "--alpha-steps": dict(type=int),
    "--taus": dict(type=finite_list, help="comma list of tau values; as for --alphas, a "
                   "list that starts with a negative value needs the = form"),
    "--theta": dict(type=finite, default=math.pi / 2.0),
    "--phi": dict(type=finite, default=0.0),
    "--workers": dict(type=int, choices=(1,), default=1,
                      help="the scan runs in one process; 1, the only value, is "
                      "accepted so that older command lines still parse"),
    "--moments": dict(type=int, default=10),
    "--tol": dict(type=finite, default=1e-6),
    # suppressed default: a subparser would otherwise reset a --config given
    # before the subcommand to None
    "--config": dict(default=argparse.SUPPRESS, help="JSON file with default option values"),
    "--out": dict(default="."),
    "--format": dict(choices=("csv", "json", "svg", "all"), default="all",
                     help="restrict which artifact kinds are written"),
}


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The parser of ``_COMMANDS``.  ``defaults`` (a config's keys and
    values) replace the defaults of the options each subcommand reads."""
    # no abbreviations: entropy-scan --tau would otherwise be read as --taus
    parser = argparse.ArgumentParser(prog="defock", allow_abbrev=False,
                                     description="Deformed-oscillator state toolkit")
    parser.add_argument("--config", **_OPTIONS["--config"])
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse runs an option's type on a string default only, so every
    # config value goes in as its JSON text
    texts = {key.replace("-", "_"): value if isinstance(value, str) else json.dumps(value)
             for key, value in (defaults or {}).items()}
    for name, (_, help_text, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag, keywords in _options(name):
            dest = p.add_argument(flag, **keywords).dest
            if dest in texts:
                p.set_defaults(**{dest: texts[dest]})
    return parser


def _options(command):
    """(flag, add_argument keywords) of each option ``command`` reads."""
    for option in (*_COMMANDS[command][2], "--config", "--out", "--format"):
        flag, own = (option, {}) if isinstance(option, str) else option
        yield flag, {**_OPTIONS[flag], **own}


@functools.lru_cache(maxsize=None)
def _default_parser() -> argparse.ArgumentParser:
    # parse_args leaves a parser unchanged, so one no-config parser serves
    # every call of main in the process; a --config run builds its own
    return build_parser()


def _family_state(args):
    """Check the options against the family's contract, fill in the
    family's defaults, then build the deformation and the state.  Sets
    ``args.alpha`` for a family that reads alpha; the registry's callables
    read it."""
    family = args.family
    spec = states.FAMILIES[family]
    # a family refuses each family option it neither requires nor defaults
    for flag in _FAMILY_OPTIONS:
        option = flag[2:].replace("-", "_")
        if option in spec.defaults:
            if getattr(args, option) is None:
                setattr(args, option, spec.defaults[option])
        elif option not in spec.requires and getattr(args, option) is not None:
            raise ValidationError(f"{flag} contradicts family {family}")
    for option in spec.requires:
        if getattr(args, option) is None:
            raise ValidationError(f"--{option} is required for {family}")
    if "alpha_re" in spec.defaults:
        args.alpha = complex(args.alpha_re, args.alpha_im)
        if math.isinf(math.hypot(args.alpha_re, args.alpha_im)):
            raise ValidationError("|alpha| exceeds the double range")
    # before the state: a bad tau or q is reported in the deformation's words
    deformation = Deformation(spec.kind, **{option: getattr(args, option)
                                            for option in ("tau", "q") if option in spec.requires})
    return spec.build(args, args.nmax), deformation


def _write(args, name, write) -> None:
    """Create --out, then call ``write(path)`` for the artifact ``name`` if
    --format selects its kind, the suffix of ``name``."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.format in ("all", Path(name).suffix[1:]):
        write(out / name)


def cmd_state(args) -> int:
    state, _ = _family_state(args)
    _write(args, "state.json",
           lambda path: path.write_text(state.to_json() + "\n", encoding="utf-8"))
    _write(args, "photon_distribution.csv", lambda path: fock_io.write_csv(fock_io.ScanTable(
        columns=["n", "P_n"],
        rows=[[n, p] for n, p in enumerate(metrics.photon_distribution(state).tolist())],
        provenance={"label": state.label},
    ), path))
    norm_const = states.FAMILIES[args.family].norm(args)
    print(
        f"family={args.family} n_max={state.n_max} "
        f"norm_const={fock_io.format_real(norm_const)} "
        f"tail_mass={state.tail_mass:.3e} mean_n={state.mean_n():.12g}"
    )
    return EXIT_OK


def cmd_metrics(args) -> int:
    state, deformation = _family_state(args)
    report = metrics.nonclassicality_report(
        state, deformation, number_convention=args.number
    )
    _write(args, "metrics.json",
           lambda path: path.write_text(report.to_json() + "\n", encoding="utf-8"))
    print(f"state      : {state.label}")
    print(f"number conv: {args.number}")
    for name, value in (
        ("var_y", report.var_y),
        ("var_z", report.var_z),
        ("gur_rhs", report.gur_rhs),
        ("mandel_q", report.mandel_q),
        ("g2_zero", report.g2_zero),
        ("mean_n", report.mean_n),
    ):
        print(f"{name:<10} : {value:.12g}")
    return EXIT_OK


def cmd_autocorr(args) -> int:
    # detect_peaks needs 3 samples: checked before any grid or file exists
    if args.points < 3 or args.tmax <= 0:
        raise ValidationError("need --points >= 3 and --tmax > 0")
    if args.points > MAX_GRID_POINTS:
        raise ValidationError(f"--points must be at most {MAX_GRID_POINTS}, got {args.points}")
    t, a = metrics.gk_autocorrelation(args.J, args.tau, args.omega, args.tmax, args.points,
                                      n_max=args.nmax)
    times = metrics.revival_times(args.J, args.tau, args.omega, nbar=args.nbar)
    table = fock_io.ScanTable(
        columns=["t", "A"],
        rows=np.column_stack((t, a)).tolist(),
        provenance={
            "J": fock_io.format_real(args.J),
            "tau": fock_io.format_real(args.tau),
            "omega": fock_io.format_real(args.omega),
        },
    )
    _write(args, "autocorr.csv", lambda path: fock_io.write_csv(table, path))
    _write(args, "autocorr.svg", lambda path: fock_io.write_svg_lineplot(
        table, "t", ["A"], path, style={"title": "autocorrelation", "xlabel": "t"}))
    peaks = metrics.detect_peaks(t, a, min_height=0.2)
    peak_str = " ".join(f"{p:.4g}" for p in peaks[:12])
    print(f"t_cl={times.t_cl:.2f} t_rev={times.t_rev:.2f}")
    print(f"peaks: {peak_str}")
    return EXIT_OK


def cmd_entropy_scan(args) -> int:
    if args.alphas:
        alphas = args.alphas
    elif args.alpha_max is not None and args.alpha_steps:
        if args.alpha_steps < 1:
            raise ValidationError("--alpha-steps must be >= 1")
        if args.alpha_steps > MAX_GRID_POINTS:
            raise ValidationError(
                f"--alpha-steps must be at most {MAX_GRID_POINTS}, got {args.alpha_steps}")
        alphas = list(np.linspace(0.0, args.alpha_max, args.alpha_steps))
    else:
        raise ValidationError("give --alphas or --alpha-max/--alpha-steps")
    taus = args.taus or None
    if "tau" in states.FAMILIES[args.family].requires and not taus:
        raise ValidationError(f"--taus is required for family {args.family}")
    bs = bsm.BeamSplitter(theta=args.theta, phi=args.phi)
    table = bsm.entropy_scan(args.family.replace("-", "_"), alphas, taus, zeta=args.zeta,
                             bs=bs, n_max=args.nmax)
    _write(args, "entropy_scan.csv", lambda path: fock_io.write_csv(table, path))
    _write(args, "entropy_scan.svg", lambda path: fock_io.write_svg_lineplot(
        table, "alpha", ["S_direct"], path,
        style={"title": f"linear entropy ({args.family})", "xlabel": "alpha"}))
    flagged = sum(1 for row in table.rows if row[-1])
    print(f"rows={len(table.rows)} flagged={flagged}")
    return EXIT_OK


def cmd_measure_check(args) -> int:
    if args.moments < 0:
        raise ValidationError("--moments must be >= 0")
    params = measure.MeasureParams(args.tau)
    checks = measure.moment_table(params, args.moments)
    table = fock_io.ScanTable(
        columns=["n", "computed", "target", "rel_err"],
        provenance={
            "tau": fock_io.format_real(args.tau),
            "mu": fock_io.format_real(params.mu),
            "beta": fock_io.format_real(params.beta),
            "norm": fock_io.format_real(params.norm),
        },
    )
    worst = 0.0
    for chk in checks:
        worst = max(worst, chk.rel_err)
        table.append([chk.n, chk.computed, chk.target, chk.rel_err])
    _write(args, "measure_check.csv", lambda path: fock_io.write_csv(table, path))
    print(f"tau={args.tau} mu={params.mu} moments<=n={args.moments} worst_rel_err={worst:.3e}")
    if worst > args.tol:
        raise ToleranceError(
            f"worst relative moment error {worst:.3e} exceeds tolerance {args.tol:.1e}"
        )
    return EXIT_OK


_FAMILY_OPTIONS = ("--tau", "--q", "--alpha-re", "--alpha-im", "--zeta", "--J", "--gamma",
                   "--m", "--parity", "--basis")
_STATE_OPTIONS = ("--family", *_FAMILY_OPTIONS, "--nmax")

# Every subcommand once: its handler, its help, the options it reads
# besides --config, --out and --format, and those of them it cannot run
# without.  A (flag, keywords) pair replaces some of that option's keywords
# for this subcommand.  argparse's required=True would refuse an option
# before a --config could supply it, so main checks the required ones after
# the config is merged.
_COMMANDS = {
    "state": (cmd_state, "construct a state, dump JSON + CSV", _STATE_OPTIONS, ("--family",)),
    "metrics": (cmd_metrics, "nonclassicality report", (*_STATE_OPTIONS, "--number"),
                ("--family",)),
    "autocorr": (cmd_autocorr, "Gazeau-Klauder autocorrelation trace",
                 ("--J", "--tau", "--omega", "--nmax", "--tmax", "--points", "--nbar"),
                 ("--J", "--tau", "--tmax", "--points")),
    "entropy-scan": (cmd_entropy_scan, "beam-splitter entropy scan", (
        ("--family", dict(choices=[name for name, spec in states.FAMILIES.items()
                                   if spec.scannable])),
        "--alphas", "--alpha-max", "--alpha-steps", "--taus", ("--zeta", dict(default=0.0)),
        "--theta", "--phi", "--nmax", "--workers"), ("--family",)),
    "measure-check": (cmd_measure_check, "measure moment verification",
                      ("--tau", "--moments", "--tol"), ("--tau",)),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _default_parser().parse_args(argv)
        if getattr(args, "config", None):
            # a bad command line is reported here, before the config is read
            try:
                defaults = json.loads(Path(args.config).read_text(encoding="utf-8"))
            except OSError:
                print(f"cannot read config {args.config}", file=sys.stderr)
                return EXIT_IO
            except json.JSONDecodeError as exc:
                print(f"malformed config {args.config}: {exc}", file=sys.stderr)
                return EXIT_VALIDATION
            if not isinstance(defaults, dict):
                print("config must be a JSON object", file=sys.stderr)
                return EXIT_VALIDATION
            args = build_parser(defaults).parse_args(argv)
            # argparse checks the choices of explicit flags only
            for flag, keywords in _options(args.command):
                value = getattr(args, flag[2:].replace("-", "_"), None)
                choices = keywords.get("choices")
                if choices and value is not None and value not in choices:
                    print(f"config value {value!r} is not a choice of {flag}", file=sys.stderr)
                    return EXIT_VALIDATION
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_VALIDATION
    try:
        handler, _, _, required = _COMMANDS[args.command]
        for flag in required:
            if getattr(args, flag[2:]) is None:
                raise ValidationError(f"{flag} is required for {args.command}")
        return handler(args)
    except (ValidationError, DegenerateStateError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TruncationError as exc:
        print(f"truncation error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except DivergenceError as exc:
        print(f"divergence error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except ToleranceError as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DefockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
