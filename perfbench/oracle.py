"""Output checks, made apart from the program.

Every expected value is recomputed here from the paper's formulas, with
mpmath series and numpy/scipy linear algebra; nothing is imported from
``defock`` and nothing is compared against a stored copy of earlier output.
Each check returns a list of failures, each prefixed with the id of the
check that failed (``state.fidelity``, ``scan.gaussian_purity``, ...), so a
test can show that a corrupted output trips exactly the check meant for it.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy.special import gammaln

TAIL_THRESHOLD = 1e-10  # the constructors' default tail-mass threshold
REF_LEVELS = 512
_DPS = 30
_NC_FAMILIES = ("nlcs", "gk", "nc-squeezed")
_Q_FAMILIES = ("q-coherent", "cat", "pacs")


# ---------------------------------------------------------------------------
# reference series (mpmath)
# ---------------------------------------------------------------------------

def _levels(family: str, p: dict):
    """e_k = k f^2(k) of the family's kernel, as an mpmath function of k."""
    if family in _NC_FAMILIES:
        tau = mp.mpf(p["tau"])
        return lambda k: (1 + tau / 2) * k + (tau / 2) * k * k
    if family in _Q_FAMILIES:
        q2 = mp.mpf(p["q"]) ** 2
        return lambda k: (1 - q2 ** k) / (1 - q2)
    return mp.mpf


def _raw_series(family: str, p: dict, levels: int) -> list:
    """Bare-basis coefficients of levels 0 .. levels-1, unnormalized.

    ``p`` holds the CLI options as strings (``alpha-re``, ``tau``, ...).
    """
    e = _levels(family, p)
    alpha = mp.mpc(p.get("alpha-re", "0"), p.get("alpha-im", "0"))
    out = []
    if family in ("glauber", "nlcs", "q-coherent", "cat"):
        term = mp.mpc(1)
        for n in range(levels):
            out.append(term)
            term = term * alpha / mp.sqrt(e(n + 1))
        if family == "cat":
            keep = 0 if p["parity"] == "even" else 1
            out = [v if n % 2 == keep else mp.mpc(0) for n, v in enumerate(out)]
    elif family == "gk":
        j_val, gamma = mp.mpf(p["J"]), mp.mpf(p.get("gamma", "0"))
        mag = mp.mpf(1)
        for n in range(levels):
            out.append(mag * mp.expj(-gamma * e(n)))
            mag = mag * mp.sqrt(j_val / e(n + 1))
    elif family == "pacs":
        m = int(p.get("m", "0"))
        qfact = [mp.mpf(1)]
        for k in range(1, levels + 1):
            qfact.append(qfact[-1] * e(k))
        out = [mp.mpc(0)] * levels
        for n in range(levels - m):
            out[n + m] = alpha ** n * mp.sqrt(qfact[n + m]) / qfact[n]
    else:  # nc-squeezed, ho-squeezed: I(n+1) = alpha I(n) - zeta e_n I(n-1)
        zeta = mp.mpf(p.get("zeta", "0"))
        i_prev, i_cur = mp.mpc(1), alpha
        denom = mp.mpf(1)
        out.append(i_prev)
        for n in range(1, levels):
            denom = denom * mp.sqrt(e(n))
            out.append(i_cur / denom)
            i_prev, i_cur = i_cur, alpha * i_cur - zeta * e(n) * i_prev
    return out


def _dress(u: list, tau) -> list:
    """Re-expand series attached to the perturbed eigenvectors over number
    states; ``u`` carries 4 guard levels and the result is 4 shorter."""
    t16 = mp.mpf(tau) / 16
    out = []
    for m in range(len(u) - 4):
        v = u[m] - t16 * mp.sqrt((m + 1) * (m + 2) * (m + 3) * (m + 4)) * u[m + 4]
        if m >= 4:
            v += t16 * mp.sqrt((m - 3) * (m - 2) * (m - 1) * m) * u[m - 4]
        out.append(v)
    return out


def _perturbed(family: str, p: dict) -> bool:
    return family in _NC_FAMILIES and p.get("basis", "perturbed") == "perturbed"


def state_vector(family: str, p: dict, levels: int = REF_LEVELS) -> np.ndarray:
    """Normalized amplitudes over levels 0 .. levels-1 in the basis the CLI
    uses for these options."""
    with mp.workdps(_DPS):
        if _perturbed(family, p):
            vec = _dress(_raw_series(family, p, levels + 4), p["tau"])
        else:
            vec = _raw_series(family, p, levels)
        norm = mp.sqrt(mp.fsum(abs(v) ** 2 for v in vec))
        return np.array([complex(v / norm) for v in vec])


def norm_constant(family: str, p: dict, n_max: int) -> float:
    """The normalization constant ``state`` prints for these options."""
    with mp.workdps(_DPS):
        def norm_sq(fam, opts, levels):
            return mp.fsum(abs(v) ** 2 for v in _raw_series(fam, opts, levels))

        if family in ("nc-squeezed", "ho-squeezed"):
            # the squeezed constant is the truncated sum at the requested n_max
            return float(mp.sqrt(norm_sq(family, p, n_max)))
        full = norm_sq(family, p, REF_LEVELS)
        if family == "cat":
            return float(mp.sqrt(4 * full / norm_sq("q-coherent", p, REF_LEVELS)))
        if family == "pacs":
            return float(mp.sqrt(full / norm_sq("q-coherent", p, REF_LEVELS)))
        return float(mp.sqrt(full))


def level_values(family: str, p: dict, count: int) -> np.ndarray:
    """e_n for n = 0 .. count-1 in double precision."""
    n = np.arange(count, dtype=float)
    if family in _NC_FAMILIES:
        tau = float(p["tau"])
        return (1 + tau / 2) * n + (tau / 2) * n * n
    if family in _Q_FAMILIES:
        q2 = float(p["q"]) ** 2
        return (1 - q2 ** n) / (1 - q2)
    return n


def diagnostics(c: np.ndarray, e: np.ndarray, convention: str) -> dict:
    """Quadrature variances, bound, Mandel Q, g2 and mean n of a normalized
    vector ``c``, with ladder A|n> = sqrt(e_n)|n-1>; ``e`` has len(c)+1
    entries."""
    size = len(c)
    w = np.sqrt(e)
    p = np.abs(c) ** 2
    a_c = np.zeros_like(c)
    a_c[:-1] = w[1:size] * c[1:]
    a2_c = np.zeros_like(c)
    a2_c[:-2] = w[1:size - 1] * w[2:size] * c[2:]
    mean_a = np.vdot(c, a_c)
    mean_a2 = np.vdot(c, a2_c)
    ada = float(np.sum(e[:size] * p))
    aad = float(np.sum(e[1:size + 1] * p))
    x = np.arange(size, dtype=float) if convention == "bare" else e[:size]
    mean = float(np.sum(p * x))
    var = float(np.sum(p * x * x)) - mean ** 2
    x_prev = np.concatenate([[0.0], x[:-1]])
    return {
        "var_y": 0.25 * (2 * mean_a2.real + ada + aad) - mean_a.real ** 2,
        "var_z": 0.25 * (-2 * mean_a2.real + ada + aad) - mean_a.imag ** 2,
        "gur_rhs": 0.25 * abs(aad - ada),
        "mandel_q": var / mean - 1.0,
        "g2_zero": float(np.sum(p * x * x_prev)) / mean ** 2,
        "mean_n": float(np.sum(np.arange(size) * p)),
    }


def split_linear_entropy(c: np.ndarray, theta: float, phi: float) -> float:
    """1 - tr(rho_c^2) of a single-mode state through a beam splitter with
    vacuum at the idle port: M[q, m] = c_(q+m) sqrt(C(q+m, q)) t^q r^m."""
    n = len(c)
    t = math.cos(theta / 2.0)
    r = -np.exp(-1j * phi) * math.sin(theta / 2.0)
    q = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    k = q + m
    half_binom = np.exp(0.5 * (gammaln(k + 1) - gammaln(q + 1) - gammaln(m + 1)))
    amps = np.where(k < n, c[np.minimum(k, n - 1)] * half_binom * t ** q * r ** m, 0.0)
    amps /= np.linalg.norm(amps)
    rho = amps @ amps.conj().T
    return 1.0 - float(np.sum(np.abs(rho) ** 2))


def log_rho(n: int, tau: float) -> float:
    """log rho_n with rho_n = n! (tau/2)^n (2 + 2/tau)^(n) (rising factorial)."""
    a = 2.0 + 2.0 / tau
    return gammaln(n + 1) + n * math.log(tau / 2.0) + gammaln(a + n) - gammaln(a)


# ---------------------------------------------------------------------------
# artifact parsing
# ---------------------------------------------------------------------------

def read_table(path: Path):
    """(provenance, header, rows of strings) of a CSV artifact."""
    provenance, header, rows = {}, None, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            provenance[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return provenance, header, rows


def _column(header, rows, name, cast=float):
    idx = header.index(name)
    return [cast(row[idx]) for row in rows]


def _stdout_fields(stdout: str) -> dict:
    fields = {}
    for token in stdout.split():
        key, sep, value = token.partition("=")
        if sep:
            fields[key] = value
    return fields


def _close(got: float, want: float, rel: float, absolute: float = 0.0) -> bool:
    return abs(got - want) <= max(absolute, rel * abs(want))


def output_digest(outdir: Path, stdout: str, code: int) -> tuple:
    """Exit code, stdout and the sha256 of every artifact; two identical
    invocations must produce equal digests."""
    outdir = Path(outdir)
    files = sorted(outdir.iterdir()) if outdir.is_dir() else []
    return (code, stdout,
            tuple((p.name, hashlib.sha256(p.read_bytes()).hexdigest()) for p in files))


# ---------------------------------------------------------------------------
# checks per subcommand
# ---------------------------------------------------------------------------

def check_state(opts: dict, outdir: Path, stdout: str) -> list:
    fails = []
    family = opts["family"]
    doc = json.loads((outdir / "state.json").read_text(encoding="utf-8"))
    amps = np.array([complex(re_, im_) for re_, im_ in doc["amps"]])
    n_max = len(amps)
    ref = state_vector(family, opts)
    norm_sq = float(np.vdot(amps, amps).real)
    overlap = abs(np.vdot(ref[:n_max], amps)) ** 2 / norm_sq
    if not (1.0 - overlap <= TAIL_THRESHOLD and abs(norm_sq - 1.0) <= 1e-12):
        fails.append(f"state.fidelity: 1 - F = {1.0 - overlap:.3e} against "
                     f"a {REF_LEVELS}-level reference (|c|^2 = {norm_sq!r}), "
                     f"above {TAIL_THRESHOLD:.0e}")
    if not 0.0 <= doc["tail_mass"] <= TAIL_THRESHOLD or doc["n_max"] != n_max:
        fails.append(f"state.tail: tail_mass={doc['tail_mass']!r} n_max={doc['n_max']}")
    _, header, rows = read_table(outdir / "photon_distribution.csv")
    dist = np.array(_column(header, rows, "P_n"))
    if dist.shape != amps.shape or not np.allclose(dist, np.abs(amps) ** 2,
                                                   rtol=1e-12, atol=1e-15):
        fails.append("state.photon_csv: P_n differs from |c_n|^2 of state.json")
    fields = _stdout_fields(stdout)
    want = norm_constant(family, opts, int(opts.get("nmax", "64")))
    if not _close(float(fields.get("norm_const", "nan")), want, 1e-9):
        fails.append(f"state.norm_const: {fields.get('norm_const')} != {want!r}")
    want_mean = float(np.sum(np.arange(len(ref)) * np.abs(ref) ** 2))
    if not _close(float(fields.get("mean_n", "nan")), want_mean, 1e-9, 1e-9):
        fails.append(f"state.mean_n: {fields.get('mean_n')} != {want_mean!r}")
    return fails


def check_metrics(opts: dict, outdir: Path, stdout: str) -> list:
    fails = []
    family = opts["family"]
    convention = opts.get("number", "bare")
    got = json.loads((outdir / "metrics.json").read_text(encoding="utf-8"))
    ref = state_vector(family, opts)
    want = diagnostics(ref, level_values(family, opts, len(ref) + 1), convention)
    for key, value in want.items():
        if not _close(got[key], value, 1e-8, 1e-8):
            fails.append(f"metrics.reference: {key}={got[key]!r}, reference {value!r}")
    dist = np.array(got["photon_dist"])
    if not np.allclose(dist, np.abs(ref[:len(dist)]) ** 2, rtol=0.0, atol=1e-10):
        fails.append("metrics.reference: photon_dist differs from the reference")
    exact = {}
    if family == "glauber":
        exact = {"var_y": 0.25, "var_z": 0.25, "gur_rhs": 0.25,
                 "mandel_q": 0.0, "g2_zero": 1.0}
        check_id = "metrics.glauber"
    elif family == "q-coherent":
        q2 = float(opts["q"]) ** 2
        lam = float(opts.get("alpha-re", "0")) ** 2 + float(opts.get("alpha-im", "0")) ** 2
        bound = 0.25 * (1.0 + (q2 - 1.0) * lam)
        exact = {"var_y": bound, "var_z": bound, "gur_rhs": bound}
        if convention == "deformed":
            exact.update(mandel_q=(q2 - 1.0) * lam, g2_zero=1.0)
        check_id = "metrics.q_identity"
    elif family == "nlcs" and opts.get("basis") == "bare":
        # an eigenstate of A saturates the bound in the ladder quadratures
        exact = {"var_y": got["gur_rhs"], "var_z": got["gur_rhs"]}
        check_id = "metrics.saturation"
    for key, value in exact.items():
        if not _close(got[key], value, 0.0, 1e-10):
            fails.append(f"{check_id}: {key}={got[key]!r}, exact value {value!r}")
    return fails


def check_autocorr(opts: dict, outdir: Path, stdout: str) -> list:
    fails = []
    _, header, rows = read_table(outdir / "autocorr.csv")
    t = np.array(_column(header, rows, "t"))
    a = np.array(_column(header, rows, "A"))
    if len(a) != int(opts["points"]) or not abs(a[0] - 1.0) <= 1e-12:
        fails.append(f"autocorr.a0: A(0)={a[0]!r} over {len(a)} points")
    if not (a.min() >= -1e-12 and a.max() <= 1.0 + 1e-12):
        fails.append(f"autocorr.range: A spans [{a.min()!r}, {a.max()!r}]")
    omega, tau = float(opts["omega"]), float(opts["tau"])
    t_rev = 2.0 * math.pi / (omega * tau / 2.0)
    window = np.flatnonzero(np.abs(t - t_rev) <= 0.02 * t_rev)
    top = window[np.argmax(a[window])] if window.size else None
    printed = _stdout_fields(stdout).get("t_rev", "nan")
    if (top is None or top in (window[0], window[-1]) or a[top] < 0.99
            or abs(t[top] - t_rev) > 0.002 * t_rev
            or not abs(float(printed) - t_rev) <= 0.006):
        fails.append(f"autocorr.revival: no revival peak at t_rev={t_rev:.4f} "
                     f"(printed t_rev={printed})")
    return fails


def check_measure(opts: dict, outdir: Path, stdout: str) -> list:
    fails = []
    tau = float(opts["tau"])
    provenance, header, rows = read_table(outdir / "measure_check.csv")
    orders = _column(header, rows, "n", int)
    computed = _column(header, rows, "computed")
    if orders != list(range(int(opts["moments"]) + 1)):
        fails.append(f"moments.rho: moment orders {orders}")
    for n, value in zip(orders, computed):
        want = math.exp(log_rho(n, tau))
        if not _close(value, want, 1e-8):
            fails.append(f"moments.rho: moment {n} = {value!r}, rho_n = {want!r}")
    if not _close(float(provenance.get("mu", "nan")), 1.0 + 2.0 / tau, 1e-14):
        fails.append(f"moments.mu: mu={provenance.get('mu')} != 1 + 2/tau")
    return fails


def check_scan(opts: dict, outdir: Path, stdout: str) -> list:
    fails = []
    family = opts["family"]
    provenance, header, rows = read_table(outdir / "entropy_scan.csv")
    theta, phi = float(provenance["theta"]), float(provenance["phi"])
    n_max = int(provenance["n_max"])
    alphas = _column(header, rows, "alpha")
    taus = _column(header, rows, "tau")
    zetas = _column(header, rows, "zeta")
    direct = _column(header, rows, "S_direct")
    closed = _column(header, rows, "S_closed")
    flags = _column(header, rows, "flag", str)
    if "alphas" in opts:
        n_alpha = len(opts["alphas"].split(","))
    else:
        n_alpha = int(opts["alpha-steps"])
    n_tau = len(opts["taus"].split(",")) if "taus" in opts else 1
    if len(rows) != n_alpha * n_tau or any(flags):
        fails.append(f"scan.flagged: {len(rows)} rows, flags {sorted(set(flags))}")
    for alpha, tau, zeta, s_direct, s_closed in zip(alphas, taus, zetas, direct, closed):
        where = f"alpha={alpha!r} tau={tau!r}"
        if family == "glauber":
            if not abs(s_direct) <= 1e-12:
                fails.append(f"scan.glauber_zero: S={s_direct!r} at {where}")
        elif family == "ho-squeezed":
            # the reduced state of a Gaussian input is Gaussian; purity
            # 1/sqrt(det(2 sigma)) with sigma = T sigma_in + (1 - T)/2, and
            # tanh r = zeta
            trans = math.cos(theta / 2.0) ** 2
            cosh2r = (1.0 + zeta ** 2) / (1.0 - zeta ** 2)
            want = 1.0 - 1.0 / math.sqrt(trans ** 2 + (1.0 - trans) ** 2
                                         + 2.0 * trans * (1.0 - trans) * cosh2r)
            if not abs(s_direct - want) <= 1e-9:
                fails.append(f"scan.gaussian_purity: S={s_direct!r}, want {want!r} at {where}")
        else:
            p = {"alpha-re": repr(alpha), "tau": repr(tau), "zeta": repr(zeta)}
            want = split_linear_entropy(state_vector(family, p, n_max), theta, phi)
            if not abs(s_direct - want) <= 1e-9:
                fails.append(f"scan.linear_entropy: S={s_direct!r}, reference "
                             f"{want!r} at {where}")
            if family == "nlcs" and not abs(s_direct - s_closed) <= 1e-12:
                fails.append(f"scan.direct_vs_closed: {s_direct!r} != {s_closed!r} at {where}")
    return fails


_CHECKS = {
    "state": check_state,
    "metrics": check_metrics,
    "autocorr": check_autocorr,
    "measure-check": check_measure,
    "entropy-scan": check_scan,
}


def check_job(job, outdir: Path, stdout: str, code: int) -> list:
    """All failures of one job: a non-zero exit, or a failed output check."""
    if code != 0:
        return [f"exit: code {code}"]
    try:
        return _CHECKS[job.kind](job.opts, Path(outdir), stdout)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"{job.kind}.unreadable: {type(exc).__name__}: {exc}"]
