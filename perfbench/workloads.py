"""Seeded job lists for the three benchmark workloads.

A job is one ``defock`` CLI invocation.  Each workload is a fixed list of
jobs drawn from a seed, and the benchmark repeats the list in whole passes,
so every run does the same work in the same order.  Every parameter is drawn
from its own sub-range (stratum), so the mix of job sizes is the same for
every seed and only the values move; ``moments`` keeps a fixed tau set and
the seed only orders it.  All ranges sit well inside the
convergence radii and truncation limits of the program, so every seeded job
succeeds; the only failing jobs are the fixed fault inputs of ``catalog``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("scan", "moments", "catalog")

# 2/tau is an integer for these, so A(t_rev) = 1 exactly for the quadratic
# spectrum and the revival check has a sharp target
_REVIVAL_TAUS = ("0.1", "0.2", "0.25", "0.4")


@dataclass
class Job:
    """One CLI invocation: subcommand, options (strings, as typed) and,
    for the fixed fault inputs, the name of the fault that makes it fail."""

    kind: str
    opts: dict
    fault: str = ""
    argv: list = field(init=False)

    def __post_init__(self):
        self.argv = [self.kind]
        for key, value in self.opts.items():
            self.argv += [f"--{key}", value]


def _draw(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.4f}"


def _q_alpha(rng: random.Random, x_lo: float, x_hi: float):
    """(q, alpha) with x = |alpha|^2 (1 - q^2) in [x_lo, x_hi]; the q-series
    decays like x^(n/2), so x <= 0.3 keeps level 63 below 1e-16."""
    q = float(_draw(rng, 0.7, 0.95))
    x = rng.uniform(x_lo, x_hi)
    return f"{q:.4f}", f"{math.sqrt(x / (1.0 - q * q)):.4f}"


def scan_jobs(seed: int) -> list:
    rng = random.Random(seed)
    taus = [_draw(rng, lo, hi) for lo, hi in ((0.02, 0.08), (0.08, 0.2), (0.2, 0.4))]
    alphas_256 = [_draw(rng, lo, hi) for lo, hi in ((1.0, 1.7), (1.7, 2.4), (2.4, 3.0))]
    common = {"workers": "1"}
    return [
        Job("entropy-scan", {
            "family": "nlcs", "alpha-max": _draw(rng, 2.0, 2.5), "alpha-steps": "25",
            "taus": ",".join(taus), "nmax": "64", **common}),
        Job("entropy-scan", {
            "family": "nc-squeezed", "alpha-max": _draw(rng, 1.5, 2.0), "alpha-steps": "15",
            "taus": ",".join([_draw(rng, 0.05, 0.2), _draw(rng, 0.2, 0.4)]),
            "zeta": _draw(rng, 0.1, 0.3), "nmax": "64", **common}),
        Job("entropy-scan", {
            "family": "ho-squeezed", "alpha-max": _draw(rng, 1.5, 2.5), "alpha-steps": "20",
            "zeta": _draw(rng, 0.1, 0.4), "nmax": "64", **common}),
        Job("entropy-scan", {
            "family": "glauber", "alpha-max": _draw(rng, 1.5, 2.5), "alpha-steps": "20",
            "nmax": "64", **common}),
        Job("entropy-scan", {
            "family": "nlcs", "alphas": ",".join(alphas_256),
            "taus": _draw(rng, 0.05, 0.3), "nmax": "256", **common}),
    ]


def moments_jobs(seed: int) -> list:
    # the quadrature's cost depends strongly on tau (the Bessel order is
    # 1 + 2/tau), so the tau set is fixed and the seed only sets the order
    taus = ["0.05", "0.1", "0.2", "0.5", "1", "2", "4"]
    random.Random(seed).shuffle(taus)
    return [Job("measure-check", {"tau": tau, "moments": "10"}) for tau in taus]


# Inputs that fail today because of two faults in the program; they do not
# depend on the seed and count as failed operations until the faults are
# mended.
FAULT_TAIL = "perturbed-basis tail mass estimated from the raw series"
FAULT_BOUNDARY = "metrics boundary tolerance stricter than the tail threshold"

CATALOG_FAULTS = (
    Job("state", {"family": "nlcs", "tau": "0.05", "alpha-re": "7.25"}, FAULT_TAIL),
    Job("state", {"family": "gk", "J": "50", "tau": "0.05"}, FAULT_TAIL),
    Job("metrics", {"family": "glauber", "alpha-re": "4"}, FAULT_BOUNDARY),
    Job("metrics", {"family": "q-coherent", "q": "0.9", "alpha-re": "2"}, FAULT_BOUNDARY),
)


def _family_opts(rng: random.Random, family: str, stratum: int) -> dict:
    """Parameters of one state of ``family``; ``stratum`` (0 or 1) picks the
    lower or upper half of the amplitude range."""
    lo_hi = ((0.5, 1.2), (1.2, 2.0))[stratum]
    if family == "glauber":
        return {"alpha-re": _draw(rng, *lo_hi), "alpha-im": _draw(rng, -0.5, 0.5)}
    if family == "nlcs":
        return {"tau": _draw(rng, 0.05, 0.4), "alpha-re": _draw(rng, *lo_hi),
                "alpha-im": _draw(rng, -0.5, 0.5)}
    if family == "gk":
        return {"J": _draw(rng, *((0.5, 1.5), (1.5, 3.0))[stratum]),
                "gamma": _draw(rng, 0.0, math.pi), "tau": _draw(rng, 0.05, 0.4)}
    if family == "nc-squeezed":
        return {"tau": _draw(rng, 0.05, 0.4), "zeta": _draw(rng, 0.1, 0.3),
                "alpha-re": _draw(rng, *((0.3, 0.9), (0.9, 1.5))[stratum])}
    if family == "ho-squeezed":
        return {"zeta": _draw(rng, 0.1, 0.3),
                "alpha-re": _draw(rng, *((0.3, 0.9), (0.9, 1.5))[stratum])}
    q, alpha = _q_alpha(rng, *((0.1, 0.2), (0.2, 0.3))[stratum])
    opts = {"q": q, "alpha-re": alpha}
    if family == "cat":
        opts["parity"] = ("even", "odd")[stratum]
    elif family == "pacs":
        opts["m"] = str(1 + stratum)
    return opts


_FAMILIES = ("glauber", "nlcs", "q-coherent", "gk", "nc-squeezed", "ho-squeezed",
             "cat", "pacs")
_TWO_BASES = ("nlcs", "gk", "nc-squeezed")


def catalog_jobs(seed: int) -> list:
    rng = random.Random(seed)
    jobs = []
    for family in _FAMILIES:
        bases = ("perturbed", "bare") if family in _TWO_BASES else (None,)
        for basis in bases:
            for stratum in (0, 1):
                opts = {"family": family, **_family_opts(rng, family, stratum)}
                if basis:
                    opts["basis"] = basis
                jobs.append(Job("state", opts))
    for family in _FAMILIES:
        for stratum in (0, 1):
            opts = {"family": family, **_family_opts(rng, family, stratum)}
            if family in _TWO_BASES:
                opts["basis"] = ("bare", "perturbed")[stratum]
            # q-coherent identities hold in the deformed convention
            deformed = family == "q-coherent" or stratum == 1
            opts["number"] = "deformed" if deformed else "bare"
            jobs.append(Job("metrics", opts))
    for stratum in (0, 1):
        tau = rng.choice(_REVIVAL_TAUS)
        omega = float(_draw(rng, 0.4, 0.8))
        t_rev = 2.0 * math.pi / (omega * float(tau) / 2.0)
        jobs.append(Job("autocorr", {
            "J": _draw(rng, *((0.5, 1.5), (1.5, 3.0))[stratum]), "tau": tau,
            "omega": f"{omega:.4f}", "tmax": f"{1.1 * t_rev:.4f}", "points": "10000"}))
    return jobs + list(CATALOG_FAULTS)


def jobs_for(workload: str, seed: int) -> list:
    return {"scan": scan_jobs, "moments": moments_jobs, "catalog": catalog_jobs}[workload](seed)
