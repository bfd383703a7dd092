"""Deformation kernels and the derived sequences used by every state family.

Three kernels are supported:

* ``harmonic``      -- f^2(n) = 1 (the undeformed oscillator),
* ``nc``            -- perturbative minimal-length deformation,
                       f^2(n) = A + B n with A = 1 + tau/2, B = tau/2,
* ``q``             -- q-deformed oscillator, f^2(n) = [n]_q / n
                       (f^2(0) = 1 by convention).

From f^2 the module derives the factorial products f^2(n)!, the moment
sequence rho_n = n! f^2(n)! (or [n]_q! in the q case), and the
dimensionless level sequence e_n = n f^2(n) that fixes the spectrum
E_n = hbar omega e_n.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import PerturbativeRegimeWarning, ValidationError, _stacklevel_outside
from .specfun import log_factorial_table

__all__ = [
    "Deformation",
    "SpectrumCoeffs",
    "f_squared",
    "log_rho",
    "log_rho_table",
    "log_f_factorial_table",
    "dimensionless_e",
]

_KINDS = ("harmonic", "nc", "q")

# first-order results are quoted for small tau; larger values still compute
_TAU_PERTURBATIVE_LIMIT = 0.5


@dataclass(frozen=True)
class Deformation:
    """Tagged choice of deformation kernel.

    ``harmonic`` behaves identically to ``nc`` with tau = 0 and to ``q``
    with q = 1.
    """

    kind: str
    tau: float = 0.0
    q: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown deformation kind {self.kind!r}")
        if self.kind == "nc":
            if self.tau < 0:
                raise ValidationError(f"tau must be >= 0, got {self.tau}")
            if self.tau > _TAU_PERTURBATIVE_LIMIT:
                warnings.warn(
                    f"tau={self.tau} is outside the perturbative regime; "
                    "first-order closed forms will be inaccurate",
                    PerturbativeRegimeWarning,
                    stacklevel=_stacklevel_outside(__file__, Deformation.__init__.__code__),
                )
        if self.kind == "q" and not 0.0 < self.q <= 1.0:
            raise ValidationError(f"q must lie in (0, 1], got {self.q}")

    @staticmethod
    def harmonic() -> "Deformation":
        return Deformation("harmonic")

    @staticmethod
    def perturbative_nc(tau: float) -> "Deformation":
        return Deformation("nc", tau=tau)

    @staticmethod
    def q_deformed(q: float) -> "Deformation":
        return Deformation("q", q=q)


@dataclass(frozen=True)
class SpectrumCoeffs:
    """Coefficients of the quadratic spectrum e_n = A n + B n^2."""

    A: float
    B: float

    @classmethod
    def from_tau(cls, tau: float) -> "SpectrumCoeffs":
        if tau < 0:
            raise ValidationError(f"tau must be >= 0, got {tau}")
        return cls(A=1.0 + tau / 2.0, B=tau / 2.0)


def f_squared(d: Deformation, n):
    """f^2(n) for the active kernel; accepts an int or an integer array."""
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr < 0):
        raise ValidationError("f_squared needs n >= 0")
    if d.kind == "nc":
        sc = SpectrumCoeffs.from_tau(d.tau)
        out = sc.A + sc.B * n_arr
    elif d.kind == "q" and d.q < 1.0:
        # [n]_q / n; [0]/0 is taken as 1 so rho_0 = 1 holds uniformly
        lq = math.log(d.q)
        safe = np.maximum(n_arr, 1.0)
        out = np.where(n_arr == 0, 1.0,
                       np.expm1(2.0 * safe * lq) / math.expm1(2.0 * lq) / safe)
    else:
        out = np.ones_like(n_arr)
    return float(out) if out.ndim == 0 else out


def log_rho(d: Deformation, n: int) -> float:
    """log rho_n where rho_n = n! f^2(n)! (equivalently [n]_q! when kind='q')."""
    if n < 0:
        raise ValidationError("log_rho needs n >= 0")
    return float(log_rho_table(d, n + 1)[n])


@lru_cache(maxsize=128)
def log_f_factorial_table(d: Deformation, nmax: int) -> np.ndarray:
    """Read-only table of log f^2(n)! for n = 0 .. nmax-1."""
    if nmax < 1:
        raise ValidationError("table length must be >= 1")
    table = np.zeros(nmax)
    if nmax > 1:
        ks = np.arange(1, nmax)
        table[1:] = np.cumsum(np.log(f_squared(d, ks)))
    table.flags.writeable = False
    return table


@lru_cache(maxsize=128)
def log_rho_table(d: Deformation, nmax: int) -> np.ndarray:
    """Read-only table of log rho_n for n = 0 .. nmax-1."""
    if nmax < 1:
        raise ValidationError("table length must be >= 1")
    table = log_factorial_table(nmax) + log_f_factorial_table(d, nmax)
    table.flags.writeable = False
    return table


def dimensionless_e(d: Deformation, n):
    """Level sequence e_n = n f^2(n); e_0 = 0.

    For the nc kernel this is A n + B n^2, for the q kernel it is [n]_q.
    """
    n_arr = np.asarray(n, dtype=float)
    out = n_arr * np.asarray(f_squared(d, n))
    return float(out) if np.isscalar(n) or n_arr.ndim == 0 else out
