"""Shared precision configuration.

All numerical routines in the package take a PrecisionConfig, DEFAULT_CONFIG
unless given, and run inside ``cfg.workprec()``.  Guard bits on top of
``mantissa_bits`` absorb roundoff so that results are good to roughly
2^(-mantissa_bits/2) relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp

from .errors import InvalidProblemError

GUARD_BITS = 32

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class PrecisionConfig:
    """Binary mantissa length, at least 64; every other precision and
    quadrature setting is derived from it."""

    mantissa_bits: int = 256

    def __post_init__(self):
        if self.mantissa_bits < 64:
            raise ValueError("mantissa_bits must be at least 64")

    @property
    def quad_order(self) -> int:
        """Gauss-Legendre order per panel."""
        return max(20, self.mantissa_bits // 6)

    @property
    def rel_tol(self):
        """Advertised relative accuracy, 2^(-mantissa_bits/2)."""
        return mp.mpf(2) ** (-(self.mantissa_bits // 2))

    @property
    def decimal_digits(self) -> int:
        return max(1, int(self.mantissa_bits * math.log10(2.0)))

    def workprec(self, extra: int = 0):
        """mpmath context manager at mantissa_bits plus guard bits."""
        return mp.workprec(self.mantissa_bits + GUARD_BITS + extra)

    def tail_cut_for(self, alpha) -> float:
        """Truncation point for a density behaving like t^alpha * exp(-t).

        Chosen so the discarded tail is below the working precision:
        max(50, mantissa_bits*ln2 + 20*|alpha|).
        """
        return max(50.0, self.mantissa_bits * _LN2 + 20.0 * abs(float(alpha)))


DEFAULT_CONFIG = PrecisionConfig()


def check_power_exponent(p) -> float:
    """Reject an even integer p >= 0, where |x|^p is a polynomial and
    Gamma(-p/2) has a pole; return float(p).  The power family's rule on p,
    negative p included."""
    p_f = float(mp.mpf(p))
    if p_f >= 0 and p_f % 2 == 0:
        raise InvalidProblemError("p must not be an even integer (degenerate target)")
    return p_f


def check_exponent(p) -> float:
    """Reject p unless p > 0 and check_power_exponent accepts it; return
    float(p).  The rule of the limit maps and the conjecture."""
    try:
        p_f = check_power_exponent(p)
    except InvalidProblemError:
        p_f = 0.0
    if not p_f > 0:
        raise InvalidProblemError("p must be positive and not an even integer")
    return p_f


def check_gap(a) -> float:
    """Reject a unless 0 < a < 1; return float(a)."""
    a_f = float(mp.mpf(a))
    if not 0 < a_f < 1:
        raise InvalidProblemError("a must lie in (0, 1)")
    return a_f


def check_degrees(degrees) -> list:
    """The degrees as sorted ints; reject an empty list or a repeated degree."""
    degrees = sorted(int(m) for m in degrees)
    if not degrees:
        raise InvalidProblemError("need at least one degree")
    if len(set(degrees)) != len(degrees):
        raise InvalidProblemError(f"degrees repeat: {degrees}")
    return degrees
