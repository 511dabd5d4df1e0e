"""Log-gamma for real arguments at arbitrary precision.

A wrapper over mpmath's loggamma that returns log|Gamma(x)| together with
the sign of Gamma(x), so negative non-integer arguments work too.
"""

from __future__ import annotations

from typing import NamedTuple

from mpmath import mp

from ..errors import GammaPoleError
from ..precision import DEFAULT_CONFIG, PrecisionConfig


class SignedLog(NamedTuple):
    """log|v| and sign(v) for a quantity v that may be negative."""

    log_abs: object
    sign: int


def log_gamma(x, cfg: PrecisionConfig = DEFAULT_CONFIG) -> SignedLog:
    """Return (log|Gamma(x)|, sign) for real x.

    Raises GammaPoleError at non-positive integers.
    """
    with cfg.workprec(extra=16):
        x = mp.mpf(x)
        # mp.loggamma would raise a plain ValueError at the poles.
        if x <= 0 and mp.isint(x):
            raise GammaPoleError(f"gamma pole at {x}")
        # Gamma is negative exactly on the intervals (-2j-1, -2j).
        sign = -1 if x < 0 and int(mp.floor(x)) % 2 else 1
        return SignedLog(mp.re(mp.loggamma(x)), sign)
