"""Numeric backends: exact rationals and high-precision reals.

Exact data (breakpoints, node values, Markov point sets) lives in
`fractions.Fraction`.  Spectral data (growth rate, eigenvector, the
increasing factor map) is irrational in general and is carried either
in mpmath arbitrary-precision floats or, for the large structures
produced by the approximation pipeline, in ordinary float64.  The
mantissa width defaults to 128 bits and can be overridden with the
SLOPEFORGE_PRECISION environment variable (in bits).  mpmath is
imported on first use: by mp arithmetic (mp_context, generic_log on an
mpf) and by format_decimal on a non-integral Fraction or an mpf.  Exact
and float64 callers never load it, and neither does rendering a float.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

from .errors import PreconditionError

DEFAULT_PRECISION_BITS = 128
# significant digits of every decimal the package writes; fixing them is
# what makes identical inputs give byte-identical artifacts
SIG_DIGITS = 15
# largest decimal exponent a literal may carry.  10**e is built exactly,
# so an unbounded e costs time and memory that grow faster than linearly;
# 10**4299 has 4300 digits, the cap int() puts on each part of a p/q
# literal (and on writing an integer back out).
MAX_DECIMAL_EXPONENT = 4299


def precision_bits() -> int:
    """Mantissa bits for high-precision arithmetic (env-overridable)."""
    raw = os.environ.get("SLOPEFORGE_PRECISION")
    if raw is None:
        return DEFAULT_PRECISION_BITS
    try:
        bits = int(raw)
    except ValueError:
        raise ValueError(f"SLOPEFORGE_PRECISION must be an integer, got {raw!r}")
    if bits < 24:
        raise ValueError("SLOPEFORGE_PRECISION below 24 bits is not supported")
    return bits


def mp_context() -> mpmath.ctx_mp.MPContext:
    """A fresh mpmath context at precision_bits().

    Using a local context keeps library calls independent of the global
    mpmath state a host application may have configured.  A malformed
    SLOPEFORGE_PRECISION is a PreconditionError here.
    """
    import mpmath

    try:
        bits = precision_bits()
    except ValueError as exc:
        raise PreconditionError(str(exc)) from exc
    ctx = mpmath.mp.clone()
    ctx.prec = bits
    return ctx


def generic_log(x):
    """Natural log working for float and mpf alike."""
    if isinstance(x, float) or isinstance(x, int):
        return math.log(x)
    import mpmath

    ctx = getattr(x, "context", mpmath.mp)
    return ctx.log(x)


def exact_fraction(value) -> Fraction:
    """Lossless binary-float (float or mpf) to Fraction conversion."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float) or isinstance(value, int):
        return Fraction(value)
    sign, man, exp, _ = value._mpf_
    if man == 0 and exp != 0:
        raise ValueError(f"cannot convert special value {value!r}")
    frac = Fraction(man, 1) * Fraction(2) ** exp
    return -frac if sign else frac


def rationalize(value, digits: int = 40) -> Fraction:
    """Round a real to a Fraction with `digits` decimal digits.

    Used when an irrational construction result has to be rendered as
    an exact piecewise-affine map.  The rounding error is 10**-digits,
    far below every verification tolerance in this package.  Exactly
    representable inputs shorter than `digits` come back unchanged.
    """
    frac = exact_fraction(value)
    scale = 10**digits
    scaled = frac * scale
    rounded = (scaled.numerator + scaled.denominator // 2) // scaled.denominator
    out = Fraction(rounded, scale)
    return frac if out == frac else out


def format_decimal(value) -> str:
    """Decimal rendering at SIG_DIGITS significant digits (deterministic).

    Floats, integers and integral Fractions render without mpmath; only
    other Fractions and mpf values load it.
    """
    if isinstance(value, float):
        return f"{value:.{SIG_DIGITS}g}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction) and value.denominator == 1:
        return str(value.numerator)
    import mpmath

    if isinstance(value, Fraction):
        value = mpmath.mpf(value.numerator) / value.denominator
    return mpmath.nstr(value, SIG_DIGITS, strip_zeros=False)


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(token: str) -> Fraction:
    """Parse `p/q` or an integer or decimal literal into a Fraction.

    A decimal exponent above MAX_DECIMAL_EXPONENT in magnitude is a
    ValueError.
    """
    token = token.strip()
    try:
        if "/" in token:
            num, den = token.split("/")
            return Fraction(int(num), int(den))
        if "." in token or "e" in token or "E" in token:
            exponent = token.lower().partition("e")[2]
            if exponent and abs(int(exponent)) > MAX_DECIMAL_EXPONENT:
                raise ValueError(
                    f"exponent above {MAX_DECIMAL_EXPONENT} in magnitude")
            return Fraction(token)
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {token!r}: {exc}") from exc
