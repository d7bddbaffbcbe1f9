"""Numeric backends: exact rationals and high-precision reals.

Exact data (breakpoints, node values, Markov point sets) lives in
`fractions.Fraction`.  Spectral data (growth rate, eigenvector, the
increasing factor map) is irrational in general and is carried either
in mpmath arbitrary-precision floats or, for the large structures
produced by the approximation pipeline, in ordinary float64.  The
mantissa width defaults to 128 bits and can be overridden with the
SLOPEFORGE_PRECISION environment variable (in bits).  mpmath is
imported on first use, by mp arithmetic (mp_context, generic_log on an
mpf).  format_decimal writes mpmath's decimals from a port of its
digit routine to integer arithmetic, so rendering loads mpmath only
for a rational outside float64's normal range.
"""

from __future__ import annotations

import math
import os
import sys
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
# the constants of mpmath's to_digits_exp and to_str at SIG_DIGITS:
# both read log2(10) as math.log(10, 2), digits are taken at
# SIG_DIGITS + 3 and the fixed layout covers leading exponents in
# (_MIN_FIXED, _MAX_FIXED)
_LOG2_10 = math.log(10, 2)
_DIGIT_BITS = int((SIG_DIGITS + 3) * _LOG2_10) + 10
_MIN_FIXED = min(-(SIG_DIGITS // 3), -5)
_MAX_FIXED = SIG_DIGITS
_MAX_DIGIT_EXP = 3500  # beyond 2^+-3500 to_digits_exp divides by a power of ten
_FLOAT_INT = 2**53     # integers up to here are exact float64 values


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

    The bytes are those of mpmath.nstr(v, SIG_DIGITS, strip_zeros=False),
    with v = mpmath.mpf(num) / den at 53 bits for a non-integral Fraction:
    RN53(RN53(num) / den), double rounding included.  float(num) is
    RN53(num), and the quotient is rounded once, by float division when
    den is an exact float64 and by integer true division otherwise.  An
    mpf is read from its (sign, man, exp, bc) tuple.  Both go through
    _render_mpf, a port of mpmath's to_digits_exp and to_str.  mpmath
    itself renders only what the port cannot reproduce: a Fraction whose
    numerator overflows float64 or whose quotient is not above 2^-1022
    (float64 drops bits there that an mpf keeps), and an mpf that is
    zero, special or beyond 2^+-3500.  Floats, integers and integral
    Fractions render as before, by Python's own formatting.
    """
    if isinstance(value, float):
        return f"{value:.{SIG_DIGITS}g}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        num, den = value.numerator, value.denominator
        if den == 1:
            return str(num)
        try:
            a = float(num)
        except OverflowError:
            a = None
        if a is not None:
            if den <= _FLOAT_INT:
                q = a / den
            else:
                n, d = a.as_integer_ratio()
                q = n / (d * den)
            if abs(q) > sys.float_info.min:
                m, e = math.frexp(abs(q))
                return _render_mpf(q < 0, int(m * _FLOAT_INT), e - 53, 53)
        import mpmath

        return mpmath.nstr(mpmath.mpf(num) / den, SIG_DIGITS, strip_zeros=False)
    raw = getattr(value, "_mpf_", None)
    if raw is not None:
        sign, man, exp, bc = raw
        if man and abs(exp + bc) <= _MAX_DIGIT_EXP:
            return _render_mpf(sign, man, exp, bc)
    import mpmath

    return mpmath.nstr(value, SIG_DIGITS, strip_zeros=False)


def _render_mpf(negative, man: int, exp: int, bc: int) -> str:
    """The nonzero binary value man * 2^exp (man of bc bits, exp + bc
    within +-3500) as mpmath's to_str(s, SIG_DIGITS, strip_zeros=False)
    writes it.

    As to_digits_exp: the value is floored to a fixed-point integer of
    _DIGIT_BITS + fraction bits and converted to decimal digits by one
    multiplication and shift.  As to_str: the first SIG_DIGITS digits
    are kept and rounded up when the next digit is 5 or more (a carry
    out of all 9s adds one to the exponent), then laid out fixed or as
    d.ddd...e+-x.
    """
    fixprec = max(_DIGIT_BITS - exp - bc, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = exp + fixprec
    fixed = man << shift if shift >= 0 else man >> -shift
    digits = str(fixed * 10**fixdps >> fixprec)
    exponent = len(digits) - fixdps - 1
    if len(digits) > SIG_DIGITS and digits[SIG_DIGITS] in "56789":
        digits = str(int(digits[:SIG_DIGITS]) + 1)
        if len(digits) > SIG_DIGITS:
            digits = digits[:SIG_DIGITS]
            exponent += 1
    else:
        digits = digits[:SIG_DIGITS]
    sign = "-" if negative else ""
    if _MIN_FIXED < exponent < _MAX_FIXED:
        if exponent < 0:
            return f"{sign}0.{'0' * (-exponent - 1)}{digits}"
        return f"{sign}{digits[:exponent + 1]}.{digits[exponent + 1:]}"
    mark = "e+" if exponent >= 0 else "e"
    return f"{sign}{digits[0]}.{digits[1:]}{mark}{exponent}"


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
