"""format_decimal against mpmath, its oracle.

format_decimal writes the bytes of mpmath.nstr(v, SIG_DIGITS,
strip_zeros=False) without loading mpmath, with v = mpf(num) / den at
53 bits for a non-integral Fraction and v itself for an mpf.
"""

from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slopeforge import numeric
from slopeforge.numeric import SIG_DIGITS, format_decimal

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)

MP128 = mpmath.mp.clone()
MP128.prec = 128


def oracle(value) -> str:
    if isinstance(value, F):
        value = mpmath.mpf(value.numerator) / value.denominator
    return mpmath.nstr(value, SIG_DIGITS, strip_zeros=False)


def check(value):
    if isinstance(value, F):
        assume(value.denominator != 1)  # integers are written exactly
    assert format_decimal(value) == oracle(value), value


signs = st.sampled_from([1, -1])
widths = st.sampled_from([3, 8, 30, 52, 53, 54, 60, 100, 300, 1030, 1100])


@st.composite
def wide_ints(draw, low=1):
    """Integers of a drawn bit width, past 2^53 and past float64's range."""
    return draw(st.integers(low, 2 ** draw(widths)))


@PROPERTY
@given(wide_ints(), wide_ints(low=2), signs)
def test_fractions_of_any_width(num, den, sign):
    check(F(sign * num, den))


@PROPERTY
@given(st.integers(10**14, 10**15), st.integers(1, 60), signs)
def test_dyadic_ties_at_the_sixteenth_digit(k, e, sign):
    # (2k + 1) / 2 has a 5 as its 16th digit; smaller powers of two
    # move the tie through every digit position
    check(F(sign * (2 * k + 1), 2**e))


@PROPERTY
@given(st.integers(15, 20), st.integers(1, 10), st.integers(0, 30), signs)
def test_runs_of_nines_carry(k, r, j, sign):
    check(F(sign * (10**k - r), 10**j))


@PROPERTY
@given(st.sampled_from([-6, -5, -4, 13, 14, 15, 16]), st.integers(-5, 5),
       st.integers(14, 40), signs)
def test_values_at_the_layout_edges(e, s, t, sign):
    # the fixed layout covers leading exponents in (-5, 15)
    check(sign * (F(10) ** e + F(s, 10**t)))


@PROPERTY
@given(wide_ints(), st.integers(1000, 1100), st.integers(1, 2**60), signs)
def test_values_near_and_below_the_float64_normal_range(num, e, odd, sign):
    check(F(sign * num, 2**e * (2 * odd + 1)))


@PROPERTY
@given(st.integers(2**127, 2**128 - 1), st.integers(-4000, 4000), signs)
def test_mpfs_at_128_bits(man, e, sign):
    check(sign * MP128.ldexp(MP128.mpf(man), e))


def _ported(value) -> bool:
    """Whether format_decimal wrote value through its port."""
    calls = []
    render = numeric._render_mpf
    numeric._render_mpf = lambda *a: calls.append(a) or render(*a)
    try:
        assert format_decimal(value) == oracle(value), value
    finally:
        numeric._render_mpf = render
    return bool(calls)


@pytest.mark.parametrize("value,ported", [
    (F(3, 2**1023), True),              # quotient above 2^-1022
    (F(1, 2**1022), False),             # quotient 2^-1022: not above it
    (F(1, 3 * 2**1022), False),         # a subnormal float64 quotient
    (F(2**1023 + 1, 5), True),          # numerator inside float64
    (F(2**1024 - 2**970, 5), False),    # numerator rounds up to 2^1024
    (F(2**1024 + 1, 5), False),         # numerator beyond float64
    (F(1, 2**53 + 1), True),            # denominator past 2^53
    (MP128.ldexp(1, 3499), True),       # exp + bc = 3500
    (MP128.ldexp(1, 3500), False),      # exp + bc = 3501
    (MP128.ldexp(1, -3500), True),      # exp + bc = -3499
    (MP128.ldexp(MP128.mpf(3), -3502), True),   # exp + bc = -3500
    (MP128.ldexp(1, -3502), False),     # exp + bc = -3501
    (MP128.mpf(0), False),
    (MP128.mpf(-3) / 7, True),
])
def test_mpmath_renders_only_what_the_port_cannot(value, ported):
    assert _ported(value) == ported
