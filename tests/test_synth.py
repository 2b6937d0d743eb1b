"""The synthesizer's column helpers against the scalar expressions they
stand for, bit for bit: ``_rounded`` against ``round(v, digits)`` and
``_clamped`` against ``max(lo, min(hi, v))``. The scenario digests in
``test_golden.py`` pin what the synthesizer makes with them."""

import math
import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cogloop.synth import _clamped, _rounded


def _bits(values) -> bytes:
    """The IEEE 754 bytes of each value: tells -0.0 from 0.0."""
    return struct.pack(f"<{len(values)}d", *values)


DIGITS = st.sampled_from([3, 4, 6])

# one regime per column, so that a value off the fast path does not send
# every other value of its column off it too
COLUMNS = st.sampled_from([
    # everyday values, such as coordinates, pupils and times
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0),
    # subnormals and zeros of both signs
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    # binary ties: k / 2**20 is an exact tie at 6 digits when 8192 divides k
    st.integers(-2**30, 2**30).map(lambda k: k / 2**20),
    st.integers(-2**20, 2**20).map(lambda k: k * 8192 / 2**20),
    # decimal ties, which no float holds: the nearest float lies just
    # off one, and its scaled value may round onto it
    st.tuples(st.integers(-10**8, 10**8), st.sampled_from([3, 4, 6])).map(lambda p: (2 * p[0] + 1) / (2 * 10**p[1])),
    # magnitudes at and past the fast path's bound
    st.floats(min_value=1e9, max_value=1e13).flatmap(lambda v: st.sampled_from([v, -v])),
    st.sampled_from([2.0**51 / 1e6, 2.0**52 / 1e6, 2.0**53 / 1e6, 2.0**51 / 1e3, -(2.0**52) / 1e4]),
    # anything, infinities and NaN included
    st.floats(),
]).flatmap(lambda element: st.lists(element, max_size=40))


@settings(max_examples=2000, deadline=None)
@given(values=COLUMNS, digits=DIGITS)
@example(values=[-1e-9, -0.0, 0.0, 1e-9], digits=6)
@example(values=[0.0078125, 0.0234375], digits=6)  # exact ties: 7812.5 and 23437.5
@example(values=[2.5e-06, 3.5e-06, 0.0005, 0.00015], digits=6)
@example(values=[1.0005, 2.0005, 0.00025], digits=3)
@example(values=[2.0**51 / 1e6 + 0.5, 1.0], digits=6)
@example(values=[-2251799813685.8125], digits=3)  # just past 2**51 once scaled
@example(values=[math.inf, 1.0, -math.inf], digits=6)
@example(values=[1.0, math.nan, 0.25], digits=4)
def test_rounded_is_round_bit_for_bit(values, digits):
    assert _bits(_rounded(values, digits)) == _bits([round(v, digits) for v in values])


def test_rounded_takes_the_fast_path_on_everyday_columns(monkeypatch):
    # the exact rounding above holds whichever path a column takes; this
    # checks that a column of coordinates and times never calls round
    import builtins

    calls = []
    real_round = builtins.round
    monkeypatch.setattr(builtins, "round", lambda *args: calls.append(args) or real_round(*args))
    column = [k / 60 for k in range(3600)] + [k / 7 for k in range(700)]
    assert _bits(_rounded(column, 6)) == _bits([real_round(v, 6) for v in column])
    assert calls == []


BOUND = st.floats(allow_nan=False)
SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0, 9.0])


@settings(max_examples=1000, deadline=None)
@given(bounds=st.tuples(BOUND, BOUND).filter(lambda pair: pair[0] < pair[1]),
       values=st.lists(st.one_of(st.floats(), SPECIAL), max_size=20))
@example(bounds=(0.0, 1.0), values=[-0.0, 0.0, 1.0, math.nan, math.inf, -math.inf, 0.5, 1.5, -1e-300])
@example(bounds=(-0.0, 1.0), values=[0.0, -0.0])
@example(bounds=(-1.0, 0.0), values=[0.0, -0.0])
@example(bounds=(-1.0, -0.0), values=[0.0, -0.0])
@example(bounds=(1.0, 9.0), values=[1.0, 9.0, math.nan, 0.0])
def test_clamped_is_max_of_min_bit_for_bit(bounds, values):
    lo, hi = bounds
    # the bounds themselves are values too
    values = values + [lo, hi]
    assert _bits(_clamped(values, lo, hi)) == _bits([max(lo, min(hi, v)) for v in values])
