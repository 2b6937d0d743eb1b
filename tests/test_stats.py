import math
import statistics
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cogloop.stats import fmean, median, pstdev

# magnitudes whose squared deviations stay finite floats
_VALUES = st.one_of(
    st.floats(min_value=-1e100, max_value=1e100),
    st.floats(min_value=300.0, max_value=2000.0),  # RR intervals in ms
    st.integers(min_value=-(10**6), max_value=10**6),
)


def _is_nearest_root(result: float, exact: Fraction) -> bool:
    """``result`` is the float nearest the square root of ``exact``: the
    midpoints to its two neighbours bracket the root, compared exactly
    through their squares."""
    below = (Fraction(math.nextafter(result, 0.0)) + Fraction(result)) / 2 if result > 0 else Fraction(0)
    above = (Fraction(result) + Fraction(math.nextafter(result, math.inf))) / 2
    return below * below <= exact <= above * above


@settings(max_examples=400, deadline=None)
@given(data=st.lists(_VALUES, min_size=1, max_size=40), with_mu=st.booleans())
def test_pstdev_is_the_nearest_root_of_the_exact_mean_square(data, with_mu):
    n = len(data)
    if with_mu:
        # the deviations and their squares are floats; their sum is exact
        mu = statistics.fmean(data)
        exact = sum(Fraction((x - mu) * (x - mu)) for x in data) / n
    else:
        mu = None
        mean = sum(map(Fraction, data)) / n
        exact = sum((Fraction(x) - mean) ** 2 for x in data) / n
    result = pstdev(data, mu)
    assert _is_nearest_root(result, exact)
    if sys.version_info >= (3, 11):
        # correctly rounded there too: the same float, bit for bit
        assert result == statistics.pstdev(data, mu)


def test_pstdev_of_one_value_or_equal_values_is_zero():
    assert pstdev([812.5]) == 0.0
    assert pstdev([800, 800, 800], mu=800.0) == 0.0
    with pytest.raises(ValueError):
        pstdev([])



# finite floats whose sum stays finite, and sample-sized integers
_MEAN_VALUES = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=0.0, max_value=1.0),  # confidences, qualities
    st.integers(min_value=-(10**6), max_value=10**6),
)


def _bits(x):
    """A number's type, value and sign: equal for equal results, bit for bit."""
    return type(x), x, math.copysign(1.0, x)


@settings(max_examples=400, deadline=None)
@given(
    data=st.lists(_MEAN_VALUES, min_size=1, max_size=41),
    # the median adds two values, so any finite float: a sum can overflow
    wide=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=41),
    as_dict_view=st.booleans(),
)
@example(data=[0.5, -0.0, 2.0], wide=[1e308, 1.5e308], as_dict_view=True)
@example(data=[3, 1, 4, 2], wide=[5e-324, 5e-324], as_dict_view=False)
def test_fmean_and_median_are_the_statistics_modules_bit_for_bit(data, wide, as_dict_view):
    # any sized collection, a dict's values view among them
    values = dict(enumerate(data)).values() if as_dict_view else data
    assert _bits(fmean(values)) == _bits(statistics.fmean(values))
    for values in (values, wide):
        expected = _bits(statistics.median(values))
        assert _bits(median(values)) == expected
        # streams.estimate_offset passes a generator
        assert _bits(median(x for x in values)) == expected


def test_fmean_and_median_of_nothing_raise_value_error():
    for function in (fmean, median):
        with pytest.raises(ValueError):
            function([])
    with pytest.raises(ValueError):
        fmean({}.values())
