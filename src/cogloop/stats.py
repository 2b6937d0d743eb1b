"""Means, the median and the population standard deviation: the
engine's one owner of ``statistics``' arithmetic, on every supported
Python, without importing ``statistics``.

``statistics.pstdev`` became correctly rounded in Python 3.11. On 3.10 it
can differ in the last bit, and that bit reaches SDNN, baseline sigmas,
z-scores and every score after them, so replays there missed the golden
digests. This module does 3.11's arithmetic with plain integers, so
every interpreter gives 3.11's floats. ``fmean`` and ``median`` are
``statistics.fmean`` and ``statistics.median`` on 3.10 to 3.13. Importing
``statistics`` would also load ``fractions`` and ``decimal``, which a
replay never uses.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import fsum, isqrt

# working precision of the square root: two float mantissas and 3 bits
_SQRT_BIT_WIDTH = 109


def fmean(data: Iterable[float], n: int | None = None) -> float:
    """The mean of finite numbers, as a float: their correctly rounded
    sum (``math.fsum``) over their count ``n``, which a sized collection
    need not give; an iterator is summed as it runs, with no list."""
    if n is None:
        n = len(data)
    if not n:
        raise ValueError("fmean needs at least one value")
    return fsum(data) / n


def median(data: Iterable[float]) -> float:
    """The middle value of the sorted numbers, or the mean of the two
    middle values when their count is even."""
    data = sorted(data)
    n = len(data)
    if not n:
        raise ValueError("median needs at least one value")
    half = n // 2
    if n % 2:
        return data[half]
    return (data[half - 1] + data[half]) / 2


def _scaled(values: Sequence[float]) -> tuple[list[int], int]:
    """Finite floats (or ints) as integers over one common denominator.

    Every finite float is an integer over a power of two, so scaling all
    of them to the largest denominator makes their sums integer sums.
    """
    ratios = [value.as_integer_ratio() for value in values]
    scale = max(denominator for _, denominator in ratios)
    return [numerator * (scale // denominator) for numerator, denominator in ratios], scale


def _sqrt_round_to_odd(n: int, m: int) -> int:
    """The integer square root of n/m, with its last bit set when inexact."""
    root = isqrt(n // m)
    return root | (root * root * m != n)


def _sqrt_of_fraction(n: int, m: int) -> float:
    """The square root of n/m (n >= 0, m > 0) as a float, correctly rounded:
    CPython 3.11's ``statistics._float_sqrt_of_frac``. The radicand is
    scaled to at least 109 bits, so the root has at least 55, two more
    than a float; it is rounded to odd, then rounded once more, to a
    float. The result depends on n/m only, not on its terms, so n/m
    need not be in lowest terms."""
    q = (n.bit_length() - m.bit_length() - _SQRT_BIT_WIDTH) // 2
    if q >= 0:
        numerator, denominator = _sqrt_round_to_odd(n, m << 2 * q) << q, 1
    else:
        numerator, denominator = _sqrt_round_to_odd(n << -2 * q, m), 1 << -q
    return numerator / denominator


def pstdev(data: Sequence[float], mu: float | None = None) -> float:
    """Population standard deviation of finite numbers, bit for bit what
    ``statistics.pstdev(data, mu)`` gives on Python 3.11 and newer.

    Without ``mu`` the mean and every deviation are exact. With ``mu``
    each deviation and its square are float operations, as there, and
    only their sum is exact. Either way the mean square is an exact
    fraction whose square root is rounded once.
    """
    n = len(data)
    if n < 1:
        raise ValueError("pstdev needs at least one value")
    if mu is None:
        scaled, scale = _scaled(data)
        total = sum(scaled)
        # sum((x - mean)^2) / n = (n * sum(x^2) - sum(x)^2) / n^2
        numerator = n * sum(x * x for x in scaled) - total * total
        denominator = n * n * scale * scale
    else:
        scaled, scale = _scaled([(x - mu) * (x - mu) for x in data])
        numerator, denominator = sum(scaled), n * scale
    return _sqrt_of_fraction(numerator, denominator)
