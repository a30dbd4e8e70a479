"""Tests for the numpy rows of the wealth-path CSV, against ``repr``."""

import math

import numpy as np
import pytest

from petersburg import _shortest


def reference(first, values):
    """The rows formatted one by one, as ``%`` and ``repr`` write them."""
    return "".join("%d,%s\n" % (first + t, repr(x)) for t, x in enumerate(values)).encode()


def assert_rows(values, first=0):
    values = [float(x) for x in values]
    assert _shortest.rows(first, values) == reference(first, values)


def test_random_bit_patterns():
    # 10**6 doubles with every positive biased exponent, 1 to 2046, in
    # slices the size the path writer uses
    rng = np.random.default_rng(20180618)
    bits = rng.integers(1 << 52, 2047 << 52, 10 ** 6, dtype=np.uint64)
    values = bits.view(np.float64)
    for start in range(0, len(values), 1 << 13):
        part = values[start:start + (1 << 13)].tolist()
        assert _shortest.rows(start, part) == reference(start, part)


def test_most_cells_are_certified():
    # a cell repr formats costs what the old writer paid: the shortcut
    # is only worth its code while Ryū certifies nearly every cell
    rng = np.random.default_rng(7)
    bits = rng.integers(1 << 52, 2047 << 52, 1 << 16, dtype=np.uint64)
    _, _, fallback = _shortest._decimals(bits)
    assert fallback.mean() < 0.02
    grid = np.array([math.exp(x) for x in np.linspace(-700.0, 700.0, 1 << 16)])
    _, _, fallback = _shortest._decimals(grid.view(np.uint64))
    assert fallback.mean() < 0.05


def test_zero_subnormals_and_infinity():
    tiny = [math.ldexp(m, -1074) for m in (1, 2, 3, 12345, (1 << 52) - 1)]
    assert_rows([0.0, math.inf, *tiny, 2.2250738585072014e-308, math.nan, -1.5, -0.0])


def test_powers_of_two():
    assert_rows([math.ldexp(1.0, k) for k in range(-1074, 1024)])


def test_integers():
    rng = np.random.default_rng(3)
    big = rng.integers(0, 1 << 63, 4096, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    assert_rows([*range(1, 1 << 14), *(10 ** k for k in range(20)), *big.tolist(), 1 << 64])


def test_trailing_zero_cases():
    # doubles m2 * 2**(e2 + 2) where mv = 4 * m2, or a bound of its interval
    # (mv - 2 or mv + 2), is a multiple of 5**q, Ryū's power of ten, for
    # every e2 up to q = 24; and, below, mantissas with many trailing zero bits
    values = []
    for e2 in range(0, 90):
        q = max(0, (e2 * 78913 >> 18) - (e2 > 3))
        five = 5 ** q
        for target in (0, 2, -2):
            # 4 * m2 + target = 0 (mod 5**q)
            residue = -target * pow(4, -1, five) % five
            start = residue + five * -(-((1 << 52) - residue) // five)
            values += [math.ldexp(m, e2 + 2) for m in range(start, min(start + 8 * five, 1 << 53),
                                                           five)]
    for e2 in range(-1076, 0, 7):
        values += [math.ldexp((1 << 52) + (j << t), e2 + 2) for t in range(0, 52, 3)
                   for j in (0, 1, 3)]
    assert_rows(values)


def test_decimal_powers():
    assert_rows([float(f"{d}e{e}") for e in range(-324, 309) for d in range(1, 10)])


@pytest.mark.parametrize("value", [1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05,
                                   5e-324, 1.7976931348623157e308, 1e100, 1.5e-10, 123.456,
                                   0.1, 1e22, 1e23])
def test_notation_switches_and_extremes(value):
    # repr writes 1e16 and up, and below 1e-4, with an exponent
    assert_rows([value, math.nextafter(value, 0.0), math.nextafter(value, math.inf)])


def test_exp_grid():
    # the cells the path writer formats, from log wealth across the double range
    grid = np.linspace(-746.0, 710.0, 50_001).tolist()
    assert_rows([math.exp(x) if x < 709.78 else math.inf for x in grid])


@pytest.mark.parametrize("first", [0, 999_999, 10 ** 7])
def test_row_numbers(first):
    # from 999 999 the row numbers gain a digit within the slice
    assert_rows([math.exp(x) for x in np.linspace(-10.0, 10.0, 2001).tolist()], first)


@pytest.mark.parametrize("cell", [b"inf", b"0.0"])
@pytest.mark.parametrize("first, stop", [(0, 0), (0, 1), (5, 5), (0, 20_000), (999, 1_001),
                                         (7_999, 8_001), (1_500, 30_500),
                                         (9_999_990, 10_000_010)])
def test_fixed_runs(cell, first, stop):
    # each chunk holds at most 8 000 rows, and none is empty
    chunks = list(_shortest.fixed(first, stop, cell))
    assert b"".join(chunks) == b"".join(b"%d,%s\n" % (t, cell) for t in range(first, stop))
    assert all(0 < chunk.count(b"\n") <= 8_000 for chunk in chunks)
