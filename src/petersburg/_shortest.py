"""The wealth-path file: its ``round,wealth`` rows as bytes, in numpy.

:func:`writer` writes the header to a binary handle and returns the
writer of the rows, one block of log wealth at a time.  Row ``t`` reads
``b"%d,%s\\n" % (t, repr(math.exp(x)))`` for its log wealth ``x``: ``inf``
above 709.782712893384, where ``math.exp`` overflows, and ``0.0`` at or
below -746.  A block lying wholly past one of those edges is written
from its bounds alone.  Any other is written in slices of at most 8 000
rows: a slice lying wholly past one edge by :func:`fixed`, which writes
a run of rows whose cells all read one text as numpy records of a cached
thousand-row template, and any other by :func:`rows`, which formats a
slice of doubles.  So memory holds one slice's cells, not the path's.

``repr`` of a float is its shortest decimal text that reads back as the
same double.  CPython finds those digits with bignum arithmetic, one cell
at a time; Ryū (Adams 2018, "Ryū: fast float-to-string conversion",
PLDI) finds the same digits with fixed-width integer arithmetic, so the
common case of its ``d2s`` runs here over a whole slice in ``uint64``
lanes.  A cell that case cannot certify -- zero, a subnormal, a negative
or non-finite value, or one of Ryū's trailing-zero cases -- is formatted
by ``repr`` itself, so every row is ``repr``'s byte for byte.

Every operand of the lane arithmetic is ``uint64``: numpy before 2.0
promotes ``uint64`` mixed with ``int64`` to ``float64``.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterator, Optional

import numpy as np

_U64 = np.uint64
_LOW32 = _U64(0xFFFF_FFFF)
_BITCOUNT = 125  # bits of each table entry, as in Ryū's DOUBLE_POW5_(INV_)BITCOUNT
#: table rows: q up to 290 for e2 >= 0, i up to 325 for e2 < 0
_INV_ROWS, _POW_ROWS = 291, 326
_POW10 = np.array([10 ** k for k in range(18)], dtype=_U64)
#: the first column of each part of a cell: up to 16 digits before the
#: point, the point, up to 3 zeros after it, up to 17 more digits, then
#: "e", the sign and up to 3 exponent digits, and the newline
_POINT, _ZEROS, _FRAC, _E, _CELL = 16, 17, 20, 37, 43


def _pow5bits(e):
    """The bit length of ``5**e``, for ``0 <= e <= 3528``."""
    return ((e * 1217359) >> 19) + 1


@functools.lru_cache(maxsize=None)
def _tables() -> tuple:
    """Ryū's multipliers as ``(low, high)`` 64-bit limbs: rows ``q`` of
    ``DOUBLE_POW5_INV_SPLIT``, ``2**(bits(5**q) - 1 + 125) // 5**q + 1``,
    then rows ``i`` of ``DOUBLE_POW5_SPLIT``, the top 125 bits of ``5**i``."""
    table = [(1 << (_pow5bits(q) - 1 + _BITCOUNT)) // 5 ** q + 1 for q in range(_INV_ROWS)]
    for i in range(_POW_ROWS):
        shift = _pow5bits(i) - _BITCOUNT
        table.append(5 ** i >> shift if shift >= 0 else 5 ** i << -shift)
    mask = (1 << 64) - 1
    return (np.array([t & mask for t in table], dtype=_U64),
            np.array([t >> 64 for t in table], dtype=_U64))


def _umul128(a, b):
    """The high and low 64 bits of ``a * b``, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _LOW32, a >> _U64(32), b & _LOW32, b >> _U64(32)
    low = a0 * b0
    mid = a1 * b0 + (low >> _U64(32))
    mid2 = a0 * b1 + (mid & _LOW32)
    return a1 * b1 + (mid >> _U64(32)) + (mid2 >> _U64(32)), (mid2 << _U64(32)) | (low & _LOW32)


def _mul_shift(m, low, high, shift):
    """``(m * (high * 2**64 + low)) >> (64 + shift)`` for ``m`` below 2**55
    and ``0 < shift < 64``."""
    carry, _ = _umul128(m, low)
    top, bottom = _umul128(m, high)
    bottom = bottom + carry
    top = top + (bottom < carry)
    return (bottom >> shift) | (top << (_U64(64) - shift))


def _decimals(bits):
    """Ryū's shortest digits ``(output, exponent)`` of the doubles whose bits
    are ``bits`` (``value == output * 10**exponent``), and the mask of
    the lanes whose digits it cannot certify, which read ``1 * 10**0``."""
    low_table, high_table = _tables()
    field = (bits >> _U64(52)).astype(np.int64)  # the biased exponent, sign bit on top
    fallback = (field == 0) | (field >= 2047)
    field[fallback] = 1077  # any normal exponent: these lanes' digits are dropped
    m2 = (bits & _U64((1 << 52) - 1)) | _U64(1 << 52)
    e2 = field - 1077
    mm_shift = ((m2 != _U64(1 << 52)) | (field <= 1)).astype(_U64)
    mv = m2 << _U64(2)
    up = e2 >= 0
    down = -e2
    # q, the power of ten taken out: floor(log10(2**e2)) or floor(log10(5**-e2)),
    # less one for e2 > 3 or -e2 > 1 (Ryū's d2d)
    q = np.where(up, ((e2 * 78913) >> 18) - (e2 > 3), ((down * 732923) >> 20) - (down > 1))
    i = down - q
    row = np.where(up, q, _INV_ROWS + i)
    shift = np.where(up, q - e2 + _BITCOUNT - 1 + _pow5bits(q), q - _pow5bits(i) + _BITCOUNT)
    low, high, shift = low_table[row], high_table[row], (shift - 64).astype(_U64)
    vr = _mul_shift(mv, low, high, shift)
    vp = _mul_shift(mv + _U64(2), low, high, shift)
    vm = _mul_shift(mv - _U64(1) - mm_shift, low, high, shift)
    # Ryū's trailing-zero cases go to repr: where the exact value, or a bound
    # of its interval, may have q trailing decimal zeros (for e2 < 0, Ryū
    # also takes every q <= 1, but mv = 4 * m2 is then a multiple of 2**q)
    fallback |= ~up & (mv & ((_U64(1) << np.minimum(q, 63).astype(_U64)) - _U64(1)) == 0)
    small = np.flatnonzero(up & (q <= 21) & ~fallback)
    if small.size:
        five = _U64(5) ** q[small].astype(_U64)
        v, cut = mv[small], mm_shift[small]
        fallback[small] = (v % five == 0) | ((v - _U64(1) - cut) % five == 0)
        # an odd mantissa's upper bound is open: step below it where it is exact
        vp[small] -= ((m2[small] & _U64(1)) * ((v + _U64(2)) % five == 0)).astype(_U64)
    # drop digits while the interval still holds a shorter number, keeping
    # the last digit dropped from vr to round it
    removed = np.zeros(len(bits), dtype=np.int64)
    last = np.zeros(len(bits), dtype=_U64)
    live = np.flatnonzero(~fallback)
    while live.size:
        p, m = vp[live] // _U64(10), vm[live] // _U64(10)
        go = p > m
        live, p, m = live[go], p[go], m[go]
        r = vr[live]
        vr[live], last[live], vp[live], vm[live] = r // _U64(10), r % _U64(10), p, m
        removed[live] += 1
    output = vr + ((vr == vm) | (last >= _U64(5))).astype(_U64)
    exponent = np.where(up, q, q + e2) + removed
    output[fallback], exponent[fallback] = 1, 0  # a well-formed cell, for repr to overwrite
    return output, exponent, fallback


def _digits(numbers, width: int):
    """The ``width`` lowest decimal digits of each of ``numbers``, as ASCII
    columns, most significant first."""
    columns = np.empty((len(numbers), width), dtype=np.uint8)
    for place in range(width - 1, -1, -1):
        higher = numbers // _U64(10)
        columns[:, place] = numbers - higher * _U64(10) + _U64(ord("0"))
        numbers = higher
    return columns


def rows(first: int, values) -> bytes:
    """``b"%d,%s\n" % (first + t, repr(x))`` for each float ``values[t]``, joined."""
    values = np.asarray(values, dtype=np.float64)
    count = len(values)
    output, exponent, fallback = _decimals(values.view(_U64))
    digits = np.searchsorted(_POW10, output, side="right")  # n, the digits of output
    point = exponent + digits  # value == 0.d1d2...dn * 10**point
    # like repr, write 10**16 and up, and below 10**-4, as d.ddde+XX
    sci = (point > 16) | (point < -3)
    lead = np.where(sci, 1, point)  # where the point stands among the digits
    ones = np.clip(lead, 0, digits)  # the digits of output before it
    rest = digits - ones  # and after it
    scale = _POW10[rest]
    whole = output // scale
    power = np.abs(point - 1).astype(_U64)

    width = len(str(first + count - 1))
    matrix = np.zeros((count, width + 1 + _CELL), dtype=np.uint8)
    number = np.arange(first, first + count, dtype=_U64)
    matrix[:, :width] = _digits(number, width)
    matrix[:, width] = ord(",")
    cell = matrix[:, width + 1:]
    cell[:, :_POINT] = _digits(whole * _POW10[np.maximum(lead - ones, 0)], _POINT)
    cell[:, _POINT] = ord(".")
    cell[:, _ZEROS:_FRAC] = ord("0")
    cell[:, _FRAC:_E] = _digits((output - whole * scale) * _POW10[_E - _FRAC - rest], _E - _FRAC)
    cell[:, _E] = ord("e")
    cell[:, _E + 1] = np.where(point < 1, ord("-"), ord("+"))
    cell[:, _E + 2:-1] = _digits(power, _CELL - 1 - (_E + 2))
    cell[:, -1] = ord("\n")
    # blank the leading zeros of the row number and of the integer part
    # (one stays), the point after a lone digit with an exponent, all but
    # -lead of the zeros after the point, the fraction past its last digit
    # (fixed text keeps a 0), the exponent's hundreds digit below 100,
    # and the exponent of fixed text
    matrix[:, :width - 1] *= number[:, None] >= _POW10[width - 1:0:-1]
    cell[:, :_POINT - 1] *= np.arange(_POINT - 1, 0, -1) < np.maximum(lead, 1)[:, None]
    cell[:, _POINT] *= ~sci | (digits > 1)
    cell[:, _ZEROS:_FRAC] *= np.arange(_ZEROS - _FRAC, 0) >= lead[:, None]
    shown = np.where(sci, rest, np.maximum(rest, 1))
    cell[:, _FRAC:_E] *= np.arange(_E - _FRAC) < shown[:, None]
    cell[:, _E + 2] *= power >= _U64(100)
    cell[:, _E:-1] *= sci[:, None]
    odd = np.flatnonzero(fallback)
    if odd.size:
        text = [repr(x).encode() for x in values[odd].tolist()]
        cell[odd, :-1] = np.array(text, dtype=f"S{_CELL - 1}").view(np.uint8).reshape(odd.size, -1)
    return matrix[matrix != 0].tobytes()


#: rows written at once: a slice of log wealth, or a chunk of a run of one cell
_SLICE = 8_000
#: the largest log wealth whose ``math.exp`` is finite
_EXP_LARGEST = 709.782712893384
#: ``math.exp`` rounds to 0.0 from this log wealth down
_EXP_UNDERFLOW = -746.0


@functools.lru_cache(maxsize=None)
def _template(cell: bytes) -> np.ndarray:
    """Rows ``000,cell`` to ``999,cell``: the rows of a thousand whose
    cells read ``cell``, each without its thousands, one ``S`` item each."""
    return np.array([b"%03d,%s\n" % (row, cell) for row in range(1000)])


def fixed(first: int, stop: int, cell: bytes) -> Iterator[bytes]:
    """The rows ``first`` to ``stop - 1``, each ``b"%d,%s\\n" % (row, cell)``,
    in chunks of at most ``_SLICE`` rows.

    Rows below 1000 are formatted by ``%``.  A chunk of later rows is a
    record array, one record per row: its thousands as text beside that
    row of :func:`_template`.  Its thousands have one width throughout,
    so each record is as long as its row.
    """
    if first < 1000 and first < stop:
        below = min(stop, 1000)
        yield (b"%d," + cell + b"\n") * (below - first) % tuple(range(first, below))
        first = below
    template = _template(cell)
    while first < stop:
        thousands = first // 1000
        width = len(str(thousands))
        end = min(stop, 1000 * thousands + _SLICE, 1000 * 10 ** width)
        records = np.empty((-(-end // 1000) - thousands, 1000),
                           dtype=[("thousands", f"S{width}"), ("row", template.dtype)])
        records["thousands"] = np.arange(thousands, thousands + len(records)).astype(
            f"S{width}")[:, None]
        records["row"] = template
        yield records.reshape(-1)[first - 1000 * thousands:end - 1000 * thousands].tobytes()
        first = end


def _wealth_cell(log_wealth: float) -> str:
    """The cell of one row, formatted by itself: the row-by-row reference."""
    try:
        return repr(math.exp(log_wealth))
    except OverflowError:
        return "inf"


def _fixed_cell(low: float, high: float) -> Optional[bytes]:
    """The cell every row reads when each row's log wealth lies in
    ``[low, high]`` and that lies wholly past one edge, else ``None``."""
    if low > _EXP_LARGEST:
        return b"inf"
    if high <= _EXP_UNDERFLOW:
        return b"0.0"
    return None


def writer(handle) -> Callable[..., None]:
    """Write the header to the binary ``handle``, and return the writer of
    the rows: ``path`` of :func:`.montecarlo.time_average_census`."""
    handle.write(b"round,wealth\n")
    written = 0

    def write(log_wealth, count: int, low: float, high: float) -> None:
        nonlocal written
        cell = _fixed_cell(low, high)
        if cell is not None:
            # the block's order is never drawn
            handle.writelines(fixed(written, written + count, cell))
            written += count
            return
        log_wealth = log_wealth()
        for start in range(0, len(log_wealth), _SLICE):
            part = log_wealth[start:start + _SLICE]
            cell = _fixed_cell(part.min(), part.max())
            if cell is not None:
                handle.writelines(fixed(written, written + len(part), cell))
            else:
                # the scalar math.exp: numpy's exp may round the last digit
                # differently; past its largest finite argument a cell reads inf
                values = part.clip(max=_EXP_LARGEST)
                values[:] = list(map(math.exp, values.tolist()))
                values[part > _EXP_LARGEST] = math.inf
                handle.write(rows(written, values))
            written += len(part)

    return write
