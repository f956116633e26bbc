"""The two output formats: CSV data files and the JSON report.

``write_csv`` writes a comment line, a header line and the rows, every cell
printed with ``%.17g`` and separated by ``,``: the bytes NumPy's text writer
gives with that format, so floats round-trip and integer columns print bare.
The rows are formatted as arrays, a block of about ``_BLOCK_CELLS`` cells at
a time, not with ``%`` per cell:

1. The block is deduplicated on its int64 bit patterns, so ``-0.0`` and
   ``0.0`` and every NaN/inf pattern stay apart, and only the distinct
   values are formatted.
2. Each magnitude m gets its decimal exponent k from log10, moved by one
   where log10 lands on the wrong side of a power of ten, and
   floor(m 10^(16 - k)) with the fraction left over from Dekker's product
   against 10^(16 - k) tabled as an unevaluated sum of two doubles. The
   product is exact where that power is one double.
3. The 17 significant digits are rounded half to even on that fraction.
4. Neighbouring values of one decimal exponent form a run, laid out with
   slice copies of tabled 4-digit chunk text: fixed notation for
   exponents -4..16, else scientific, trailing zeros stripped.

Fall-backs, each through ``%`` one value at a time: zeros, NaN and
infinities, magnitudes outside ``_MAGNITUDES`` (1e-280..1e280), and near
ties, values whose product was inexact and lies within 1e-9 of a rounding
or decade boundary.

``write_report`` writes ``report.json`` with sorted keys and a two-space
indent; result records are written as objects and arrays as lists.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os

import numpy as np

# cells the CSV writer formats at once. Peak memory grows with it: a block
# holds a few 25-byte rows per cell, and 2^16 cells of text added about
# 3 MB to an orbit run.
_BLOCK_CELLS = 1 << 13

# The array formatter's cell: a sign column ("-" or a zero byte), at most 23
# bytes of text ("d.dddddddddddddddde-XXX") and the separator. Zero bytes
# mark what is not printed.
_CELL_WIDTH = 25
# magnitudes the array formatter takes; the rest go through "%" one at a time
_MAGNITUDES = (1e-280, 1e280)
# decimal exponents with a tabled power of ten: the range above, plus one
# either side for log10's correction, plus slack
_DECADE_LIMIT = 284
_SPLITTER = 134217729.0  # 2^27 + 1: Dekker's split of a double into 26-bit halves


def _json_default(obj):
    """Plain-Python form of the NumPy values and result records a payload carries."""
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


@functools.cache
def _format_tables():
    """The array formatter's tables, built on first use.

    For each decimal exponent k in ``[-_DECADE_LIMIT, _DECADE_LIMIT]``:
    10^(16 - k) as an unevaluated sum of two doubles, and Dekker's split of
    the first. For each 4-digit chunk 0..9999: its ASCII digits as one
    4-byte item, and its trailing zeros. For each count s of printed
    digits: the mask of a row of five chunks that keeps bytes 3..3+s.
    """
    powers = []
    for k in range(-_DECADE_LIMIT, _DECADE_LIMIT + 1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        head = num / den  # int true division rounds correctly
        head_num, head_den = head.as_integer_ratio()
        powers.append((head, (num * head_den - head_num * den) / (den * head_den)))
    head, tail = np.array(powers).T
    split = _SPLITTER * head
    head_top = split - (split - head)
    chunk = np.arange(10_000)
    text = np.stack([(48 + chunk // 10**p % 10).astype(np.uint8) for p in (3, 2, 1, 0)], axis=1)
    zeros = np.sum([chunk % 10**p == 0 for p in (1, 2, 3, 4)], axis=0)
    keep = np.arange(20) < 3 + np.arange(18)[:, None]
    keep[:, :3] = False
    return (
        (head, tail, head_top, head - head_top),
        text.view(np.uint32)[:, 0],
        zeros,
        np.where(keep, 255, 0).astype(np.uint8).view(np.uint32),
    )


def _scaled(magnitude: np.ndarray, k: np.ndarray):
    """floor(m 10^(16 - k)) and the fraction left over, per magnitude m.

    The product against the two-double power is Dekker's: exact when the
    power is one double (0 <= 16 - k <= 22), else within about 1e-14.
    """
    index = k + _DECADE_LIMIT
    head, tail, head_top, head_bottom = (table[index] for table in _format_tables()[0])
    product = magnitude * head
    split = _SPLITTER * magnitude
    top = split - (split - magnitude)
    bottom = magnitude - top
    error = (top * head_top - product) + top * head_bottom + bottom * head_top
    error += bottom * head_bottom
    whole = np.floor(product)
    rest = (product - whole) + (error + magnitude * tail)
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _decimal_digits(magnitude: np.ndarray):
    """The 17 significant digits of each magnitude, rounded half to even.

    Returns the digits as an integer in [10^16, 10^17), the decimal
    exponent, and the indices of near ties: values whose product was
    inexact and lies within 1e-9 of a rounding or decade boundary, which
    only an exact formatter can settle.
    """
    k = np.floor(np.log10(magnitude)).astype(np.int64)
    digits, fraction = _scaled(magnitude, k)
    # log10 can land on the wrong side of a power of ten
    shift = (digits >= 10**17).astype(np.int64) - (digits < 10**16)
    wrong = np.flatnonzero(shift)
    if wrong.size:
        k[wrong] += shift[wrong]
        digits[wrong], fraction[wrong] = _scaled(magnitude[wrong], k[wrong])
    inexact = np.flatnonzero((k < -6) | (k > 16))
    f, d = fraction[inexact], digits[inexact]
    near_ties = inexact[
        (np.abs(f - 0.5) < 1e-9) | (d == 10**16) & (f < 1e-9) | (d == 10**17 - 1) & (f > 1 - 1e-9)
    ]
    digits += (fraction > 0.5) | (fraction == 0.5) & (digits % 2 == 1)
    top = digits == 10**17
    digits[top] = 10**16
    k[top] += 1
    return digits, k, near_ties


def _layout(values: np.ndarray):
    """The ``%.17g`` text of values in ``_MAGNITUDES``, one row each.

    Row i of the ``(len(values), _CELL_WIDTH)`` byte array holds the text
    of value i with zero bytes where nothing is printed: the sign column
    of a positive value, stripped trailing zeros, the pad, and the last
    column, left for the separator. Neighbouring values of one decimal
    exponent form a run, laid out with slice copies (fixed notation for
    exponents -4..16, else scientific), so sorted values make few runs.
    Also returns the near ties.
    """
    n, exponent, near_ties = _decimal_digits(np.abs(values))
    _, chunk_text, chunk_zeros, keep = _format_tables()
    high, low = np.divmod(n, 10**8)
    high, low = high.astype(np.int32), low.astype(np.int32)
    c1, c2, c3, c4 = high // 10**4 % 10**4, high % 10**4, low // 10**4, low % 10**4
    zeros = chunk_zeros[c4] + (c4 == 0) * (
        chunk_zeros[c3] + (c3 == 0) * (chunk_zeros[c2] + (c2 == 0) * chunk_zeros[c1])
    )
    scientific = (exponent < -4) | (exponent > 16)
    # digits left of the point, all printed in fixed notation (none below 1)
    whole = np.where(scientific, 1, exponent + 1)
    shown = np.maximum(17 - zeros, whole)
    # five chunks, the first "000d": the digits to print start at byte 3
    chunks = chunk_text[np.stack([high // 10**8, c1, c2, c3, c4], axis=1)]
    digits = (chunks & keep[shown]).view(np.uint8)[:, 3:]
    point = np.where(shown > whole, ord("."), 0).astype(np.uint8)
    text = np.zeros((len(n), _CELL_WIDTH), np.uint8)
    text[values < 0.0, 0] = ord("-")
    starts = np.flatnonzero(np.diff(exponent, prepend=exponent[0] - 1))
    for start, stop in zip(starts.tolist(), [*starts[1:].tolist(), len(n)]):
        rows, x = slice(start, stop), int(exponent[start])
        if -4 <= x < 0:
            text[rows, 1 : 2 - x] = np.frombuffer(b"0.000", np.uint8)[: 1 - x]
            text[rows, 2 - x : 19 - x] = digits[rows]
            continue
        lead = 1 if scientific[start] else x + 1
        text[rows, 1 : 1 + lead] = digits[rows, :lead]
        text[rows, 1 + lead] = point[rows]
        text[rows, 2 + lead : 19] = digits[rows, lead:]
        if scientific[start]:
            suffix = b"e%+03d" % x
            text[rows, -1 - len(suffix) : -1] = np.frombuffer(suffix, np.uint8)
    return text, near_ties


def _format_block(block: np.ndarray) -> bytes:
    """The CSV bytes of a block of rows, every cell printed with ``%.17g``.

    The block is deduplicated on its int64 bit view, so ``-0.0`` and
    ``0.0`` and every NaN/inf pattern stay apart, and its distinct values
    are formatted as arrays by ``_layout``. Zeros, NaN, infinities,
    magnitudes outside ``_MAGNITUDES`` and near ties go through ``%`` one
    value at a time.
    """
    bits, inverse = np.unique(block.ravel().view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    magnitude = np.abs(values)
    regular = (magnitude >= _MAGNITUDES[0]) & (magnitude <= _MAGNITUDES[1])
    text, near_ties = _layout(np.where(regular, values, 1.0))
    for i in [*np.flatnonzero(~regular).tolist(), *near_ties.tolist()]:
        cell = ("%.17g" % values[i]).encode()
        text[i] = 0
        text[i, : len(cell)] = np.frombuffer(cell, np.uint8)
    cells = text[inverse]
    cells[:, -1] = ord(",")
    cells[block.shape[1] - 1 :: block.shape[1], -1] = ord("\n")
    return cells[cells != 0].tobytes()


def write_csv(path: str, comment: str, header: str, rows) -> None:
    """Write a comment line, a header line and the rows, ``%.17g`` per cell.

    The bytes are those NumPy's text writer prints with format ``%.17g``
    and delimiter ``,``. ``_format_block`` formats the rows in blocks of
    about ``_BLOCK_CELLS`` cells and each block's bytes are written at
    once, so only one block's text is held.
    """
    data = np.asarray(rows, dtype=float)
    n_rows, n_cols = data.shape
    step = max(1, _BLOCK_CELLS // n_cols)
    with open(path, "wb") as handle:
        handle.write(f"# {comment}\n{header}\n".encode())
        for start in range(0, n_rows, step):
            handle.write(_format_block(data[start : start + step]))


def write_report(out_dir: str, report: dict) -> str:
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, sort_keys=True, indent=2, default=_json_default)
        handle.write("\n")
    return path
