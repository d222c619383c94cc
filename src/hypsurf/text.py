"""Text of a sample: CSV and JSON with floats at 17 significant digits.

A sample's CSV and JSON are rows of one fixed layout each, rendered by
`_rows` from the sample's arrays: one NUL-padded uint8 matrix per
`pool.BLOCK_ROWS` rows, whose other bytes are the text.  The blocks are
rendered on the worker threads of `pool.ordered_map`, one worker per
available CPU, and come back in order, so the text is the same at any
number of workers.  Every float is exactly `format(x, ".17g")` and a word
exactly `GroupWord.__str__`, and JSON text is what `json.dumps` writes
for the same values with these floats and no spaces.  The samples call
these renderers themselves (`to_csv_rows`, `to_json_rows`); the small
JSON payloads and plans are written by `jsontext`, which needs no numpy.

The sample renderers return their text as chunks whose concatenation is
the whole text, without its final newline, so a caller that writes the
chunks as they come never holds the whole text.
"""

from __future__ import annotations

import functools
import itertools
from json.encoder import encode_basestring_ascii
from typing import Iterator

import numpy as np

from hypsurf import pool
from hypsurf.errors import InvalidInput


# ---------------------------------------------------------------------------
# samples, block by block


def sample_csv(header: str, columns: tuple[np.ndarray, ...],
               letters: np.ndarray) -> Iterator[str]:
    """CSV of float columns and a word column: the header, then one row
    per sample point."""
    fields = tuple(itertools.chain.from_iterable((c, ",") for c in columns)) + (letters,)
    yield header + "\n" if len(letters) else header
    yield from _rows(fields, "\n")


def endpoint_json(mode: str, angles: np.ndarray, letters: np.ndarray) -> Iterator[str]:
    """`{"mode":M,"angles":[...],"words":[...]}` of an endpoint sample.
    A non-finite angle raises InvalidInput here, before any text."""
    _check_finite(angles)
    return itertools.chain(
        (f'{{"mode":{encode_basestring_ascii(mode)},"angles":[',),
        _rows((angles,), ","),
        ('],"words":[',),
        _rows(('"', letters, '"'), ","),
        ("]}",),
    )


def circle_map_json(theta_in: np.ndarray, theta_out: np.ndarray, letters: np.ndarray,
                    skipped: int) -> Iterator[str]:
    """`{"pairs":[{"theta_in":X,"theta_out":Y,"word":W},...],"skipped":N}`
    of a circle-map sample.  A non-finite angle raises InvalidInput here,
    before any text."""
    _check_finite(theta_in, theta_out)
    fields = ('{"theta_in":', theta_in, ',"theta_out":', theta_out, ',"word":"', letters, '"}')
    return itertools.chain(('{"pairs":[',), _rows(fields, ","), (f'],"skipped":{skipped:d}}}',))


def _check_finite(*columns: np.ndarray) -> None:
    if not all(np.isfinite(c).all() for c in columns):
        raise InvalidInput("non-finite float has no JSON encoding here")


def _rows(fields: tuple, end: str) -> Iterator[str]:
    """The text of rows joined by `end`, in blocks of `pool.BLOCK_ROWS`
    rows.  A row is its fields in turn: a str as it is, a 1-D float array
    as the row's value (`_float_text`), a 2-D letter matrix as the row's
    word (`letter_text`).  Each block is one NUL-padded uint8 matrix, one
    row per line, whose other bytes are the text; the blocks are rendered
    on the worker threads of `pool.ordered_map` and come in order."""
    count = len(next(f for f in fields if not isinstance(f, str)))
    end_bytes = np.frombuffer(end.encode(), dtype=np.uint8)
    step = pool.BLOCK_ROWS
    # a float field is 24 columns, its three words (no %.17g text is
    # longer), and a word at least one (`letter_text`)
    widths = [len(f.encode()) if isinstance(f, str) else max(1, f.shape[1]) if f.ndim == 2
              else 24 for f in fields]

    def block(i: int) -> str:
        j = min(i + step, count)
        text = np.empty((j - i, sum(widths) + len(end_bytes)), dtype=np.uint8)
        start = 0
        for f, width in zip(fields, widths):
            cell = (np.frombuffer(f.encode(), dtype=np.uint8) if isinstance(f, str)
                    else letter_text(f[i:j]) if f.ndim == 2
                    else _float_text(np.asarray(f[i:j], dtype=np.float64)).view(np.uint8))
            # a cell's bytes go in as one void item per row: numpy copies
            # those faster than a strided run of bytes
            item = f"V{width}" if width > 1 else np.uint8
            text[:, start:start + width].view(item)[...] = cell.view(item)
            start += width
        text[:, start:] = end_bytes
        if j == count:
            text[-1, start:] = 0  # no separator after the last row
        return text[text != 0].tobytes().decode("ascii")

    return pool.ordered_map(block, range(0, count, step))


# ---------------------------------------------------------------------------
# words


def letter_text(letters: np.ndarray) -> np.ndarray:
    """The rows of a zero-padded int8 letter matrix as `GroupWord.__str__`
    writes them ("1" for an empty row), as a NUL-padded uint8 ASCII matrix
    at least one column wide."""
    letters = np.asarray(letters)
    if letters.size and not -26 <= letters.min() <= letters.max() <= 26:
        raise InvalidInput("string form supports at most 26 generators")
    letters = np.ascontiguousarray(letters, dtype=np.int8)
    if letters.shape[1] == 0:
        letters = np.zeros((len(letters), 1), dtype=np.int8)
    # k > 0 is "A" + k - 1 = 64 + k, k < 0 is "a" - k - 1 = 96 + |k|, and
    # 0 (padding) is NUL
    text = np.abs(letters).view(np.uint8)
    text += np.not_equal(letters, 0).view(np.uint8) * np.uint8(64)
    text += np.less(letters, 0).view(np.uint8) * np.uint8(32)
    text[letters[:, 0] == 0, 0] = ord("1")
    return text


# ---------------------------------------------------------------------------
# floats


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tables of `_float_text`, and 10**k for k <= 22 with its Dekker
    halves, rows (10**k, high, low), exact doubles."""
    # a head word, item top + 100 * form + 500 * stripped: the head of the
    # two leading digits top at exponent d = -form, padded to 7 bytes,
    # then the first digit after the lead; stripped, a 0 there is NUL, and
    # at d = 0 so is the point
    heads = []
    for stripped in (False, True):
        for form in range(5):
            for top in range(100):
                lead, first = divmod(top, 10)
                first = "" if stripped and first == 0 else str(first)
                head = f"0.{'0' * (form - 1)}{lead}" if form else f"{lead}." if first else f"{lead}"
                heads.append(head.ljust(7, "\0") + (first or "\0"))
    # the four ASCII digits of q as one uint32, and at item 10_000 + q the
    # same with trailing zeros as NUL: a digit stays where it or a digit
    # after it is nonzero
    q = np.arange(10_000)
    digits = (q[:, None] // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8)
    kept = np.logical_or.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]
    digits += ord("0")
    quads = np.concatenate([digits, np.where(kept, digits, 0)]).view("<u4").ravel()
    powers = np.array([float(10**k) for k in range(23)])
    split = 134217729.0 * powers  # 2**27 + 1
    halves = split - (split - powers)
    # the three digits of q with trailing zeros as NUL, and a fourth NUL,
    # are the stripped quad of 10 * q
    tables = (np.frombuffer("".join(heads).encode(), dtype="<u8"), quads,
              quads[10_000::10].copy(), np.stack([powers, halves, powers - halves]))
    for table in tables:
        table.flags.writeable = False  # shared by every caller and thread
    return tables


def _rounded_scaled(x: np.ndarray, k: int | np.ndarray) -> np.ndarray:
    """round(x * 10**k) half to even, where that lies in [2**53, 2**63);
    10**k and its Dekker halves are read from the table."""
    scale, sh, sl = np.take(_digit_tables()[3], k, axis=1)
    p = x * scale
    # Dekker: split each factor into 26-bit halves, then p + e = x * scale
    # with e = ((xh * sh - p) + xh * sl + xl * sh) + xl * sl
    xh = 134217729.0 * x  # 2**27 + 1
    xl = xh - x
    xh -= xl
    np.subtract(x, xh, out=xl)
    e = xh * sh
    e -= p
    e += np.multiply(xh, sl, out=xh)
    e += np.multiply(xl, sh, out=xh)
    e += np.multiply(xl, sl, out=xl)
    del xh, xl
    n = p.astype(np.int64)
    del p
    n += np.rint(e, out=e).astype(np.int64)
    return n


def _float_text(x: np.ndarray) -> np.ndarray:
    """`format(v, ".17g")` of each v in x as a row of three little-endian
    uint64 words, 24 NUL-padded bytes: bytes 0-6 are the head (the text
    through the lead digit, "D." or "D" at exponent 0 and "0.00D" below),
    bytes 7-22 the 16 digits after the lead, trailing zeros as NUL, and
    byte 23 is NUL.  Word 0, the head and the first digit, is one item of
    the head table; words 1 and 2, the next eight digits and the last
    seven, are two uint32 halves each, from the quad and triple tables
    (`_digit_tables`).  A group whose digits after it are all zero is
    taken at a table offset where its trailing zeros are NUL.

    For 1e-4 <= x < 8 the digits are exact.  With d = floor(log10 x), 10**k
    for k = 16 - d is an exact double, and Dekker's product gives
    x * 10**k = p + e exactly.  When N = round(x * 10**k) has 17 digits,
    p >= 2**53 is even, so N = p + rint(e), rounded half to even as
    `%.17g` rounds.  Every d is taken from log10 x in one pass, and moves
    by one where N falls outside [10**16, 10**17) until N is in range.
    (With d one too large, N lands in range only for x within a relative
    5e-17 below a power of ten; no double here is.)  Zero, exponent forms,
    x >= 8, negative and non-finite values go through `format` itself.
    """
    fast = (x >= 1e-4) & (x < 8.0)
    slow = np.flatnonzero(~fast)
    v = np.where(fast, x, 1.0) if slow.size else x
    exp10 = np.floor(np.log10(v)).astype(np.intp)
    n = _rounded_scaled(v, 16 - exp10)
    off = np.flatnonzero((n < 10**16) | (n >= 10**17))
    while off.size:
        exp10[off] += np.where(n[off] < 10**16, -1, 1)
        n[off] = _rounded_scaled(v[off], 16 - exp10[off])
        off = off[(n[off] < 10**16) | (n[off] >= 10**17)]
    top = n // 10**15
    n -= top * 10**15
    b = n // 10**7  # digits 2-9
    n -= b * 10**7  # digits 10-16
    a = b // 10**4
    b -= a * 10**4
    c = n // 1000
    n -= c * 1000
    top -= 100 * exp10
    # a digit group is stripped where every digit after it is zero
    last = np.flatnonzero(n == 0)
    for group in (c, b, a):
        group[last] += 10_000
        last = last[group[last] == 10_000]
    top[last] += 500
    heads, quads, triples, _ = _digit_tables()
    words = np.empty((len(x), 3), dtype="<u8")
    halves = words.view("<u4")
    words[:, 0] = np.take(heads, top)
    del top
    for column, group in enumerate((a, b, c), 2):
        halves[:, column] = np.take(quads, group)
    halves[:, 5] = np.take(triples, n)
    for r in slow:
        words[r] = np.frombuffer(format(float(x[r]), ".17g").encode().ljust(24, b"\0"),
                                 dtype="<u8")
    return words
