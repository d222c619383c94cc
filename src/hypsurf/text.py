"""Text of every output: JSON and CSV with floats at 17 significant digits.

Small payloads (verdicts, signatures, pants, script tables) go through
`dump_json`, one general path for every value.  A plan's JSON is one
fixed layout filled by `plan_json` from the plan's index columns, with
each distinct cuff formatted once.  A sample's CSV and JSON are rows of
one fixed layout each, rendered by `_rows` from the sample's arrays: one
NUL-padded uint8 matrix per `pool.BLOCK_ROWS` rows, whose other bytes
are the text.  The blocks are rendered on the worker threads of
`pool.ordered_map`, one worker per available CPU, and come back in order,
so the text is the same at any number of workers.
Every way a float is exactly `format(x, ".17g")` and a word exactly
`GroupWord.__str__`, and JSON text is what `json.dumps` writes for the
same values with these floats and no spaces.

The sample renderers return their text as chunks whose concatenation is
the whole text, without its final newline, so a caller that writes the
chunks as they come never holds the whole text.
"""

from __future__ import annotations

import functools
import itertools
import math
from json.encoder import encode_basestring_ascii
from typing import Iterator

import numpy as np

from hypsurf import pool
from hypsurf.errors import InvalidInput
from hypsurf.pants import GLUING_TWIST, MetricSummary, PantsDecompositionPlan, slot_names


# ---------------------------------------------------------------------------
# small payloads


def format_float(x: float) -> str:
    return format(x, ".17g")


def dump_json(obj) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    out: list[str] = []
    _write_json(obj, out)
    return "".join(out)


def _write_json(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise InvalidInput("non-finite float has no JSON encoding here")
        out.append(format_float(obj))
    elif isinstance(obj, str):
        # json.dumps of a str returns exactly this
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _write_json(v, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(encode_basestring_ascii(str(k)))
            out.append(":")
            _write_json(v, out)
        out.append("}")
    else:
        raise InvalidInput(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# plans, in one pass


def plan_json(plan: PantsDecompositionPlan, summary: MetricSummary) -> str:
    """`{"pants":[...],"gluings":[...],"crosscaps":[...],"boundary":[...],
    "cusps":[...],"summary":{...}}` of a plan and `summary = realize(plan)`,
    rendered from the plan's columns: the cuffs are formatted once, each
    distinct value once, and a gluing's, crosscap's or boundary slot's
    length is the text of its own cuff.  Of the summary only the area and
    the pants count are read.  A non-finite float raises InvalidInput
    here, before any text."""
    texts = _distinct_float_texts(list(itertools.chain.from_iterable(plan.pants)))
    area = _float_texts([summary.total_area])[0]
    names = [f'"{name}"' for name in slot_names(len(plan.pants))]
    twist = format_float(GLUING_TWIST)
    cuffs = iter(texts)
    pants = [f'{{"id":"p{i}","cuff_lengths":[{a},{b},{c}]}}'
             for i, (a, b, c) in enumerate(zip(cuffs, cuffs, cuffs))]
    gluings = [f'{{"from":{names[i]},"to":{names[j]},"length":{texts[i]},"twist":{twist}}}'
               for i, j in plan.gluings]
    crosscaps = [f'{{"slot":{names[i]},"length":{texts[i]}}}' for i in plan.crosscaps]
    boundary = [f'{{"slot":{names[i]},"length":{texts[i]}}}' for i in plan.boundary]
    cusps = [names[i] for i in plan.cusps]
    cuff_map = map(":".join, zip(names, texts))
    return (f'{{"pants":[{",".join(pants)}],"gluings":[{",".join(gluings)}],'
            f'"crosscaps":[{",".join(crosscaps)}],"boundary":[{",".join(boundary)}],'
            f'"cusps":[{",".join(cusps)}],"summary":{{"total_area":{area},'
            f'"pants_count":{summary.pants_count:d},"cuff_lengths":{{{",".join(cuff_map)}}}}}}}')


def _distinct_float_texts(values: list[float]) -> list[str]:
    """`format_float` of each value, each distinct value formatted once, so
    0.0 and -0.0 share one text; raises InvalidInput on a non-finite one."""
    distinct = dict.fromkeys(values)
    memo = dict(zip(distinct, _float_texts(distinct)))
    return list(map(memo.__getitem__, values))


def _float_texts(values) -> list[str]:
    """`format_float` of each value; raises InvalidInput on a non-finite one."""
    texts = list(map(format, values, itertools.repeat(".17g")))
    # of all %.17g renderings only nan, inf and -inf contain an "n"
    if "n" in "".join(texts):
        raise InvalidInput("non-finite float has no JSON encoding here")
    return texts


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

    def block(i: int) -> str:
        j = min(i + step, count)
        cells = [np.frombuffer(f.encode(), dtype=np.uint8) if isinstance(f, str)
                 else letter_text(f[i:j]) if f.ndim == 2
                 else np.asarray(f[i:j], dtype=np.float64)
                 for f in fields]
        # a float field is 24 columns: no %.17g text is longer
        widths = [24 if c.dtype == np.float64 else c.shape[-1] for c in cells]
        text = np.zeros((j - i, sum(widths) + len(end_bytes)), dtype=np.uint8)
        start = 0
        for cell, width in zip(cells, widths):
            if cell.dtype == np.float64:
                _float_text(cell, text[:, start:start + width])
            else:
                text[:, start:start + width] = cell
            start += width
        text[:, start:] = end_bytes
        if j == count:
            text[-1, start:] = 0  # no separator after the last row
        return text[text != 0].tobytes().decode("ascii")

    return pool.ordered_map(block, range(0, count, step))


# ---------------------------------------------------------------------------
# words


@functools.cache
def _letter_ascii_table() -> np.ndarray:
    # indexed by the letter's int8 bit pattern read as uint8, so -k sits
    # at 256 - k; 0 (padding) and letters beyond 26 map to NUL
    table = np.zeros(256, dtype=np.uint8)
    for k in range(1, 27):
        table[k] = ord("A") + k - 1
        table[256 - k] = ord("a") + k - 1
    table.flags.writeable = False
    return table


def letter_text(letters: np.ndarray) -> np.ndarray:
    """The rows of a zero-padded int8 letter matrix as `GroupWord.__str__`
    writes them ("1" for an empty row), as a NUL-padded uint8 ASCII matrix
    at least one column wide."""
    letters = np.asarray(letters)
    if np.any((letters > 26) | (letters < -26)):
        raise InvalidInput("string form supports at most 26 generators")
    letters = letters.astype(np.int8, copy=False)
    if letters.shape[1] == 0:
        letters = np.zeros((len(letters), 1), dtype=np.int8)
    text = _letter_ascii_table()[letters.view(np.uint8)]
    text[letters[:, 0] == 0, 0] = ord("1")
    return text


# ---------------------------------------------------------------------------
# floats


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the four digits of q as one uint32 (item 10_000 + q: trailing zeros
    # as NUL); as 7 bytes the text through the first digit D at exponent
    # d = 0 (item D, or 10 + D with a point after it) or d < 0 (item
    # 10 * (1 - d) + D); and 10**k for k <= 22, exact doubles
    quads = [f"{q:04d}" for q in range(10_000)]
    quads += [q.rstrip("0").ljust(4, "\0") for q in quads]
    heads = ["{}", "{}."] + ["0." + "0" * zeros + "{}" for zeros in range(4)]
    heads = [head.format(lead).ljust(7, "\0") for head in heads for lead in range(10)]
    return (np.frombuffer("".join(quads).encode(), dtype=np.uint32),
            np.frombuffer("".join(heads).encode(), dtype="V7"),
            np.array([float(10**k) for k in range(23)]))


def _rounded_scaled(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round(x * 10**k) half to even, where that lies in [2**53, 2**63)."""
    scale = _digit_tables()[2][k]
    p = x * scale
    # Dekker: split each factor into 26-bit halves, then p + e = x * scale
    t, u = 134217729.0 * x, 134217729.0 * scale  # 2**27 + 1
    xh, sh = t - (t - x), u - (u - scale)
    xl, sl = x - xh, scale - sh
    e = ((xh * sh - p) + xh * sl + xl * sh) + xl * sl
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _float_text(x: np.ndarray, text: np.ndarray) -> None:
    """Write `format(v, ".17g")` of each v in x, NUL-padded, into the rows
    of a 24-column uint8 matrix of zeros.

    For 1e-4 <= x < 8 the digits are exact.  With d = floor(log10 x), 10**k
    for k = 16 - d is an exact double, and Dekker's product gives
    x * 10**k = p + e exactly.  When N = round(x * 10**k) has 17 digits,
    p >= 2**53 is even, so N = p + rint(e), rounded half to even as
    `%.17g` rounds; where N falls outside [10**16, 10**17), d moves by one
    and N is taken again.  (With d one too large, N lands in range only for
    x within a relative 5e-17 below a power of ten; no double here is.)
    Zero, exponent forms, x >= 8, negative and non-finite values go
    through `format` itself.
    """
    fast = (x >= 1e-4) & (x < 8.0)
    v = np.where(fast, x, 1.0)
    exp10 = np.floor(np.log10(v)).astype(np.intp)
    n = _rounded_scaled(v, 16 - exp10)
    redo = np.flatnonzero((n < 10**16) | (n >= 10**17))
    while redo.size:
        exp10[redo] += np.where(n[redo] < 10**16, -1, 1)
        n[redo] = _rounded_scaled(v[redo], 16 - exp10[redo])
        redo = redo[(n[redo] < 10**16) | (n[redo] >= 10**17)]
    lead, rest = np.divmod(n, 10**16)
    quads = np.divmod(rest // 10**8, 10**4) + np.divmod(rest % 10**8, 10**4)
    digits, heads, _ = _digit_tables()
    head = np.take(heads, 10 * np.where(exp10 < 0, 1 - exp10, rest != 0) + lead)
    text[:, :7] = head.view(np.uint8).reshape(-1, 7)
    strip = np.full(len(x), 10_000)  # until a nonzero quad, from the right
    for q in (3, 2, 1, 0):
        text[:, 7 + 4 * q:11 + 4 * q] = digits[quads[q] + strip].view(np.uint8).reshape(-1, 4)
        strip[quads[q] != 0] = 0
    for r in np.flatnonzero(~fast):
        text[r] = list(format(float(x[r]), ".17g").encode().ljust(24, b"\0"))
