"""JSON text of the small payloads and of plans, with floats at 17
significant digits, in pure Python.

Small payloads (verdicts, signatures, pants, script tables) go through
`dump_json`, one general path for every value.  A plan's JSON is one
fixed layout filled by `plan_json` from the plan's index columns, with
each distinct cuff formatted once.  Every float is exactly
`format(x, ".17g")`, and the text is what `json.dumps` writes for the
same values with these floats and no spaces.

This module imports no numpy, so the signature and pants subcommands of
`cli` run without it; a sample's CSV and JSON are rendered by `text`.
"""

from __future__ import annotations

import itertools
from json.encoder import encode_basestring_ascii

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
        out.append(_float_texts((obj,))[0])
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
