"""Spans around the public functions of each hypsurf module.

`Tracer.install` rebinds the functions listed in `TRACED` wherever a
loaded hypsurf module holds them (``from x import f`` copies the
binding), so the program itself carries no tracing code.  Each call
records a span: id, trace id (one per ``cli.main`` invocation), parent
span, name, start, end and an optional item count.  Spans stay in
memory until the run writes them out.  A span's self time is its
duration minus its children's, and the per-layer metrics below are sums
over the spans of one round.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Optional

#: (module, attribute, item count taken from the result or None)
TRACED: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("cli", "main", None),
    ("words", "enumerate_reduced_words", len),
    ("words", "invert_images", None),
    ("groups", "limit_sample", len),
    ("groups", "attracting_angle", None),
    ("groups", "evaluate", None),
    ("boundary", "conjugacy_class_words", len),
    ("boundary", "induced_boundary_sample", lambda s: s.skipped),
    ("boundary", "is_boundary_identity", None),
    ("boundary", "order_check", None),
    ("pants", "plan_decomposition", lambda p: len(p.pants)),
    ("pants", "realize", None),
    ("signature", "is_standard", None),
    ("signature", "description_from_json", None),
)

#: methods counted without a span: they sit in inner loops
COUNTED: tuple[tuple[str, str, str], ...] = (
    ("disk", "MobiusIsometry", "compose"),
)

#: per-layer metric -> (unit, the end-to-end metric and workload it should move)
METRICS: dict[str, tuple[str, str]] = {
    "words.enumerate_s": ("s", "items_per_s on boundary-verdict"),
    "words.enumerated": ("count", "items_per_s on boundary-verdict"),
    "words.invert_s": ("s", "items_per_s on boundary-verdict"),
    "boundary.classes_s": ("s", "items_per_s on boundary-verdict"),
    "boundary.classes": ("count", "items_per_s on boundary-verdict"),
    "boundary.sample_s": ("s", "items_per_s on boundary-verdict"),
    "boundary.sample_calls": ("count", "items_per_s on boundary-verdict"),
    "boundary.inner_search_s": ("s", "items_per_s on boundary-verdict"),
    "boundary.order_check_s": ("s", "items_per_s on boundary-verdict"),
    "boundary.skipped": ("count", "items_per_s on boundary-verdict"),
    "groups.limit_sample_s": ("s", "items_per_s, peak_rss_mb on limit-dense"),
    "groups.limit_sample_calls": ("count", "items_per_s, peak_rss_mb on limit-dense"),
    "groups.points": ("count", "items_per_s, peak_rss_mb on limit-dense"),
    "groups.attracting_angle_s": ("s", "items_per_s on boundary-verdict"),
    "groups.attracting_angle_calls": ("count", "items_per_s on boundary-verdict"),
    "groups.evaluate_s": ("s", "items_per_s on boundary-verdict"),
    "groups.evaluate_calls": ("count", "items_per_s on boundary-verdict"),
    "disk.compose_calls": ("count", "items_per_s on boundary-verdict (inner search)"),
    "cli.self_s": ("s", "items_per_s on limit-dense; near zero on boundary-verdict"),
    "cli.bytes_written": ("bytes", "items_per_s on limit-dense"),
    "cli.invocations": ("count", "base of the per-invocation ratios"),
    "pants.plan_s": ("s", "items_per_s on pants-ladder"),
    "pants.realize_s": ("s", "items_per_s on pants-ladder"),
    "pants.count": ("count", "items_per_s on pants-ladder"),
    "signature.classify_s": ("s", "items_per_s on pants-ladder"),
    "signature.descriptions": ("count", "items_per_s on pants-ladder"),
    "trace.items_per_s": ("items/s", "untraced items_per_s minus this is the tracing overhead"),
}

#: metric -> (span name, what to sum: "self", "calls" or "items")
_FROM_SPANS: dict[str, tuple[str, str]] = {
    "words.enumerate_s": ("words.enumerate_reduced_words", "self"),
    "words.enumerated": ("words.enumerate_reduced_words", "items"),
    "words.invert_s": ("words.invert_images", "self"),
    "boundary.classes_s": ("boundary.conjugacy_class_words", "self"),
    "boundary.classes": ("boundary.conjugacy_class_words", "items"),
    "boundary.sample_s": ("boundary.induced_boundary_sample", "self"),
    "boundary.sample_calls": ("boundary.induced_boundary_sample", "calls"),
    "boundary.inner_search_s": ("boundary.is_boundary_identity", "self"),
    "boundary.order_check_s": ("boundary.order_check", "self"),
    "boundary.skipped": ("boundary.induced_boundary_sample", "items"),
    "groups.limit_sample_s": ("groups.limit_sample", "self"),
    "groups.limit_sample_calls": ("groups.limit_sample", "calls"),
    "groups.points": ("groups.limit_sample", "items"),
    "groups.attracting_angle_s": ("groups.attracting_angle", "self"),
    "groups.attracting_angle_calls": ("groups.attracting_angle", "calls"),
    "groups.evaluate_s": ("groups.evaluate", "self"),
    "groups.evaluate_calls": ("groups.evaluate", "calls"),
    "cli.self_s": ("cli.main", "self"),
    "cli.bytes_written": ("cli.main", "items"),
    "cli.invocations": ("cli.main", "calls"),
    "pants.plan_s": ("pants.plan_decomposition", "self"),
    "pants.realize_s": ("pants.realize", "self"),
    "pants.count": ("pants.plan_decomposition", "items"),
    "signature.classify_s": ("signature.is_standard", "self"),
    "signature.descriptions": ("signature.description_from_json", "calls"),
}


class Span:
    __slots__ = ("id", "trace", "round", "parent", "name", "start", "end", "items")

    def __init__(self, id, trace, round, parent, name, start):
        self.id = id
        self.trace = trace
        self.round = round
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.items = None

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}

    @classmethod
    def from_json(cls, obj: dict) -> "Span":
        s = cls(obj["id"], obj["trace"], obj["round"], obj["parent"], obj["name"],
                obj["start"])
        s.end = obj["end"]
        s.items = obj["items"]
        return s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, int], int] = defaultdict(int)
        self.round = 0
        self._stack: list[int] = []
        self._traces = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        root = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if root:
                self._traces += 1
            parent = self._stack[-1] if self._stack else None
            trace = self._traces if parent is None else self.spans[parent].trace
            span = Span(len(self.spans), trace, self.round, parent, name, 0.0)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.items = count(result)
            return result

        return traced

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[(name, self.round)] += 1
            return fn(*args, **kwargs)

        return counted

    def annotate_roots(self, rnd: int, items: list[int]) -> None:
        """Attach per-invocation item counts (bytes written) to the
        cli.main spans of a round, in invocation order."""
        roots = [s for s in self.spans if s.round == rnd and s.name == "cli.main"]
        for span, n in zip(roots, items, strict=True):
            span.items = n

    # -- installing -----------------------------------------------------------

    def _rebind(self, orig: object, new: object) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hypsurf" or mod_name.startswith("hypsurf.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def install(self) -> "Tracer":
        for mod_name, attr, count in TRACED:
            mod = importlib.import_module(f"hypsurf.{mod_name}")
            orig = getattr(mod, attr)
            self._rebind(orig, self._wrap(f"{mod_name}.{attr}", orig, count))
        for mod_name, cls_name, attr in COUNTED:
            cls = getattr(importlib.import_module(f"hypsurf.{mod_name}"), cls_name)
            orig = vars(cls)[attr]
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, self._counter(f"{mod_name}.{attr}", orig))
        return self

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output -----------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as JSON lines, then one line of call counts per round."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span.to_json()) + "\n")
            for (name, rnd), n in sorted(self.counts.items()):
                f.write(json.dumps({"count": name, "round": rnd, "calls": n}) + "\n")


def read_spans(path: Path) -> tuple[list[Span], dict[tuple[str, int], int]]:
    spans, counts = [], {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            obj = json.loads(line)
            if "count" in obj:
                counts[(obj["count"], obj["round"])] = obj["calls"]
            else:
                spans.append(Span.from_json(obj))
    return spans, counts


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover (children
    of one span never overlap: the program is single-threaded)."""
    spans = list(spans)
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - child[s.id] for s in spans}


def round_metrics(spans: list[Span], counts: dict[tuple[str, int], int],
                  rnd: int) -> dict[str, float]:
    """Per-layer metrics of one round (trace.items_per_s excluded)."""
    mine = [s for s in spans if s.round == rnd]
    self_s = self_times(mine)
    out: dict[str, float] = {}
    for metric, (name, what) in _FROM_SPANS.items():
        chosen = [s for s in mine if s.name == name]
        if what == "self":
            out[metric] = sum(self_s[s.id] for s in chosen)
        elif what == "calls":
            out[metric] = len(chosen)
        else:
            out[metric] = sum(s.items or 0 for s in chosen)
    for mod_name, _cls, attr in COUNTED:
        out[f"{mod_name}.{attr}_calls"] = counts.get((f"{mod_name}.{attr}", rnd), 0)
    return out


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    """Median over rounds; counts take the lower median so they stay whole."""
    out = {}
    for k in per_round[0]:
        values = [r[k] for r in per_round]
        integral = all(isinstance(v, int) for v in values)
        out[k] = (statistics.median_low if integral else statistics.median)(values)
    return out


def untraced_rate(out_dir: Path) -> Optional[float]:
    """items_per_s of the latest untraced run saved in out_dir, if any."""
    path = out_dir / "result-trace0.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["metrics"]["items_per_s"]["value"]


def format_table(metrics: dict[str, float], workload: str,
                 untraced: Optional[float] = None) -> str:
    """The per-layer table, with the end-to-end metric each row should
    move; with the untraced items_per_s, also the tracing overhead."""
    lines = [f"per-layer metrics, workload {workload} (median over rounds)",
             f"{'metric':32} {'value':>16} {'unit':8} should move"]
    for name, (unit, moves) in METRICS.items():
        v = metrics.get(name)
        text = "-" if v is None else (f"{v:.6f}" if unit in ("s", "items/s") else f"{v:.0f}")
        lines.append(f"{name:32} {text:>16} {unit:8} {moves}")
    calls = metrics.get("cli.invocations") or 0
    if calls and metrics.get("boundary.sample_calls"):
        lines.append(f"boundary.sample_calls per cli invocation: "
                     f"{metrics.get('boundary.sample_calls', 0) / calls:.2f} "
                     f"(base: {calls:.0f} invocations)")
    if untraced is not None:
        traced = metrics["trace.items_per_s"]
        lines.append(f"tracing overhead: {untraced - traced:.1f} items/s "
                     f"({100.0 * (untraced - traced) / untraced:.1f}% of the untraced "
                     f"{untraced:.1f} items/s)")
    return "\n".join(lines)
