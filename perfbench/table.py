"""Print the per-layer table from the spans a traced run wrote.

    python3 perfbench/table.py

Reads ./.perfbench_out/<workload>/spans.jsonl (written by
``run.py --trace 1``) for every workload that has one.  When the same
checkout also holds an untraced result of the workload, the tracing
overhead is printed as the untraced minus the traced items_per_s.
"""

from __future__ import annotations

import json
import sys

import tracing
import workloads
from workloads import OUT


def layer_metrics(name: str) -> dict[str, float]:
    """Per-layer metrics of a traced run, medians over its rounds, read
    back from its spans file (trace.items_per_s excluded)."""
    spans, counts = tracing.read_spans(OUT / name / "spans.jsonl")
    rounds = sorted({s.round for s in spans})
    return tracing.median_metrics([tracing.round_metrics(spans, counts, k) for k in rounds])


def table_for(name: str) -> str:
    if not (OUT / name / "spans.jsonl").is_file():
        return f"{name}: no spans; run perfbench/run.py --workload {name} --trace 1 first"
    layer = layer_metrics(name)
    traced = OUT / name / "result-trace1.json"
    if not traced.is_file():
        return tracing.format_table(layer, name)
    metrics = json.loads(traced.read_text())["metrics"]
    layer["trace.items_per_s"] = metrics["trace.items_per_s"]["value"]
    return tracing.format_table(layer, name, tracing.untraced_rate(OUT / name))


def main() -> int:
    if len(sys.argv) > 1:
        raise SystemExit(__doc__)
    for name in workloads.WORKLOADS:
        print(table_for(name))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
