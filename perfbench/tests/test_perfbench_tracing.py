"""Tracer bookkeeping and the benchmark's declared metrics."""

import json
import sys
from pathlib import Path

import pytest

import tracing
import workloads

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_self_time_subtracts_direct_children():
    spans = []
    for sid, parent, start, end in ((0, None, 0.0, 10.0), (1, 0, 1.0, 4.0),
                                    (2, 1, 2.0, 3.0), (3, 0, 5.0, 6.0)):
        s = tracing.Span(sid, 1, 0, parent, f"s{sid}", start)
        s.end = end
        spans.append(s)
    assert tracing.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_install_rebinds_every_copy_and_uninstall_restores_them():
    import hypsurf.boundary
    import hypsurf.cli
    import hypsurf.disk
    import hypsurf.groups

    before = (hypsurf.cli.induced_boundary_sample, hypsurf.groups.attracting_angle,
              hypsurf.boundary.attracting_angle, hypsurf.disk.MobiusIsometry.compose)
    with tracing.Tracer():
        assert hypsurf.cli.induced_boundary_sample is not before[0]
        assert hypsurf.groups.attracting_angle is hypsurf.boundary.attracting_angle
        assert hypsurf.boundary.attracting_angle is not before[2]
    after = (hypsurf.cli.induced_boundary_sample, hypsurf.groups.attracting_angle,
             hypsurf.boundary.attracting_angle, hypsurf.disk.MobiusIsometry.compose)
    assert after == before


def test_check_identity_samples_twice_per_invocation(tmp_path, capsys):
    import hypsurf.cli

    tracer = tracing.Tracer()
    with tracer:
        for _ in range(2):
            assert hypsurf.cli.main(["boundary-map", "--group", "cusped-torus", "--aut",
                                     "A=AB,B=B", "--n", "4", "--check-identity"]) == 0
    capsys.readouterr()
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    spans, counts = tracing.read_spans(path)
    m = tracing.round_metrics(spans, counts, 0)
    assert m["cli.invocations"] == 2
    assert m["boundary.sample_calls"] == 4
    assert m["boundary.classes"] > 0 and m["groups.attracting_angle_calls"] > 0
    assert m["disk.compose_calls"] > 0 and m["groups.evaluate_calls"] > 0
    assert m["groups.limit_sample_calls"] == 0
    assert {s.trace for s in spans} == {1, 2}
    assert all(v >= 0 for k, v in m.items() if k.endswith("_s"))
    assert set(m) | {"trace.items_per_s"} == set(tracing.METRICS)


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _moves) in tracing.METRICS.items()}
    assert {m["name"] for m in spec["end_to_end"]} == {"items_per_s", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_run_refuses_a_directory_without_the_program(tmp_path, workload):
    import shutil
    import subprocess

    bench = Path(__file__).resolve().parents[1]
    shutil.copytree(bench, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
