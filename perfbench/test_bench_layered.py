"""Smoke test of the layered benchmark, collected by tier-1.

Runs ``bench.py --smoke`` once (all four workloads at ``tiny`` scale,
untraced then traced) and checks the report's shape, the trace's
arithmetic and that nothing is left behind.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import bench, metrics, stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def smoke() -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )


def test_smoke_prints_every_metric_with_its_unit(smoke):
    assert smoke.returncode == 0, smoke.stdout + smoke.stderr
    printed = {}
    for line in smoke.stdout.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        workload, name, value, unit = line.split()[:4]
        printed[workload, name] = (value, unit)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    reach = {name: where for name, _, _, where in bench.per_layer_table()}
    for workload in (w["name"] for w in manifest["workloads"]):
        assert NAME.fullmatch(workload)
        for metric in manifest["end_to_end"]:
            value, unit = printed[workload, metric["name"]]
            assert float(value) > 0 and unit == metric["unit"]
        for metric in manifest["per_layer"]:
            assert NAME.fullmatch(metric["name"]) and UNIT.fullmatch(metric["unit"])
            value, unit = printed[workload, metric["name"]]
            assert unit == metric["unit"]
            # write-md at smoke size runs three experiments, not all
            if workload not in reach[metric["name"]]:
                assert value == "n/a"
            elif workload != metrics.WRITEUP:
                float(value)
        assert printed[workload, "failed_ratio"] == ("0", "ratio")
    for name, unit, _ in metrics.SERVICE_END_TO_END:
        assert printed[metrics.SERVICE, name][1] == unit
    for workload in metrics.BATCH:
        assert (workload, "pair_steps_per_s") in printed
    assert "# facts" in smoke.stdout


def test_manifest_is_generated_from_the_metrics_module():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = json.loads((HERE / "bounds.json").read_text())
    generated = bench.manifest(bounds)
    # An experiment registered since the manifest was written shows in
    # the report at once and in the manifest at the next --calibrate.
    per_experiment = [
        m for m in generated["per_layer"]
        if m["name"].startswith(metrics.EXPERIMENT_PREFIX)
        and m not in manifest["per_layer"]
    ]
    for added in per_experiment:
        generated["per_layer"].remove(added)
    assert manifest == generated
    for workload in metrics.WORKLOADS:
        assert sorted(bounds[workload]) == sorted(bench.bounded_metrics(workload))
    assert all(
        0 < m["bound"] <= bench.BOUND_CAP for m in manifest["end_to_end"]
    )
    assert len(manifest["per_layer"]) <= 128
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    assert set(json.loads((HERE / "digests.json").read_text())) == set(
        metrics.WORKLOADS
    )


def test_span_self_times_never_exceed_their_parent(smoke):
    traces = sorted((HERE / "out").glob("trace-*.json"))
    assert {t.stem.removeprefix("trace-") for t in traces} >= set(metrics.WORKLOADS)
    for path in traces:
        spans = {s["id"]: s for s in json.loads(path.read_text())["spans"]}
        children: dict[int, float] = {}
        for span in spans.values():
            duration = span["end"] - span["start"]
            assert -1e-9 <= span["self"] <= duration + 1e-9
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
                children[span["parent"]] = children.get(span["parent"], 0) + duration
        for parent_id, covered in children.items():
            parent = spans[parent_id]
            assert covered <= parent["end"] - parent["start"] + 1e-9


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    expected = {19: None, 20: 50, 39: 50, 40: 75, 100: 90, 200: 95, 1000: 99,
                9999: 99, 10000: 99.9}
    for count, q in expected.items():
        assert stats.tail_percentile(count) == q
    summary = stats.summarize(list(range(1, 101)))
    assert (summary["n"], summary["p50"], summary["tail_q"]) == (100, 50.5, 90)
    assert stats.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(1.0)


def test_nothing_is_left_behind(smoke):
    assert not list((HERE / "out").glob("work-*"))
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            argv = cmdline.read_bytes().decode(errors="replace").split("\0")
        except OSError:
            continue  # the process ended while we looked
        leaked = "repro.experiments" in argv and any(
            "perfbench/out/work-" in arg for arg in argv
        )
        assert not leaked, f"still running: {argv}"
    shm = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_shm.py")],
        capture_output=True, text=True,
    )
    assert shm.returncode == 0, shm.stderr
