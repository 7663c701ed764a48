"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root:  python3 -m pytest bench -q
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
from time import perf_counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def test_benchmark_json_lists_the_workloads():
    assert sorted(_declared("workloads")) == NAMES


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run(name, trace):
    result, record = run.measure(name, seed=5, seconds=0, trace=trace, small=True)
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == _declared("per_layer" if trace else "end_to_end")
    if trace:
        # The traced pass's self times and the leftover add up to its time.
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        accounted = sum(metrics[k] for k in spans.SELF_TIME_METRICS) + metrics["trace.unattributed_s"]
        assert accounted == pytest.approx(metrics["trace.pass_s"], abs=1e-9)
        assert record["spans"]


@pytest.mark.parametrize("name", NAMES)
def test_tracing_leaves_output_bytes_unchanged(name, tmp_path):
    wl, _ = run._setup(workloads.WORKLOADS[name], 7, True, str(tmp_path))
    plain = wl.run()
    tracer = spans.Tracer()
    traced = tracer.run_pass(wl.run)
    assert traced == plain
    assert len(tracer.spans) > 1
    assert wl.run() == plain  # the original functions are back in place


def _corrupt(name, wl):
    if name == "tables":
        wl.expected[-1]["edge_peak"] += 1
    elif name == "verify":
        wl.sizes[0] += 1
    else:
        k, i, mode = wl.queries[0]
        values = list(wl.expected[k].edge_values)
        values[i - 1] += 1
        wl.expected[k] = dataclasses.replace(wl.expected[k], edge_values=tuple(values))


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_reference_is_a_failed_op(name, tmp_path):
    wl, _ = run._setup(workloads.WORKLOADS[name], 7, True, str(tmp_path))
    status, output = wl.run()
    ops, failures = wl.check(status, output)
    assert ops == wl.ops and failures == []
    _corrupt(name, wl)
    assert len(wl.check(status, output)[1]) == 1


def test_failed_ops_are_counted_not_fatal(tmp_path, monkeypatch):
    with open(workloads.TABLES_REF, encoding="utf-8") as fh:
        rows = json.load(fh)
    rows[0]["p"] += 1
    bad_ref = tmp_path / "ref.json"
    bad_ref.write_text(json.dumps(rows))
    monkeypatch.setattr(workloads, "TABLES_REF", str(bad_ref))
    result, record = run.measure("tables", seed=1, seconds=0, trace=False, small=True)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] > 1
    assert record["failures"] == ["t=2 d=2: wrong p"]


def test_wrong_exit_status_fails_every_op(tmp_path):
    wl, _ = run._setup(workloads.Verify, 7, True, str(tmp_path))
    status, output = wl.run()
    assert wl.check(1, output) == (wl.ops, ["exit status 1"] * wl.ops)


def test_sampler_takes_its_probes_out_of_the_time():
    def busy(seconds):
        end = perf_counter() + seconds
        while perf_counter() < end:
            pass
        return "done"

    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    start = perf_counter()
    result, seconds = sampler.timed(busy, 0.1)
    elapsed = perf_counter() - start
    assert result == "done"
    assert len(sampler.probes) >= 5
    assert seconds == pytest.approx(elapsed - sum(sampler.probes), abs=0.005)
    assert signal.getsignal(signal.SIGALRM) is before
    assert sampler.at_reference(seconds) == pytest.approx(
        seconds * speed.REFERENCE_PROBE_S / (sum(sampler.probes) / len(sampler.probes)))


def test_probes_count_in_no_layer():
    tracer = spans.Tracer()
    tracer._stack.append(0)
    tracer.spans.append([spans.ROOT, 0.0, 1.0, None, None, ()])
    tracer.on_probe(0.25)
    assert tracer.self_times()["bench.self_s"] == pytest.approx(0.75)


def test_dp_cells_replays_the_merge_schedule():
    from treeiso.tree import generate_tree

    # Path 0-1-2: merging 2 into 1 touches 2*2 cells, then 1 into 0 touches 2*3.
    assert spans.dp_cells(generate_tree("path", {"n": 3})) == 10
    # Star with two leaves: 2*2 cells, then 3*2.
    assert spans.dp_cells(generate_tree("star", {"n": 3})) == 10
    assert spans.dp_cells(generate_tree("path", {"n": 1})) == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
