"""Benchmark of treeiso: one workload, run for a fixed time, every output checked.

Run from the repository root:

    python3 bench/run.py --workload tables|verify|witness --seed N --seconds S --trace 0|1

The workload runs in this process as a closed loop with one caller: a pass
starts when the previous one has finished and been checked, until S
seconds have gone by, and set-up is repeated between passes.  Every pass
and set-up is timed while speed.py samples the host's speed, and its time
is reported at a fixed reference speed.  With ``--trace 0`` the last line
of standard output is the result with the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` untraced and traced passes alternate,
one more untimed pass takes tracemalloc peaks, and the result holds the
per-layer metrics.  The line before the result records the machine.  Full
records, and the spans of a traced run, go to ``bench/_out/``.  See
bench/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter

from spans import Tracer, run_peak_pass
from speed import REFERENCE_PROBE_S, Sampler
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "treeiso", "__init__.py")):
        print(f"error: no treeiso sources under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import numpy  # noqa: F401  imported once per process, before set-up is timed

    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    spans = record.pop("spans")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["pass", "name", "start", "end", "parent", "op"], "spans": spans}, fh)
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def measure(workload: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """Set up, run passes for `seconds`, check each, and gather the metrics.

    Returns (result line, full record).  `small` shrinks the inputs for
    quick tests of the benchmark itself.
    """
    cls = WORKLOADS[workload]
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT)
    try:
        wl, first_setup = _setup(cls, seed, small, work)
        setups = [first_setup]
        tally = Tally(wl)
        plain, traced, layer_runs, spans = [], [], [], []
        start = perf_counter()
        while perf_counter() - start < seconds or not plain or (trace and not traced):
            if trace and len(traced) < len(plain):
                tracer = Tracer()
                timing = tally.run_pass(lambda: tracer.run_pass(wl.run), tracer.on_probe)
                selfs = tracer.self_times()
                layer_runs.append({
                    **selfs,
                    **tracer.counters(),
                    "trace.pass_s": timing["wall_s"],
                    "trace.unattributed_s": timing["wall_s"] - sum(selfs.values()),
                })
                spans.extend(tracer.export(len(traced)))
                traced.append(timing)
            else:
                plain.append(tally.run_pass(wl.run))
            # Set-up again between passes, so that its samples span the run.
            setups.append(_setup(cls, seed, small, work, keep=False)[1])

        run_s = median_of(plain, "ref_s")
        if trace:
            peaks = {}

            def peak_pass():
                output, found = run_peak_pass(wl.run)
                peaks.update(found)
                return output

            tally.run_pass(peak_pass)
            # Layer figures come from one traced pass, the one of median length,
            # so that they add up to its time.
            metrics = sorted(layer_runs, key=lambda run: run["trace.pass_s"])[len(layer_runs) // 2]
            dp_s = metrics["profile.edge_dp_s"] + metrics["profile.vertex_dp_s"]
            metrics["profile.dp_cells_per_s"] = metrics["profile.dp_cells"] / dp_s if dp_s else 0.0
            metrics["trace.run_s"] = median_of(traced, "ref_s")
            metrics["trace.overhead_s"] = metrics["trace.run_s"] - run_s
            metrics["bench.wall_run_s"] = median_of(plain, "wall_s")
            metrics["bench.probe_s"] = median_of(plain, "probe_s")
            metrics.update(peaks)
        else:
            metrics = {
                "run_s": run_s,
                "setup_s": median_of(setups, "ref_s"),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = _declared_metrics("per_layer" if trace else "end_to_end")
    if set(declared) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(declared)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": environment(),
        "reference_probe_s": REFERENCE_PROBE_S,
        "setups": setups,
        "passes": {"plain": plain, "traced": traced},
        "failures": tally.failures[:100],
        "result": result,
        "spans": spans,
    }
    return result, record


def median_of(timings: list, key: str) -> float:
    return statistics.median(t[key] for t in timings)


class Tally:
    """Runs and checks passes of one workload; counts ops and failed ops."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.first_output = None

    def run_pass(self, run, on_probe=None) -> dict:
        """Time one pass of run() while sampling the host's speed, then check its output.

        Returns the pass's timing (see `_timing`); `on_probe` is told the
        length of each probe.  A pass that raises fails all its ops, and so
        does one whose output bytes differ from the first pass's: passes,
        traced or not, must emit identical bytes.
        """
        wl = self.wl

        def guarded():
            try:
                return run()
            except Exception:
                traceback.print_exc()
                return None, None

        gc.collect()
        sampler = Sampler(on_probe)
        (status, output), seconds = sampler.timed(guarded)
        if output is None:
            ops, failures = wl.ops, ["pass raised"] * wl.ops
        else:
            try:
                ops, failures = wl.check(status, output)
            except Exception:
                traceback.print_exc()
                ops, failures = wl.ops, ["check raised"] * wl.ops
            if self.first_output is None:
                self.first_output = output
            elif output != self.first_output:
                failures = ["output bytes differ from the first pass"] * ops
        self.attempted += ops
        self.failed += len(failures)
        self.failures += failures
        for message in failures[:5]:
            print(f"failed op: {message}", file=sys.stderr)
        return _timing(sampler, seconds)


def _timing(sampler: Sampler, seconds: float) -> dict:
    """Wall seconds of a block without its probes, the mean probe, and the time at reference speed."""
    return {"wall_s": seconds, "probe_s": sampler.probe_s(), "ref_s": sampler.at_reference(seconds)}


def _setup(cls, seed: int, small: bool, work: str, keep: bool = True):
    """Import treeiso afresh and build the workload's inputs; returns (workload, timing).

    Only the import and the building of the inputs are timed.  With
    keep=True the inputs are then written out, untimed, for the passes.
    With keep=False they are not, and the fresh modules are dropped again,
    so the workload already running keeps the modules that tracing patches.
    """
    def ours(name):
        return name.partition(".")[0] == "treeiso"

    old = {name: sys.modules.pop(name) for name in list(sys.modules) if ours(name)}
    gc.collect()
    sampler = Sampler()
    wl, seconds = sampler.timed(cls, seed, small, work)
    if keep:
        if hasattr(wl, "write_inputs"):
            wl.write_inputs()
    else:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(old)
    return wl, _timing(sampler, seconds)


def _declared_metrics(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def environment() -> dict:
    """The machine and software the run measured; read only, nothing changed."""
    import numpy

    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read_text(os.path.join(index, f)).strip() for f in ("level", "type", "size"))
        label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[label] = size
    cpu_model = next(
        (line.partition(":")[2].strip() for line in _read_text("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        "unknown",
    )
    mem_total = next(
        (line.split()[1] + " kB" for line in _read_text("/proc/meminfo").splitlines()
         if line.startswith("MemTotal:")),
        "unknown",
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "mem_total": mem_total,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": _git_commit(),
    }


def _git_commit():
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    head = _read_text(os.path.join(git, "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    commit = _read_text(os.path.join(git, ref)).strip()
    if commit:
        return commit
    for line in _read_text(os.path.join(git, "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


if __name__ == "__main__":
    sys.exit(main())
