"""The three benchmark workloads: inputs made from a seed, one pass, exactness checks.

Each workload object is built by set-up, runs one pass with ``run()`` and
checks that pass's output with ``check()``.  ``run`` returns the exit
status and the output bytes; ``check`` returns the number of ops in the
pass and one message per failed op.  An op is one tree (``tables``,
``verify``) or one witness query (``witness``).

Set-up imports treeiso afresh each time it runs, so each object keeps the
modules it imported and looks functions up on them at call time, which is
where tracing replaces them.
"""
from __future__ import annotations

import csv
import io
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
TABLES_REF = os.path.join(HERE, "tables_ref.json")
ORACLE_LIMIT = 20  # the verify command's default --oracle-limit
MANDATORY = ("flux_conservation", "cut_count_bound", "edge_peak_lb", "prefix_dominance", "sandwich")


class Tables:
    """``treeiso paper-tables``: the complete t-ary sweep; the seed is unused."""

    def __init__(self, seed: int, small: bool, work: str):
        from treeiso import cli

        self.cli = cli
        self.cap = 200 if small else 5_000
        with open(TABLES_REF, encoding="utf-8") as fh:
            self.expected = [row for row in json.load(fh) if row["n"] <= self.cap]
        self.out = os.path.join(work, "tables.csv")

    @property
    def ops(self) -> int:
        return len(self.expected)

    def run(self):
        status = self.cli.main(["paper-tables", "--dp-cap", str(self.cap), "--out", self.out])
        return status, _read(self.out)

    def check(self, status: int, output: bytes):
        if status != 0:
            return self.ops, [f"exit status {status}"] * self.ops
        rows = {(int(r["t"]), int(r["d"])): r for r in csv.DictReader(io.StringIO(output.decode()))}
        failures = []
        for ref in self.expected:
            got = rows.pop((ref["t"], ref["d"]), None)
            if got is None:
                failures.append(f"t={ref['t']} d={ref['d']}: row missing")
                continue
            bad = [k for k in ("n", "edge_peak", "vertex_peak", "p") if int(got[k]) != ref[k]]
            bad += [k for k in ("p_le_edge_peak", "cut_count_bound_ok") if got[k] != "True"]
            if bad:
                failures.append(f"t={ref['t']} d={ref['d']}: wrong {', '.join(bad)}")
        failures += [f"t={t} d={d}: unexpected row" for t, d in rows]
        return self.ops + len(rows), failures


class Verify:
    """``treeiso verify`` over a seeded corpus of tree files in both formats.

    Sizes follow a fixed schedule and the seed draws only the shapes, so the
    work per pass barely depends on the seed: 60 % random trees with
    n = 10..17 (the oracle runs on them), 40 % random trees with n spread
    over 50..400, and a few stars, paths and caterpillars.
    """

    def __init__(self, seed: int, small: bool, work: str):
        from treeiso import cli
        from treeiso.tree import generate_tree, serialize_tree

        self.cli = cli
        count = 20 if small else 150
        n_small = count * 6 // 10
        lo, hi = (20, 40) if small else (50, 400)
        specials = [("star", {"n": 60}), ("path", {"n": 100}), ("caterpillar", {"spine": 30, "legs": 3})]
        if not small:
            specials += [("star", {"n": 200}), ("path", {"n": 300}), ("caterpillar", {"spine": 60, "legs": 4})]
        n_large = count - n_small - len(specials)
        kinds = ("random_recursive", "random_prufer")
        specs = [(kinds[k % 2], {"n": 10 + k % 8}) for k in range(n_small)]
        specs += [(kinds[k % 2], {"n": lo + (hi - lo) * k // (n_large - 1)}) for k in range(n_large)]
        specs += specials
        rng = random.Random(seed)
        self.seed = seed
        self.files = []
        self.sizes = []
        self.texts = []
        for k, (kind, params) in enumerate(specs):
            tree = generate_tree(kind, params, seed=rng.getrandbits(32))
            fmt, ext = ("json", "json") if k % 2 == 0 else ("parent-list", "txt")
            self.files.append(os.path.join(work, f"tree{k:04d}.{ext}"))
            self.texts.append(serialize_tree(tree, fmt))
            self.sizes.append(tree.n)
        self.out = os.path.join(work, "verify.json")

    def write_inputs(self):
        """Write the tree files.  Not part of the timed set-up: the disk of a
        shared host varies far more than the program's work does."""
        for path, text in zip(self.files, self.texts):
            with open(path, "wb") as fh:
                fh.write(text)

    @property
    def ops(self) -> int:
        return len(self.files)

    def run(self):
        status = self.cli.main(["verify", *self.files, "--seed", str(self.seed), "--out", self.out])
        return status, _read(self.out)

    def check(self, status: int, output: bytes):
        if status != 0:
            return self.ops, [f"exit status {status}"] * self.ops
        reports = {r["tree"]["path"]: r for r in json.loads(output)["reports"]}
        failures = []
        for path, n in zip(self.files, self.sizes):
            report = reports.pop(path, None)
            if report is None:
                failures.append(f"{path}: no report")
                continue
            verdicts = {v["name"].partition(":")[0]: v["pass"] for v in report["verdicts"]}
            needed = MANDATORY + (("oracle",) if n <= ORACLE_LIMIT else ())
            problems = [f"n={report['tree']['n']}, expected {n}"] if report["tree"]["n"] != n else []
            problems += [f"{name} missing" for name in needed if name not in verdicts]
            problems += [f"{name} failed" for name, ok in verdicts.items() if not ok]
            if problems or not report["pass"]:
                failures.append(f"{path}: {'; '.join(problems) or 'report fails'}")
        failures += [f"{path}: unexpected report" for path in reports]
        return self.ops + len(reports), failures


class Witness:
    """``witness_subset`` in both modes at i = n/4, n/2, 3n/4 on four trees of n = 2000."""

    def __init__(self, seed: int, small: bool, work: str):
        from treeiso import profile
        from treeiso.tree import generate_tree

        self.profile = profile
        n = 40 if small else 2000
        rng = random.Random(seed)
        self.trees = [
            generate_tree("path", {"n": n}),
            generate_tree("caterpillar", {"spine": n // 5, "legs": 4}),
            generate_tree("random_recursive", {"n": n}, seed=rng.getrandbits(32)),
            generate_tree("random_prufer", {"n": n}, seed=rng.getrandbits(32)),
        ]
        self.queries = [
            (k, i, mode)
            for k, tree in enumerate(self.trees)
            for i in (tree.n // 4, tree.n // 2, 3 * tree.n // 4)
            for mode in ("edge", "vertex")
        ]
        self.expected = None  # profile values per tree, computed at the first check

    @property
    def ops(self) -> int:
        return len(self.queries)

    def run(self):
        subsets = []
        for k, i, mode in self.queries:
            try:
                subsets.append(sorted(self.profile.witness_subset(self.trees[k], i, mode)))
            except Exception as exc:  # a raising query is a failed op, not a stopped run
                subsets.append(f"{type(exc).__name__}: {exc}")
        return 0, json.dumps(subsets).encode()

    def check(self, status: int, output: bytes):
        if self.expected is None:
            self.expected = [self.profile.compute_profile(tree) for tree in self.trees]
        boundary = {
            "edge": self.profile.edge_boundary_size,
            "vertex": self.profile.vertex_boundary_size,
        }
        failures = []
        for (k, i, mode), subset in zip(self.queries, json.loads(output)):
            label = f"tree {k} i={i} {mode}"
            if isinstance(subset, str):
                failures.append(f"{label}: raised {subset}")
                continue
            profile = self.expected[k]
            want = (profile.edge_values if mode == "edge" else profile.vertex_values)[i - 1]
            if len(set(subset)) != i:
                failures.append(f"{label}: |S| = {len(set(subset))}")
                continue
            got = boundary[mode](self.trees[k], subset)
            if got != want:
                failures.append(f"{label}: boundary {got} != {want}")
        return self.ops, failures


WORKLOADS = {"tables": Tables, "verify": Verify, "witness": Witness}


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()
