"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""
import random
import time

import pytest

from treeiso import (
    brute_force_profiles,
    check_flux_conservation,
    compute_profile,
    count_sizes_with_cut_at_most,
    cut_count_upper_bound,
    derived_parameter_bounds,
    edge_peak_lower_bound,
    emit,
    generate_tree,
    prefix_upper_bounds,
    subtree_weights,
    verify_suite,
)
from treeiso.report import sweep_rows
from helpers import random_trees, structured_trees


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def tested_profiles():
    """Structured families plus 500 seeded random trees (n <= 16), with
    their DP profiles, weight tables, and max degrees."""
    t0 = time.time()
    trees = structured_trees(16) + random_trees(500, 16, seed0=2024)
    items = []
    for label, tree in trees:
        items.append(
            (label, tree, compute_profile(tree), subtree_weights(tree), tree.max_degree())
        )
    return items, time.time() - t0


@pytest.fixture(scope="module")
def sweep():
    t0 = time.time()
    rows = sweep_rows(max_vertices=50_000)
    return rows, time.time() - t0


def test_criterion_1_oracle_equivalence(tested_profiles):
    items, build_seconds = tested_profiles
    t0 = time.time()
    mismatches = []
    for label, tree, prof, _, _ in items:
        oracle_edge, oracle_vertex = brute_force_profiles(tree)
        if list(prof.edge_values) != oracle_edge or list(prof.vertex_values) != oracle_vertex:
            mismatches.append(label)
    elapsed = build_seconds + (time.time() - t0)
    ok = not mismatches and elapsed < 300
    _report(
        1,
        "edge/vertex DP equals exhaustive enumeration on all structured and 500 random trees (n <= 16)",
        ok,
        f"{len(items)} trees, {elapsed:.1f}s" + (f", mismatches: {mismatches[:3]}" if mismatches else ""),
    )


def test_criterion_2_flux_conservation():
    failures = []
    checked = 0
    for label, tree in structured_trees(10):
        weights = subtree_weights(tree)
        for mask in range(1 << tree.n):
            subset = frozenset(v for v in range(tree.n) if (mask >> v) & 1)
            checked += 1
            if not check_flux_conservation(tree, subset, weights):
                failures.append((label, mask))
    for i in range(1000):
        n = 1 + (i * 193) % 200
        kind = "random_recursive" if i % 2 == 0 else "random_prufer"
        tree = generate_tree(kind, {"n": n}, seed=51_000 + i)
        bits = random.Random(87_000 + i).getrandbits(n)
        subset = frozenset(v for v in range(n) if (bits >> v) & 1)
        checked += 1
        if not check_flux_conservation(tree, subset, subtree_weights(tree)):
            failures.append((kind, i))
    ok = not failures
    _report(
        2,
        "flux conservation f(root) + sum_e f(e) == |S| holds exactly",
        ok,
        f"{checked} (tree, subset) pairs, {len(failures)} failures",
    )


def test_criterion_3_cut_count_bound(tested_profiles, sweep):
    items, _ = tested_profiles
    rows, sweep_seconds = sweep
    violations = []
    for label, _, prof, weights, _ in items:
        for k in range(prof.edge_peak + 1):
            if count_sizes_with_cut_at_most(prof.edge_values, k) > cut_count_upper_bound(
                weights.eta, k
            ):
                violations.append((label, k))
    binary_rows = [r for r in rows if r["t"] == 2]
    ok = (
        not violations
        and all(r["cut_count_bound_ok"] for r in rows)
        and {r["d"] for r in binary_rows} == set(range(2, 14))
        and any(r["n"] == 8191 for r in binary_rows)
        and sweep_seconds < 600
    )
    _report(
        3,
        "ell(k) <= 2*C(2*eta+k, k) for every tested tree and k = 0..edge_peak",
        ok,
        f"{len(items)} small trees + {len(rows)} sweep trees, sweep {sweep_seconds:.1f}s",
    )


def test_criterion_4_certified_lower_bound(tested_profiles, sweep):
    items, _ = tested_profiles
    rows, _ = sweep
    exact = edge_peak_lower_bound(7, 3) == 1 and edge_peak_lower_bound(1023, 10) == 3
    bad = [
        label
        for label, tree, prof, weights, _ in items
        if edge_peak_lower_bound(tree.n, weights.eta) > prof.edge_peak
    ]
    ok = exact and not bad and all(r["p_le_edge_peak"] for r in rows)
    _report(
        4,
        "p <= edge_peak on every tested tree; p(7,3) = 1 and p(1023,10) = 3",
        ok,
        f"{len(items) + len(rows)} trees" + (f", violations: {bad[:3]}" if bad else ""),
    )


def test_criterion_5_sandwich(tested_profiles, sweep):
    items, _ = tested_profiles
    rows, _ = sweep
    bad = [
        label
        for label, _, prof, _, delta in items
        if not (prof.edge_peak >= prof.vertex_peak and delta * prof.vertex_peak >= prof.edge_peak)
    ]
    # Sweep trees have depth >= 2, so their max degree is t + 1.
    bad += [
        f"t={r['t']},d={r['d']}"
        for r in rows
        if not (
            r["edge_peak"] >= r["vertex_peak"]
            and (r["t"] + 1) * r["vertex_peak"] >= r["edge_peak"]
        )
    ]
    _report(
        5,
        "edge_peak >= vertex_peak >= edge_peak/delta on every tested tree",
        not bad,
        f"{len(items) + len(rows)} trees" + (f", violations: {bad[:3]}" if bad else ""),
    )


def test_criterion_6_prefix_construction(tested_profiles):
    items, _ = tested_profiles
    dominance_violations = []
    for label, tree, prof, _, _ in items:
        edge_ub, vertex_ub = prefix_upper_bounds(tree)
        for i in range(tree.n):
            if edge_ub[i] < prof.edge_values[i] or vertex_ub[i] < prof.vertex_values[i]:
                dominance_violations.append((label, i + 1))
    _report(
        6,
        "postorder prefixes dominate both profiles entrywise",
        not dominance_violations,
        f"{len(items)} trees"
        + (f", violations: {dominance_violations[:3]}" if dominance_violations else ""),
    )


def test_criterion_7_binary_trend(sweep):
    rows, _ = sweep
    binary = {r["d"]: r for r in rows if r["t"] == 2}
    window = [binary[d] for d in range(4, 14)]
    issues = []
    for r in window:
        if not (r["p"] <= r["edge_peak"] <= 2 * r["d"]):
            issues.append(f"edge bounds at d={r['d']}")
        if r["vertex_peak"] > r["d"]:
            issues.append(f"vertex bound at d={r['d']}")
    for prev, cur in zip(window, window[1:]):
        allowed_drop = 1.0 / cur["d"]
        if cur["edge_peak_over_d"] < prev["edge_peak_over_d"] - allowed_drop - 1e-12:
            issues.append(f"ratio drop at d={cur['d']}")
    for r in window:
        print(
            f"criterion 7 data: d={r['d']} n={r['n']} edge_peak={r['edge_peak']} "
            f"vertex_peak={r['vertex_peak']} p={r['p']} ratio={r['edge_peak_over_d']:.3f}"
        )
    _report(
        7,
        "binary trees d = 4..13: p <= edge_peak <= 2d, vertex_peak <= d, ratio trend within one step",
        not issues,
        f"10 depths" + (f", issues: {issues[:3]}" if issues else ""),
    )


def test_criterion_8_known_value_regression():
    tree = generate_tree("complete_tary", {"t": 2, "d": 3})
    prof = compute_profile(tree)
    weights = subtree_weights(tree)
    derived = derived_parameter_bounds(prof, tree.max_degree())
    ok = (
        list(prof.edge_values) == [1, 2, 1, 1, 2, 1, 0]
        and list(prof.vertex_values) == [1, 1, 1, 1, 1, 1, 0]
        and (prof.edge_peak, prof.vertex_peak) == (2, 1)
        and weights.eta == 3
        and weights.depth == 3
        and derived["wirelength_lb"] == 8
    )
    _report(
        8,
        "depth-3 binary tree: profiles, peaks (2, 1), eta = 3, d = 3, wirelength_lb = 8",
        ok,
        f"edge={list(prof.edge_values)}, vertex={list(prof.vertex_values)}",
    )


def test_criterion_9_determinism(tmp_path):
    def run(path):
        entries = [
            {
                "source": {"kind": kind, "params": {"n": n}, "seed": seed},
                "tree": generate_tree(kind, {"n": n}, seed=seed),
            }
            for kind, n, seed in [
                ("random_recursive", 14, 1),
                ("random_prufer", 9, 2),
                ("random_prufer", 16, 3),
            ]
        ] + [
            {
                "source": {"kind": "complete_tary", "params": {"t": 2, "d": 4}},
                "tree": generate_tree("complete_tary", {"t": 2, "d": 4}),
            }
        ]
        result = verify_suite(entries)
        emit(result, "json", str(path))
        return result

    first = run(tmp_path / "a.json")
    second = run(tmp_path / "b.json")
    identical = (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    ok = identical and first["exit_status"] == 0 and second["exit_status"] == 0
    _report(
        9,
        "verify runs on identical inputs produce byte-identical reports",
        ok,
        f"{len(first['reports'])} reports compared",
    )
