"""Derived parameter bounds, per-tree reports, the suite, and emission."""
import dataclasses
import functools
import json
import math
import random

import pytest

from treeiso import (
    SizeCapError,
    compute_profile,
    count_sizes_with_cut_at_most,
    cut_count_upper_bound,
    derived_parameter_bounds,
    edge_peak_lower_bound,
    emit,
    generate_tree,
    subtree_weights,
    verify_suite,
)
from treeiso import profile
from treeiso.report import TreeEntry, _cut_count_table, analyze_tree, _render, sweep_rows
from helpers import random_trees, structured_trees


def bin3():
    return generate_tree("complete_tary", {"t": 2, "d": 3})


def test_derived_bounds_binary_depth3():
    tree = bin3()
    bounds = derived_parameter_bounds(compute_profile(tree), tree.max_degree())
    assert bounds == {
        "pathwidth_lb": 1,
        "cutwidth_lb": 2,
        "wirelength_lb": 8,
        "thinness_lb": 1,
    }


def test_derived_bounds_path4():
    tree = generate_tree("path", {"n": 4})
    bounds = derived_parameter_bounds(compute_profile(tree), tree.max_degree())
    assert bounds["pathwidth_lb"] == 1
    assert bounds["cutwidth_lb"] == 1
    assert bounds["wirelength_lb"] == 3
    assert bounds["thinness_lb"] == 1


def test_derived_bounds_single_vertex():
    tree = generate_tree("path", {"n": 1})
    bounds = derived_parameter_bounds(compute_profile(tree), tree.max_degree())
    assert all(v == 0 for v in bounds.values())


def test_derived_bounds_formulas_on_random_trees():
    for label, tree in random_trees(25, 14, seed0=43):
        prof = compute_profile(tree)
        bounds = derived_parameter_bounds(prof, tree.max_degree())
        assert bounds["wirelength_lb"] == sum(prof.edge_values), label
        assert bounds["pathwidth_lb"] == prof.vertex_peak, label
        assert bounds["cutwidth_lb"] == prof.edge_peak, label


def test_analyze_tree_binary_depth3():
    report = analyze_tree(bin3(), {"kind": "complete_tary", "params": {"t": 2, "d": 3}})
    assert report.passed
    assert report.tree["n"] == 7
    assert report.tree["eta"] == 3
    assert report.tree["depth"] == 3
    assert report.tree["delta"] == 3
    assert report.bounds["p"] == 1
    sandwich = next(v for v in report.verdicts if v.name.startswith("sandwich"))
    assert sandwich.passed is True
    assert report.profile["edge_peak"] == 2
    assert report.derived["wirelength_lb"] == 8
    for row in report.bounds["theorem1"]:
        assert isinstance(row["bound"], str)
        assert row["ell"] <= int(row["bound"])
    names = [v.name for v in report.verdicts]
    assert any("oracle" in n for n in names)
    assert any("flux" in n for n in names)
    # The (t-1)*d edge ceiling is the one finding, present for this descriptor
    assert [f.name for f in report.findings] == ["tary_edge_upper_(t-1)d: edge_peak <= (t-1)*d"]
    assert report.findings[0].passed


def test_report_self_consistency():
    """Pass/fail flags recomputable from the numbers in the same report."""
    for label, tree in structured_trees(9)[:20]:
        report = analyze_tree(tree, {"label": label})
        b = report.bounds
        sandwich = next(v for v in report.verdicts if v.name.startswith("sandwich"))
        assert sandwich.passed == (
            report.profile["edge_peak"] >= report.profile["vertex_peak"]
            and report.tree["delta"] * report.profile["vertex_peak"] >= report.profile["edge_peak"]
        ), label
        count_ok = all(row["ell"] <= int(row["bound"]) for row in b["theorem1"])
        verdict = next(v for v in report.verdicts if v.name.startswith("cut_count_bound"))
        assert verdict.passed == count_ok, label
        p_verdict = next(v for v in report.verdicts if v.name.startswith("edge_peak_lb"))
        assert p_verdict.passed == (b["p"] <= report.profile["edge_peak"]), label


def test_single_edge_report_passes_every_finding():
    """No finding compares prefix maxima with the (delta-1)*depth ceiling,
    which is 0 on the single edge while its one-vertex prefix cuts 1; a
    tree not described as complete t-ary has no finding at all."""
    report = analyze_tree(generate_tree("path", {"n": 2}))
    assert report.passed
    assert report.findings == []


def test_flux_verdict_names_vertex_where_weight_is_off_by_one(monkeypatch):
    """A weight table off by one at any single vertex, the root included,
    fails the flux verdict, which names that vertex; the true table passes."""
    import treeiso.report as report_mod

    def flux_verdict(tree):
        report = analyze_tree(tree, oracle_limit=0)
        return next(x for x in report.verdicts if x.name.startswith("flux_conservation"))

    real = report_mod.subtree_weights
    for tree in (bin3(), generate_tree("random_prufer", {"n": 60}, seed=5)):
        monkeypatch.undo()
        verdict = flux_verdict(tree)
        assert verdict.passed
        assert verdict.details == f"w(v) == 1 + sum_c w(c) at all {tree.n} vertices, so for every S"
        for v in range(tree.n):
            for d in (1, -1):
                def off_by_one(t, v=v, d=d):
                    w = real(t)
                    weight = list(w.weight)
                    weight[v] += d
                    return dataclasses.replace(w, weight=tuple(weight))

                monkeypatch.setattr(report_mod, "subtree_weights", off_by_one)
                verdict = flux_verdict(tree)
                # v and its parent break the identity; both are named.
                bad = sorted({v} | ({tree.parent[v]} - {None}))
                assert not verdict.passed, (tree.n, v, d)
                assert verdict.details == f"w(v) != 1 + sum_c w(c) at vertices {bad}"


def test_verify_suite_passes_and_exit_status():
    trees = [tree for _, tree in structured_trees(8)[:10]]
    result = verify_suite(trees)
    assert result.exit_status == 0
    assert len(result.reports) == len(trees)
    assert all(r.passed for r in result.reports)


def test_verify_suite_reports_input_errors():
    entries = [
        TreeEntry(source={"path": "good"}, tree=generate_tree("path", {"n": 4})),
        TreeEntry(source={"path": "bad.json"}, error="malformed json: boom"),
    ]
    result = verify_suite(entries)
    assert result.exit_status == 2
    assert len(result.reports) == 1
    assert result.errors[0]["source"] == {"path": "bad.json"}


def test_verify_suite_cap_violation_is_reported():
    entries = [TreeEntry(source={"kind": "path"}, tree=generate_tree("path", {"n": 60}))]
    result = verify_suite(entries, dp_cap=50)
    assert result.exit_status == 2
    assert "cap" in result.errors[0]["error"]


def test_analyze_tree_checks_dp_cap_before_other_work(monkeypatch):
    import treeiso.report as report_mod

    def refuse(tree):
        raise AssertionError("subtree_weights ran before the DP cap check")

    monkeypatch.setattr(report_mod, "subtree_weights", refuse)
    with pytest.raises(SizeCapError):
        analyze_tree(generate_tree("path", {"n": 60}), dp_cap=50)


def test_verify_suite_exit_one_on_verdict_failure(monkeypatch):
    import treeiso.report as report_mod

    real = report_mod.analyze_tree

    def sabotage(tree, source=None, **kwargs):
        report = real(tree, source, **kwargs)
        report.verdicts.append(report_mod.Verdict("forced failure", False, "injected"))
        return report

    monkeypatch.setattr(report_mod, "analyze_tree", sabotage)
    result = verify_suite([generate_tree("path", {"n": 4})])
    assert result.exit_status == 1


def test_verify_suite_deterministic_bytes():
    def build():
        entries = [
            TreeEntry(
                source={"kind": "random_prufer", "params": {"n": 12}, "seed": i},
                tree=generate_tree("random_prufer", {"n": 12}, seed=i),
            )
            for i in range(6)
        ]
        return verify_suite(entries)

    first = _render(build(), "json")
    second = _render(build(), "json")
    assert first == second
    assert _render(build(), "csv") == _render(build(), "csv")


def test_emit_profile_csv(tmp_path):
    out = tmp_path / "profile.csv"
    emit(compute_profile(bin3()), "csv", str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "i,b_e,b_v"
    assert len(lines) == 8
    assert lines[1] == "1,1,1"
    assert lines[7] == "7,0,0"


def test_emit_profile_json(tmp_path):
    out = tmp_path / "profile.json"
    emit(compute_profile(bin3()), "json", str(out))
    data = json.loads(out.read_text())
    assert data["edge_peak"] == 2
    assert data["edge"] == [1, 2, 1, 1, 2, 1, 0]


def test_emit_report_csv_and_json(tmp_path):
    report = analyze_tree(bin3(), {"kind": "complete_tary", "params": {"t": 2, "d": 3}})
    out = tmp_path / "report.csv"
    emit(report, "csv", str(out))
    text = out.read_text()
    assert text.startswith("field,value")
    assert "bounds.p,1" in text
    emit(report, "json", str(tmp_path / "report.json"))
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["bounds"]["p"] == 1
    assert data["pass"] is True


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit(compute_profile(bin3()), "yaml", None)


def test_emit_unwritable_destination():
    with pytest.raises(OSError):
        emit(compute_profile(bin3()), "csv", "/nonexistent-dir/profile.csv")


def test_emit_stdout(capsys):
    emit(compute_profile(bin3()), "csv", None)
    captured = capsys.readouterr()
    assert captured.out.startswith("i,b_e,b_v")


def test_cut_count_table_matches_per_k_count():
    """The one-pass table equals count_sizes_with_cut_at_most at every k,
    up to the edge peak and for a k_cap below it."""
    trees = structured_trees(12) + random_trees(40, 60, seed0=7)
    trees.append(("star:n=2000", generate_tree("star", {"n": 2000})))
    for label, tree in trees:
        prof = compute_profile(tree)
        eta = subtree_weights(tree).eta
        for k_cap in {prof.edge_peak, prof.edge_peak // 2, 0}:
            table, ok = _cut_count_table(prof.edge_values, eta, k_cap)
            expected = [count_sizes_with_cut_at_most(prof.edge_values, k) for k in range(k_cap + 1)]
            assert [row["k"] for row in table] == list(range(k_cap + 1)), label
            assert [row["ell"] for row in table] == expected, label
            assert ok == all(
                ell <= cut_count_upper_bound(eta, k) for k, ell in enumerate(expected)
            ), label


def test_cut_count_table_bounds_are_exact():
    """The table's bounds, built one step per k, are cut_count_upper_bound
    at every (eta, k) of a grid."""
    for eta in range(1, 30):
        table, _ = _cut_count_table([], eta, 60)
        assert [row["bound"] for row in table] == [
            str(cut_count_upper_bound(eta, k)) for k in range(61)
        ], eta


def test_cut_count_table_ends_at_p():
    """A report's table holds rows k = 0..p: the last bound reaches n and
    every earlier one is below it."""
    trees = structured_trees(12) + random_trees(30, 60, seed0=3)
    trees.append(("star:n=2000", generate_tree("star", {"n": 2000})))
    for label, tree in trees:
        report = analyze_tree(tree, oracle_limit=0)
        p = report.bounds["p"]
        bounds = [int(row["bound"]) for row in report.bounds["theorem1"]]
        assert [row["k"] for row in report.bounds["theorem1"]] == list(range(p + 1)), label
        assert bounds[-1] >= tree.n, label
        assert all(bound < tree.n for bound in bounds[:-1]), label


def test_rows_past_p_decide_no_cut_count_verdict():
    """Over value lists of every kind, those that break the counting bound
    included, ell <= bound over rows 0..p exactly when it holds over rows
    0..max(values): ell never exceeds n, which every bound past p reaches."""
    rng = random.Random(31)
    outcomes = set()
    for _ in range(2000):
        n = rng.randint(1, 120)
        eta = rng.randint(1, 4)
        low, high = sorted((rng.randint(0, 16), rng.randint(0, 16)))
        values = [rng.randint(low, high) for _ in range(n)]
        p = edge_peak_lower_bound(n, eta)
        _, ok_to_p = _cut_count_table(values, eta, p)
        _, ok_to_max = _cut_count_table(values, eta, max(values))
        assert ok_to_p == ok_to_max, (values, eta)
        outcomes.add(ok_to_p)
    assert outcomes == {True, False}


def test_verify_suite_keeps_reports_when_a_table_is_refused():
    """A tree whose DP tables are refused is an error of its own; the
    other trees keep their reports."""
    entries = [
        TreeEntry(source={"path": "small"}, tree=generate_tree("path", {"n": 5})),
        TreeEntry(source={"path": "big"}, tree=generate_tree("complete_tary", {"t": 2, "d": 6})),
    ]
    result = verify_suite(entries, dp_cap=50)
    assert result.exit_status == 2
    assert [r.tree["n"] for r in result.reports] == [5]
    assert result.errors[0]["source"] == {"path": "big"}
    assert "cap 50" in result.errors[0]["error"]


def test_sweep_rows_small():
    rows = sweep_rows(max_vertices=100)
    assert rows
    for row in rows:
        assert row["n"] <= 100
        assert row["p_le_edge_peak"] is True
        assert row["cut_count_bound_ok"] is True
        assert row["eta"] == row["d"]
    tary = {row["t"] for row in rows}
    assert tary == {2, 3, 4, 5, 9}


def test_sweep_rows_generates_up_to_its_own_cap(monkeypatch):
    """sweep_rows passes its cap to generate_tree, so a generator default
    below the cap cannot end the sweep early."""
    import treeiso.report as report_mod

    monkeypatch.setattr(
        report_mod, "generate_tree", functools.partial(generate_tree, max_vertices=100)
    )
    rows = sweep_rows(max_vertices=200)
    expected = [
        (t, d)
        for t in (2, 3, 4, 5, 9)
        for d in range(2, 14)
        if (t**d - 1) // (t - 1) <= 200
    ]
    assert [(row["t"], row["d"]) for row in rows] == expected
    assert max(row["n"] for row in rows) == 156


def test_sweep_rows_equal_rows_from_each_trees_own_profile(monkeypatch):
    """Each row at cap 5000, whose profiles are read off one DP per
    branching factor on its deepest tree, equals the row built from
    compute_profile of T_d itself.  The small T_d route clipped there while
    the deepest trees run dense, so this also checks one algebra against
    the other."""
    rows = sweep_rows(max_vertices=5000)
    assert len(rows) == 31
    dense_runs = []
    dense = profile._dense
    monkeypatch.setattr(profile, "_dense", lambda rules, *root: dense_runs.append(1) or dense(rules, *root))
    clipped_only = 0
    for row in rows:
        t, d = row["t"], row["d"]
        tree = generate_tree("complete_tary", {"t": t, "d": d})
        before = len(dense_runs)
        prof = compute_profile(tree)
        clipped_only += len(dense_runs) == before
        eta = subtree_weights(tree).eta
        p = edge_peak_lower_bound(tree.n, eta)
        assert row == {
            "t": t,
            "d": d,
            "n": tree.n,
            "eta": eta,
            "edge_peak": prof.edge_peak,
            "vertex_peak": prof.vertex_peak,
            "p": p,
            "edge_peak_over_d": prof.edge_peak / d,
            "vertex_peak_sqrt_t_over_d": prof.vertex_peak * math.sqrt(t) / d,
            "edge_upper_td": t * d,
            "edge_upper_t_minus_1_d": (t - 1) * d,
            "vertex_upper_d": d,
            "p_le_edge_peak": p <= prof.edge_peak,
            "cut_count_bound_ok": _cut_count_table(prof.edge_values, eta, prof.edge_peak)[1],
        }, (t, d)
    assert clipped_only > 0


def test_sweep_rows_runs_one_dp_per_mode_and_branching_factor(monkeypatch):
    """At cap 5000 the sweep makes 10 dense runs of the stage driver, one
    per mode for each of its 5 branching factors, where a route per depth
    made 78, and each of its 31 rows still comes from a tree of its own n.
    Each vertex run follows the closed-form K = 1 step, which no deepest
    tree's vertex peak lets cover: 15 driver runs in all.  Only the deepest
    tree of each branching factor is generated: 5 trees, not one per row."""
    import treeiso.report as report_mod

    runs = []
    stages = profile._stages
    monkeypatch.setattr(profile, "_stages", lambda *args: runs.append(1) or stages(*args))
    generated = []
    generate = report_mod.generate_tree
    monkeypatch.setattr(
        report_mod, "generate_tree", lambda *args, **kw: generated.append(1) or generate(*args, **kw)
    )
    rows = sweep_rows(max_vertices=5000)
    assert (len(rows), len(runs), len(generated)) == (31, 15, 5)
    assert all(row["n"] == (row["t"] ** row["d"] - 1) // (row["t"] - 1) for row in rows)


def test_sweep_rows_emit(tmp_path):
    rows = sweep_rows(max_vertices=50)
    out = tmp_path / "rows.csv"
    emit(rows, "csv", str(out))
    header = out.read_text().splitlines()[0]
    assert header.startswith("t,d,n,eta,edge_peak,vertex_peak,p")


SUITE_HEADER = "source,n,depth,delta,eta,edge_peak,vertex_peak,p,status\n"
BAD_ROW = '"bad, ""x"".json",,,,,,,,error: malformed json: boom\n'


def test_render_pins_csv_bytes():
    """Exact CSV text of every emittable type; any change here changes reports."""
    path3 = generate_tree("path", {"n": 3})
    assert _render(compute_profile(path3), "csv") == "i,b_e,b_v\n1,1,1\n2,1,1\n3,0,0\n"

    good = TreeEntry(source={"path": "good.json"}, tree=generate_tree("path", {"n": 4}))
    bad = TreeEntry(source={"path": 'bad, "x".json'}, error="malformed json: boom")
    assert _render(verify_suite([good, bad]), "csv") == (
        SUITE_HEADER + "good.json,4,4,2,4,1,1,1,pass\n" + BAD_ROW
    )
    assert _render(verify_suite([bad]), "csv") == SUITE_HEADER + BAD_ROW

    assert _render([], "csv") == "\n"

    report = analyze_tree(bin3(), {"kind": "complete_tary", "params": {"t": 2, "d": 3}})
    assert _render(report, "csv").startswith(
        "field,value\n"
        "tree.kind,complete_tary\n"
        "tree.params.t,2\n"
        "tree.params.d,3\n"
        "tree.n,7\n"
        "tree.depth,3\n"
        "tree.delta,3\n"
        "tree.eta,3\n"
        "profile.edge_peak,2\n"
        "profile.vertex_peak,1\n"
        "profile.edge_argpeak,2\n"
        "profile.vertex_argpeak,1\n"
        "bounds.p,1\n"
        "bounds.theorem1.0.k,0\n"
    )

    for fmt in ("csv", "json"):
        with pytest.raises(TypeError):
            _render(object(), fmt)
