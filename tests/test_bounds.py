"""Flux conservation, binomial counting bounds, prefix bounds, sandwich."""
import dataclasses
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from treeiso import (
    RootedTree,
    analytic_peak_lower_bounds,
    check_flux_conservation,
    compute_profile,
    count_sizes_with_cut_at_most,
    cut_count_upper_bound,
    edge_boundary_size,
    edge_peak_lower_bound,
    edge_profile,
    flux_labels,
    generate_tree,
    parse_tree,
    postorder,
    prefix_upper_bounds,
    sandwich_check,
    subtree_weights,
    vertex_boundary_size,
    vertex_profile,
)
from treeiso.bounds import _flux_label_row, flux_identity_failures
from treeiso.profile import IsoProfile
from treeiso.tree import _prufer_parents
from helpers import random_trees, reroot, structured_trees

BIN3_EDGE = [1, 2, 1, 1, 2, 1, 0]


def path3():
    return parse_tree(b'{"n":3,"root":0,"parent":[null,0,1]}', "json")


def test_flux_example_middle_vertex():
    tree = path3()
    w = subtree_weights(tree)
    labels = flux_labels(tree, {1}, w)
    assert labels[tree.root] == 0
    assert labels[1] == 2
    assert labels[2] == -1
    assert sum(labels) == 1


def test_flux_empty_and_full():
    tree = path3()
    w = subtree_weights(tree)
    empty = flux_labels(tree, set(), w)
    assert empty[tree.root] == 0
    assert {empty[v] for v in range(tree.n) if v != tree.root} == {0}
    assert sum(empty) == 0
    full = flux_labels(tree, {0, 1, 2}, w)
    assert full[tree.root] == 3
    assert {full[v] for v in range(tree.n) if v != tree.root} == {0}
    assert sum(full) == 3


def test_flux_subtree_of_binary():
    tree = generate_tree("complete_tary", {"t": 2, "d": 3})
    w = subtree_weights(tree)
    labels = flux_labels(tree, {1, 3, 4}, w)
    assert labels[1] == 3
    assert sum(labels) == 3
    assert check_flux_conservation(tree, {1, 3, 4}, w) is True


def test_flux_value_alphabet():
    for label, tree in random_trees(30, 12, seed0=13):
        w = subtree_weights(tree)
        members = frozenset(v for v in range(tree.n) if v % 3 != 1)
        labels = flux_labels(tree, members, w)
        assert len(labels) == tree.n, label
        for v, p in tree.edges():
            value = labels[v]
            if (v in members) != (p in members):
                assert abs(value) in w.distinct_weights, label
                assert (value > 0) == (v in members), label
            else:
                assert value == 0, label
        assert labels[tree.root] == (tree.n if tree.root in members else 0)


def test_flux_all_subsets_small_trees():
    for label, tree in structured_trees(8):
        w = subtree_weights(tree)
        for mask in range(1 << tree.n):
            s = frozenset(v for v in range(tree.n) if (mask >> v) & 1)
            assert check_flux_conservation(tree, s, w) is True, (label, mask)


def test_flux_rejects_weight_off_by_one_at_any_vertex():
    """The check is not vacuous: a weight table off by one at a single
    vertex v fails on S = {v}, the root included, and the root's label is
    n whenever the root is in S."""
    bin3 = generate_tree("complete_tary", {"t": 2, "d": 3})
    prufer = generate_tree("random_prufer", {"n": 60}, seed=5)
    for tree in (bin3, prufer):
        w = subtree_weights(tree)
        for v in range(tree.n):
            assert check_flux_conservation(tree, {v}, w) is True
            for d in (1, -1):
                weight = list(w.weight)
                weight[v] += d
                bad = dataclasses.replace(w, weight=tuple(weight))
                assert check_flux_conservation(tree, {v}, bad) is False, (tree.n, v, d)
        rng = random.Random(tree.n)
        subsets = [{tree.root}, set(range(tree.n))]
        subsets += [{v for v in range(tree.n) if rng.random() < 0.5} | {tree.root} for _ in range(20)]
        for s in subsets:
            assert flux_labels(tree, s, w)[tree.root] == tree.n


def test_flux_batch_matches_per_vertex_loop():
    """The vectorised rule gives, row by row, the labels of a per-vertex
    loop over the definition, and they sum to |S|, on random trees rerooted
    away from vertex 0 too, for the empty row, the full row and random rows."""
    rng = random.Random(7)
    for label, tree in random_trees(40, 30, seed0=5):
        for root in {0, tree.n // 2, tree.n - 1}:
            t = reroot(tree, root)
            w = subtree_weights(t)
            rows = [[0] * t.n, [1] * t.n] + [[rng.randrange(2) for _ in range(t.n)] for _ in range(6)]
            expected = [
                [w.weight[v] * (row[v] - (p is not None and row[p])) for v, p in enumerate(t.parent)]
                for row in rows
            ]
            for row, labels in zip(rows, expected):
                assert _flux_label_row(t, np.array(row, np.int8), w).tolist() == labels, (label, root)
            assert [sum(e) for e in expected] == [sum(row) for row in rows], (label, root)
            assert flux_identity_failures(t, w) == [], (label, root)


def test_flux_identity_failures_are_the_singletons_that_fail():
    """A vertex fails the identity exactly when S = {v} fails the flux rule,
    for weight tables wrong at several vertices at once, and the identity
    holds exactly when every subset conserves."""
    rng = random.Random(11)
    for label, tree in random_trees(40, 8, seed0=19):
        w = subtree_weights(tree)
        weight = list(w.weight)
        for v in rng.sample(range(tree.n), rng.randint(0, min(3, tree.n))):
            weight[v] += rng.choice((-2, -1, 1, 2))
        bad = dataclasses.replace(w, weight=tuple(weight))
        failures = flux_identity_failures(tree, bad)
        singletons = [v for v in range(tree.n) if not check_flux_conservation(tree, {v}, bad)]
        assert failures == singletons, label
        subsets = (
            [v for v in range(tree.n) if (mask >> v) & 1] for mask in range(1 << tree.n)
        )
        assert all(check_flux_conservation(tree, s, bad) for s in subsets) == (not failures), label


def test_flux_identity_on_50000_vertices_peaks_under_4_mib():
    """The exact check keeps one int64 weight vector, one int64 child-sum
    vector and the parent list: on a path with n = 50,000 it peaks under
    4 MiB, finds no failure on the true weights, and finds the two vertices
    a weight off by one at the middle breaks."""
    tree = generate_tree("path", {"n": 50_000})
    w = subtree_weights(tree)
    tracemalloc.start()
    try:
        failures = flux_identity_failures(tree, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    assert failures == []
    weight = list(w.weight)
    weight[25_000] += 1
    bad = dataclasses.replace(w, weight=tuple(weight))
    assert flux_identity_failures(tree, bad) == [24_999, 25_000]


def test_flux_out_of_range_vertex():
    """An id outside 0..n-1 and a non-integer id, a bool or a float, get the
    same ValueError from every caller of RootedTree.membership."""
    tree, w = path3(), subtree_weights(path3())
    for members in ({5}, {True}, {1.0}):
        with pytest.raises(ValueError, match="out of range"):
            flux_labels(tree, members, w)
        with pytest.raises(ValueError, match="out of range"):
            check_flux_conservation(tree, members, w)
        with pytest.raises(ValueError, match="out of range"):
            edge_boundary_size(tree, members)


def test_cut_count_upper_bound_values():
    assert cut_count_upper_bound(3, 2) == 56
    assert cut_count_upper_bound(1, 0) == 2
    assert cut_count_upper_bound(10, 3) == 3542
    with pytest.raises(ValueError):
        cut_count_upper_bound(0, 1)
    with pytest.raises(ValueError):
        cut_count_upper_bound(3, -1)


def test_count_sizes_with_cut_at_most():
    assert count_sizes_with_cut_at_most(BIN3_EDGE, 1) == 5
    assert count_sizes_with_cut_at_most(BIN3_EDGE, 0) == 1
    assert count_sizes_with_cut_at_most(BIN3_EDGE, 2) == 7


def test_count_sizes_monotone_and_saturates():
    for label, tree in random_trees(30, 16, seed0=17):
        values = edge_profile(tree)
        peak = max(values)
        prev = 0
        for k in range(peak + 1):
            cur = count_sizes_with_cut_at_most(values, k)
            assert cur >= prev, label
            prev = cur
        assert count_sizes_with_cut_at_most(values, peak) == tree.n, label


def test_edge_peak_lower_bound_values():
    assert edge_peak_lower_bound(7, 3) == 1
    assert edge_peak_lower_bound(2, 1) == 0
    assert edge_peak_lower_bound(1023, 10) == 3
    assert edge_peak_lower_bound(1, 1) == 0
    with pytest.raises(ValueError) as info:
        edge_peak_lower_bound(0, 1)
    assert str(info.value) == "n must be >= 1, got 0"


def test_edge_peak_lower_bound_is_valid():
    for label, tree in structured_trees(10) + random_trees(40, 16, seed0=23):
        eta = subtree_weights(tree).eta
        p = edge_peak_lower_bound(tree.n, eta)
        assert p <= max(edge_profile(tree)), label


def test_cut_count_bound_holds_exactly():
    for label, tree in structured_trees(10) + random_trees(40, 16, seed0=29):
        values = edge_profile(tree)
        eta = subtree_weights(tree).eta
        for k in range(max(values) + 1):
            assert count_sizes_with_cut_at_most(values, k) <= cut_count_upper_bound(eta, k), label


def test_analytic_bounds_clamp():
    assert analytic_peak_lower_bounds(1023, 10, 3) == (0.0, 0.0)


def test_analytic_bounds_closed_form():
    n = 4**40
    be, bv = analytic_peak_lower_bounds(n, 2, 3)
    expected = 2 * (n ** (1 / 4) - 2 * math.e) / math.e
    assert abs(be - expected) <= 1e-9
    assert abs(bv - expected / 3) <= 1e-9
    with pytest.raises(ValueError):
        analytic_peak_lower_bounds(10, 0, 1)


def test_corollary3_never_exceeds_p():
    """The closed-form edge estimate is at most p, so the analytic_lb
    finding can fail only where edge_peak_lb or sandwich fails: its vertex
    half is be/delta <= p/delta <= edge_peak/delta <= vertex_peak.  Proof:
    n <= 2*C(2*eta + p, p) <= 2*(e*(2*eta + p)/(2*eta))**(2*eta), so
    p >= (2*eta/e)*(n/2)**(1/(2*eta)) - 2*eta >= eta*(n**(1/(2*eta)) - 2e)/e."""
    sizes = sorted({round(10 ** (j / 8)) for j in range(49)})
    positive = 0
    for eta in range(1, 41):
        for n in sizes:
            be = analytic_peak_lower_bounds(n, eta, 1)[0]
            assert be <= edge_peak_lower_bound(n, eta), (n, eta)
            positive += be > 0
    assert positive == 76, positive


def test_prefix_upper_bounds_path():
    edge_ub, vertex_ub = prefix_upper_bounds(generate_tree("path", {"n": 6}))
    assert edge_ub == [1, 1, 1, 1, 1, 0]
    assert vertex_ub == [1, 1, 1, 1, 1, 0]


def test_prefix_upper_bounds_binary_depth3():
    edge_ub, vertex_ub = prefix_upper_bounds(generate_tree("complete_tary", {"t": 2, "d": 3}))
    assert edge_ub == [1, 2, 1, 2, 3, 2, 0]
    assert vertex_ub == [1, 1, 1, 2, 2, 1, 0]


def test_prefix_upper_bounds_star():
    edge_ub, _ = prefix_upper_bounds(generate_tree("star", {"n": 7}))
    assert edge_ub == [1, 2, 3, 4, 5, 6, 0]


def test_prefix_matches_direct_evaluation():
    """Incremental prefix boundaries equal per-prefix evaluation from scratch."""
    for label, tree in random_trees(30, 15, seed0=31):
        order = postorder(tree)
        edge_ub, vertex_ub = prefix_upper_bounds(tree)
        for i in range(1, tree.n + 1):
            prefix = set(order[:i])
            assert edge_ub[i - 1] == edge_boundary_size(tree, prefix), label
            assert vertex_ub[i - 1] == vertex_boundary_size(tree, prefix), label


def _prefix_upper_bounds_reference(tree):
    """The adjacency-list version prefix_upper_bounds used before."""
    adj = tree.adjacency()
    inside = [False] * tree.n
    selected_neighbors = [0] * tree.n
    cut = 0
    phi = 0
    edge_ub = []
    vertex_ub = []
    for v in postorder(tree):
        inside[v] = True
        if selected_neighbors[v] > 0:
            phi -= 1
        for u in adj[v]:
            if inside[u]:
                cut -= 1
            else:
                cut += 1
                selected_neighbors[u] += 1
                if selected_neighbors[u] == 1:
                    phi += 1
        edge_ub.append(cut)
        vertex_ub.append(phi)
    return edge_ub, vertex_ub


def test_prefix_matches_adjacency_version_on_reroots():
    for label, tree in structured_trees(30) + random_trees(200, 120, seed0=41):
        for root in sorted({tree.root, tree.n // 2, tree.n - 1}):
            rerooted = reroot(tree, root)
            assert prefix_upper_bounds(rerooted) == _prefix_upper_bounds_reference(rerooted), (
                label,
                root,
            )


def _rooted_labelled_trees(n):
    """Every rooted labelled tree on n vertices: each Prufer sequence's tree
    rooted at each vertex."""
    for seq in itertools.product(range(n), repeat=max(n - 2, 0)):
        tree = RootedTree.from_parents(_prufer_parents(list(seq), n), 0)
        for root in range(n):
            yield reroot(tree, root)


def test_prefix_dominance_and_ceilings():
    """Post-order prefixes dominate both profiles.  Their boundaries stay
    within (delta-1)*depth in edge mode on every tree but the single edge,
    where delta = 1 makes that ceiling 0 and the one-vertex prefix cuts the
    edge, and within depth in vertex mode on every tree: checked on every
    root of every labelled tree with n <= 6 and on larger structured and
    random trees."""
    for label, tree in structured_trees(10) + random_trees(50, 16, seed0=37):
        depth = subtree_weights(tree).depth
        edge_ub, vertex_ub = prefix_upper_bounds(tree)
        ep = edge_profile(tree)
        vp = vertex_profile(tree)
        for i in range(tree.n):
            assert edge_ub[i] >= ep[i], label
            assert vertex_ub[i] >= vp[i], label
        edge_ceiling = max(tree.max_degree() - 1, 0) * depth
        assert (max(edge_ub) <= edge_ceiling) == (tree.n != 2), label
        assert max(vertex_ub) <= depth, label
    for n in range(1, 7):
        seen = set()
        for tree in _rooted_labelled_trees(n):
            label = (tree.root, tree.parent)
            seen.add(label)
            depth = subtree_weights(tree).depth
            edge_ub, vertex_ub = prefix_upper_bounds(tree)
            edge_ceiling = max(tree.max_degree() - 1, 0) * depth
            assert (max(edge_ub) <= edge_ceiling) == (n != 2), label
            assert max(vertex_ub) <= depth, label
        assert len(seen) == n ** (n - 1)


def test_sandwich_examples():
    bin3 = generate_tree("complete_tary", {"t": 2, "d": 3})
    profile = compute_profile(bin3)
    assert (profile.edge_peak, profile.vertex_peak, bin3.max_degree()) == (2, 1, 3)
    assert sandwich_check(profile, bin3.max_degree()) is True

    path4 = generate_tree("path", {"n": 4})
    assert sandwich_check(compute_profile(path4), 2) is True

    one = generate_tree("path", {"n": 1})
    assert sandwich_check(compute_profile(one), one.max_degree()) is True


def test_sandwich_detects_violation():
    fake = IsoProfile.from_values([3, 0], [1, 0])
    assert sandwich_check(fake, 1) is False


def test_sandwich_on_random_trees():
    for label, tree in random_trees(40, 16, seed0=41):
        assert sandwich_check(compute_profile(tree), tree.max_degree()) is True, label
