"""Profile DP against the exhaustive oracle, peaks, and witness subsets."""
import itertools
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treeiso import (
    IsoProfile,
    RootedTree,
    SizeCapError,
    brute_force_profiles,
    compute_profile,
    edge_boundary_size,
    edge_profile,
    generate_tree,
    peaks,
    vertex_boundary_size,
    vertex_profile,
    witness_subset,
)
from treeiso import profile
from treeiso.tree import postorder
from helpers import random_trees, structured_trees

# Frozen from brute_force_profiles; the oracle tests below recompute them.
STAR5_EDGE = [1, 2, 2, 1, 0]
STAR5_VERTEX = [1, 1, 1, 1, 0]
BIN3_EDGE = [1, 2, 1, 1, 2, 1, 0]
BIN3_VERTEX = [1, 1, 1, 1, 1, 1, 0]


def bin3():
    return generate_tree("complete_tary", {"t": 2, "d": 3})


def test_known_profiles():
    assert edge_profile(generate_tree("path", {"n": 4})) == [1, 1, 1, 0]
    assert vertex_profile(generate_tree("path", {"n": 4})) == [1, 1, 1, 0]
    assert edge_profile(generate_tree("star", {"n": 5})) == STAR5_EDGE
    assert vertex_profile(generate_tree("star", {"n": 5})) == STAR5_VERTEX
    assert edge_profile(bin3()) == BIN3_EDGE
    assert vertex_profile(bin3()) == BIN3_VERTEX


def test_known_profiles_match_oracle():
    assert brute_force_profiles(generate_tree("star", {"n": 5})) == (STAR5_EDGE, STAR5_VERTEX)
    assert brute_force_profiles(bin3()) == (BIN3_EDGE, BIN3_VERTEX)


def test_single_vertex():
    one = generate_tree("path", {"n": 1})
    assert brute_force_profiles(one) == ([0], [0])
    assert edge_profile(one) == [0]
    assert vertex_profile(one) == [0]


def test_oracle_against_naive_enumeration():
    """The bitmask oracle agrees with a from-the-definition subset scan."""
    for label, tree in random_trees(24, 8, seed0=1) + structured_trees(7):
        n = tree.n
        naive_edge = []
        naive_vertex = []
        for i in range(1, n + 1):
            naive_edge.append(
                min(edge_boundary_size(tree, s) for s in itertools.combinations(range(n), i))
            )
            naive_vertex.append(
                min(vertex_boundary_size(tree, s) for s in itertools.combinations(range(n), i))
            )
        assert brute_force_profiles(tree) == (naive_edge, naive_vertex), label


def test_dp_matches_oracle_small():
    for label, tree in structured_trees(12) + random_trees(120, 14, seed0=2):
        assert (edge_profile(tree), vertex_profile(tree)) == brute_force_profiles(tree), label


def test_profile_invariants():
    for label, tree in structured_trees(10) + random_trees(60, 16, seed0=5):
        prof = compute_profile(tree)
        n = prof.n
        assert prof.edge_values[n - 1] == 0, label
        assert prof.vertex_values[n - 1] == 0, label
        for i in range(1, n):
            assert prof.edge_values[i - 1] >= 1, label
            assert prof.vertex_values[i - 1] >= 1, label
            assert prof.edge_values[i - 1] == prof.edge_values[n - i - 1], label
        assert prof.edge_peak >= prof.vertex_peak, label


def test_peaks_examples():
    assert peaks([1, 2, 1, 1, 2, 1, 0]) == (2, 2)
    assert peaks([0]) == (0, 1)
    assert peaks([1, 1, 1, 0]) == (1, 1)


def test_peaks_empty_rejected():
    with pytest.raises(ValueError):
        peaks([])


def test_iso_profile_fields():
    prof = compute_profile(bin3())
    assert prof.n == 7
    assert prof.edge_peak == 2 and prof.edge_argpeak == 2
    assert prof.vertex_peak == 1 and prof.vertex_argpeak == 1
    assert prof.to_dict()["edge"] == BIN3_EDGE


def test_iso_profile_bad_lengths():
    with pytest.raises(ValueError):
        IsoProfile.from_values([1, 0], [0])


def test_witness_examples():
    path4 = generate_tree("path", {"n": 4})
    s = witness_subset(path4, 2, "edge")
    assert len(s) == 2
    assert edge_boundary_size(path4, s) == 1

    s = witness_subset(bin3(), 3, "edge")
    assert len(s) == 3
    assert edge_boundary_size(bin3(), s) == 1

    s = witness_subset(generate_tree("star", {"n": 5}), 3, "edge")
    assert edge_boundary_size(generate_tree("star", {"n": 5}), s) == 2


def test_witness_consistency():
    for label, tree in structured_trees(9) + random_trees(40, 12, seed0=6):
        ep = edge_profile(tree)
        vp = vertex_profile(tree)
        for i in range(1, tree.n + 1):
            se = witness_subset(tree, i, "edge")
            sv = witness_subset(tree, i, "vertex")
            assert len(se) == i and len(sv) == i, label
            assert edge_boundary_size(tree, se) == ep[i - 1], label
            assert vertex_boundary_size(tree, sv) == vp[i - 1], label


# Exact witness sets.  They pin the tie order of the split scan (previous
# flag, child flag, child allocation, each ascending; children in
# ascending-id order), which self-consistency checks alone do not.
WITNESS_TREES = {
    "bin3": ("complete_tary", {"t": 2, "d": 3}, 0),
    "star": ("star", {"n": 6}, 0),
    "caterpillar": ("caterpillar", {"spine": 4, "legs": 2}, 0),
    "prufer": ("random_prufer", {"n": 13}, 21),
}
WITNESS_SETS = {
    ("bin3", "edge"): {1: [3], 2: [3, 4], 3: [1, 3, 4], 5: [0, 1, 3, 4, 5]},
    ("bin3", "vertex"): {1: [4], 2: [3, 4], 3: [2, 5, 6], 5: [0, 1, 3, 4, 6]},
    ("star", "edge"): {1: [1], 2: [1, 2], 4: [0, 1, 2, 3], 5: [0, 1, 2, 3, 4]},
    ("star", "vertex"): {1: [5], 2: [1, 2], 4: [1, 2, 3, 4], 5: [1, 2, 3, 4, 5]},
    ("caterpillar", "edge"): {
        1: [10], 4: [3, 8, 10, 11], 5: [2, 3, 8, 10, 11], 7: [2, 3, 6, 8, 9, 10, 11]
    },
    ("caterpillar", "vertex"): {
        1: [11], 4: [3, 8, 10, 11], 5: [3, 8, 9, 10, 11], 7: [2, 3, 6, 8, 9, 10, 11]
    },
    ("prufer", "edge"): {
        2: [3, 9], 3: [1, 5, 6], 5: [1, 3, 5, 6, 9], 10: [1, 3, 4, 5, 6, 7, 8, 9, 10, 12]
    },
    ("prufer", "vertex"): {
        2: [1, 5], 3: [1, 5, 6], 5: [0, 2, 3, 9, 11], 10: [1, 3, 4, 5, 6, 7, 8, 9, 10, 12]
    },
}


def test_witness_deterministic():
    tree = generate_tree("random_prufer", {"n": 13}, seed=21)
    for i in (1, 4, 7, 13):
        assert witness_subset(tree, i, "edge") == witness_subset(tree, i, "edge")
        assert witness_subset(tree, i, "vertex") == witness_subset(tree, i, "vertex")
    for (name, mode), expected in WITNESS_SETS.items():
        kind, params, seed = WITNESS_TREES[name]
        tree = generate_tree(kind, params, seed=seed)
        got = {i: sorted(witness_subset(tree, i, mode)) for i in expected}
        assert got == expected, (name, mode)


def test_witness_argument_errors():
    tree = bin3()
    with pytest.raises(ValueError):
        witness_subset(tree, 0, "edge")
    with pytest.raises(ValueError):
        witness_subset(tree, 8, "edge")
    with pytest.raises(ValueError):
        witness_subset(tree, 3, "boundary")


def test_profile_determinism():
    tree = generate_tree("random_prufer", {"n": 40}, seed=3)
    assert edge_profile(tree) == edge_profile(tree)
    assert vertex_profile(tree) == vertex_profile(tree)


def test_oracle_limit_enforced():
    tree = generate_tree("path", {"n": 25})
    with pytest.raises(SizeCapError):
        brute_force_profiles(tree, limit=20)


def test_oracle_refuses_above_its_ceiling_without_allocating():
    """Any limit is capped at ORACLE_MAX_VERTICES; the enumeration over
    2^(ceiling + 1) subsets must never start."""
    tree = generate_tree("path", {"n": profile.ORACLE_MAX_VERTICES + 1})
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError):
            brute_force_profiles(tree, limit=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_oracle_memory_is_bounded_by_its_chunk():
    """The oracle enumerates subsets in fixed chunks, so at n = 20 its
    tracemalloc peak stays a few MiB, not the 2^20-entry arrays' 42 MiB."""
    tree = generate_tree("random_prufer", {"n": 20}, seed=3)
    tracemalloc.start()
    try:
        result = brute_force_profiles(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert result == (edge_profile(tree), vertex_profile(tree))


def test_dp_cap_enforced():
    tree = generate_tree("path", {"n": 100})
    with pytest.raises(SizeCapError):
        edge_profile(tree, size_cap=50)
    with pytest.raises(SizeCapError):
        vertex_profile(tree, size_cap=50)


def test_boundary_evaluators_direct():
    tree = bin3()
    assert edge_boundary_size(tree, {1, 3, 4}) == 1
    assert vertex_boundary_size(tree, {1, 3, 4}) == 1
    assert edge_boundary_size(tree, set(range(7))) == 0
    assert vertex_boundary_size(tree, set()) == 0
    with pytest.raises(ValueError):
        edge_boundary_size(tree, {9})


@pytest.mark.parametrize(
    "kind, params, merges",
    [
        # One merge chain per level: t * (d - 1) merges.
        ("complete_tary", {"t": 3, "d": 6}, 15),
        # No repeated subtrees: one merge per edge, n - 1.
        ("path", {"n": 50}, 49),
    ],
)
def test_equal_subtrees_share_one_merge_chain(monkeypatch, kind, params, merges):
    calls = []
    merge = profile._merge

    def counted(cur, child, mode):
        calls.append(mode)
        return merge(cur, child, mode)

    monkeypatch.setattr(profile, "_merge", counted)
    tree = generate_tree(kind, params)
    for mode, dp in (("edge", edge_profile), ("vertex", vertex_profile)):
        for run in (dp, lambda t: witness_subset(t, t.n // 2, mode)):
            calls.clear()
            run(tree)
            assert calls == [mode] * merges


@pytest.mark.parametrize(
    "mode, trans", [("edge", profile._EDGE_TRANS), ("vertex", profile._VERTEX_TRANS)]
)
def test_merge_follows_transition_table(mode, trans):
    """_merge equals min over (s_prev, sc, jc) of cur[s_prev][j - jc] +
    child[sc][jc] + cost, evaluated straight from the transition table,
    with every sum at or above profile._INF saturated to it."""
    rng = random.Random(7)
    nflags = 1 + max(s for s, _ in trans)
    inf = profile._INF

    def table(width):
        return np.array(
            [
                [inf if rng.random() < 0.3 else rng.randint(0, 9) for _ in range(width)]
                for _ in range(nflags)
            ],
            dtype=np.int32,
        )

    for _ in range(60):
        cur, child = table(rng.randint(1, 7)), table(rng.randint(1, 7))
        expected = [[inf] * (cur.shape[1] + child.shape[1] - 1) for _ in range(nflags)]
        for (s_prev, sc), (cost, s_new) in trans.items():
            for j in range(len(expected[0])):
                for jc in range(max(0, j - cur.shape[1] + 1), min(j, child.shape[1] - 1) + 1):
                    cell = int(cur[s_prev][j - jc]) + int(child[sc][jc]) + cost
                    expected[s_new][j] = min(inf, expected[s_new][j], cell)
        merged = profile._merge(cur, child, mode)
        assert merged.dtype == np.int32
        assert merged.tolist() == expected


def _live_table_peak(monkeypatch, tree, mode):
    """Peak bytes of DP tables alive at once during one profile call."""
    live = peak = 0

    def release(nbytes):
        nonlocal live
        live -= nbytes

    def track(table):
        nonlocal live, peak
        live += table.nbytes
        peak = max(peak, live)
        weakref.finalize(table, release, table.nbytes)
        return table

    merge, base = profile._merge, profile._base_table
    monkeypatch.setattr(profile, "_merge", lambda cur, child, m: track(merge(cur, child, m)))
    monkeypatch.setattr(profile, "_base_table", lambda m: track(base(m)))
    (edge_profile if mode == "edge" else vertex_profile)(tree)
    return peak


def _per_vertex_table_peak(tree, rows):
    """Peak table bytes of a DP that merges at every vertex, replayed from
    subtree sizes: children merge in ascending id order, a table of a
    subtree with w vertices has rows x (w + 1) cells of the DP's dtype, and
    the partial table and the child's table are dropped after each merge."""
    cell = profile._base_table("edge").itemsize * rows
    size = [1] * tree.n
    live = peak = 0
    for v in postorder(tree):
        s = 1
        live += 2 * cell
        peak = max(peak, live)
        for c in tree.children[v]:
            live += (s + size[c] + 1) * cell
            peak = max(peak, live)
            live -= (s + 1) * cell + (size[c] + 1) * cell
            s += size[c]
        size[v] = s
    return peak


@pytest.mark.parametrize(
    "kind, params",
    [
        ("complete_tary", {"t": 2, "d": 9}),
        ("complete_tary", {"t": 4, "d": 5}),
        ("path", {"n": 120}),
        ("star", {"n": 120}),
        ("caterpillar", {"spine": 20, "legs": 4}),
        ("random_recursive", {"n": 300}),
        ("random_prufer", {"n": 300}),
    ],
)
def test_shared_tables_freed_at_last_use(monkeypatch, kind, params):
    tree = generate_tree(kind, params, seed=4)
    for mode, rows in (("edge", 2), ("vertex", 3)):
        assert _live_table_peak(monkeypatch, tree, mode) <= _per_vertex_table_peak(tree, rows)


@st.composite
def labelled_trees(draw, max_n=14):
    """Random recursive shapes under a random labelling, root included."""
    n = draw(st.integers(1, max_n))
    parents = [None] + [draw(st.integers(0, v - 1)) for v in range(1, n)]
    return _relabel(RootedTree.from_parents(parents, 0), draw(st.permutations(range(n))))


def _relabel(tree, perm):
    """The same tree with vertex v renamed perm[v]; children keep ascending ids,
    so the merge order, and with it the subtree classes, change."""
    parents = [None] * tree.n
    for v, p in enumerate(tree.parent):
        parents[perm[v]] = None if p is None else perm[p]
    return RootedTree.from_parents(parents, perm[tree.root])


def _spider(legs, length):
    parents = [None]
    for _ in range(legs):
        parents += [0] + list(range(len(parents), len(parents) + length - 1))
    return RootedTree.from_parents(parents, 0)


# Trees whose vertices share subtree classes with their siblings.
repeated_subtree_trees = st.one_of(
    st.builds(
        lambda t, d: generate_tree("complete_tary", {"t": t, "d": d}),
        st.integers(2, 4),
        st.integers(1, 4),
    ),
    st.builds(_spider, st.integers(1, 6), st.integers(1, 6)),
    st.builds(
        lambda spine, legs: generate_tree("caterpillar", {"spine": spine, "legs": legs}),
        st.integers(1, 8),
        st.integers(0, 4),
    ),
)


@settings(deadline=None)
@given(labelled_trees())
def test_dp_matches_oracle_property(tree):
    assert (edge_profile(tree), vertex_profile(tree)) == brute_force_profiles(tree)


@settings(deadline=None)
@given(st.one_of(labelled_trees(40), repeated_subtree_trees), st.data())
def test_profiles_invariant_under_relabelling(tree, data):
    perm = data.draw(st.permutations(range(tree.n)))
    assert compute_profile(_relabel(tree, perm)) == compute_profile(tree)


@settings(deadline=None)
@given(repeated_subtree_trees, st.data())
def test_witness_attains_profile_on_repeated_subtrees(tree, data):
    i = data.draw(st.integers(1, tree.n))
    prof = compute_profile(tree)
    for mode, boundary, values in (
        ("edge", edge_boundary_size, prof.edge_values),
        ("vertex", vertex_boundary_size, prof.vertex_values),
    ):
        s = witness_subset(tree, i, mode)
        assert len(s) == i
        assert boundary(tree, s) == values[i - 1]


def test_sentinel_headroom_and_base_table():
    """Two sentinel cells plus the largest transition cost, the largest sum
    _min_plus and the witness scan can form, fit in int32; the one-vertex
    table holds the sentinel in every cell but its two feasible ones."""
    max_cost = max(cost for trans in (profile._EDGE_TRANS, profile._VERTEX_TRANS)
                   for cost, _ in trans.values())
    assert 0 <= 2 * profile._INF + max_cost <= np.iinfo(np.int32).max
    for mode in ("edge", "vertex"):
        base = profile._base_table(mode)
        assert base.dtype == np.int32
        expected = np.full(base.shape, profile._INF)
        expected[0, 0] = expected[profile._MODES[mode].in_flag, 1] = 0
        assert base.tolist() == expected.tolist()


@settings(deadline=None)
@given(labelled_trees(60))
@example(generate_tree("path", {"n": 60}))
@example(generate_tree("star", {"n": 60}))
@example(generate_tree("complete_tary", {"t": 3, "d": 3}))
def test_stage_tables_are_int32_within_sentinel(tree):
    """Every stage table is int32 with cells in [0, _INF], and cells no
    subset can reach hold _INF exactly: the root outside a subtree that
    selects all w of its vertices, and the root selected with none."""
    for mode in ("edge", "vertex"):
        in_flag = profile._MODES[mode].in_flag
        cls, stages = profile._run_dp(tree, mode, profile.DEFAULT_DP_CAP, keep_stages=True)
        for tabs in stages:
            for tab in tabs:
                assert tab.dtype == np.int32
                assert tab.min() >= 0 and tab.max() <= profile._INF
        for v in range(tree.n):
            final = stages[cls[v]][-1]
            w = final.shape[1] - 1
            assert final[0][w] == profile._INF
            assert final[in_flag][0] == profile._INF
