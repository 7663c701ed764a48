"""Profile DP against the exhaustive oracle, peaks, and witness subsets."""
import hashlib
import itertools
import math
import random
import sys
import threading
import tracemalloc
import weakref
from collections import Counter

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
    edge_peak_lower_bound,
    edge_profile,
    generate_tree,
    peaks,
    subtree_profiles,
    subtree_weights,
    vertex_boundary_size,
    vertex_profile,
    witness_subset,
    witness_subsets,
)
from treeiso import profile
from treeiso.tree import postorder
from helpers import labelled_trees, random_trees, relabel, reroot, rooted_trees, structured_trees

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


def _shuffled(trees, seed):
    """Each tree rerooted at a random vertex under a random labelling."""
    rng = random.Random(seed)
    return [
        (f"{label} rerooted", relabel(reroot(tree, rng.randrange(tree.n)), rng.sample(range(tree.n), tree.n)))
        for label, tree in trees
    ]


def test_oracle_against_naive_enumeration():
    """The bitmask oracle agrees with a from-the-definition subset scan."""
    trees = random_trees(24, 8, seed0=1) + structured_trees(7)
    for label, tree in trees + _shuffled(trees, seed=4):
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


def _oracle_reference(tree):
    """The oracle as one numpy pass per vertex and per edge over each chunk
    of 2^16 subsets: size, cut and touched counted bit by bit."""
    n = tree.n
    nbr_masks = [sum(1 << u for u in adj) for adj in tree.adjacency()]
    sentinel = np.iinfo(np.int64).max
    edge_best = np.full(n + 1, sentinel, dtype=np.int64)
    vert_best = np.full(n + 1, sentinel, dtype=np.int64)
    for start in range(0, 1 << n, 1 << 16):
        masks = np.arange(start, min(start + (1 << 16), 1 << n), dtype=np.int64)
        size = np.zeros(masks.size, dtype=np.int64)
        for v in range(n):
            size += (masks >> v) & 1
        cut = np.zeros(masks.size, dtype=np.int64)
        for v, p in tree.edges():
            cut += ((masks >> v) ^ (masks >> p)) & 1
        touched = np.zeros(masks.size, dtype=np.int64)
        for v, nbr_mask in enumerate(nbr_masks):
            touched += (((masks >> v) & 1) == 0) & ((masks & nbr_mask) != 0)
        np.minimum.at(edge_best, size, cut)
        np.minimum.at(vert_best, size, touched)
    return [int(x) for x in edge_best[1:]], [int(x) for x in vert_best[1:]]


def _internal_high(tree):
    """The tree relabelled so that the root takes the top id and the other
    internal vertices the ids below it: above n = 16 they sit in the high
    bits that each chunk of the oracle shares."""
    order = sorted(range(tree.n), key=lambda v: (v == tree.root, len(tree.children[v]) > 0, v))
    perm = [0] * tree.n
    for label, v in enumerate(order):
        perm[v] = label
    return relabel(tree, perm)


def test_oracle_high_bits_match_reference():
    """At n = 15..18 the high-bit tables of the popcount oracle are read
    (n > 16) or not (n <= 16); both agree with the per-edge and per-vertex
    enumeration, on rerooted trees with random labels and with the root and
    internal vertices on the top bits."""
    rng = random.Random(15)
    trees = []
    for n in range(15, 19):
        for kind in ("random_prufer", "random_recursive", "path", "star"):
            tree = generate_tree(kind, {"n": n}, seed=n)
            trees.append((f"{kind}:n={n}", reroot(tree, rng.randrange(n))))
    trees.append(("caterpillar:spine=6,legs=2", generate_tree("caterpillar", {"spine": 6, "legs": 2})))
    trees.append(("complete_tary:t=2,d=4", generate_tree("complete_tary", {"t": 2, "d": 4})))
    high = [(f"{label} internal-high", _internal_high(tree)) for label, tree in trees]
    for label, tree in high:
        if tree.n > 16:
            assert tree.root == tree.n - 1, label
            assert all(tree.children[v] for v in range(16, tree.n)), label
    for label, tree in high + _shuffled(trees, seed=16):
        assert brute_force_profiles(tree) == _oracle_reference(tree), label


def test_dp_matches_oracle_small():
    for label, tree in structured_trees(12) + random_trees(120, 14, seed0=2):
        assert (edge_profile(tree), vertex_profile(tree)) == brute_force_profiles(tree), label


def test_every_rooted_tree_up_to_ten_vertices(monkeypatch):
    """Every rooted tree with n <= 10, as many as OEIS A000081 counts (1,
    1, 2, 4, 9, 20, 48, 115, 286, 719 for n = 1..10).  On each one
    compute_profile equals the oracle, l(k) <= 2 C(2 eta + k, k) for
    k <= p, and p <= edge_peak.  On those with n <= 9 the profile equals the
    oracle with the dense route forced too, and the witnesses at every size
    in both modes have that size and the oracle's boundary."""
    monkeypatch.setattr(profile, "_witness_memo", None)
    trees = [list(rooted_trees(n)) for n in range(1, 11)]
    assert [len(of_n) for of_n in trees] == [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
    small = []
    for tree in itertools.chain(*trees):
        oracle = brute_force_profiles(tree)
        got = compute_profile(tree)
        assert (list(got.edge_values), list(got.vertex_values)) == oracle, tree.parent
        eta = subtree_weights(tree).eta
        p = edge_peak_lower_bound(tree.n, eta)
        assert p <= got.edge_peak, tree.parent
        for k in range(p + 1):
            ell = sum(value <= k for value in got.edge_values)
            assert ell <= 2 * math.comb(2 * eta + k, k), (tree.parent, k)
        if tree.n <= 9:
            small.append((tree, oracle))
    assert len(small) == 486
    for tree, (edge, vertex) in small:
        for mode, values, boundary in (("edge", edge, edge_boundary_size),
                                       ("vertex", vertex, vertex_boundary_size)):
            sets = witness_subsets(tree, range(1, tree.n + 1), mode)
            assert [(len(sets[i]), boundary(tree, sets[i])) for i in sets] == [
                (i, values[i - 1]) for i in sets], (tree.parent, mode)
    with monkeypatch.context() as m:
        _force_route(m, 0)
        for tree, oracle in small:
            got = compute_profile(tree)
            assert (list(got.edge_values), list(got.vertex_values)) == oracle, tree.parent


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
    # Larger random trees, every size from one witness_subsets call per mode.
    for label, tree in random_trees(40, 60, seed0=6):
        prof = compute_profile(tree)
        for mode, boundary, values in (
            ("edge", edge_boundary_size, prof.edge_values),
            ("vertex", vertex_boundary_size, prof.vertex_values),
        ):
            for i, s in witness_subsets(tree, range(1, tree.n + 1), mode).items():
                assert (len(s), boundary(tree, s)) == (i, values[i - 1]), (label, mode, i)


# Exact witness sets.  They pin the tie order of the split scan (previous
# flag, child flag, child allocation, each ascending; children back along
# their class-order chain, equal classes in descending id), which
# self-consistency checks alone do not.
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
        1: [4], 4: [3, 4, 10, 11], 5: [2, 3, 8, 9, 10], 7: [2, 3, 4, 8, 9, 10, 11]
    },
    ("caterpillar", "vertex"): {
        1: [11], 4: [3, 9, 10, 11], 5: [3, 8, 9, 10, 11], 7: [2, 3, 7, 8, 9, 10, 11]
    },
    ("prufer", "edge"): {
        2: [3, 9], 3: [1, 5, 6], 5: [1, 3, 5, 6, 9], 10: [1, 3, 4, 5, 6, 7, 8, 9, 10, 12]
    },
    ("prufer", "vertex"): {
        2: [1, 5], 3: [1, 5, 6], 5: [0, 2, 3, 9, 11], 10: [1, 3, 4, 5, 6, 7, 8, 9, 10, 12]
    },
}


def test_witness_deterministic():
    def tree():
        # Built anew per call, so that each side runs its own DP rather
        # than reusing the clipped run kept for the tree object.
        return generate_tree("random_prufer", {"n": 13}, seed=21)

    for i in (1, 4, 7, 13):
        assert witness_subset(tree(), i, "edge") == witness_subset(tree(), i, "edge")
        assert witness_subset(tree(), i, "vertex") == witness_subset(tree(), i, "vertex")
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
    with pytest.raises(ValueError):
        witness_subsets(tree, [3, 8], "edge")
    with pytest.raises(ValueError):
        witness_subsets(tree, [3], "boundary")
    with pytest.raises(ValueError, match="must be an integer, got 2.0"):
        witness_subset(tree, 2.0, "edge")
    with pytest.raises(ValueError, match="must be an integer, got True"):
        witness_subset(tree, True, "edge")
    with pytest.raises(ValueError, match="must be an integer, got True"):
        witness_subsets(tree, [1, True], "edge")
    # Argument errors come first; then the size cap, for no sizes as well.
    with pytest.raises(ValueError, match="out of range"):
        witness_subsets(tree, [8], "edge", size_cap=tree.n - 1)
    with pytest.raises(ValueError, match="mode"):
        witness_subsets(tree, [], "boundary", size_cap=tree.n - 1)
    for sizes in ([], [3]):
        with pytest.raises(SizeCapError, match="size cap"):
            witness_subsets(tree, sizes, "edge", size_cap=tree.n - 1)


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
    tracemalloc peak stays a few MiB, not the 2^20-entry arrays' 26 MiB."""
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


def _force_route(monkeypatch, value):
    """Set both clipped-route constants of _profile to value: 0 sends every
    profile to the dense DP, n every profile of an n-vertex tree through
    clipped runs up to K = n, which always end covering every size."""
    monkeypatch.setattr(profile, "_CLIP_STAGE_RATIO", value)
    monkeypatch.setattr(profile, "_CLIP_K_MAX", value)


def _driver_runs(monkeypatch):
    """A list that gets one entry per run of the stage driver, in either
    table algebra: the number of merges that run made."""
    runs = []
    stages = profile._stages

    def counted(base, merge, *args):
        run = len(runs)
        runs.append(0)

        def counted_merge(*window):
            runs[run] += 1
            return merge(*window)

        return stages(base, counted_merge, *args)

    monkeypatch.setattr(profile, "_stages", counted)
    return runs


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
    """Every run of the stage driver makes the same merges, in either
    algebra: the profiles and the witness on their own route, and both
    with the dense route forced, where each merge is one _merge call with
    the mode's rules."""
    runs = _driver_runs(monkeypatch)
    calls = _merge_calls(monkeypatch)
    tree = generate_tree(kind, params)
    for mode, dp in (("edge", edge_profile), ("vertex", vertex_profile)):
        for run in (dp, lambda t: witness_subset(t, t.n // 2, mode)):
            runs.clear()
            run(tree)
            assert runs and set(runs) == {merges}
        with monkeypatch.context() as m:
            _force_route(m, 0)
            for run in (dp, lambda t: witness_subset(t, t.n // 2, mode)):
                calls.clear()
                # A tree built anew: on the held one, the witness would
                # reuse its clipped run and merge nothing.
                run(generate_tree(kind, params))
                assert len(calls) == merges
                assert all(rules is profile._MODES[mode] for rules in calls)


def _merge_calls(monkeypatch):
    """A list that gets one entry, the mode's rules, per _merge call."""
    calls = []
    merge = profile._merge
    monkeypatch.setattr(profile, "_merge", lambda *args: calls.append(args[2]) or merge(*args))
    return calls


# In id order, u = 1 has children leaf, leaf, X = 4 (a vertex over one
# leaf) and w = 6 has leaf, Y = 8 (a vertex over two leaves), leaf.
PREFIX_TREE = [None, 0, 1, 1, 1, 4, 0, 6, 6, 8, 8, 6]


def test_profile_merges_once_per_class_order_prefix(monkeypatch):
    """In class order, leaves first, u's children are leaf, leaf, X and w's
    leaf, leaf, Y.  So X merges a leaf into the vertex alone; Y shares that
    stage and adds a leaf; u and w share Y's two stages and add X and Y;
    the root adds u and w: 6 merges per driver run, in either algebra,
    where one chain per class takes 1 + 2 + 3 + 3 + 2 = 11.  A relabelling
    permutes every child list but not the classes, so it merges the same
    stages to the same profile."""
    runs = _driver_runs(monkeypatch)
    tree = RootedTree.from_parents(PREFIX_TREE, 0)
    expected = compute_profile(tree)
    assert len(runs) >= 2 and set(runs) == {6}
    assert expected == IsoProfile.from_values(*brute_force_profiles(tree))
    rng = random.Random(3)
    perms = [list(range(tree.n))[::-1]] + [rng.sample(range(tree.n), tree.n) for _ in range(20)]
    for perm in perms:
        runs.clear()
        assert compute_profile(relabel(tree, perm)) == expected
        assert len(runs) >= 2 and set(runs) == {6}


def _vertex_order_prefixes(tree):
    """(distinct id-order child-list prefixes, merges of one chain per
    ordered class), counted with each subtree spelled out as nested tuples
    of its children's, not with the DP's class ids."""
    form = [None] * tree.n
    prefixes = set()
    for v in postorder(tree):
        form[v] = kids = tuple(form[c] for c in tree.children[v])
        prefixes.update(kids[:m] for m in range(1, len(kids) + 1))
    return len(prefixes), sum(len(kids) for kids in set(form))


def test_witness_merges_once_per_class_order_prefix(monkeypatch):
    """The witness DP walks the profiles' stages, children in ascending
    class id, so each of its driver runs makes the merges a profile run
    makes, one per distinct prefix of those child lists: 6 on PREFIX_TREE
    (see test_profile_merges_once_per_class_order_prefix), against 7 for
    its id-order prefixes, where the lists of u (leaf, leaf, X) and w
    (leaf, Y, leaf) part after the first leaf, and 11 for one chain per
    class.  A spider's legs share nothing but their class: 6 either way.
    Random recursive trees, whose vertices often start with the same
    leaves, have fewer id-order prefixes than chains, and fewer class-order
    merges still.  Counted per run of the stage driver, in either
    algebra."""
    runs = _driver_runs(monkeypatch)
    prefix_tree = RootedTree.from_parents(PREFIX_TREE, 0)
    assert _vertex_order_prefixes(prefix_tree) == (7, 11)
    assert _vertex_order_prefixes(_spider(4, 3)) == (6, 6)
    recursive = [generate_tree("random_recursive", {"n": 200}, seed=s) for s in range(3)]
    for tree in recursive:
        merges, chains = _vertex_order_prefixes(tree)
        assert merges < chains
    for tree, pinned in [(prefix_tree, 6), (_spider(4, 3), 6)] + [(t, None) for t in recursive]:
        runs.clear()
        compute_profile(tree)
        [merges] = set(runs)
        assert merges == pinned if pinned else merges < _vertex_order_prefixes(tree)[0]
        for mode in ("edge", "vertex"):
            runs.clear()
            witness_subsets(tree, range(1, tree.n + 1), mode)
            assert runs and set(runs) == {merges}, mode


# (cur, child) table widths that reach every _merge route by name:
# _merge_short with the child as the short side and with cur as it, at 1, 2
# and _ROW_LOOP_MAX cells (each also windowed with skip > 0 below) and
# against a long side above 8192 cells; _merge_pairs through
# _min_plus_blocks, with blocks whose last one is shorter (120 or 121 rows
# against 300 cells, on either side of the merge); and _merge_pairs through
# _min_plus_rows, whose long side is too long for a block of
# _MIN_BLOCK_ROWS rows.  Equal widths, at most _ROW_LOOP_MAX cells and
# wider, take the child as the short side.
_LONG = profile._BLOCK_CELLS // profile._MIN_BLOCK_ROWS + 1
KERNEL_WIDTHS = [
    (40, 1),
    (40, 2),
    (40, profile._ROW_LOOP_MAX),
    (1, 40),
    (2, 40),
    (profile._ROW_LOOP_MAX, 39),
    (3, _LONG),
    (1, 1),
    (profile._ROW_LOOP_MAX, profile._ROW_LOOP_MAX),
    (profile._ROW_LOOP_MAX + 1, profile._ROW_LOOP_MAX + 1),
    (57, 57),
    (120, 300),
    (300, 121),
    (_LONG, profile._ROW_LOOP_MAX + 2),
]


@pytest.mark.parametrize(
    "mode, trans", [("edge", profile._EDGE_TRANS), ("vertex", profile._VERTEX_TRANS)]
)
def test_merge_follows_transition_table(monkeypatch, mode, trans):
    """_merge equals min over (s_prev, sc, jc) of cur[s_prev][j - jc] +
    child[sc][jc] + cost, evaluated straight from the transition table,
    with every sum at or above profile._INF saturated to it.  KERNEL_WIDTHS
    reach every route and branch named there; the pair kernels get the
    short operand first, and a tie takes the child as the short side."""
    rng = random.Random(7)
    rules = profile._MODES[mode]
    nflags = 1 + max(s for s, _ in trans)
    inf = profile._INF
    reached = set()
    sides = []
    merge_short, merge_pairs, rows, blocks = (
        profile._merge_short, profile._merge_pairs, profile._min_plus_rows, profile._min_plus_blocks)

    def spied_short(short, long, runs, skip, out):
        side = "child" if runs is rules.child_terms else "cur"
        sides.append(side)
        reached.add(("short", side, short.shape[1], skip > 0))
        merge_short(short, long, runs, skip, out)

    def spied_pairs(cur, child, into, kernel, cur_short, skip, out):
        sides.append("cur" if cur_short else "child")
        merge_pairs(cur, child, into, kernel, cur_short, skip, out)

    def spied_rows(a, b, out, skip):
        assert a.size <= b.size
        reached.add("rows")
        rows(a, b, out, skip)

    def spied_blocks(a, b, out, skip):
        assert a.size <= b.size
        ragged = a.size % (profile._BLOCK_CELLS // b.size) not in (0, a.size)
        reached.add("ragged blocks" if ragged else "blocks")
        blocks(a, b, out, skip)

    monkeypatch.setattr(profile, "_merge_short", spied_short)
    monkeypatch.setattr(profile, "_merge_pairs", spied_pairs)
    monkeypatch.setattr(profile, "_min_plus_rows", spied_rows)
    monkeypatch.setattr(profile, "_min_plus_blocks", spied_blocks)

    def table(width):
        return np.array(
            [
                [inf if rng.random() < 0.3 else rng.randint(0, 9) for _ in range(width)]
                for _ in range(nflags)
            ],
            dtype=np.int32,
        )

    widths = [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(60)] + KERNEL_WIDTHS
    for cur_width, child_width in widths:
        cur, child = table(cur_width), table(child_width)
        expected = [[inf] * (cur_width + child_width - 1) for _ in range(nflags)]
        for (s_prev, sc), (cost, s_new) in trans.items():
            row = expected[s_new]
            for i, x in enumerate(cur[s_prev].tolist()):
                for jc, y in enumerate(child[sc].tolist()):
                    row[i + jc] = min(inf, row[i + jc], x + y + cost)
        full = cur_width + child_width - 1
        sides.clear()
        merged = profile._merge(cur, child, rules, 0, full)
        assert merged.dtype == np.int32
        assert merged.tolist() == expected, (cur_width, child_width)
        assert sides == ["child" if child_width <= cur_width else "cur"], (cur_width, child_width)
        for skip, width in {(0, full), (0, 1), (full - 1, 1), (1, full - 2),
                            (rng.randint(0, full - 1), rng.randint(1, full))}:
            width = min(width, full - skip)
            if width < 1:
                continue
            window = profile._merge(cur, child, rules, skip, width)
            assert window.tolist() == [row[skip : skip + width] for row in expected], (
                cur_width, child_width, skip, width)
    short = {("short", side, w, True) for side in ("child", "cur")
             for w in (1, 2, profile._ROW_LOOP_MAX)}
    assert short | {"blocks", "ragged blocks", "rows"} <= reached


@pytest.mark.parametrize(
    "mode, trans", [("edge", profile._EDGE_TRANS), ("vertex", profile._VERTEX_TRANS)]
)
def test_short_terms_hold_each_transition_once(mode, trans):
    """Both term tables of a mode, read back term by term, are the
    transition table: each (s_prev, sc) -> (cost, s_new) exactly once,
    filed under the flag of the short side."""
    rules = profile._MODES[mode]
    for terms, child_short in ((rules.child_terms, True), (rules.cur_terms, False)):
        assert len(terms) == len(rules.into)
        read = []
        for flag, group in enumerate(terms):
            for s_long, s_new, cost in group:
                key = (s_long, flag) if child_short else (flag, s_long)
                read.append((key, (cost, s_new)))
        assert sorted(read) == sorted(trans.items())


def _block_trims(a, b, out, skip) -> bool:
    """Whether some block of a _min_plus_blocks call has sums landing in out
    but a cell of b whose sums with every row of the block land outside it."""
    r = min(a.size, profile._BLOCK_CELLS // b.size)
    for i in range(0, a.size, r):
        rows = min(r, a.size - i)
        # Cells first .. stop - 1 of b land, with some row of the block.
        first, stop = max(0, skip - i - rows + 1), min(b.size, out.size + skip - i)
        if first < stop and (first > 0 or stop < b.size):
            return True
    return False


def test_row_and_block_kernels_agree(monkeypatch):
    """On every _merge call the DP makes, with the profiles' dense route
    forced, on the small-tree corpus, on complete trees large enough for
    blocks whose last one is shorter and in the witness DP's windowed
    calls, the route _merge takes equals _merge_pairs, and every call of
    either min-plus kernel gives the row the other kernel gives.  Some
    block calls leave cells of b out of a block's add (_block_trims), and
    the profiles' root merges take the one-row rules."""
    merge, rows, blocks = profile._merge, profile._min_plus_rows, profile._min_plus_blocks
    ragged = windowed = trimmed = roots = 0
    short_routes = set()

    def cross_checked(kernel, other):
        def run(a, b, out, skip):
            nonlocal ragged, windowed, trimmed
            expected = out.copy()
            other(a, b, expected, skip)
            kernel(a, b, out, skip)
            assert np.array_equal(out, expected), (a.size, b.size, skip)
            ragged += a.size % (profile._BLOCK_CELLS // b.size) not in (0, a.size)
            windowed += out.size < a.size + b.size - 1 and a.size > profile._ROW_LOOP_MAX
            trimmed += kernel is blocks and _block_trims(a, b, out, skip)
        return run

    def checked(cur, child, rules, skip, width, root=False):
        nonlocal roots
        out = merge(cur, child, rules, skip, width, root)
        mode = next(m for m, r in profile._MODES.items() if r is rules)
        roots += root
        terms = rules.root if root else rules
        assert out.shape == (len(terms.into), width)
        side, w = ("child", child.shape[1]) if child.shape[1] <= cur.shape[1] else ("cur", cur.shape[1])
        if w <= profile._ROW_LOOP_MAX:
            short_routes.add((mode, side, skip > 0))
            pairs = profile._empty_table(len(terms.into), width)
            profile._merge_pairs(cur, child, terms.into, profile._min_plus_blocks, side == "cur",
                                 skip, pairs)
            assert np.array_equal(out, pairs), (mode, cur.shape, child.shape, skip, width)
        return out

    _force_route(monkeypatch, 0)
    monkeypatch.setattr(profile, "_min_plus_rows", cross_checked(rows, blocks))
    monkeypatch.setattr(profile, "_min_plus_blocks", cross_checked(blocks, rows))
    monkeypatch.setattr(profile, "_merge", checked)
    trees = [tree for _, tree in structured_trees(16) + random_trees(500, 16)]
    trees += [generate_tree("complete_tary", {"t": 2, "d": 12}),
              generate_tree("complete_tary", {"t": 3, "d": 8})]
    for tree in trees:
        compute_profile(tree)
    for tree in trees[-2:] + [generate_tree("random_recursive", {"n": 400}, seed=2)]:
        for mode in ("edge", "vertex"):
            witness_subsets(tree, [tree.n // 3, tree.n // 2], mode)
    assert ragged and windowed and trimmed and roots
    assert short_routes == {(m, side, sk) for m in ("edge", "vertex")
                            for side in ("child", "cur") for sk in (False, True)}


class _Live:
    """Bytes of the tracked objects alive at once: each counts from track()
    until it is garbage."""

    def __init__(self):
        self.live = self.peak = self.tracked = 0

    def track(self, obj, nbytes: int):
        self.live += nbytes
        self.peak = max(self.peak, self.live)
        self.tracked += 1
        weakref.finalize(obj, self._release, nbytes)
        return obj

    def _release(self, nbytes: int):
        self.live -= nbytes


def _dense_live_peak(monkeypatch, tree, mode):
    """(peak bytes of the dense tables alive at once, tables tracked) during
    one profile call on the dense route; every table _merge returns counts."""
    live = _Live()
    merge = profile._merge

    def tracked(*args):
        table = merge(*args)
        return live.track(table, table.nbytes)

    with monkeypatch.context() as m:
        _force_route(m, 0)
        m.setattr(profile, "_merge", tracked)
        (edge_profile if mode == "edge" else vertex_profile)(tree)
    return live.peak, live.tracked


class _Stage(list):
    """A clipped stage that, unlike a list, can be weakly referenced."""


def _level_bytes(stage) -> int:
    """Bytes of the levels of a clipped stage: each (c, bits, j) tuple and its bitset."""
    return sum(sys.getsizeof(level) + sys.getsizeof(level[1]) for row in stage for level in row)


def _clipped_live_peak(tree, mode, k):
    """(peak _level_bytes of the merged clipped stages alive at once during
    one run of the stage driver at K = k, the peak _last_use_peak replays
    from the same stages' bytes)."""
    base, merge = profile._clipped(profile._MODES[mode], k)
    live, made = _Live(), [0]

    def tracked(*args):
        stage = _Stage(merge(*args))
        made.append(_level_bytes(stage))
        return live.track(stage, made[-1])

    keys = profile._subtree_classes(tree, tree.n)[1]
    for _ in profile._stages(base, tracked, keys, profile._stage_sizes(keys), tree.n, 0, tree.n):
        pass
    assert len(made) == len(keys)
    return live.peak, _last_use_peak(keys, made)


def _last_use_peak(keys, nbytes):
    """Peak bytes of DP stages that each live from their merge until the
    last stage that merges them is made, replayed from the stage keys:
    stage k takes nbytes[k]."""
    last = {x: k for k, key in enumerate(keys) for x in key}
    freed = Counter()
    live = peak = 0
    for k in range(len(keys)):
        live += nbytes[k]
        peak = max(peak, live)
        freed[last.get(k, len(keys))] += nbytes[k]
        live -= freed.pop(k, 0)
    return peak


def _per_vertex_table_peak(tree, rows):
    """Peak table bytes of a DP that merges at every vertex, replayed from
    subtree sizes: children merge in ascending id order, a table of a
    subtree with w vertices has rows x (w + 1) cells of the DP's dtype, and
    the partial table and the child's table are dropped after each merge."""
    cell = profile._MODES["edge"].base.itemsize * rows
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
    """In both table algebras a stage is freed once its last merge is made.
    The dense tables alive at once take no more bytes than a per-vertex DP's
    tables of rows x (w + 1) cells would; the clipped stages of a run at
    K = 2 take no more than those whose last merge is still to come."""
    tree = generate_tree(kind, params, seed=4)
    for mode, rows in (("edge", 2), ("vertex", 3)):
        peak, tracked = _dense_live_peak(monkeypatch, tree, mode)
        assert tracked and peak <= _per_vertex_table_peak(tree, rows)
        peak, bound = _clipped_live_peak(tree, mode, 2)
        assert 0 < peak <= bound


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
@given(labelled_trees(16))
def test_dp_matches_oracle_property(tree):
    """The profiles, each by its route, clipped or dense."""
    assert (edge_profile(tree), vertex_profile(tree)) == brute_force_profiles(tree)


def _subtree(tree, v):
    """The subtree rooted at v as a tree of its own: v is vertex 0, the
    others follow in breadth-first order."""
    order = [v]
    for u in order:
        order.extend(tree.children[u])
    ids = {u: k for k, u in enumerate(order)}
    return RootedTree.from_parents([None] + [ids[tree.parent[u]] for u in order[1:]], 0)


@settings(deadline=None, max_examples=50)
@given(st.one_of(labelled_trees(40), repeated_subtree_trees), st.data())
def test_subtree_profiles_match_each_subtree_alone(tree, data):
    """subtree_profiles at drawn vertices, one route per mode for all of
    them, equals compute_profile of each subtree rebuilt as a tree of its
    own, and the oracle's profiles where that has at most 16 vertices."""
    vertices = data.draw(st.lists(st.integers(0, tree.n - 1), min_size=1, max_size=6))
    got = subtree_profiles(tree, vertices)
    assert sorted(got) == sorted(set(vertices))
    for v in vertices:
        alone = _subtree(tree, v)
        assert got[v] == compute_profile(alone), v
        if alone.n <= 16:
            oracle = brute_force_profiles(alone)
            assert (list(got[v].edge_values), list(got[v].vertex_values)) == oracle, v


def test_subtree_profiles_routes_agree(monkeypatch):
    """Every vertex's subtree profile from one subtree_profiles call, with
    the dense route forced and with clipped runs up to K = n forced, equals
    compute_profile of the subtree alone, on structured and random trees."""
    log = _route_log(monkeypatch)
    for label, tree in structured_trees(10) + random_trees(30, 30, seed0=4):
        alone = [compute_profile(_subtree(tree, v)) for v in range(tree.n)]
        for value in (0, tree.n):
            log.clear()
            with monkeypatch.context() as m:
                _force_route(m, value)
                got = subtree_profiles(tree, range(tree.n))
            assert [got[v] for v in range(tree.n)] == alone, (label, value)
            assert (None in log) == (value == 0), (label, value)


def test_subtree_profiles_clip_only_when_every_subtree_is_covered(monkeypatch):
    """A broom, a path of 30 vertices whose end holds a star of 8 leaves:
    the whole tree's edge profile peaks at 1, the star's at 4.  The edge
    route starts at K = 2, whose run covers the root; it does not serve a
    call that also asks for the star, which steps on to K = 4."""
    broom = RootedTree.from_parents([None] + list(range(29)) + [29] * 8, 0)
    star = _subtree(broom, 29)
    assert (compute_profile(broom).edge_peak, compute_profile(star).edge_peak) == (1, 4)
    log = _route_log(monkeypatch)
    root_only = edge_profile(broom)
    assert log == [2]
    log.clear()
    both = subtree_profiles(broom, [0, 29])
    assert log == [2, 3, 4, 1]  # edge K = 2, 3, 4, then vertex K = 1
    assert list(both[0].edge_values) == root_only
    assert both[29] == compute_profile(star)


def test_level_one_step_clips_on_mixed_coverage(monkeypatch):
    """A spider, three paths of 8 vertices on one root, has vertex peak 2,
    and each leg vertex peak 1.  Asked for the root and a leg, the vertex
    route's closed-form K = 1 run covers the leg but not the root, so it
    steps on to a clipped run at K = 2, and every profile equals that of
    its subtree alone.  Only the vertex mode takes the closed form: on
    trees with n <= 2 the edge route also starts at K = 1, with a clipped
    run."""
    spider = RootedTree.from_parents([None] + [0 if j % 8 == 0 else j for j in range(24)], 0)
    assert (compute_profile(spider).vertex_peak, compute_profile(_subtree(spider, 1)).vertex_peak) == (2, 1)
    log = _route_log(monkeypatch)
    closed, level_one = [], profile._level_one
    monkeypatch.setattr(profile, "_level_one", lambda: closed.append(1) or level_one())
    edge_profile(spider)
    edge_log = list(log)
    log.clear()
    got = subtree_profiles(spider, [0, 1])
    assert (log, closed) == (edge_log + [1, 2], [1])
    for v in (0, 1):
        assert got[v] == compute_profile(_subtree(spider, v)), v
    for n in (1, 2):
        path = generate_tree("path", {"n": n})
        for mode, run in (("edge", edge_profile), ("vertex", vertex_profile)):
            log.clear()
            closed.clear()
            assert run(path) == [1] * (n - 1) + [0], (n, mode)
            assert (log, closed) == ([1], [1] if mode == "vertex" else []), (n, mode)


def test_subtree_profiles_argument_errors(monkeypatch):
    """A vertex outside 0..n-1 or not an int is refused, -1 included, which
    would otherwise index from the end; a tree above size_cap too, with no
    vertices as well.  No vertices run no DP."""
    runs = []
    stages = profile._stages
    monkeypatch.setattr(profile, "_stages", lambda *args: runs.append(1) or stages(*args))
    tree = bin3()
    assert subtree_profiles(tree, []) == {} and runs == []
    for bad in (-1, 7, 2.0, True):
        with pytest.raises(ValueError, match="out of range"):
            subtree_profiles(tree, [0, bad])
    for vertices in ([0], []):
        with pytest.raises(SizeCapError, match="size cap"):
            subtree_profiles(tree, vertices, size_cap=6)


@settings(deadline=None)
@given(st.one_of(labelled_trees(40), repeated_subtree_trees), st.data())
def test_profiles_invariant_under_relabelling(tree, data):
    perm = data.draw(st.permutations(range(tree.n)))
    assert compute_profile(relabel(tree, perm)) == compute_profile(tree)


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


# Trees past the oracle's ceiling, with merges large enough for the block
# kernel; the complete binary tree with 255 vertices makes 128 x 129 merges.
large_trees = st.one_of(
    labelled_trees(300),
    st.builds(
        lambda t, d: generate_tree("complete_tary", {"t": t, "d": d}),
        st.integers(2, 3),
        st.integers(4, 5),
    ),
)


@settings(deadline=None, max_examples=40)
@given(large_trees)
@example(generate_tree("complete_tary", {"t": 2, "d": 8}))
def test_edge_profile_is_complement_symmetric(tree):
    """A set and its complement cut the same edges: b_e(i) = b_e(n - i).
    Read off the full-width dense root table, cells 0..n, since the edge
    profile keeps cells up to n // 2 and mirrors the rest; the profile
    equals that table's minimum over flags."""
    values = np.min(_full_root_table(tree, "edge"), axis=0).tolist()
    assert values == values[::-1]
    assert edge_profile(tree) == values[1:]


@settings(deadline=None, max_examples=40)
@given(large_trees, st.integers(min_value=0))
@example(generate_tree("complete_tary", {"t": 2, "d": 8}), 191)
def test_profiles_invariant_under_rerooting(tree, k):
    """Both profiles depend on the unrooted tree alone, though another root
    changes the subtree classes, the merge order and the table shapes."""
    assert compute_profile(reroot(tree, k % tree.n)) == compute_profile(tree)


@settings(deadline=None, max_examples=20)
@given(large_trees, st.integers(min_value=0))
@example(generate_tree("complete_tary", {"t": 2, "d": 8}), 191)
def test_witnesses_attain_profile_above_the_oracle(tree, k):
    """Past the oracle's ceiling, on the tree and on a reroot of it, one
    witness_subsets call per mode gives a set of each size i whose
    boundary, counted from the definition, is the profile value b(i)."""
    for t in (tree, reroot(tree, k % tree.n)):
        prof = compute_profile(t)
        sizes = {i for i in (1, t.n // 4, t.n // 2, 3 * t.n // 4, t.n - 1) if i >= 1}
        for mode, boundary, values in (
            ("edge", edge_boundary_size, prof.edge_values),
            ("vertex", vertex_boundary_size, prof.vertex_values),
        ):
            witnesses = witness_subsets(t, sizes, mode)
            assert sorted(witnesses) == sorted(sizes)
            for i, s in witnesses.items():
                assert len(s) == i
                assert boundary(t, s) == values[i - 1], (mode, i)


def test_compute_profile_builds_subtree_classes_once(monkeypatch):
    """compute_profile runs the edge and the vertex DP on one set of
    subtree classes; edge_profile and witness_subset still build their own,
    by the same class-order walk."""
    calls = []
    classes = profile._subtree_classes
    monkeypatch.setattr(
        profile,
        "_subtree_classes",
        lambda tree, cap: calls.append(tree.n) or classes(tree, cap),
    )
    tree = generate_tree("random_prufer", {"n": 30}, seed=5)
    assert compute_profile(tree) == IsoProfile.from_values(edge_profile(tree), vertex_profile(tree))
    witness_subset(tree, 7, "vertex")
    assert calls == [30] * 4
    with pytest.raises(SizeCapError):
        compute_profile(tree, size_cap=29)
    assert calls == [30] * 5


def test_sentinel_headroom_and_base_table():
    """Two sentinel cells plus the largest transition cost, the largest sum
    a merge kernel and the witness scan can form, fit in int32; the one-vertex
    table holds the sentinel in every cell but its two feasible ones, and
    is read-only, since every class shares it."""
    max_cost = max(cost for trans in (profile._EDGE_TRANS, profile._VERTEX_TRANS)
                   for cost, _ in trans.values())
    assert 0 <= 2 * profile._INF + max_cost <= np.iinfo(np.int32).max
    for mode in ("edge", "vertex"):
        base = profile._MODES[mode].base
        assert base.dtype == np.int32
        assert not base.flags.writeable
        expected = np.full(base.shape, profile._INF)
        expected[0, 0] = expected[profile._MODES[mode].in_flag, 1] = 0
        assert base.tolist() == expected.tolist()


@settings(deadline=None)
@given(labelled_trees(60))
@example(generate_tree("path", {"n": 60}))
@example(generate_tree("star", {"n": 60}))
@example(generate_tree("complete_tary", {"t": 3, "d": 3}))
def test_stage_tables_are_int32_within_sentinel(tree):
    """Every dense stage table is int32 with cells in [0, _INF], and cells no
    subset can reach hold _INF exactly, wherever they fall inside the
    stage's window: the root outside a subtree that selects all w of its
    vertices, and the root selected with none."""
    n = tree.n
    for mode in ("edge", "vertex"):
        in_flag = profile._MODES[mode].in_flag
        for i_min, i_max in {(1, n), (max(1, n // 2), max(1, n // 2)), (n, n)}:
            cls, stages = _dense_witness_stages(tree, mode, i_min, i_max)
            for _, tab in stages:
                assert tab.dtype == np.int32
                assert tab.min() >= 0 and tab.max() <= profile._INF
            for v, w in enumerate(_subtree_sizes(tree)):
                lo, final = stages[cls[v]]
                if w < lo + final.shape[1]:
                    assert final[0][w - lo] == profile._INF
                if lo == 0:
                    assert final[in_flag][0] == profile._INF
        root = _full_root_table(tree, mode)
        assert root[0][n] == profile._INF
        assert root[in_flag][0] == profile._INF


def _dense_witness_stages(tree, mode, i_min, i_max):
    """(last stage id per vertex, every stage) of the witness DP for sizes
    i_min .. i_max with the dense route forced, from an empty memo, so that
    no held clipped run can answer it."""
    with pytest.MonkeyPatch.context() as m:
        _force_route(m, 0)
        m.setattr(profile, "_witness_memo", None)
        sizes = range(i_min, i_max + 1)
        cls, _, _, run = profile._witness_run(tree, mode, profile.DEFAULT_DP_CAP, sizes)
    return cls, run.stages


def _full_root_table(tree, mode):
    """The root table over every cell 0..n: the last stage of _stages(..., 0, n)."""
    keys = profile._subtree_classes(tree, profile.DEFAULT_DP_CAP)[1]
    dense = profile._dense(profile._MODES[mode])
    for _, table in profile._stages(*dense, keys, profile._stage_sizes(keys), tree.n, 0, tree.n):
        pass
    return table


def test_one_row_root_merge_is_the_minimum_over_flags():
    """The root's last stage of a profile's dense run is one row, the
    minimum over flags of the full-width root table over its window, in
    both modes and with the edge profile's half window; and _merge with the
    one-row rules gives the minimum over flags of its full merge on every
    route, windowed or not."""
    for label, tree in structured_trees(12) + random_trees(40, 60, seed0=12):
        keys = profile._subtree_classes(tree, tree.n)[1]
        size = profile._stage_sizes(keys)
        for mode in ("edge", "vertex"):
            full = np.min(_full_root_table(tree, mode), axis=0)
            for i_max in {tree.n, max(1, tree.n // 2)}:
                dense = profile._dense(profile._MODES[mode], True)
                *_, (lo, root) = profile._stages(*dense, keys, size, tree.n, 1, i_max)
                assert root.shape[0] == (1 if tree.n > 1 else len(profile._MODES[mode].into))
                assert np.min(root, axis=0).tolist() == full[lo : lo + root.shape[1]].tolist(), (label, mode)
    rng = np.random.default_rng(5)
    for mode, rules in profile._MODES.items():
        for cur_width, child_width in KERNEL_WIDTHS:
            nflags = len(rules.into)
            cur, child = (np.where(rng.random((nflags, w)) < 0.3, profile._INF,
                                   rng.integers(0, 9, (nflags, w))).astype(np.int32)
                          for w in (cur_width, child_width))
            whole = cur_width + child_width - 1
            for skip, width in ((0, whole), (1, whole - 1), (whole // 3, whole // 2)):
                if width < 1:
                    continue
                got = profile._merge(cur, child, rules, skip, width, True)
                expected = np.min(profile._merge(cur, child, rules, skip, width), axis=0)
                assert got.tolist() == [expected.tolist()], (mode, cur_width, child_width, skip)


def test_dense_subtree_profiles_read_wide_classes_from_their_mirror(monkeypatch):
    """With the dense route forced, subtree_profiles at every vertex of a
    path with n = 300 and of 20 random trees equals each subtree's own
    profile: the edge stages keep cells up to n // 2 only, so every class
    wider than that is read in part from its mirror."""
    log = _route_log(monkeypatch)
    trees = [generate_tree("path", {"n": 300})] + [t for _, t in random_trees(20, 120, seed0=31)]
    wide = []
    for tree in trees:
        log.clear()
        with monkeypatch.context() as m:
            _force_route(m, 0)
            got = subtree_profiles(tree, range(tree.n))
        assert log == [None, None], tree.n
        wide.append(sum(w > tree.n // 2 for w in _subtree_sizes(tree)) - 1)
        for v in range(tree.n):
            assert got[v] == compute_profile(_subtree(tree, v)), (tree.n, v)
    # Wide classes below the root: 149 on the path, some on the random trees.
    assert wide[0] == 149 and sum(wide[1:]) > 0


def test_dense_runs_take_the_small_ufunc_buffer(monkeypatch):
    """Every dense merge, of a profile or a witness, runs with the ufunc
    buffer at _UFUNC_BUFSIZE and every clipped or closed-form merge with the
    caller's; the caller's size is back after compute_profile,
    subtree_profiles, a dense witness_subset and a dense run that raises.
    The dense witnesses are a star's edge mode at i = n/2 (b_e = n/2), after
    one clipped run that misses."""
    seen = {"dense": set(), "other": set()}
    merge = profile._merge
    monkeypatch.setattr(profile, "_merge", lambda *args: seen["dense"].add(np.getbufsize()) or merge(*args))
    for name in ("_clipped", "_level_one"):
        def spied(*args, algebra=getattr(profile, name)):
            base, step = algebra(*args)
            return base, lambda *window: seen["other"].add(np.getbufsize()) or step(*window)
        monkeypatch.setattr(profile, name, spied)
    binary, star = generate_tree("complete_tary", {"t": 2, "d": 8}), generate_tree("star", {"n": 60})
    outer = np.setbufsize(4096)
    try:
        for tree in (binary, star, generate_tree("path", {"n": 60})):
            compute_profile(tree)
            assert np.getbufsize() == 4096
            subtree_profiles(tree, range(0, tree.n, 7))
            assert np.getbufsize() == 4096
        witness_subset(generate_tree("star", {"n": 60}), 30, "edge")
        assert np.getbufsize() == 4096
        assert seen == {"dense": {profile._UFUNC_BUFSIZE}, "other": {4096}}

        def failing(*args):
            raise RuntimeError("merge failed")

        monkeypatch.setattr(profile, "_merge", failing)
        for run, tree in ((compute_profile, generate_tree("complete_tary", {"t": 2, "d": 8})),
                          (lambda t: witness_subset(t, 30, "edge"), generate_tree("star", {"n": 60}))):
            with pytest.raises(RuntimeError, match="merge failed"):
                run(tree)
            assert np.getbufsize() == 4096
    finally:
        np.setbufsize(outer)


def _subtree_sizes(tree):
    size = [1] * tree.n
    for v in postorder(tree):
        size[v] += sum(size[c] for c in tree.children[v])
    return size


@settings(deadline=None, max_examples=25)
@given(labelled_trees(60))
@example(generate_tree("path", {"n": 60}))
@example(generate_tree("star", {"n": 60}))
@example(generate_tree("complete_tary", {"t": 3, "d": 3}))
def test_windowed_stages_are_slices_of_full_width_stages(tree):
    """The stages kept for size i are the full-width stages (sizes 1..n,
    whose windows are [0, s] below the root) cut to their windows, and the
    full-width root stage is the profile DP's root table from cell 1 on."""
    n = tree.n
    for mode in ("edge", "vertex"):
        cls, full = _dense_witness_stages(tree, mode, 1, n)
        root = _full_root_table(tree, mode)
        assert full[cls[tree.root]][1].tolist() == root[:, 1:].tolist()
        for i in range(1, n + 1):
            stages = _dense_witness_stages(tree, mode, i, i)[1]
            for (lo, tab), (ref_lo, ref) in zip(stages, full, strict=True):
                assert 0 <= lo - ref_lo and 1 <= tab.shape[1]
                assert tab.tolist() == ref[:, lo - ref_lo : lo - ref_lo + tab.shape[1]].tolist()


def test_witness_subsets_match_witness_subset():
    """One DP over the union window of many sizes gives each size the set
    its own query gives, and the pinned sets of WITNESS_SETS."""
    for label, tree in structured_trees(9) + random_trees(30, 14, seed0=8):
        sizes = range(1, tree.n + 1)
        for mode in ("edge", "vertex"):
            every = witness_subsets(tree, sizes, mode)
            assert every == {i: witness_subset(tree, i, mode) for i in sizes}, label
            i = tree.n // 2 + 1
            assert witness_subset(tree, i, mode) == witness_subsets(tree, [i], mode)[i], label
    for (name, mode), expected in WITNESS_SETS.items():
        kind, params, seed = WITNESS_TREES[name]
        got = witness_subsets(generate_tree(kind, params, seed=seed), expected, mode)
        assert {i: sorted(s) for i, s in got.items()} == expected, (name, mode)
    assert witness_subsets(bin3(), [], "edge") == {}


def test_witness_subsets_are_pinned():
    """A digest of every witness set of every size, both modes, on a fixed
    corpus: a change to the witness stages, their order or the tie order of
    the backtracking changes it."""
    digest = hashlib.sha256()
    for _, tree in structured_trees(12) + random_trees(100, 24, seed0=77):
        for mode in ("edge", "vertex"):
            sets = witness_subsets(tree, range(1, tree.n + 1), mode)
            digest.update(repr([sorted(sets[i]) for i in range(1, tree.n + 1)]).encode())
    assert digest.hexdigest() == "722c2180440971a48cab8254af83cf892466da0f70b270e51e24d4bd849c1285"


def _full_walk(tree, mode, i):
    """witness_subset(tree, i, mode) read back with no subtree taken whole:
    every vertex's prefix chain is split down to the vertex alone, whose
    cell must be 0."""
    rules = profile._MODES[mode]
    cls, keys, _, run = profile._witness_run(tree, mode, profile.DEFAULT_DP_CAP, [i])
    cell, split = run.read
    root = run.stages[cls[tree.root]]
    values = [cell(root, s, i) for s in range(len(rules.into))]
    selected, work = [], [(tree.root, i, values.index(min(values)), min(values))]
    while work:
        v, j, s_after, value = work.pop()
        k = cls[v]
        for child in reversed(sorted(tree.children[v], key=cls.__getitem__)):
            k, c = keys[k]
            found = split(rules.into[s_after], run.stages[k], run.stages[c], j, value)
            s_after, sc, x, value, child_value = found
            work.append((child, x, sc, child_value))
            j -= x
        assert value == 0
        if s_after == rules.in_flag:
            selected.append(v)
    return frozenset(selected)


def test_witness_takes_forced_subtrees_whole(monkeypatch):
    """A subtree whose share of the witness is none or all of its vertices
    is taken whole, with no split search.  Every size, both modes, on the
    dense and the clipped route: the sets equal those of the walk that
    splits every chain, which searches once per edge, and the searches
    drop (to about half on this corpus)."""
    searches = []

    def counted(split):
        return lambda *args: searches.append(1) or split(*args)

    for name in ("_dense_split", "_clipped_split"):
        monkeypatch.setattr(profile, name, counted(getattr(profile, name)))
    trees = structured_trees(8) + random_trees(8, 24, seed0=6)
    trees.append(("caterpillar", generate_tree("caterpillar", {"spine": 5, "legs": 6})))
    fast = full = 0
    for dense in (True, False):
        with monkeypatch.context() as m:
            if dense:
                _force_route(m, 0)
            for label, tree in trees:
                for mode in ("edge", "vertex"):
                    for i in range(1, tree.n + 1):
                        m.setattr(profile, "_witness_memo", None)
                        searches.clear()
                        got = witness_subset(tree, i, mode)
                        fast += len(searches)
                        searches.clear()
                        assert got == _full_walk(tree, mode, i), (label, mode, i, dense)
                        assert len(searches) == tree.n - 1
                        full += len(searches)
    assert 0 < fast < full


def test_forced_subtree_keeps_the_base_cell_check():
    """A subtree taken whole must read 0, as a vertex alone does: a root
    cell of 1 at i = n, where the whole tree is forced in, raises."""
    tree = generate_tree("path", {"n": 5})
    cls, keys = profile._subtree_classes(tree, tree.n)
    size, stages = profile._stage_sizes(keys), [None] * len(keys)
    read = (lambda stage, s, j: 1), None
    with pytest.raises(AssertionError, match="infeasible base cell"):
        profile._backtrack(tree, profile._MODES["edge"], cls, keys, size, stages, read, tree.n)


def test_last_stage_is_the_subtree_class():
    """Two vertices share a last stage id exactly when their subtrees have
    equal canonical forms: sorted nested tuples of the children's forms."""
    for label, tree in structured_trees(12) + random_trees(300, 60, seed0=9):
        form = [None] * tree.n
        for v in postorder(tree):
            form[v] = tuple(sorted(form[c] for c in tree.children[v]))
        last = profile._subtree_classes(tree, tree.n)[0]
        ids = {}
        for v in range(tree.n):
            assert ids.setdefault(form[v], last[v]) == last[v], label
        assert len(set(ids.values())) == len(ids), label


def test_witness_cells_predicts_the_kept_stages():
    """The _window of each stage size, from the stage keys alone, gives the
    (lo, width) of every stage the dense witness DP keeps, stage by stage
    and in order, and _dense_bytes their total bytes, for single sizes and
    size ranges."""
    cap = profile.DEFAULT_DP_CAP
    for label, tree in structured_trees(10) + random_trees(20, 40, seed0=3):
        n = tree.n
        keys = profile._subtree_classes(tree, cap)[1]
        size = profile._stage_sizes(keys)
        for mode in ("edge", "vertex"):
            rules = profile._MODES[mode]
            nflags = rules.base.shape[0]
            for i_min, i_max in {(1, n), (1, 1), (n, n), (n // 2 + 1, n // 2 + 1),
                                 (n // 3 + 1, 2 * n // 3 + 1)}:
                stages = _dense_witness_stages(tree, mode, i_min, i_max)[1]
                planned = [profile._window(s, n, i_min, i_max) for s in size]
                assert planned == [(lo, tab.shape[1]) for lo, tab in stages], label
                kept = sum(tab.nbytes for _, tab in stages)
                assert profile._dense_bytes(size, n, i_min, i_max, nflags) == kept, label


def test_witness_refuses_over_budget_before_building_tables():
    """A path with n = 50,000 at i = n/2 would keep about 1.9 billion
    cells; it is refused from the class keys alone, with a peak of a few
    MiB.  The witness workload's widest query, a path with n = 2000 at
    i = n/2, stays within the budget."""
    tree = generate_tree("path", {"n": 50_000})
    for mode in ("edge", "vertex"):
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError, match="budget"):
                witness_subset(tree, tree.n // 2, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 << 20, mode
    small = generate_tree("path", {"n": 2000})
    keys = profile._subtree_classes(small, small.n)[1]
    price = profile._dense_bytes(profile._stage_sizes(keys), 2000, 1000, 1000, 3)
    assert price <= profile.WITNESS_MAX_BYTES


def test_clipped_run_is_exact_up_to_k():
    """A clipped run at K = k, for every k from 0 to the peak, in both
    modes: each size whose dense value is at most k reads that value, each
    other size reads k + 1, missing, and the root covers every size exactly
    when k reaches the peak.  On the acceptance corpus and 200 seeded
    random trees with n <= 40, once per distinct list of stage keys, which
    is all either DP reads of a tree."""
    trees = structured_trees(16) + random_trees(500, 16, seed0=2024) + random_trees(200, 40, seed0=16)
    seen = set()
    for label, tree in trees:
        n = tree.n
        keys = profile._subtree_classes(tree, n)[1]
        if tuple(keys) in seen:
            continue
        seen.add(tuple(keys))
        size = profile._stage_sizes(keys)
        for mode in ("edge", "vertex"):
            dense = np.min(_full_root_table(tree, mode), axis=0)[1:].tolist()
            for k in range(max(dense) + 1):
                # The root's class is the last stage.
                [levels] = profile._clipped_profile(
                    profile._MODES[mode], keys, size, n, k, [len(keys) - 1]
                )
                clipped = profile._read_levels(levels, n)
                assert clipped == [v if v <= k else k + 1 for v in dense], (label, mode, k)
                assert (levels[-1] == (2 << n) - 1) == (k == max(dense)), (label, mode, k)


def test_first_split_is_the_least_split():
    """_first_split of two levels at cell j is the least x <= j with bit x
    of b and bit j - x of a set, or None, on random bitsets that are empty,
    one-bit, sparse or dense, each with the one-bit index _clipped stores
    (-1 unless the level holds exactly one bit), at every j up to twice
    their width."""
    rng = random.Random(30)
    width = 48

    def level():
        kind = rng.randrange(4)
        if kind == 0:
            bits = 0
        elif kind == 1:
            bits = 1 << rng.randrange(width)
        else:
            bits = rng.getrandbits(width)
            if kind == 2:
                bits &= rng.getrandbits(width) & rng.getrandbits(width)
        return bits, -1 if bits & (bits - 1) else bits.bit_length() - 1

    for _ in range(400):
        (a, ja), (b, jb) = level(), level()
        for j in range(2 * width):
            least = next((x for x in range(j + 1) if b >> x & 1 and a >> (j - x) & 1), None)
            assert profile._first_split(a, ja, b, jb, j) == least, (a, b, j)


def test_level_one_sets_match_the_dps(monkeypatch):
    """On every subtree, of w vertices, the sizes where a profile is at
    most 1 follow from subtree sizes alone.  Vertex mode: the closed-form K
    = 1 run reads b_v(i) where it is at most 1 and 2 elsewhere, as a
    clipped run at K = 1 does, and covers exactly when the peak is 1.  Edge
    mode: b_e(i) <= 1 exactly when i is w(u) or w - w(u) for a vertex u of
    the subtree, since a set with one cut edge is the side of that edge
    away from the root or the other side.  Against the dense DP on random
    trees with n = 100-600, above the oracle, and against the oracle on
    structured and random trees with n <= 14."""
    large = [generate_tree("random_prufer" if n % 200 else "random_recursive", {"n": n}, seed=n)
             for n in range(100, 601, 100)]
    small = [tree for _, tree in structured_trees(14) + random_trees(60, 14, seed0=28)]
    for tree, oracle in [(t, False) for t in large] + [(t, True) for t in small]:
        last, keys = profile._subtree_classes(tree, tree.n)
        classes = sorted(set(last))
        size = profile._stage_sizes(keys)
        unions = profile._level_one_profile(keys, size, tree.n, classes)
        level_one = {c: (levels[-1] == (2 << size[c]) - 1, profile._read_levels(levels, size[c]))
                     for c, levels in zip(classes, unions)}
        if oracle:
            dps = {v: brute_force_profiles(_subtree(tree, v)) for v in range(tree.n)}
        else:
            with monkeypatch.context() as m:
                _force_route(m, 0)
                got = subtree_profiles(tree, range(tree.n))
            dps = {v: (list(p.edge_values), list(p.vertex_values)) for v, p in got.items()}
        sizes = _subtree_sizes(tree)
        for v in range(tree.n):
            subtree = [v]
            for u in subtree:
                subtree.extend(tree.children[u])
            w, (edge, vertex), label = len(subtree), dps[v], (tree.n, v)
            assert level_one[last[v]] == (max(vertex) <= 1, [min(b, 2) for b in vertex]), label
            cuts = {sizes[u] for u in subtree} | {w - sizes[u] for u in subtree[1:]}
            assert {i for i, b in enumerate(edge, 1) if b <= 1} == cuts, label


def _route_log(monkeypatch):
    """A list that gets one entry per table algebra a profile builds, one
    per run of the stage driver: K for a clipped run, 1 for the vertex
    mode's closed-form K = 1 run, None for a dense one."""
    log = []
    clipped, dense, level_one = profile._clipped, profile._dense, profile._level_one
    monkeypatch.setattr(profile, "_clipped", lambda rules, k: log.append(k) or clipped(rules, k))
    monkeypatch.setattr(profile, "_dense", lambda rules, *root: log.append(None) or dense(rules, *root))
    monkeypatch.setattr(profile, "_level_one", lambda: log.append(1) or level_one())
    return log


def test_clipped_and_dense_routes_agree(monkeypatch):
    """With both route constants forced to 0 every profile runs the dense
    DP only, and forced to n the clipped DP only; the profiles are equal,
    on structured trees (n = 1 and n = 2 among them) and random trees."""
    log = _route_log(monkeypatch)
    for label, tree in structured_trees(12) + random_trees(60, 40, seed0=9):
        got = []
        for value in (0, tree.n):
            log.clear()
            with monkeypatch.context() as m:
                _force_route(m, value)
                got.append(compute_profile(tree))
            assert (None in log) == (value == 0) and len(log) >= 2, (label, value)
        assert got[0] == got[1], label


def _path_and_star_closed_forms(n):
    """(kind, tree, edge profile, vertex profile) of a path rooted at an end
    and a star centred at its root: b_e = b_v = 1 below n on the path;
    b_e(i) = min(i, n - i) and b_v = 1 below n on the star; both 0 at n."""
    ones = [1] * (n - 1) + [0]
    return [
        ("path", generate_tree("path", {"n": n}), ones, ones),
        ("star", generate_tree("star", {"n": n}), [min(i, n - i) for i in range(1, n + 1)], ones),
    ]


def test_path_and_star_closed_forms_above_the_oracle(monkeypatch):
    """Both profiles of a path and a star with n = 5,000 equal their closed
    forms, on the default route (the path and the star's vertex mode clip,
    the star's edge mode is dense) and with the dense route forced."""
    log = _route_log(monkeypatch)
    routes = {("path", "edge"): [2], ("path", "vertex"): [1],
              ("star", "edge"): [None], ("star", "vertex"): [1]}
    for kind, tree, edge, vertex in _path_and_star_closed_forms(5000):
        for mode, run, values in (("edge", edge_profile, edge), ("vertex", vertex_profile, vertex)):
            log.clear()
            assert run(tree) == values, (kind, mode)
            assert log == routes[kind, mode], (kind, mode)
            log.clear()
            with monkeypatch.context() as m:
                _force_route(m, 0)
                assert run(tree) == values, (kind, mode)
            assert log == [None], (kind, mode)


def test_path_and_star_witnesses_meet_their_closed_forms():
    """Witnesses at n/4, n/2 and 3n/4 on a path and a star with n = 2,000
    have i vertices and the closed-form boundary."""
    for kind, tree, edge, vertex in _path_and_star_closed_forms(2000):
        for i in (500, 1000, 1500):
            for mode, boundary, values in (
                ("edge", edge_boundary_size, edge),
                ("vertex", vertex_boundary_size, vertex),
            ):
                members = witness_subset(tree, i, mode)
                assert (len(members), boundary(tree, members)) == (i, values[i - 1]), (kind, i, mode)


def _k_rule(tree, mode, need, stage_rule):
    """The route log of a DP that needs K = need to cover its sizes:
    clipped runs at K0 .. min(max(K0, need), _CLIP_K_MAX), then a dense run
    if that is below need.  Under the profiles' stage_rule, a tree with n >
    _CLIP_STAGE_RATIO * stages makes one dense run instead, after the
    closed-form K = 1 step in vertex mode."""
    k0 = 1 + (edge_peak_lower_bound(tree.n, subtree_weights(tree).eta) if mode == "edge" else 0)
    stages = len(profile._subtree_classes(tree, tree.n)[1])
    if stage_rule and tree.n > profile._CLIP_STAGE_RATIO * stages:
        level_one = [1] if mode == "vertex" else []
        return level_one + ([] if level_one and need <= 1 else [None])
    last = max(k0, need)
    rule = list(range(k0, min(last, profile._CLIP_K_MAX) + 1))
    return rule + ([None] if last > profile._CLIP_K_MAX else [])


def test_clipped_route_steps_k_from_its_start(monkeypatch):
    """A DP makes clipped runs at K = K0, K0 + 1, ... until one covers every
    size asked for, or up to _CLIP_K_MAX and then one dense run.  K0 is one
    above p = edge_peak_lower_bound(n, eta) in edge mode and 1 in vertex
    mode.  A profile asks for every size, and under its stage rule a tree
    with n > _CLIP_STAGE_RATIO * stages makes one dense run instead, which
    a vertex profile makes only if its closed-form K = 1 step does not
    cover.  A witness at i = ceil(n/2) asks for size i, over the same
    class-order stages, with no stage rule.  Counted by driver runs: the
    edge mode of a star with n = 60 starts at K = p + 1 = 4, misses the
    sizes above it (its peak and b_e(30) are 30) and falls back to the
    dense DP; a path clips at K = p + 1 = 2; a caterpillar with spine 5 and
    legs 6 steps from K = 3 to its edge peak, _CLIP_K_MAX; a complete
    binary tree with d = 8 has too few stages for its profiles to clip, and
    its vertex profile (peak 3) takes the closed-form step before the dense
    run, while its witnesses (b_e = b_v = 1 at i = 128) clip at K0: 3 in
    edge mode, 1 in vertex mode."""
    runs = _driver_runs(monkeypatch)
    log = _route_log(monkeypatch)
    star, path = generate_tree("star", {"n": 60}), generate_tree("path", {"n": 60})
    caterpillar = generate_tree("caterpillar", {"spine": 5, "legs": 6})
    binary = generate_tree("complete_tary", {"t": 2, "d": 8})
    # (tree, mode, profile route, witness route), None where not pinned.
    pinned = [(star, "edge", [4, None], [4, None]), (star, "vertex", [1], [1]),
              (path, "edge", [2], [2]), (path, "vertex", [1], [1]),
              (caterpillar, "edge", [3, 4], None),
              (binary, "edge", [None], [3]), (binary, "vertex", [1, None], [1])]
    corpus = [tree for _, tree in structured_trees(12) + random_trees(30, 300, seed0=5)]
    corpus += [binary, caterpillar]
    for tree, mode, expected, witnessed in (
        pinned + [(t, m, None, None) for t in corpus for m in ("edge", "vertex")]
    ):
        runs.clear()
        log.clear()
        values = (edge_profile if mode == "edge" else vertex_profile)(tree)
        assert log == _k_rule(tree, mode, max(values), True)
        assert expected is None or log == expected
        assert len(runs) == len(log)
        i = (tree.n + 1) // 2
        runs.clear()
        log.clear()
        witness_subset(tree, i, mode)
        assert log == _k_rule(tree, mode, values[i - 1], False)
        assert witnessed is None or log == witnessed
        assert len(runs) == len(log)


def test_witness_routes_agree(monkeypatch):
    """With both route constants forced to 0 every witness runs the dense
    DP, and forced to n clipped runs only; the sets are equal at every
    size, in both modes, on structured trees (n = 1 and n = 2 among them)
    and random trees."""
    log = _route_log(monkeypatch)
    for label, tree in structured_trees(12) + random_trees(40, 30, seed0=21):
        for mode in ("edge", "vertex"):
            got = []
            for value in (0, tree.n):
                log.clear()
                with monkeypatch.context() as m:
                    _force_route(m, value)
                    got.append(witness_subsets(tree, range(1, tree.n + 1), mode))
                assert log == [None] if value == 0 else log and None not in log, (label, value)
            assert got[0] == got[1], (label, mode)


def _caterpillar():
    """A caterpillar with spine 5 and legs 6 (n = 35): its edge-mode witness
    route starts at K = 3, whose run holds sizes 1, 2, 3 and 5 but not 4
    (b_e(4) = 4), and its vertex-mode route at K = 1, which holds every size."""
    return generate_tree("caterpillar", {"spine": 5, "legs": 6})


def _memo_log(monkeypatch):
    """A list that gets, per run of the stage driver, the modes whose runs
    the witness memo holds as that run starts, or None when it holds none."""
    log = []
    stages = profile._stages

    def logged(*args):
        memo = profile._witness_memo
        log.append(None if memo is None else sorted(memo.runs))
        return stages(*args)

    monkeypatch.setattr(profile, "_stages", logged)
    monkeypatch.setattr(profile, "_witness_memo", None)
    return log


def test_witness_memo_serves_interleaved_modes(monkeypatch):
    """Edge and vertex calls at three sizes, interleaved, on one tree make
    one driver run per mode, the vertex one with the edge run still held,
    and give the sets of one witness_subsets call per mode on an equal tree
    built anew.  A dense run, which is never kept, keeps both held runs
    when it fits beside them, and drops both first when it does not."""
    log = _memo_log(monkeypatch)
    tree = _caterpillar()
    got = {"edge": {}, "vertex": {}}
    for i in (1, 2, 3):
        for mode in ("edge", "vertex"):
            got[mode][i] = witness_subset(tree, i, mode)
    assert log == [None, ["edge"]]
    with monkeypatch.context() as m:
        m.setattr(profile, "_CLIP_K_MAX", 3)
        got["edge"][4] = witness_subset(tree, 4, "edge")
        assert log == [None, ["edge"], ["edge", "vertex"]]
        assert sorted(profile._witness_memo.runs) == ["edge", "vertex"]
        # A budget that holds the two runs, and the dense run alone, but not
        # all three.
        keys = profile._subtree_classes(tree, tree.n)[1]
        price = profile._dense_bytes(profile._stage_sizes(keys), tree.n, 4, 4, 2)
        held = sum(run.price for run in profile._witness_memo.runs.values())
        assert 0 < price <= held
        m.setattr(profile, "WITNESS_MAX_BYTES", held)
        assert witness_subset(tree, 4, "edge") == got["edge"][4]
    assert log == [None, ["edge"], ["edge", "vertex"], None] and profile._witness_memo is None
    for mode, sizes in (("edge", (1, 2, 3, 4)), ("vertex", (1, 2, 3))):
        assert got[mode] == witness_subsets(_caterpillar(), sizes, mode), mode


def test_witness_memo_keeps_a_missed_run_beside_dense_runs(monkeypatch):
    """A star with n = 60 clips its vertex witnesses at K = 1, while its
    edge ones start at K = 4, which misses sizes above 4, and go dense.
    Edge and vertex calls interleaved at i = 15, 30, 45 make five driver
    runs: the missed K = 4 run is kept, so the later edge calls go straight
    to the dense DP, and the dense runs, never kept, fit beside the held
    vertex run.  The sets are those of witness_subsets on a star built anew."""
    log = _route_log(monkeypatch)
    monkeypatch.setattr(profile, "_witness_memo", None)
    tree = generate_tree("star", {"n": 60})
    got = {"edge": {}, "vertex": {}}
    for i in (15, 30, 45):
        for mode in ("edge", "vertex"):
            got[mode][i] = witness_subset(tree, i, mode)
    assert log == [4, None, 1, None, None]
    for mode in ("edge", "vertex"):
        assert got[mode] == witness_subsets(generate_tree("star", {"n": 60}), (15, 30, 45), mode)


def test_witness_memo_resumes_above_its_k(monkeypatch):
    """A size the held run at K misses resumes the route at K + 1, with no
    rerun at K and with the run at K dropped before the run at K + 1 is
    built, and the run it keeps then serves the sizes the first one held;
    an equal but distinct tree object misses, and the held tree's run is
    dropped before its run is built."""
    log = _route_log(monkeypatch)
    held = _memo_log(monkeypatch)
    tree = _caterpillar()
    assert edge_profile(tree)[3] == 4
    log.clear()
    witness_subset(tree, 3, "edge")
    assert log == [3]
    log.clear()
    held.clear()
    sets = {i: witness_subset(tree, i, "edge") for i in (4, 2, 3)}
    assert log == [4] and held == [None]
    assert sets == witness_subsets(_caterpillar(), (2, 3, 4), "edge")
    log.clear()
    held.clear()
    witness_subset(_caterpillar(), 2, "edge")
    assert log == [3] and held == [None]


def test_witness_memo_survives_refused_calls(monkeypatch):
    """A call on the held tree refused over its size_cap, or over the budget
    when it resumes above the held K, builds nothing and leaves the held
    run serving the sizes it holds."""
    log = _route_log(monkeypatch)
    monkeypatch.setattr(profile, "_witness_memo", None)
    expected = witness_subset(_caterpillar(), 5, "edge")
    tree = _caterpillar()
    witness_subset(tree, 3, "edge")
    with pytest.raises(SizeCapError, match="size cap"):
        witness_subset(tree, 3, "edge", size_cap=tree.n - 1)
    with monkeypatch.context() as m:
        m.setattr(profile, "WITNESS_MAX_BYTES", 4)
        with pytest.raises(SizeCapError, match="budget"):
            witness_subset(tree, 4, "edge")
    assert witness_subset(tree, 5, "edge") == expected
    assert log == [3, 3]


def test_witness_memo_is_keyed_by_the_tree_alone(monkeypatch):
    """Calls on the held tree with other size caps it is within are served
    by the kept run: no run is built, and the sets are those of an equal
    tree built anew."""
    log = _route_log(monkeypatch)
    monkeypatch.setattr(profile, "_witness_memo", None)
    tree = _caterpillar()
    got = {3: witness_subset(tree, 3, "edge")}
    for i, cap in ((3, tree.n), (5, tree.n + 1), (1, 2 * profile.DEFAULT_DP_CAP)):
        got[i] = witness_subset(tree, i, "edge", size_cap=cap)
    assert log == [3]
    assert got == witness_subsets(_caterpillar(), (1, 3, 5), "edge")


def test_witness_memo_shares_the_budget(monkeypatch):
    """With a budget that holds either mode's run of the caterpillar but
    not both, the held edge run is dropped before the vertex run is built,
    so the next edge call builds again; the sets are those of equal trees
    built anew."""
    tree = _caterpillar()
    cls, keys = profile._subtree_classes(tree, tree.n)
    size = profile._stage_sizes(keys)
    edge, vertex = profile._clipped_bytes(size, 3, 2), profile._clipped_bytes(size, 1, 3)
    budget = max(edge, vertex)
    assert edge + vertex > budget
    log = _memo_log(monkeypatch)
    monkeypatch.setattr(profile, "WITNESS_MAX_BYTES", budget)
    got = [witness_subset(tree, i, mode) for mode in ("edge", "vertex", "edge") for i in (1, 2)]
    assert log == [None, None, None]
    assert sorted(profile._witness_memo.runs) == ["edge"]
    fresh = [witness_subset(_caterpillar(), i, mode) for mode in ("edge", "vertex", "edge")
             for i in (1, 2)]
    assert got == fresh


def test_witness_memo_under_concurrent_callers(monkeypatch):
    """Six threads, more than the cores, query two trees in both modes at
    random sizes, with the interpreter switching threads every microsecond:
    each set equals one computed beforehand on an equal tree, so no caller
    ever reads another tree's runs or a half-published memo."""
    monkeypatch.setattr(profile, "_witness_memo", None)
    shapes = [("caterpillar", {"spine": 5, "legs": 6}, 0), ("random_prufer", {"n": 40}, 3)]
    trees = [generate_tree(kind, params, seed=seed) for kind, params, seed in shapes]
    expected = [
        {mode: witness_subsets(generate_tree(kind, params, seed=seed), range(1, 36), mode)
         for mode in ("edge", "vertex")}
        for kind, params, seed in shapes
    ]
    wrong, done = [], []

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(150):
            t, mode, i = rng.randrange(2), rng.choice(("edge", "vertex")), rng.randrange(1, 36)
            if witness_subset(trees[t], i, mode) != expected[t][mode][i]:
                wrong.append((t, mode, i))
        done.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(done) == list(range(6)) and wrong == []


def test_clipped_witness_budget_admits_what_the_dense_one_refuses():
    """From the stage keys alone: a vertex-mode path with n = 9,600 queried
    at i = n/2 needs more dense bytes than WITNESS_MAX_BYTES, while its
    first clipped run, at K = 1, fits in the same 256 MiB."""
    tree = generate_tree("path", {"n": 9600})
    cls, keys = profile._subtree_classes(tree, tree.n)
    size = profile._stage_sizes(keys)
    assert profile._clip_ks("vertex", cls, size, tree.n)[0] == 1
    assert profile._dense_bytes(size, tree.n, 4800, 4800, 3) > profile.WITNESS_MAX_BYTES
    assert profile._clipped_bytes(size, 1, 3) <= profile.WITNESS_MAX_BYTES


def test_clipped_witness_answers_where_the_dense_run_is_refused(monkeypatch):
    """A caterpillar with spine 1,000 and legs 4 (n = 5,000) queried at
    i = n/2 in vertex mode under a budget of 8,000,000 bytes: its
    dense stages need more, but its clipped run at K = 1 over the 1,004
    class-order stages fits, and gives a set with boundary 1."""
    tree = generate_tree("caterpillar", {"spine": 1000, "legs": 4})
    monkeypatch.setattr(profile, "WITNESS_MAX_BYTES", 8_000_000)
    monkeypatch.setattr(profile, "_witness_memo", None)
    log = _route_log(monkeypatch)
    size = profile._stage_sizes(profile._subtree_classes(tree, tree.n)[1])
    assert len(size) == 1004
    assert profile._dense_bytes(size, tree.n, 2500, 2500, 3) > profile.WITNESS_MAX_BYTES
    members = witness_subset(tree, 2500, "vertex")
    assert (len(members), vertex_boundary_size(tree, members)) == (2500, 1)
    assert log == [1]


def test_one_budget_check_at_its_boundary(monkeypatch):
    """_keep's one check, at the budget's edge.  A star with n = 60 holding
    its vertex run: its dense edge witness at i = 30, priced at exactly
    WITNESS_MAX_BYTES, is built (and drops the held run, which no longer
    fits beside it); one byte lower it raises SizeCapError naming bytes,
    with the memo untouched and no table built.  A path with n = 60: its
    vertex witness at i = 30 skips a clipped K = 1 run priced one byte over
    the budget and goes straight to the dense run, and builds it at exactly
    its price."""
    log = _route_log(monkeypatch)
    monkeypatch.setattr(profile, "_witness_memo", None)
    star = generate_tree("star", {"n": 60})
    witness_subset(star, 30, "vertex")
    held = profile._witness_memo
    size = profile._stage_sizes(profile._subtree_classes(star, 60)[1])
    price = profile._dense_bytes(size, 60, 30, 30, 2)
    log.clear()
    with monkeypatch.context() as m:
        _force_route(m, 0)
        m.setattr(profile, "WITNESS_MAX_BYTES", price - 1)
        with pytest.raises(SizeCapError, match=f"need {price} bytes, above the budget {price - 1}"):
            witness_subset(star, 30, "edge")
        assert profile._witness_memo is held and held is not None and log == []
        m.setattr(profile, "WITNESS_MAX_BYTES", price)
        members = witness_subset(star, 30, "edge")
    assert log == [None] and profile._witness_memo is None
    assert (len(members), edge_boundary_size(star, members)) == (30, 30)
    path = generate_tree("path", {"n": 60})
    size = profile._stage_sizes(profile._subtree_classes(path, 60)[1])
    clipped = profile._clipped_bytes(size, 1, 3)
    assert profile._dense_bytes(size, 60, 30, 30, 3) < clipped
    for budget, route in ((clipped - 1, [None]), (clipped, [1])):
        log.clear()
        monkeypatch.setattr(profile, "WITNESS_MAX_BYTES", budget)
        monkeypatch.setattr(profile, "_witness_memo", None)
        members = witness_subset(path, 30, "vertex")
        assert log == route, budget
        assert (len(members), vertex_boundary_size(path, members)) == (30, 1)


@pytest.mark.parametrize(
    "kind, params, mode",
    [
        ("path", {"n": 2000}, "vertex"),
        ("path", {"n": 1000}, "edge"),
        ("random_prufer", {"n": 1000}, "edge"),
        ("random_recursive", {"n": 1000}, "vertex"),
        ("caterpillar", {"spine": 200, "legs": 4}, "edge"),
    ],
)
def test_clipped_witness_peak_within_its_bound(monkeypatch, kind, params, mode):
    """A witness query kept from a clipped run at K = k peaks, under
    tracemalloc and from its class walk on, at no more than _clipped_bytes
    of its stage keys at k, the bound its budget check reads."""
    log = _route_log(monkeypatch)
    tree = generate_tree(kind, params, seed=6)
    tracemalloc.start()
    try:
        witness_subset(tree, tree.n // 2, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log and log[-1] is not None, log
    size = profile._stage_sizes(profile._subtree_classes(tree, tree.n)[1])
    assert 0 < peak <= profile._clipped_bytes(size, log[-1], len(profile._MODES[mode].into))
