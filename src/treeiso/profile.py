"""Exact isoperimetric profiles of rooted trees.

Two independent routes to the same numbers: a quadratic subtree-merge
dynamic program (edge_profile / vertex_profile) and an exhaustive
enumeration over all 2^n vertex subsets (brute_force_profiles), the
oracle at small n.

The dynamic program merges tables once per distinct stage, not once per
vertex.  A stage is the vertex alone or (prefix stage, child's last
stage), and stages are interned: a vertex's subtree class is the id of its
last stage, so equal subtrees (Aho, Hopcroft & Ullman 1974) share their
tables, and child lists that start alike share those prefixes.  One walk
serves profiles and witnesses: children in ascending class id, leaves
(stage 0) first.  A complete t-ary tree costs one merge chain per level, a
path what a per-vertex DP does.

Each mode states its flag rules once, in a transition table that the
table algebras' merges, the one-vertex table and the witness backtracking
read.

One stage driver, _stages, runs any of three exact algebras: _dense,
int32 tables with _INF marking infeasible cells; _clipped, the level sets
of values up to a bound K as Python-int bitsets; and _level_one, the
vertex mode's K = 1 level in closed form, from the sums of child subtree
sizes at each vertex.  No merge cost is negative, so a clipped run gives
the exact value of every size whose value is at most K and leaves the
others out: a run whose root covers every size it is asked for certifies
itself.  Profiles and witnesses take one route, the K runs of _clip_ks,
then the dense DP; only a profile cuts it by the stage rule, and takes its
vertex-mode K = 1 run, a _level_one run, on every tree.  A witness prices
each run in bytes, and its K = 1 run is clipped, to read sets back.  Below
the root a profile DP keeps every cell of every stage (in edge mode every
cell up to n // 2, the rest mirrored), so one run also gives the profile
of each subtree, read off its class's stage (subtree_profiles); the root
stage is one row, its minimum over flags.  A clipped run is full width,
whatever sizes it was made for, so the last witness tree keeps its last
clipped run of each mode for the next query on it.  Every witness run is
priced by its bytes against one budget before it is built; a clipped run
replaces the mode's kept one, a dense run is never kept, and either drops
the kept runs only when it would not fit beside them.
"""
from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .bounds import edge_peak_lower_bound
from .tree import RootedTree, _is_int, postorder

DEFAULT_DP_CAP = 50_000
# Largest tree the oracle enumerates, and the one bound on it: a report
# checks the DP against the oracle exactly when n is at most this.  It
# bounds time, not memory (see _ORACLE_CHUNK): the time doubles with every
# vertex, and a random tree with n = 20 took about 4 ms in the oracle,
# against 0.4 ms for the rest of its report, on a 2-vCPU Xeon VM.
ORACLE_MAX_VERTICES = 20
# Subsets the oracle evaluates per chunk, so that its working arrays stay
# at a few MiB whatever n is.
_ORACLE_CHUNK = 1 << 16
# The witness budget, 256 MiB, for the run being built and the runs kept
# beside it; _keep alone checks it.  Every run is priced in bytes from the
# stage sizes before any table exists: a dense one by _dense_bytes, a
# clipped one by _clipped_bytes.  A path with n = 2000 queried at i = n/2
# keeps about 12 MB of vertex-mode cells; one with n = 50,000 would keep
# about 7.5 GB, and its clipped runs about 1 GB, so it is refused.
WITNESS_MAX_BYTES = 2**28

# Infeasible-cell sentinel of the int32 DP tables.  Feasible cells are cut
# counts of at most n, far below it.  Every sum a merge or the witness scan
# forms adds two cells of at most _INF and at most one unit cost, so it is
# at most 2 * _INF + 1, which fits in int32.  Every merge lowers a table
# that holds at most _INF, so np.minimum saturates each infeasible sum back
# to _INF without a further pass.
_INF = np.iinfo(np.int32).max // 2 - 1

# Merge route thresholds (the route policy is _merge's).  At most
# _BLOCK_CELLS sums per block keep the block scratch at most 256 KiB.  The
# thresholds are where the routes' times crossed on a 2-vCPU Xeon VM, with
# the ufunc buffer at its default.  For _ROW_LOOP_MAX, _merge_short against
# _merge_pairs on the merges of the benchmark workloads' trees with the dense
# route forced took 0.75x / 0.50x (edge / vertex) of the time at 3 short-side
# cells, 1.09x / 0.73x at 4 and 1.38x / 1.06x at 5.
_BLOCK_CELLS = 32_768
_MIN_BLOCK_ROWS = 4
_ROW_LOOP_MAX = 4
# The ufunc buffer, in elements, of every dense run (_small_ufunc_buffer).
# At numpy's default of 8192, numpy 2.4.6 copies each operand row of at most
# 2048 cells through the buffer: a whole _min_plus_blocks call took 0.74
# ns/cell at 1025-cell rows and 0.73 at 2048, against 0.35 at 2049; at 256,
# 0.39, 0.36 and 0.37 (2-vCPU Xeon VM).  Complete binary subtrees make
# 2^k-cell rows.
_UFUNC_BUFSIZE = 256
# Clipped route thresholds, timed on profiles on a 2-vCPU Xeon VM before the
# ufunc buffer was cut: _CLIP_K_MAX for every DP (_clip_ks), the stage rule
# for profiles only (_profile).  Random trees (n = 400, 5000; 0.30-0.39 stages
# per vertex): one run at K = 1, 2, 4, 5 took 0.16-0.23, 0.28-0.39, 0.50-0.98,
# 0.55-1.13x the dense DP, so K = 5 cannot repay the runs below it.  Complete
# trees (<= 0.21 stages per vertex) start far below their peaks; without the
# stage rule paper-tables took 1.33-1.46x.  Witnesses price runs in bytes.
_CLIP_STAGE_RATIO = 4
_CLIP_K_MAX = 4

# Flag values for the edge DP rows.
_E_OUT, _E_IN = 0, 1
# Flag values for the vertex DP rows.  OUT_UNTOUCHED has no neighbor in S
# among processed vertices; OUT_TOUCHED has already paid its unit of
# boundary cost.
_V_OUT_UNTOUCHED, _V_OUT_TOUCHED, _V_IN = 0, 1, 2

# Transition tables: (parent flag, child-root flag) -> (merge cost, new parent flag).
# Flag 0 is the flag of an unselected vertex before any child is merged.
_EDGE_TRANS = {
    (s, sc): (0 if s == sc else 1, s) for s in (_E_OUT, _E_IN) for sc in (_E_OUT, _E_IN)
}
_VERTEX_TRANS = {
    (_V_OUT_UNTOUCHED, _V_OUT_UNTOUCHED): (0, _V_OUT_UNTOUCHED),
    (_V_OUT_UNTOUCHED, _V_OUT_TOUCHED): (0, _V_OUT_UNTOUCHED),
    (_V_OUT_UNTOUCHED, _V_IN): (1, _V_OUT_TOUCHED),
    (_V_OUT_TOUCHED, _V_OUT_UNTOUCHED): (0, _V_OUT_TOUCHED),
    (_V_OUT_TOUCHED, _V_OUT_TOUCHED): (0, _V_OUT_TOUCHED),
    (_V_OUT_TOUCHED, _V_IN): (0, _V_OUT_TOUCHED),
    (_V_IN, _V_OUT_UNTOUCHED): (1, _V_IN),
    (_V_IN, _V_OUT_TOUCHED): (0, _V_IN),
    (_V_IN, _V_IN): (0, _V_IN),
}


# A plain class, like _Run and _Memo below, for the import cost they state.
class _Mode:
    """One DP mode's flag rules, read off its transition table.

    into[s] lists, for new parent flag s, each previous parent flag that
    leads to s with its (child flag, cost) pairs, both in ascending flag
    order.  base is the table of a vertex alone: flag 0, or in_flag.  It is
    read-only and shared by every class, since no DP writes a table in place.
    child_terms and cur_terms file the same transitions for _merge_short by
    the flag of its short side, the child or the current table: terms[f]
    lists the (long-side flag, new parent flag, cost) of each transition
    whose short-side flag is f.  root is the _Mode of the same transitions
    into flag 0 alone, whose merge makes the minimum over flags in one row.
    """

    __slots__ = ("in_flag", "into", "base", "child_terms", "cur_terms", "root")

    def __init__(self, in_flag: int, into: list, base, child_terms: list, cur_terms: list):
        self.in_flag, self.into, self.base = in_flag, into, base
        self.child_terms, self.cur_terms = child_terms, cur_terms


def _mode(nflags: int, in_flag: int, trans: dict) -> _Mode:
    into = [{} for _ in range(1 + max(s for _, s in trans.values()))]
    child_terms, cur_terms = [[] for _ in range(nflags)], [[] for _ in range(nflags)]
    for (s_prev, sc), (cost, s_new) in sorted(trans.items()):
        into[s_new].setdefault(s_prev, []).append((sc, cost))
        child_terms[sc].append((s_prev, s_new, cost))
        cur_terms[s_prev].append((sc, s_new, cost))
    into = [list(g.items()) for g in into]
    base = np.full((nflags, 2), _INF, dtype=np.int32)
    base[0, 0] = base[in_flag, 1] = 0
    base.setflags(write=False)
    rules = _Mode(in_flag, into, base, child_terms, cur_terms)
    one_row = {t: (cost, 0) for t, (cost, _) in trans.items()}
    rules.root = rules if one_row == trans else _mode(nflags, in_flag, one_row)
    return rules


_MODES = {"edge": _mode(2, _E_IN, _EDGE_TRANS), "vertex": _mode(3, _V_IN, _VERTEX_TRANS)}


class SizeCapError(ValueError):
    """Input tree larger than the configured computation cap."""


@dataclass(frozen=True)
class IsoProfile:
    """Full edge and vertex isoperimetric profiles of one tree.

    Entry k of each value tuple is the minimum boundary size over all
    vertex subsets of cardinality k + 1; the peaks are the maxima over all
    cardinalities 1..n and the argpeaks the smallest cardinality attaining
    them.
    """

    n: int
    edge_values: tuple
    vertex_values: tuple
    edge_peak: int
    vertex_peak: int
    edge_argpeak: int
    vertex_argpeak: int

    @classmethod
    def from_values(cls, edge_values, vertex_values) -> "IsoProfile":
        edge_values = tuple(edge_values)
        vertex_values = tuple(vertex_values)
        if len(edge_values) != len(vertex_values) or not edge_values:
            raise ValueError("profiles must be nonempty and of equal length")
        (ep, ea), (vp, va) = peaks(edge_values), peaks(vertex_values)
        return cls(len(edge_values), edge_values, vertex_values, ep, vp, ea, va)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "edge": list(self.edge_values),
            "vertex": list(self.vertex_values),
            "edge_peak": self.edge_peak,
            "vertex_peak": self.vertex_peak,
            "edge_argpeak": self.edge_argpeak,
            "vertex_argpeak": self.vertex_argpeak,
        }


def edge_boundary_size(tree: RootedTree, members) -> int:
    """Number of edges with exactly one endpoint in the given vertex set."""
    inside = tree.membership(members)
    return sum(1 for v, p in tree.edges() if inside[v] != inside[p])


def vertex_boundary_size(tree: RootedTree, members) -> int:
    """Number of vertices outside the set adjacent to at least one member."""
    inside = tree.membership(members)
    adj = tree.adjacency()
    return sum(
        1
        for v in range(tree.n)
        if not inside[v] and any(inside[u] for u in adj[v])
    )


def brute_force_profiles(tree: RootedTree):
    """Exact profiles by evaluating the boundary of every one of the 2^n subsets.

    Independent of the dynamic program: it reads only the parent and
    children of each vertex and the two boundary definitions.  A subset S
    is a bitmask with bit v for vertex v.  With K(S) the OR of the child
    bits of every u in S, bit v of K(S) is set exactly when parent(v) is in
    S, and with N(S) the OR of the neighbour bits of every u in S,

        edge boundary   = popcount((S ^ K(S)) & nonroot)
        vertex boundary = popcount(N(S) & ~S)

    where nonroot has every bit but the root's.  K and N are tabulated over
    the low L = min(n, 16) bits by doubling; each chunk of _ORACLE_CHUNK
    subsets shares its high bits H, so K(S) = K[low] | K[H], and the
    per-size minima are one reduceat over the low masks sorted by popcount,
    shifted by popcount(H).  Returns (edge_values, vertex_values) indexed
    like IsoProfile.  Trees above ORACLE_MAX_VERTICES raise SizeCapError
    before any allocation.
    """
    n = tree.n
    if n > ORACLE_MAX_VERTICES:
        raise SizeCapError(f"tree has {n} vertices, above the oracle limit {ORACLE_MAX_VERTICES}")
    kid = [sum(1 << c for c in tree.children[u]) for u in range(n)]
    nbr = [m if p is None else m | 1 << p for m, p in zip(kid, tree.parent)]
    low_bits = min(n, _ORACLE_CHUNK.bit_length() - 1)
    low, starts = _popcount_order(low_bits)
    kid_low, kid_high = _or_table(kid[:low_bits])[low], _or_table(kid[low_bits:])
    nbr_low, nbr_high = _or_table(nbr[:low_bits])[low], _or_table(nbr[low_bits:])
    nonroot = ((1 << n) - 1) ^ (1 << tree.root)
    sentinel = np.iinfo(np.int64).max
    edge_best = np.full(n + 1, sentinel, dtype=np.int64)
    vert_best = np.full(n + 1, sentinel, dtype=np.int64)
    for h in range(1 << (n - low_bits)):
        masks = low | (h << low_bits)
        cut = np.bitwise_count((masks ^ (kid_low | kid_high[h])) & nonroot)
        touched = np.bitwise_count((nbr_low | nbr_high[h]) & ~masks)
        sizes = slice(h.bit_count(), h.bit_count() + low_bits + 1)
        np.minimum(edge_best[sizes], np.minimum.reduceat(cut, starts), out=edge_best[sizes])
        np.minimum(vert_best[sizes], np.minimum.reduceat(touched, starts), out=vert_best[sizes])
    return edge_best[1:].tolist(), vert_best[1:].tolist()


@lru_cache(maxsize=None)
def _popcount_order(low_bits: int):
    """(every mask below 2^low_bits, stably sorted by popcount; the index in
    that order where each popcount 0..low_bits starts), read-only, made once
    per low_bits, of which the oracle has at most 17."""
    counts = np.bitwise_count(np.arange(1 << low_bits, dtype=np.uint32))
    low = np.argsort(counts, kind="stable").astype(np.uint32)
    starts = np.searchsorted(counts[low], np.arange(low_bits + 1))
    low.setflags(write=False)
    starts.setflags(write=False)
    return low, starts


def _or_table(masks):
    """Table over every bitmask S below 2^len(masks) of the OR of masks[u]
    over the bits u of S, built by doubling."""
    table = np.zeros(1 << len(masks), dtype=np.uint32)
    for b, m in enumerate(masks):
        np.bitwise_or(table[: 1 << b], m, out=table[1 << b : 2 << b])
    return table


def peaks(values):
    """(maximum entry, smallest 1-based cardinality attaining it)."""
    values = list(values)
    if not values:
        raise ValueError("profile must be nonempty")
    best = max(values)
    return best, values.index(best) + 1


def edge_profile(tree: RootedTree, size_cap: int = DEFAULT_DP_CAP):
    """Exact minimum edge boundary for every subset cardinality 1..n.

    Bottom-up merge over the rooted tree: each vertex carries a table
    indexed by (number of selected vertices in its subtree, whether the
    subtree root is selected) holding the minimum number of cut edges
    strictly inside the subtree.  Merging a child adds one cut when the
    selection flags of parent and child differ.
    """
    return _profile(tree, "edge", _subtree_classes(tree, size_cap))[0]


def vertex_profile(tree: RootedTree, size_cap: int = DEFAULT_DP_CAP):
    """Exact minimum vertex boundary for every subset cardinality 1..n.

    Same merge scheme as edge_profile with a three-state flag per subtree
    root: selected, outside-and-already-counted, or outside-and-untouched.
    A unit cost is paid exactly when a vertex outside the selection first
    gains a selected neighbor.
    """
    return _profile(tree, "vertex", _subtree_classes(tree, size_cap))[0]


def _profile(tree: RootedTree, mode: str, walk, classes=None) -> list:
    """The profile of each subtree class in classes, by default the root's,
    from walk, tree's class-order _subtree_classes: for a class over s
    vertices, the least value over flags of its stage at cells 1..s.

    One route answers them all: the first clipped run of _clip_ks that
    covers every asked class, its last level union holding sizes 0..s,
    else the dense DP, exact at every stage; by the stage rule, none if
    n > _CLIP_STAGE_RATIO * stages.  Values are read only from the run that
    covers.  The vertex mode's K = 1 run is _level_one_profile, whose
    level unions are a clipped run's; at one shift-OR per stage it is run
    even where the stage rule makes no clipped run, unless _CLIP_K_MAX is 0.

    The dense DP runs under _small_ufunc_buffer.  Below the root its stages
    start at lo = 0, so an inner class's stage is its subtree's own root
    table; only the root's is windowed, to lo = 1, and made as the one row
    of its minimum over flags (_dense).  An edge profile is complement
    symmetric, b_e(j) = b_e(s - j), so its stages keep sizes up to n // 2
    and the rest of each class is read from its mirror."""
    last, keys = walk
    if classes is None:
        classes = [last[tree.root]]
    rules, n, size = _MODES[mode], tree.n, _stage_sizes(keys)
    ks = _clip_ks(mode, last, size, n)
    if n > _CLIP_STAGE_RATIO * len(size):
        ks = ks[:1] if mode == "vertex" else range(0)
    for k in ks:
        if mode == "vertex" and k == 1:
            answers = _level_one_profile(keys, size, n, classes)
        else:
            answers = _clipped_profile(rules, keys, size, n, k, classes)
        if all(levels[-1] == (2 << size[c]) - 1 for c, levels in zip(classes, answers)):
            return [_read_levels(levels, size[c]) for c, levels in zip(classes, answers)]
    # Drop the level unions of the last run, which missed, before the dense run.
    answers = []
    i_max = max(1, n // 2) if mode == "edge" else n
    with _small_ufunc_buffer():
        stages = _class_stages(_dense(rules, True), keys, size, n, 1, i_max, classes)
    for c, (lo, table) in zip(classes, stages):
        # Cells 0 .. min(s, i_max); cell 0, the empty set, is 0.
        head = [0] * lo + np.min(table, axis=0).tolist()
        answers.append(head[1:] + head[: size[c] + 1 - len(head)][::-1])
    return answers


@contextmanager
def _small_ufunc_buffer():
    """A scope whose ufuncs run with a buffer of _UFUNC_BUFSIZE elements;
    the caller's size is restored on exit, however it exits.  It must not
    span a yield of _stages, which would lend it to the driver's caller."""
    old = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(old)


def _class_stages(algebra, keys, size, n: int, i_min: int, i_max: int, classes) -> list:
    """The stage (lo, table) of each class in classes from one _stages run
    of the (base, merge) algebra for sizes i_min .. i_max, taken as the
    driver yields it, since the driver frees it once merged."""
    found = dict.fromkeys(classes)
    for c, stage in enumerate(_stages(*algebra, keys, size, n, i_min, i_max)):
        if c in found:
            found[c] = stage
    return [found[c] for c in classes]


def _clip_ks(mode: str, last, size, n: int):
    """The K of each clipped run a profile or witness DP over stages of these
    sizes may make, in order: K0, K0 + 1, ... <= _CLIP_K_MAX.  K0 is 1 in
    vertex mode and one above edge_peak_lower_bound(n, eta) in edge mode,
    eta the number of distinct sizes of the last stages, each over a
    vertex's subtree.  A profile cuts them by its stage rule (_profile)."""
    if mode == "vertex":
        return range(1, _CLIP_K_MAX + 1)
    # A byte per subtree size, not a set of them: this runs before the
    # witness budget check, on trees that check may refuse.
    held = bytearray(n + 1)
    for k in last:
        held[size[k]] = 1
    return range(1 + edge_peak_lower_bound(n, held.count(1)), _CLIP_K_MAX + 1)


def _clipped_profile(rules: _Mode, keys, size, n: int, k: int, classes) -> list:
    """One clipped run at K = k: the _level_unions of each class in classes."""
    stages = _class_stages(_clipped(rules, k), keys, size, n, 0, n, classes)
    return [_level_unions(table, k) for _, table in stages]


def _level_one_profile(keys, size, n: int, classes) -> list:
    """The vertex mode's _clipped_profile at K = 1, in closed form: the two
    level unions of each class in classes.  A set has vertex boundary {u}
    exactly when it is a nonempty union of components of T - u, so over a
    class of w vertices b_v(i) <= 1 exactly when i is 0, w, a subset sum of
    one vertex's child subtree sizes (_level_one), or w - 1 less one."""
    unions = []
    stages = _class_stages(_level_one(), keys, size, n, 0, n, classes)
    for c, (_, (_, low)) in zip(classes, stages):
        w = size[c]
        ends = 1 | 1 << w
        unions.append([ends, ends | low | _reflect(low, w)])
    return unions


def _read_levels(levels: list, s: int) -> list:
    """The value of each size 1..s of a class over s vertices from its K + 1
    level unions, levels: the number of them that miss it, K + 1 where none
    holds it."""
    raw = b"".join(u.to_bytes(s // 8 + 1, "little") for u in levels)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    held = bits.reshape(len(levels), -1).sum(axis=0)
    return (len(levels) - held[1 : s + 1]).tolist()


def _reflect(bits: int, w: int) -> int:
    """The bitset {w - 1 - i : i in bits}, for bits over 0..w - 1."""
    return int(bin(bits)[:1:-1], 2) << w - bits.bit_length()


def _level_unions(table, k: int) -> list:
    """Entry c: the bitset of the cells of a clipped table of K = k whose
    value, under some flag, is at most c."""
    levels = [0] * (k + 1)
    for row in table:
        for c, bits, _ in row:
            levels[c] |= bits
    for c in range(1, k + 1):
        levels[c] |= levels[c - 1]
    return levels


def compute_profile(tree: RootedTree, size_cap: int = DEFAULT_DP_CAP) -> IsoProfile:
    """The edge and vertex profiles of tree and their peaks: the root case
    of subtree_profiles, so both modes share one class walk.  SizeCapError
    above size_cap vertices, before any work."""
    return subtree_profiles(tree, [tree.root], size_cap)[tree.root]


def subtree_profiles(tree: RootedTree, vertices, size_cap: int = DEFAULT_DP_CAP) -> dict:
    """{v: compute_profile of the subtree rooted at v} for every v in
    vertices, from one class walk and one DP route per mode.  Equal subtrees
    share their stages, so each subtree's profile is read off its class's
    stage; a clipped run is used only when it covers every asked subtree.
    SizeCapError above size_cap vertices, before any work; an empty
    vertices runs no DP."""
    vertices = list(vertices)
    for v in vertices:
        if not _is_int(v) or not 0 <= v < tree.n:
            raise ValueError(f"vertex {v!r} out of range [0, {tree.n - 1}]")
    walk = _subtree_classes(tree, size_cap)
    classes = sorted({walk[0][v] for v in vertices})
    if not classes:
        return {}
    edge, vertex = (_profile(tree, mode, walk, classes) for mode in ("edge", "vertex"))
    per_class = {c: IsoProfile.from_values(e, x) for c, e, x in zip(classes, edge, vertex)}
    return {v: per_class[walk[0][v]] for v in vertices}


def witness_subset(tree: RootedTree, i: int, mode: str, size_cap: int = DEFAULT_DP_CAP):
    """A subset of cardinality i attaining the profile minimum for the mode.

    Deterministic: DP splits are re-read in a fixed scan order (previous
    flag, then child flag, then child allocation, each ascending), children
    back along their class-order chain, equal ones in descending id, so
    ties always resolve the same way.  The DP takes the profiles' route with
    no stage rule: clipped runs at growing K that fit the budget, used when
    the root holds size i, else the dense tables cut to the cells a size-i
    subset can reach.  It raises SizeCapError before building any table
    when those dense tables would exceed WITNESS_MAX_BYTES.  A later call
    on the same tree object reuses its clipped runs (see witness_subsets).
    """
    return witness_subsets(tree, [i], mode, size_cap)[i]


def witness_subsets(tree: RootedTree, sizes, mode: str, size_cap: int = DEFAULT_DP_CAP) -> dict:
    """{i: witness_subset(tree, i, mode)} for every i in sizes, from one DP
    run: the first clipped one whose root holds every size, else dense
    stages cut to the cells any of the sizes can reach.  Either way the
    sets and their tie order are those of witness_subset.

    The last tree queried keeps its last clipped run of each mode, so a
    call on the same tree object whose sizes that run's root holds builds
    nothing, and one whose sizes it misses resumes at the next K.  One rule,
    _keep, prices and keeps every run: before it is built its bytes are
    checked against WITNESS_MAX_BYTES; a clipped run first drops the mode's
    kept run, whose sizes it holds too, and is kept once built, whatever its
    root holds; a dense run is never kept; either drops the kept runs only
    when it would not fit beside them.  A tree over the size cap raises
    SizeCapError after the argument checks and before the kept runs are
    read, whatever the sizes.
    """
    rules = _MODES.get(mode)
    if rules is None:
        raise ValueError(f"mode must be 'edge' or 'vertex', got {mode!r}")
    sizes = list(sizes)
    for i in sizes:
        if not _is_int(i):
            raise ValueError(f"subset size must be an integer, got {i!r}")
        if not (1 <= i <= tree.n):
            raise ValueError(f"subset size {i} out of range [1, {tree.n}]")
    _check_size_cap(tree, size_cap)
    sizes = sorted(set(sizes))
    if not sizes:
        return {}
    cls, keys, size, run = _witness_run(tree, mode, size_cap, sizes)
    return {i: _backtrack(tree, rules, cls, keys, size, run.stages, run.read, i) for i in sizes}


# Plain classes: a frozen dataclass takes about 1 ms to make and a NamedTuple
# about 0.3 ms, against 0.01 ms, and every import of the module makes them.
class _Run:
    """One witness DP run: every stage and the (cell, split) pair of its
    algebra for _backtrack.  A clipped run also has its K, the bitset of
    the sizes its root holds and its _clipped_bytes price; a dense one has
    K None."""

    __slots__ = ("stages", "read", "k", "held", "price")

    def __init__(self, stages: list, read: tuple, k=None, held: int = 0, price: int = 0):
        self.stages, self.read, self.k, self.held, self.price = stages, read, k, held, price


class _Memo:
    """The clipped runs kept from the last witness tree: the tree itself,
    held so that no other object can take its id, its _subtree_classes with
    their _stage_sizes, shared by both modes, and the _Run of each mode.
    Never changed once published, only replaced."""

    __slots__ = ("tree", "classes", "runs")

    def __init__(self, tree: RootedTree, classes: tuple, runs: dict):
        self.tree, self.classes, self.runs = tree, classes, runs


# The _Memo of the last witness tree, or None (see _witness_run).  It is
# matched by identity, so only calls on that tree object read it.
_witness_memo = None


def _witness_run(tree: RootedTree, mode: str, size_cap: int, sizes: list):
    """(last stage id per vertex, stage keys, stage sizes, the _Run of one
    DP) for the sorted sizes, on the profiles' walk: the memo's run of the
    mode if its root holds every size, else the first clipped run of
    _clip_ks above the memo's K that does, else the dense DP windowed to
    sizes[0] .. sizes[-1], each priced (_clipped_bytes, _dense_bytes) and
    kept by _keep.  A clipped run _keep refuses ends the clipped route; a
    dense one it refuses raises SizeCapError, before any table is built and
    with the memo as it was.  witness_subsets has checked size_cap, which
    only a walk on a memo miss reads."""
    rules, n = _MODES[mode], tree.n
    nflags = len(rules.into)
    memo = _witness_memo
    if memo is not None and memo.tree is tree:
        classes, held = memo.classes, memo.runs.get(mode)
    else:
        cls, keys = _subtree_classes(tree, size_cap)
        classes, held = (cls, keys, _stage_sizes(keys)), None
    if held is not None and all(held.held >> i & 1 for i in sizes):
        return (*classes, held)
    start = held.k + 1 if held is not None else 1
    # No local reference may keep a run alive once the memo drops it.
    memo = held = None
    cls, keys, size = classes
    for k in _clip_ks(mode, cls, size, n):
        if k < start:
            continue
        run = stages = None
        price = _clipped_bytes(size, k, nflags)
        if not _keep(tree, classes, price, {mode: None}):
            break
        stages = list(_stages(*_clipped(rules, k), keys, size, n, 0, n))
        held = _level_unions(stages[cls[tree.root]][1], k)[-1]
        run = _Run(stages, (_clipped_cell, _clipped_split), k, held, price)
        _keep(tree, classes, 0, {mode: run})
        if all(held >> i & 1 for i in sizes):
            return (*classes, run)
    run = stages = None
    price = _dense_bytes(size, n, sizes[0], sizes[-1], nflags)
    if not _keep(tree, classes, price, {}):
        raise SizeCapError(f"witness tables need {price} bytes, above the budget {WITNESS_MAX_BYTES}")
    with _small_ufunc_buffer():
        stages = list(_stages(*_dense(rules), keys, size, n, sizes[0], sizes[-1]))
    return (*classes, _Run(stages, (_dense_cell, _dense_split)))


def _keep(tree: RootedTree, classes: tuple, price: int, runs: dict) -> bool:
    """Whether a run of price bytes fits WITNESS_MAX_BYTES, the only place a
    price meets the budget.  False, with the memo untouched, when the run
    alone is over it.  Else True, once the memo of tree is published: the
    runs it holds of tree, none if it holds another's, updated by runs,
    where a None drops that mode's run; all of them dropped when the run
    would not fit beside them.  The memo is read afresh here, so runs
    another caller published meanwhile are merged only when they are of
    this tree."""
    global _witness_memo
    if price > WITNESS_MAX_BYTES:
        return False
    memo = _witness_memo
    if memo is not None and memo.tree is tree:
        runs = {**memo.runs, **runs}
    runs = {m: run for m, run in runs.items() if run is not None}
    if price + sum(run.price for run in runs.values()) > WITNESS_MAX_BYTES:
        runs = {}
    _witness_memo = _Memo(tree, classes, runs) if runs else None
    return True


def _backtrack(tree: RootedTree, rules: _Mode, cls, keys, size, stages, read, i: int) -> frozenset:
    """The size-i witness read back from _witness_run's stages by read,
    the (cell, split) pair of their algebra.

    cell(stage, s, j) is the value of cell j under flag s; the root's least
    one, on the first flag that has it, starts the walk.  A vertex's prefix
    chain is walked from its last stage back to the vertex alone: at each
    stage, split gives the first (s_prev, sc, x) in the scan order that
    makes the cell's value from cell j - x of the prefix and cell x of the
    child, with those two cells' values.  A subtree whose share j is 0 or
    its size has one subset, none or all of it, so it is taken whole with
    no split search; its value is 0, as a base cell's.
    """
    cell, split = read
    root = stages[cls[tree.root]]
    values = [cell(root, s, i) for s in range(len(rules.into))]
    s_star = values.index(min(values))

    selected = []
    work = [(tree.root, i, s_star, values[s_star])]
    while work:
        v, j, s_after, value = work.pop()
        k = cls[v]
        if j == 0 or j == size[k]:
            if value != 0:
                raise AssertionError("DP backtracking reached an infeasible base cell")
            if j:
                whole = [v]
                while whole:
                    u = whole.pop()
                    selected.append(u)
                    whole.extend(tree.children[u])
            continue
        for child in reversed(sorted(tree.children[v], key=cls.__getitem__)):
            k, c = keys[k]
            found = split(rules.into[s_after], stages[k], stages[c], j, value)
            if found is None:
                raise AssertionError("DP backtracking failed to find a split")
            s_after, sc, x, value, child_value = found
            work.append((child, x, sc, child_value))
            j -= x
        # Base table: the vertex alone.
        if s_after == rules.in_flag:
            selected.append(v)
        if value != 0:
            raise AssertionError("DP backtracking reached an infeasible base cell")
    return frozenset(selected)


def _dense_cell(stage, s: int, j: int):
    lo, table = stage
    return table[s][j - lo]


def _dense_split(into: list, prev, child, j: int, value):
    """_backtrack's split search over dense stages (lo, table), whose cell j
    is table[:, j - lo]: it pairs only cells the two windows hold, and
    every split the full-width tables would match is one of those pairs, in
    the same scan order."""
    (prev_lo, prev_tab), (child_lo, child_tab) = prev, child
    # Child cell x of child_tab pairs with cell d - x of prev_tab.
    d = j - prev_lo - child_lo
    first = max(0, d - (prev_tab.shape[1] - 1))
    last = min(d, child_tab.shape[1] - 1)
    return next(
        (
            (s_prev, sc, child_lo + x, prev_row[d - x], child_row[x])
            for s_prev, terms in into
            for prev_row in (prev_tab[s_prev],)
            for sc, cost in terms
            for child_row in (child_tab[sc],)
            for x in range(first, last + 1)
            if prev_row[d - x] + child_row[x] + cost == value
        ),
        None,
    )


def _clipped_cell(stage, s: int, j: int):
    """The level of cell j under flag s of a clipped stage (lo = 0), or _INF
    when no level holds it."""
    return next((c for c, bits, _ in stage[1][s] if bits >> j & 1), _INF)


def _clipped_split(into: list, prev, child, j: int, value: int):
    """_backtrack's split search over clipped stages: for each (s_prev, sc),
    the least x over the level pairs c1 + c2 + cost = value of cell j - x in
    the prefix's level c1 and cell x in the child's level c2.  No cost is
    negative, so every cell a split of value <= K pairs is in some level,
    and the first match is the dense scan's."""
    for s_prev, terms in into:
        row = prev[1][s_prev]
        for sc, cost in terms:
            best = None
            for c2, b, jb in child[1][sc]:
                c1 = value - cost - c2
                if c1 < 0:
                    break
                for c, a, ja in row:
                    if c == c1:
                        x = _first_split(a, ja, b, jb, j)
                        if x is not None and (best is None or x < best[2]):
                            best = s_prev, sc, x, c1, c2
                        break
            if best:
                return best
    return None


def _first_split(a: int, ja: int, b: int, jb: int, j: int):
    """The least x with bit x of b and bit j - x of a set, or None, for two
    levels (c, bits, j) of _clipped: read off the one bit of either when it
    has one, else the lowest bit of b and a's bits 0..j reflected about
    j / 2."""
    if jb >= 0:
        return jb if jb <= j and a >> (j - jb) & 1 else None
    if ja >= 0:
        return j - ja if ja <= j and b >> (j - ja) & 1 else None
    both = b & _reflect(a & (2 << j) - 1, j + 1)
    return (both & -both).bit_length() - 1 if both else None


def _merge(cur: np.ndarray, child: np.ndarray, rules: _Mode, skip: int, width: int,
           root: bool = False) -> np.ndarray:
    """cur with one more child merged in, by the transition table of rules,
    or of rules.root when root.

    Row s of the result is the minimum, over the transitions into s, of
    cur[s_prev] min-plus (child[sc] + cost), saturated at _INF, over only
    the width cells from cell skip on; no wider row is ever allocated.

    Only here is a route chosen, once per merge, from the two widths; every
    route is exact, so the choice moves time only.  The short side is the
    narrower table, the child on a tie.  A short side of at most
    _ROW_LOOP_MAX cells (a leaf child, a vertex alone, a small subtree) runs
    _merge_short, a few numpy calls per finite cell of that side.  A wider
    one runs _merge_pairs, one min-plus per (s_prev -> s) pair, short
    operand first: _min_plus_blocks, or _min_plus_rows when the long side is
    too long for a block of _MIN_BLOCK_ROWS rows; there the row loop's two
    numpy calls per short cell are bound by cell work, not by calls.
    """
    if root:
        rules = rules.root
    out = _empty_table(len(rules.into), width)
    if child.shape[1] <= cur.shape[1]:
        short, long, terms = child, cur, rules.child_terms
    else:
        short, long, terms = cur, child, rules.cur_terms
    if short.shape[1] <= _ROW_LOOP_MAX:
        _merge_short(short, long, terms, skip, out)
    else:
        kernel = _min_plus_rows if long.shape[1] > _BLOCK_CELLS // _MIN_BLOCK_ROWS else _min_plus_blocks
        _merge_pairs(cur, child, rules.into, kernel, short is cur, skip, out)
    return out


def _merge_short(short: np.ndarray, long: np.ndarray, terms: list, skip: int, out: np.ndarray):
    """Lower out by _merge walking the finite cells of its short side, the
    child or cur, with the terms of rules.child_terms or cur_terms.

    Short cell x of flag f, value v, lands on out cells x - skip + j for
    the cells j of the long side that fall in the window, k0 <= j < k1.
    Each term (g, s, cost) of terms[f] then lowers out[s, those cells] to
    long[g, k0:k1] + v + cost: one 1-D np.minimum, after an np.add when
    the term has a cost, and one np.add per cell, shared by its terms,
    when v is nonzero.
    """
    lb, width = long.shape[1], out.shape[1]
    for row, group in zip(short.tolist(), terms):
        for start, v in enumerate(row, -skip):
            if v >= _INF:
                continue
            k0 = -start if start < 0 else 0
            k1 = width - start if width - start < lb else lb
            if k0 >= k1:
                continue
            cells = slice(start + k0, start + k1)
            moved = long[:, k0:k1] + v if v else long[:, k0:k1]
            for g, s_new, cost in group:
                seg = out[s_new, cells]
                np.minimum(seg, moved[g] + cost if cost else moved[g], out=seg)


def _merge_pairs(cur, child, into: list, kernel, cur_short: bool, skip: int, out: np.ndarray):
    """Lower out by _merge one (s_prev -> s) pair at a time: child rows that
    share s_prev are combined first, into eff, so each pair costs one kernel
    call, on cur[s_prev] and eff, cur first when cur_short."""
    for row, pairs in zip(out, into):
        for s_prev, terms in pairs:
            eff = reduce(np.minimum, [child[sc] + cost if cost else child[sc] for sc, cost in terms])
            kernel(*((cur[s_prev], eff) if cur_short else (eff, cur[s_prev])), row, skip)


def _empty_table(nflags: int, width: int) -> np.ndarray:
    """A table of nflags rows of width cells, every cell _INF."""
    # Not np.full: this runs once per merge, and it costs twice as much.
    out = np.empty((nflags, width), dtype=np.int32)
    out.fill(_INF)
    return out


def _min_plus_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray, skip: int) -> None:
    """Lower out to cells skip .. skip + out.size - 1 of the min-plus
    convolution of a and b (a.size + b.size - 1 cells) where that is
    smaller, one cell of a at a time; cells at or above _INF are skipped.

    Cell i of a lands on out[i - skip : i - skip + b.size]; one reaching
    past either end of out lands with the cells of b that fall inside it.
    """
    lb = b.size
    last = out.size - lb
    scratch = np.empty(lb, dtype=np.int32)
    for start, v in enumerate(a.tolist(), -skip):
        if v >= _INF:
            continue
        if 0 <= start <= last:
            np.add(b, v, out=scratch)
            seg = out[start : start + lb]
            np.minimum(seg, scratch, out=seg)
        elif -lb < start < out.size:
            k0 = -start if start < 0 else 0
            k1 = out.size - start if start > last else lb
            seg = out[start + k0 : start + k1]
            np.minimum(seg, b[k0:k1] + v, out=seg)


def _min_plus_blocks(a: np.ndarray, b: np.ndarray, out: np.ndarray, skip: int) -> None:
    """_min_plus_rows over blocks of r = min(a.size, _BLOCK_CELLS // b.size)
    cells of a, with a.size <= b.size <= _BLOCK_CELLS.

    The sums a[i + k] + b of a block fill the first lb cells of row k of an
    (r, lb + r) scratch whose last r columns hold _INF for the whole call.
    Read flat with a row length of lb + r - 1, row k starts k cells
    earlier, so its column c holds a[i + k] + b[c - k] or _INF, and one min
    over the rows is the block's share of convolution cells i .. i + lb + r
    - 2, of which the columns that land in out are kept; a block with none
    is skipped.  Only the cells of b that some row places in a kept column
    are added; the scratch cells left out hold _INF or an earlier block's
    sums, which the kept columns never read.  A last, shorter block reads
    only its own rows.  The scratch has r * (lb + r) <= 2 * _BLOCK_CELLS
    cells, since r * lb <= _BLOCK_CELLS and r <= lb.
    """
    lb = b.size
    r = min(a.size, _BLOCK_CELLS // lb)
    z = _empty_table(r, lb + r)
    flat = z.ravel()
    for i in range(0, a.size, r):
        start = i - skip
        c0, c1 = max(0, -start), min(lb + r - 1, out.size - start)
        if c0 >= c1:
            continue
        rows = a[i : i + r]
        # Row k places cell c of b in column c + k.
        b0, b1 = max(0, c0 + 1 - rows.size), min(lb, c1)
        np.add(rows[:, None], b[b0:b1], out=z[: rows.size, b0:b1])
        skew = flat[: rows.size * (lb + r - 1)].reshape(rows.size, lb + r - 1)
        seg = out[start + c0 : start + c1]
        np.minimum(seg, skew.min(axis=0)[c0:c1], out=seg)


def _subtree_classes(tree: RootedTree, size_cap: int):
    """Last stage id per vertex and the key of every DP stage.

    One post-order walk interns each vertex's chain of stages: key () is
    stage 0, the vertex alone, and (prefix, child) merges a child's last
    stage into its prefix, the children in ascending last stage id.  A
    vertex's last stage id is its subtree class: equal subtrees get equal
    chains, leaves stage 0, and vertices whose child lists start alike
    share those stages, each after its prefix and child.  Profiles and
    witnesses both run on this walk.  The interning map is freed on return,
    so it does not add to the DP's peak memory.  Trees above size_cap raise
    SizeCapError before any work.
    """
    _check_size_cap(tree, size_cap)
    stages = {(): 0}
    last = [0] * tree.n
    for v in postorder(tree):
        if tree.children[v]:
            k = 0
            for c in sorted([last[u] for u in tree.children[v]]):
                k = stages.setdefault((k, c), len(stages))
            last[v] = k
    return last, list(stages)


def _check_size_cap(tree: RootedTree, size_cap: int) -> None:
    if tree.n > size_cap:
        raise SizeCapError(f"tree has {tree.n} vertices, above the DP size cap {size_cap}")


def _window(s: int, n: int, i_min: int, i_max: int):
    """(lo, width) of the cells a stage over s of the n vertices keeps for
    subsets of i_min .. i_max vertices; (0, n) keeps all s + 1 of them.

    The stage holds at most min(s, i_max) of the subset and, since the n - s
    vertices outside it hold at most n - s, at least i_min - (n - s).  A
    kept cell equals the full-width DP's: a split of it into cells outside
    their windows would put more of the subset in a subtree than it has
    vertices, or leave the vertices outside it too few.
    """
    # Not max/min: this runs once per merge, and they cost 3x as much.
    lo = i_min - (n - s) if i_min > n - s else 0
    return lo, (s if s < i_max else i_max) - lo + 1


def _stage_sizes(keys) -> list:
    """The vertex count of every DP stage over the stage keys of _subtree_classes."""
    size = [1] * len(keys)
    for k, key in enumerate(keys):
        if key:
            size[k] = size[key[0]] + size[key[1]]
    return size


def _stages(base, merge, keys, size, n: int, i_min: int, i_max: int):
    """The DP over the stage keys, in order, in the table algebra of _dense
    or _clipped, for subsets of i_min .. i_max of the n vertices: yields
    (lo, table) per stage, (lo, width) the _window of its size, base(lo,
    width) for the vertex alone and merge(cur, child, skip, width) for a
    (prefix, child) stage.  A stage is kept until every stage that merges
    it has done so; only the root's last stage is merged by none."""
    uses = Counter(x for key in keys for x in key)
    final = [None] * len(keys)
    for k, key in enumerate(keys):
        lo, width = _window(size[k], n, i_min, i_max)
        if key:
            (cur_lo, cur), (child_lo, child) = final[key[0]], final[key[1]]
            stage = lo, merge(cur, child, lo - cur_lo - child_lo, width)
            for x in key:
                uses[x] -= 1
                if not uses[x]:
                    final[x] = None
        else:
            stage = lo, base(lo, width)
        final[k] = stage
        yield stage


def _dense(rules: _Mode, root: bool = False):
    """The int32 table algebra of rules, (base, merge) for _stages.  root
    marks a profile's run, for sizes 1 and up: its one merge with skip > 0
    makes the root's last stage, the only one windowed to lo = 1, which the
    profile reads only through its minimum over flags, so it takes
    rules.root and makes that one row."""
    return (lambda lo, width: rules.base[:, lo : lo + width],
            lambda cur, child, skip, width: _merge(cur, child, rules, skip, width, root and skip > 0))


def _clipped(rules: _Mode, k: int):
    """The level-set algebra of rules clipped at K = k, for full-width stages
    only: it ignores the window.  Row s lists its non-empty levels (c, bits,
    j), c ascending up to k, bit i of bits set when i cells under flag s have
    value exactly c, and j the index of its one bit, or -1 if it has more.  A
    merge ORs, per term of rules.into, the sumset of each level pair with c1
    + c2 + cost <= k into that level, a shift by j if either has one bit;
    then each level drops the cells of lower ones."""
    base = tuple([(0, 1 << j, j) for j in (0, 1) if row[j] == 0] for row in rules.base.tolist())

    def merge(cur, child, skip, width):
        out = []
        for pairs in rules.into:
            acc = [0] * (k + 1)
            for s_prev, terms in pairs:
                row = cur[s_prev]
                for sc, cost in terms:
                    for c2, b, jb in child[sc]:
                        c2 += cost
                        if c2 > k:
                            break
                        for c1, a, ja in row:
                            c = c1 + c2
                            if c > k:
                                break
                            acc[c] |= b << ja if ja >= 0 else a << jb if jb >= 0 else _sumset(a, b)
            levels, seen = [], 0
            for c, bits in enumerate(acc):
                bits &= ~seen
                if bits:
                    levels.append((c, bits, -1 if bits & (bits - 1) else bits.bit_length() - 1))
                    seen |= bits
            out.append(levels)
        return out

    return (lambda lo, width: base), merge


def _level_one():
    """The vertex mode's K = 1 algebra, for full-width stages: a stage is
    (sums, low), the subset sums of the child subtree sizes merged into its
    root and their union over all its vertices, as bitsets.  A child is a
    whole subtree, so its size is its sums' top bit + 1."""

    def merge(cur, child, skip, width):
        sums = cur[0] | cur[0] << child[0].bit_length()
        return sums, cur[1] | child[1] | sums

    return (lambda lo, width: (1, 1)), merge


def _sumset(a: int, b: int) -> int:
    """The bitset {x + y : x in a, y in b}: a shift-OR over the sparser one's bits."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        out |= b << low.bit_length() - 1
        a ^= low
    return out


def _dense_bytes(size, n: int, i_min: int, i_max: int, nflags: int) -> int:
    """Bytes the dense stages of _witness_run hold, from the stage sizes
    alone: 4 per int32 cell of every flag row of their _windows."""
    return 4 * nflags * sum(_window(s, n, i_min, i_max)[1] for s in size)


def _clipped_bytes(size, k: int, nflags: int) -> int:
    """Bytes the stages of one clipped run at K = k may hold, from the stage
    sizes alone: k + 1 bits for each of the s + 1 cells of a stage over s
    vertices under each flag, as Python-int digits, plus per level a
    (c, bits, j) tuple, the headers of its two ints, its share of its row's
    list and a digit of rounding; a flag row holds at most k + 1 levels."""
    digit = sys.int_info.bits_per_digit
    level = sys.getsizeof([None]) + sys.getsizeof((0, 0, 0)) + 2 * sys.getsizeof(1 << digit)
    cells = sum(size) + len(size)
    return nflags * (k + 1) * (cells * sys.int_info.sizeof_digit // digit + len(size) * level)
