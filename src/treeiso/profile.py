"""Exact isoperimetric profiles of rooted trees.

Two independent routes to the same numbers: a quadratic subtree-merge
dynamic program (edge_profile / vertex_profile) and an exhaustive
enumeration over all 2^n vertex subsets (brute_force_profiles) that serves
as the oracle at small n.

The dynamic program merges tables once per distinct stage, not once per
vertex.  A stage is the vertex alone or (prefix stage, child's last
stage), and stages are interned: a vertex's subtree class is the id of its
last stage, so equal subtrees (Aho, Hopcroft & Ullman 1974) share their
tables, and child lists that start alike share those prefixes.  Profiles
take children in ascending class id, leaves (stage 0) first; witnesses in
ascending vertex id, their tie order.  A complete t-ary tree costs one
merge chain per level, a path what a per-vertex DP does.

Each mode states its flag rules once, in a transition table that both
algebras' merges, the one-vertex table and the witness backtracking read.

One stage driver, _stages, runs either of two exact table algebras: _dense,
int32 tables with _INF marking infeasible cells, and _clipped, the level
sets of values up to a bound K as Python-int bitsets.  No merge cost is
negative, so a clipped run gives the exact value of every size whose value
is at most K and leaves the others out: a run whose root covers every size
it is asked for certifies itself.  Profiles and witnesses take one route,
the K runs of _clip_ks, then the dense DP.
"""
from __future__ import annotations

import contextvars
import sys
from collections import Counter
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .bounds import edge_peak_lower_bound
from .tree import RootedTree, _is_int, postorder

DEFAULT_DP_CAP = 50_000
DEFAULT_ORACLE_LIMIT = 20
# Largest tree the oracle enumerates, whatever limit it is given.  This
# bounds time, not memory (see _ORACLE_CHUNK): the time doubles with every
# vertex, and a path, a star or a random tree with n = 24 took 0.04-0.05 s
# on a 2-vCPU Xeon VM.
ORACLE_MAX_VERTICES = 24
# Subsets the oracle evaluates per chunk, so that its working arrays stay
# at a few MiB whatever n is.
_ORACLE_CHUNK = 1 << 16
# Most cells, summed over every flag row of every kept stage, that one dense
# witness DP may hold: 2**26 int32 cells are 256 MiB, which also bounds the
# bytes of a clipped witness run.  Both are checked from the stage sizes
# before any table exists (see _witness_cells and _clipped_bytes).  A path
# with n = 2000 queried at i = n/2 keeps about 3 million vertex-mode cells;
# one with n = 50,000 would keep about 1.9 billion, and its clipped runs
# about 1 GB, so it is refused.
WITNESS_MAX_CELLS = 2**26

# Infeasible-cell sentinel of the int32 DP tables.  Feasible cells are cut
# counts of at most n, far below it.  Every sum a merge or the witness scan
# forms adds two cells of at most _INF and at most one unit cost, so it is
# at most 2 * _INF + 1, which fits in int32.  Every merge lowers a table
# that holds at most _INF, so np.minimum saturates each infeasible sum back
# to _INF without a further pass.
_INF = np.iinfo(np.int32).max // 2 - 1

# Merge route thresholds (the route policy is _merge's).  At most
# _BLOCK_CELLS sums per block keep the block scratch at most 256 KiB.  The
# thresholds are where the routes' times crossed on a 2-vCPU Xeon VM; for
# _ROW_LOOP_MAX, timed on the merges of the benchmark workloads, a 4-cell
# short side was faster than blocks in vertex mode and slower in edge mode,
# and a 5-cell one slower in both.
_BLOCK_CELLS = 32_768
_MIN_BLOCK_ROWS = 4
_ROW_LOOP_MAX = 4
# Clipped route thresholds (the policy is _clip_ks'), timed on a 2-vCPU Xeon VM.
# Random trees (n = 400, 5000; 0.30-0.39 stages per vertex): one run at K = 1, 2,
# 4, 5 took 0.16-0.23, 0.28-0.39, 0.50-0.98, 0.55-1.13x the dense DP, so K = 5
# cannot repay the runs below it.  Complete trees (<= 0.21 stages per vertex)
# start far below their peaks; without the stage rule paper-tables took 1.33-1.46x.
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


@dataclass(frozen=True)
class _Mode:
    """One DP mode's flag rules, read off its transition table.

    into[s] lists, for new parent flag s, each previous parent flag that
    leads to s with its (child flag, cost) pairs, both in ascending flag
    order.  base is the table of a vertex alone: flag 0, or in_flag.  It is
    read-only and shared by every class, since no DP writes a table in place.
    child_runs and cur_runs are into compiled for _merge_short, with the
    child or the current table as the short side (see _short_runs).
    """

    in_flag: int
    into: list
    base: np.ndarray
    child_runs: tuple
    cur_runs: tuple


def _mode(nflags: int, in_flag: int, trans: dict) -> _Mode:
    into = [{} for _ in range(nflags)]
    for (s_prev, sc), (cost, s_new) in sorted(trans.items()):
        into[s_new].setdefault(s_prev, []).append((sc, cost))
    into = [list(g.items()) for g in into]
    base = np.full((nflags, 2), _INF, dtype=np.int32)
    base[0, 0] = base[in_flag, 1] = 0
    base.setflags(write=False)
    return _Mode(in_flag, into, base, _short_runs(into, True), _short_runs(into, False))


def _short_runs(into: list, child_short: bool) -> tuple:
    """The transitions of into as row runs for _merge_short, grouped by the
    flag of the short side: the child when child_short, else cur.

    runs[f] lists, for short-side flag f, tuples (long_rows, new_rows,
    cost) of two equal-length slices and an (r, 1) int32 column: the
    terms long-side flag long_rows.start + k -> new parent flag
    new_rows.start + k, k < r, with merge cost cost[k].  cost is None when
    every cost is 0.  A run is a maximal stretch of terms, in ascending
    long-side flag, where that flag and the new flag both step by one, so
    one 2-D slice of each table serves it.  Every term is in exactly one
    run.
    """
    terms = sorted(
        (sc, s_prev, cost, s_new) if child_short else (s_prev, sc, cost, s_new)
        for s_new, pairs in enumerate(into)
        for s_prev, sc_terms in pairs
        for sc, cost in sc_terms
    )
    runs = [[] for _ in into]
    for short, s_long, cost, s_new in terms:
        group = runs[short]
        r = len(group[-1][2]) if group else 0
        if r and group[-1][:2] == (s_long - r, s_new - r):
            group[-1][2].append(cost)
        else:
            group.append((s_long, s_new, [cost]))
    return tuple(
        tuple(
            (
                slice(s_long, s_long + len(costs)),
                slice(s_new, s_new + len(costs)),
                np.array(costs, dtype=np.int32)[:, None] if any(costs) else None,
            )
            for s_long, s_new, costs in group
        )
        for group in runs
    )


_MODES = {"edge": _mode(2, _E_IN, _EDGE_TRANS), "vertex": _mode(3, _V_IN, _VERTEX_TRANS)}

# (tree, _subtree_classes of it) while compute_profile runs, so that its
# edge and vertex DPs share one class walk and keep their signatures.
_shared_classes = contextvars.ContextVar("_shared_classes", default=None)


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


def brute_force_profiles(tree: RootedTree, limit: int = DEFAULT_ORACLE_LIMIT):
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
    like IsoProfile.  Trees above limit or ORACLE_MAX_VERTICES raise
    SizeCapError before any allocation.
    """
    n = tree.n
    limit = min(limit, ORACLE_MAX_VERTICES)
    if n > limit:
        raise SizeCapError(f"tree has {n} vertices, above the oracle limit {limit}")
    kid = [sum(1 << c for c in tree.children[u]) for u in range(n)]
    nbr = [m if p is None else m | 1 << p for m, p in zip(kid, tree.parent)]
    low_bits = min(n, _ORACLE_CHUNK.bit_length() - 1)
    counts = np.bitwise_count(np.arange(1 << low_bits, dtype=np.uint32))
    low = np.argsort(counts, kind="stable").astype(np.uint32)
    starts = np.searchsorted(counts[low], np.arange(low_bits + 1))
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
    return _profile(tree, "edge", size_cap)


def vertex_profile(tree: RootedTree, size_cap: int = DEFAULT_DP_CAP):
    """Exact minimum vertex boundary for every subset cardinality 1..n.

    Same merge scheme as edge_profile with a three-state flag per subtree
    root: selected, outside-and-already-counted, or outside-and-untouched.
    A unit cost is paid exactly when a vertex outside the selection first
    gains a selected neighbor.
    """
    return _profile(tree, "vertex", size_cap)


def _profile(tree: RootedTree, mode: str, size_cap: int):
    """The first clipped run of _clip_ks that covers every size, else the dense DP."""
    shared = _shared_classes.get()
    last, keys = shared[1] if shared and shared[0] is tree else _subtree_classes(tree, size_cap, True)
    rules, n, size = _MODES[mode], tree.n, _stage_sizes(keys)
    for k in _clip_ks(mode, last, size, n):
        covered, values = _clipped_profile(rules, keys, size, n, k)
        if covered:
            return values
    for _, root in _stages(*_dense(rules), keys, size, n, 1, n):
        pass
    return np.min(root, axis=0).tolist()


def _clip_ks(mode: str, last, size, n: int):
    """The K of each clipped run a profile or witness DP over stages of these
    sizes may make, in order: K0, K0 + 1, ... <= _CLIP_K_MAX when n <=
    _CLIP_STAGE_RATIO * stages, else none.  K0 is 1 in vertex mode and one
    above edge_peak_lower_bound(n, eta) in edge mode, eta the number of
    distinct sizes of the last stages, each over a vertex's subtree."""
    if n > _CLIP_STAGE_RATIO * len(size):
        return range(0)
    if mode == "vertex":
        return range(1, _CLIP_K_MAX + 1)
    # A byte per subtree size, not a set of them: this runs before the
    # witness budget check, on trees that check may refuse.
    held = bytearray(n + 1)
    for k in last:
        held[size[k]] = 1
    return range(1 + edge_peak_lower_bound(n, held.count(1)), _CLIP_K_MAX + 1)


def _clipped_profile(rules: _Mode, keys, size, n: int, k: int):
    """One clipped run at K = k: (whether it covers all sizes 0..n, the value
    of each size 1..n: the number of the k + 1 level unions that miss it)."""
    for _, root in _stages(*_clipped(rules, k), keys, size, n, 0, n):
        pass
    levels = _level_unions(root, k)
    raw = np.frombuffer(b"".join(u.to_bytes(n // 8 + 1, "little") for u in levels), dtype=np.uint8)
    covered = np.unpackbits(raw, bitorder="little").reshape(k + 1, -1).sum(axis=0)
    return levels[-1] == (2 << n) - 1, (k + 1 - covered[1 : n + 1]).tolist()


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
    token = _shared_classes.set((tree, _subtree_classes(tree, size_cap, True)))
    try:
        return IsoProfile.from_values(
            edge_profile(tree, size_cap), vertex_profile(tree, size_cap)
        )
    finally:
        _shared_classes.reset(token)


def witness_subset(tree: RootedTree, i: int, mode: str, size_cap: int = DEFAULT_DP_CAP):
    """A subset of cardinality i attaining the profile minimum for the mode.

    Deterministic: DP splits are re-read in a fixed scan order (previous
    flag, then child flag, then child allocation, each ascending), children
    in ascending-id merge order, so ties always resolve the same way.  The
    DP takes the profiles' route: clipped runs at growing K, kept when the
    root holds size i, else the dense tables cut to the cells a size-i
    subset can reach.  It raises SizeCapError before building any table
    when those dense cells would exceed WITNESS_MAX_CELLS.
    """
    return witness_subsets(tree, [i], mode, size_cap)[i]


def witness_subsets(tree: RootedTree, sizes, mode: str, size_cap: int = DEFAULT_DP_CAP) -> dict:
    """{i: witness_subset(tree, i, mode)} for every i in sizes, from one DP.

    A clipped run is kept when its root holds every size; dense stages keep
    the cells any of the sizes can reach (see _witness_stages).  Either way
    the sets and their tie order are those of witness_subset.
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
    sizes = sorted(set(sizes))
    if not sizes:
        return {}
    cls, keys, stages, read = _witness_stages(tree, mode, size_cap, sizes)
    return {i: _backtrack(tree, rules, cls, keys, stages, read, i) for i in sizes}


def _backtrack(tree: RootedTree, rules: _Mode, cls, keys, stages, read, i: int) -> frozenset:
    """The size-i witness read back from _witness_stages' stages by read,
    the (cell, split) pair of their algebra.

    cell(stage, s, j) is the value of cell j under flag s; the root's least
    one, on the first flag that has it, starts the walk.  A vertex's prefix
    chain is walked from its last stage back to the vertex alone: at each
    stage, split gives the first (s_prev, sc, x) in the scan order that
    makes the cell's value from cell j - x of the prefix and cell x of the
    child, with those two cells' values.
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
        for child in reversed(tree.children[v]):
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
    has one, else found by walking the set bits of the sparser one below
    bit j + 1, as _sumset does."""
    if jb >= 0:
        return jb if jb <= j and a >> (j - jb) & 1 else None
    if ja >= 0:
        return j - ja if ja <= j and b >> (j - ja) & 1 else None
    mask = (2 << j) - 1
    a &= mask
    b &= mask
    if b.bit_count() <= a.bit_count():
        while b:
            low = b & -b
            x = low.bit_length() - 1
            if a >> (j - x) & 1:
                return x
            b ^= low
    else:
        while a:
            y = a.bit_length() - 1
            if b >> (j - y) & 1:
                return j - y
            a ^= 1 << y
    return None


def _merge(cur: np.ndarray, child: np.ndarray, rules: _Mode, skip: int, width: int) -> np.ndarray:
    """cur with one more child merged in, by the transition table of rules.

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
    out = _empty_table(len(rules.into), width)
    if child.shape[1] <= cur.shape[1]:
        short, long, runs = child, cur, rules.child_runs
    else:
        short, long, runs = cur, child, rules.cur_runs
    if short.shape[1] <= _ROW_LOOP_MAX:
        _merge_short(short, long, runs, skip, out)
    else:
        kernel = _min_plus_rows if long.shape[1] > _BLOCK_CELLS // _MIN_BLOCK_ROWS else _min_plus_blocks
        _merge_pairs(cur, child, rules.into, kernel, short is cur, skip, out)
    return out


def _merge_short(short: np.ndarray, long: np.ndarray, runs: tuple, skip: int, out: np.ndarray):
    """Lower out by _merge walking the finite cells of its short side, the
    child or cur, with the runs of _short_runs for that side.

    Short cell x of flag f, value v, lands on out cells x - skip + j for
    the cells j of the long side that fall in the window, k0 <= j < k1.
    Each run of runs[f] then lowers out[new_rows, those cells] to
    long[long_rows, k0:k1] + v + cost: one 2-D np.minimum, after an np.add
    when the run has a cost, and one np.add per cell, shared by its runs,
    when v is nonzero.
    """
    lb, width = long.shape[1], out.shape[1]
    for row, group in zip(short.tolist(), runs):
        for start, v in enumerate(row, -skip):
            if v >= _INF:
                continue
            k0 = -start if start < 0 else 0
            k1 = width - start if width - start < lb else lb
            if k0 >= k1:
                continue
            cells = slice(start + k0, start + k1)
            moved = long[:, k0:k1] + v if v else long[:, k0:k1]
            for long_rows, new_rows, cost in group:
                seg = out[new_rows, cells]
                block = moved[long_rows]
                np.minimum(seg, block if cost is None else block + cost, out=seg)


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
    is skipped.  A last, shorter block reads only its own rows.  The
    scratch has r * (lb + r) <= 2 * _BLOCK_CELLS cells, since r * lb <=
    _BLOCK_CELLS and r <= lb.
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
        np.add(rows[:, None], b, out=z[: rows.size, :lb])
        skew = flat[: rows.size * (lb + r - 1)].reshape(rows.size, lb + r - 1)
        seg = out[start + c0 : start + c1]
        np.minimum(seg, skew.min(axis=0)[c0:c1], out=seg)


def _subtree_classes(tree: RootedTree, size_cap: int, by_class: bool):
    """Last stage id per vertex and the key of every DP stage.

    One post-order walk interns each vertex's chain of stages: key () is
    stage 0, the vertex alone, and (prefix, child) merges a child's last
    stage into its prefix, the children in ascending last stage id when
    by_class, else in ascending vertex id.  A vertex's last stage id is its
    subtree class: equal subtrees get equal chains, leaves stage 0, and
    vertices whose child lists start alike share those stages, each after
    its prefix and child.  The interning map is freed on return, so it
    does not add to the DP's peak memory.  Trees above size_cap raise
    SizeCapError before any work.
    """
    if tree.n > size_cap:
        raise SizeCapError(f"tree has {tree.n} vertices, above the DP size cap {size_cap}")
    stages = {(): 0}
    last = [0] * tree.n
    for v in postorder(tree):
        if tree.children[v]:
            kids = [last[c] for c in tree.children[v]]
            k = 0
            for c in sorted(kids) if by_class else kids:
                k = stages.setdefault((k, c), len(stages))
            last[v] = k
    return last, list(stages)


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


def _dense(rules: _Mode):
    """The int32 table algebra of rules, (base, merge) for _stages."""
    return (lambda lo, width: rules.base[:, lo : lo + width],
            lambda cur, child, skip, width: _merge(cur, child, rules, skip, width))


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


def _witness_cells(size, n: int, i_min: int, i_max: int, nflags: int) -> int:
    """Cells the dense stages of _witness_stages hold, over all flag rows,
    from the stage sizes alone: the widths of their _windows."""
    return nflags * sum(_window(s, n, i_min, i_max)[1] for s in size)


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


def _witness_stages(tree: RootedTree, mode: str, size_cap: int, sizes: list):
    """(last stage id per vertex, stage keys, every stage of one DP run, the
    (cell, split) of its algebra for _backtrack) for the sorted sizes,
    children in vertex-id order.  The run is the first clipped one of
    _clip_ks whose root holds every size, each within the budget of
    WITNESS_MAX_CELLS int32 cells by _clipped_bytes, else the dense DP
    windowed to sizes[0] .. sizes[-1].  SizeCapError, before any table is
    built, above size_cap vertices or a dense DP of WITNESS_MAX_CELLS cells."""
    rules, n = _MODES[mode], tree.n
    nflags = len(rules.into)
    cls, keys = _subtree_classes(tree, size_cap, False)
    size = _stage_sizes(keys)
    for k in _clip_ks(mode, cls, size, n):
        if _clipped_bytes(size, k, nflags) > WITNESS_MAX_CELLS * rules.base.itemsize:
            break
        stages = _clipped_stages(rules, keys, size, n, k, cls[tree.root], sizes)
        if stages:
            return cls, keys, stages, (_clipped_cell, _clipped_split)
    cells = _witness_cells(size, n, sizes[0], sizes[-1], nflags)
    if cells > WITNESS_MAX_CELLS:
        raise SizeCapError(
            f"witness tables need {cells} cells, above the budget {WITNESS_MAX_CELLS}"
        )
    stages = list(_stages(*_dense(rules), keys, size, n, sizes[0], sizes[-1]))
    return cls, keys, stages, (_dense_cell, _dense_split)


def _clipped_stages(rules: _Mode, keys, size, n: int, k: int, root: int, sizes: list):
    """Every stage of one clipped run at K = k if stage root holds each of
    the sizes, else None."""
    stages = list(_stages(*_clipped(rules, k), keys, size, n, 0, n))
    held = _level_unions(stages[root][1], k)[-1]
    return stages if all(held >> i & 1 for i in sizes) else None
