"""Exact isoperimetric profiles of rooted trees.

Two independent routes to the same numbers: a quadratic subtree-merge
dynamic program (edge_profile / vertex_profile) and an exhaustive
enumeration over all 2^n vertex subsets (brute_force_profiles) that serves
as the oracle at small n.

The dynamic program merges tables once per class of equal subtrees, not
once per vertex: two vertices share a class when their children, taken in
merge order, have the same classes (Aho, Hopcroft & Ullman 1974, without
sorting the children).  Every level of a complete t-ary tree is one class,
so it costs one merge chain per level; a tree without repeated subtrees,
such as a path, costs what a per-vertex DP does.

Each mode states its flag rules once, in a transition table that the
merge, the one-vertex table and the witness backtracking all read.

Every DP table is int32 with _INF marking infeasible cells, so the
profiles are computed in exact integer arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .tree import RootedTree, postorder

DEFAULT_DP_CAP = 50_000
DEFAULT_ORACLE_LIMIT = 20
# Largest tree the oracle enumerates, whatever limit it is given.  This
# bounds time, not memory (see _ORACLE_CHUNK): the time doubles with every
# vertex, and a path with n = 24 took about 4 s on a 2-vCPU Xeon VM.
ORACLE_MAX_VERTICES = 24
# Subsets the oracle evaluates per numpy pass, so that its working arrays
# stay at a few MiB whatever n is.
_ORACLE_CHUNK = 1 << 16

# Infeasible-cell sentinel of the int32 DP tables.  Feasible cells are cut
# counts of at most n, far below it, and 2 * _INF + 1 still fits in int32,
# so no sum of two cells plus a unit cost overflows.
_INF = np.iinfo(np.int32).max // 2 - 1

# Flag values for the edge DP rows.
_E_OUT, _E_IN = 0, 1
# Flag values for the vertex DP rows.  OUT_UNTOUCHED has no neighbor in S
# among processed vertices; OUT_TOUCHED has already paid its unit of
# boundary cost.
_V_OUT_UNTOUCHED, _V_OUT_TOUCHED, _V_IN = 0, 1, 2

# Transition tables: (parent flag, child-root flag) -> (merge cost, new parent flag).
# Flag 0 is the flag of an unselected vertex before any child is merged.
_EDGE_TRANS = {
    (s, sc): (0 if s == sc else 1, s) for s in (0, 1) for sc in (0, 1)
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
    order.  base is the table of a vertex alone: flag 0, or in_flag.
    """

    in_flag: int
    into: list
    base: np.ndarray


def _mode(nflags: int, in_flag: int, trans: dict) -> _Mode:
    into = [{} for _ in range(nflags)]
    for (s_prev, sc), (cost, s_new) in sorted(trans.items()):
        into[s_new].setdefault(s_prev, []).append((sc, cost))
    base = np.full((nflags, 2), _INF, dtype=np.int32)
    base[0, 0] = base[in_flag, 1] = 0
    return _Mode(in_flag, [list(g.items()) for g in into], base)


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
        ep, ea = peaks(edge_values)
        vp, va = peaks(vertex_values)
        return cls(
            n=len(edge_values),
            edge_values=edge_values,
            vertex_values=vertex_values,
            edge_peak=ep,
            vertex_peak=vp,
            edge_argpeak=ea,
            vertex_argpeak=va,
        )

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
    inside = _membership(tree, members)
    return sum(1 for v, p in tree.edges() if inside[v] != inside[p])


def vertex_boundary_size(tree: RootedTree, members) -> int:
    """Number of vertices outside the set adjacent to at least one member."""
    inside = _membership(tree, members)
    adj = tree.adjacency()
    return sum(
        1
        for v in range(tree.n)
        if not inside[v] and any(inside[u] for u in adj[v])
    )


def _membership(tree: RootedTree, members) -> list:
    inside = [False] * tree.n
    for v in members:
        if not (0 <= v < tree.n):
            raise ValueError(f"vertex {v} out of range [0, {tree.n})")
        inside[v] = True
    return inside


def brute_force_profiles(tree: RootedTree, limit: int = DEFAULT_ORACLE_LIMIT):
    """Exact profiles by evaluating the boundary of every one of the 2^n subsets.

    Independent of the dynamic program: subsets are enumerated as bitmasks
    and both boundary sizes are read straight off the definitions, in
    chunks of _ORACLE_CHUNK subsets.  Returns (edge_values, vertex_values)
    indexed like IsoProfile.  Trees above limit or ORACLE_MAX_VERTICES
    raise SizeCapError before any allocation.
    """
    n = tree.n
    limit = min(limit, ORACLE_MAX_VERTICES)
    if n > limit:
        raise SizeCapError(f"tree has {n} vertices, above the oracle limit {limit}")
    edges = tree.edges()
    adj = tree.adjacency()
    nbr_masks = [sum(1 << u for u in adj[v]) for v in range(n)]
    sentinel = np.iinfo(np.int64).max
    edge_best = np.full(n + 1, sentinel, dtype=np.int64)
    vert_best = np.full(n + 1, sentinel, dtype=np.int64)
    for start in range(0, 1 << n, _ORACLE_CHUNK):
        masks = np.arange(start, min(start + _ORACLE_CHUNK, 1 << n), dtype=np.int64)
        size = np.zeros(masks.size, dtype=np.int64)
        for v in range(n):
            size += (masks >> v) & 1
        cut = np.zeros(masks.size, dtype=np.int64)
        for v, p in edges:
            cut += ((masks >> v) ^ (masks >> p)) & 1
        touched = np.zeros(masks.size, dtype=np.int64)
        for v, nbr_mask in enumerate(nbr_masks):
            touched += (((masks >> v) & 1) == 0) & ((masks & nbr_mask) != 0)
        np.minimum.at(edge_best, size, cut)
        np.minimum.at(vert_best, size, touched)
    return (
        [int(x) for x in edge_best[1:]],
        [int(x) for x in vert_best[1:]],
    )


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
    return [int(x) for x in np.min(_run_dp(tree, mode, size_cap), axis=0)[1:]]


def compute_profile(tree: RootedTree, size_cap: int = DEFAULT_DP_CAP) -> IsoProfile:
    return IsoProfile.from_values(
        edge_profile(tree, size_cap), vertex_profile(tree, size_cap)
    )


def witness_subset(tree: RootedTree, i: int, mode: str, size_cap: int = DEFAULT_DP_CAP):
    """A subset of cardinality i attaining the profile minimum for the mode.

    Deterministic: DP splits are re-read in a fixed scan order (previous
    flag, then child flag, then child allocation, each ascending), children
    in ascending-id merge order, so ties always resolve the same way.
    """
    rules = _MODES.get(mode)
    if rules is None:
        raise ValueError(f"mode must be 'edge' or 'vertex', got {mode!r}")
    if not (1 <= i <= tree.n):
        raise ValueError(f"subset size {i} out of range [1, {tree.n}]")
    cls, stages = _run_dp(tree, mode, size_cap, keep_stages=True)
    s_star = int(np.argmin(stages[cls[tree.root]][-1][:, i]))

    selected = []
    work = [(tree.root, i, s_star)]
    while work:
        v, j, s_after = work.pop()
        kids = tree.children[v]
        tabs = stages[cls[v]]
        for m in range(len(kids), 0, -1):
            child = kids[m - 1]
            value = tabs[m][s_after][j]
            prev_tab = tabs[m - 1]
            child_tab = stages[cls[child]][-1]
            hi = min(j, child_tab.shape[1] - 1)
            lo = max(0, j - (prev_tab.shape[1] - 1))
            found = next(
                (
                    (s_prev, sc, jc)
                    for s_prev, terms in rules.into[s_after]
                    for sc, cost in terms
                    for jc in range(lo, hi + 1)
                    if prev_tab[s_prev][j - jc] + child_tab[sc][jc] + cost == value
                ),
                None,
            )
            if found is None:
                raise AssertionError("DP backtracking failed to find a split")
            s_prev, sc, jc = found
            work.append((child, jc, sc))
            j -= jc
            s_after = s_prev
        # Base table: the vertex alone.
        if s_after == rules.in_flag:
            selected.append(v)
        if tabs[0][s_after][j] != 0:
            raise AssertionError("DP backtracking reached an infeasible base cell")
    return frozenset(selected)


def _base_table(mode: str) -> np.ndarray:
    return _MODES[mode].base.copy()


def _merge(cur: np.ndarray, child: np.ndarray, mode: str) -> np.ndarray:
    """cur with one more child merged in, by the mode's transition table.

    Row s of the result is the minimum, over the transitions into s, of
    cur[s_prev] min-plus (child[sc] + cost).  Child rows that share s_prev
    are combined first, so each (s_prev -> s) pair costs one min-plus.
    """
    rules = _MODES[mode]
    out = np.full((len(rules.into), cur.shape[1] + child.shape[1] - 1), _INF, dtype=np.int32)
    for row, into in zip(out, rules.into):
        for s_prev, terms in into:
            eff = reduce(np.minimum, [child[sc] + cost if cost else child[sc] for sc, cost in terms])
            _min_plus(cur[s_prev], eff, row)
    return out


def _min_plus(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """Lower out (a.size + b.size - 1 cells) to the min-plus convolution of
    a and b where that is smaller.

    All three are int32 and cells at or above _INF are infeasible.  Cells
    of a and b are at most _INF + 1 (a sentinel plus a unit cost), and rows
    of a at or above _INF are skipped, so no sum exceeds 2 * _INF and none
    overflows.  out holds at most _INF, so np.minimum saturates every
    infeasible sum back to _INF without a further pass.
    """
    if b.size < a.size:
        a, b = b, a
    scratch = np.empty(b.size, dtype=np.int32)
    for i, v in enumerate(a.tolist()):
        if v >= _INF:
            continue
        np.add(b, v, out=scratch)
        seg = out[i : i + b.size]
        np.minimum(seg, scratch, out=seg)


def _subtree_classes(tree: RootedTree):
    """Class id per vertex and the child-class tuple of each class.

    A vertex's class is the interned tuple of its children's classes in
    ascending-id merge order (Aho, Hopcroft & Ullman 1974, with the
    children left unsorted), so two vertices share a class exactly when
    the DP runs the same merges on the same tables for them.  Classes are
    numbered in post-order of first appearance, which puts every child
    class before its parents.  The interning map is dropped on return so
    that it never adds to the DP's peak memory.
    """
    ids = {}
    cls = [0] * tree.n
    for v in postorder(tree):
        # Keys are built from a list: a tuple grown from an iterator is
        # resized, and the discarded keys then pile up in CPython's tuple
        # free list, which is memory the DP never gets back.
        cls[v] = ids.setdefault(tuple([cls[c] for c in tree.children[v]]), len(ids))
    return cls, list(ids)


def _run_dp(tree: RootedTree, mode: str, size_cap: int, keep_stages: bool = False):
    """Post-order DP over the tree, one merge chain per subtree class.

    Tables are merged once per class of _subtree_classes, and every vertex
    of a class uses its table.  A class table is dropped once every class
    that merges it has done so; nothing outlives the call.

    Returns the root table, or (class id per vertex, stage list per class)
    when keep_stages is set for witness backtracking; stage m of a class is
    its table after merging its first m children, and its last stage is its
    final table.  Trees above size_cap raise SizeCapError.
    """
    if tree.n > size_cap:
        raise SizeCapError(f"tree has {tree.n} vertices, above the DP size cap {size_cap}")
    cls, keys = _subtree_classes(tree)
    uses = [0] * len(keys)
    for key in keys:
        for c in key:
            uses[c] += 1
    final = [None] * len(keys)
    stages = [None] * len(keys) if keep_stages else None
    for k, key in enumerate(keys):
        table = _base_table(mode)
        if keep_stages:
            stages[k] = [table]
        for c in key:
            table = _merge(table, final[c], mode)
            if keep_stages:
                stages[k].append(table)
            else:
                uses[c] -= 1
                if not uses[c]:
                    final[c] = None
        final[k] = table
    if keep_stages:
        return cls, stages
    return final[cls[tree.root]]
