"""Certified bounds on isoperimetric peaks.

The counting route rests on one flux rule: for a subset S, vertex v gets
f(v) = w(v) * ([v in S] - [parent(v) in S]), w the subtree weight and the
root's parent outside S.  The labels sum to |S|, and each one off the root
is 0 or a signed distinct subtree weight, so the number of subset sizes
with a small minimum boundary is bounded by a binomial count, which in
turn forces the edge peak upward.  The label sum equals
sum over v in S of (w(v) - sum of w over v's children), so the rule holds
for every S exactly when w(v) = 1 + sum of w over v's children at every
vertex; flux_identity_failures checks that identity once.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .tree import RootedTree, WeightTable, postorder

if TYPE_CHECKING:
    from .profile import IsoProfile


def _flux_label_rows(tree: RootedTree, rows, weights: WeightTable):
    """The int64 flux labels of each row of an int8 (subsets x n) matrix."""
    parent = np.array([v if p is None else p for v, p in enumerate(tree.parent)])
    diff = rows - rows[:, parent]
    diff[:, tree.root] = rows[:, tree.root]
    return diff * np.array(weights.weight, np.int64)


def flux_identity_failures(tree: RootedTree, weights: WeightTable) -> list:
    """The vertices v, ascending, where w(v) != 1 + the sum of w over v's
    children: empty exactly when the flux labels sum to |S| for every S."""
    n = tree.n
    w = np.array(weights.weight, np.int64)
    # The root's weight goes to a sink slot n, past every vertex.
    child_sums = np.zeros(n + 1, np.int64)
    np.add.at(child_sums, [n if p is None else p for p in tree.parent], w)
    return np.flatnonzero(w != 1 + child_sums[:n]).tolist()


def flux_labels(tree: RootedTree, members, weights: WeightTable) -> list:
    """The flux label of every vertex: for v other than the root, the label
    of edge (v, parent v), 0 off the boundary of S and +-w(v) on it; at the
    root, w(root) = n when it is in S.  ValueError for an id outside 0..n-1."""
    row = np.array([tree.membership(members)], np.int8)
    return _flux_label_rows(tree, row, weights)[0].tolist()


def check_flux_conservation(tree: RootedTree, members, weights: WeightTable) -> bool:
    """Whether the flux labels sum to |S|, each vertex counted once."""
    row = np.array([tree.membership(members)], np.int8)
    return int(_flux_label_rows(tree, row, weights).sum()) == int(row.sum())


def cut_count_upper_bound(eta: int, k: int) -> int:
    """Upper bound 2*C(2*eta + k, k) on how many subset sizes can have a
    minimum edge boundary of at most k, where eta counts distinct subtree
    weights."""
    if eta < 1:
        raise ValueError(f"eta must be >= 1, got {eta}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return 2 * math.comb(2 * eta + k, k)


def count_sizes_with_cut_at_most(edge_values, k: int) -> int:
    """Number of cardinalities whose minimum edge boundary is <= k."""
    return sum(1 for value in edge_values if value <= k)


def edge_peak_lower_bound(n: int, eta: int) -> int:
    """Smallest k >= 0 with 2*C(2*eta + k, k) >= n; a certified lower bound
    on the edge isoperimetric peak."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k = 0
    while cut_count_upper_bound(eta, k) < n:
        k += 1
    return k


def analytic_peak_lower_bounds(n: int, eta: int, delta: int):
    """Closed-form floating-point lower estimates for both peaks.

    Evaluates eta * (n**(1/(2*eta)) - 2e) / e, clamped below at zero, and
    divides by delta for the vertex version.  Informational only: the
    constants are asymptotic, so edge_peak_lower_bound is what verdicts use.
    """
    if eta < 1 or delta < 1:
        raise ValueError(f"eta and delta must be >= 1, got eta={eta}, delta={delta}")
    be = eta * (n ** (1.0 / (2 * eta)) - 2 * math.e) / math.e
    be = max(0.0, be)
    return be, be / delta


def prefix_upper_bounds(tree: RootedTree):
    """Boundary sizes of every post-order prefix, as (edge_ub, vertex_ub).

    The i-th prefix is the first i vertices of the post-order traversal;
    its boundaries dominate the true profile entrywise.  Computed
    incrementally in O(n) total.
    """
    cut = 0
    phi = 0
    edge_ub = []
    vertex_ub = []
    for v in postorder(tree):
        # Post-order adds v after its children and before its parent: the
        # child edges stop being cut and the parent edge starts; v leaves
        # the vertex boundary if it has a child, and its parent joins it
        # with its first child.
        kids, p = tree.children[v], tree.parent[v]
        cut += (p is not None) - len(kids)
        if kids:
            phi -= 1
        if p is not None and tree.children[p][0] == v:
            phi += 1
        edge_ub.append(cut)
        vertex_ub.append(phi)
    return edge_ub, vertex_ub


def sandwich_check(profile: IsoProfile, delta: int) -> bool:
    """Peak sandwich: edge_peak >= vertex_peak and delta*vertex_peak >= edge_peak."""
    return (
        profile.edge_peak >= profile.vertex_peak
        and delta * profile.vertex_peak >= profile.edge_peak
    )
