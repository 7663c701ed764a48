"""Certified bounds on isoperimetric peaks.

The counting route: label every boundary edge of a subset S with a signed
subtree weight so that the labels plus a root term sum to |S| exactly.
Because each label is one of few values (0 or a signed distinct subtree
weight), the number of subset sizes with a small minimum boundary is
bounded by a binomial count, which in turn forces the edge peak upward.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .profile import IsoProfile
from .tree import RootedTree, WeightTable, postorder, subtree_weights


@dataclass(frozen=True)
class FluxAssignment:
    """Signed subtree-weight labels on the edges of one subset's boundary.

    Every tree edge (child, parent) maps to 0 when it is not a boundary
    edge, +weight(child) when the child is in the subset, -weight(child)
    otherwise; the root contributes n when selected.  The labels always sum
    to the subset's cardinality.
    """

    root_value: int
    edge_values: dict
    subset: frozenset

    def total(self) -> int:
        return self.root_value + sum(self.edge_values.values())


def flux_assignment(tree: RootedTree, members, weights: WeightTable) -> FluxAssignment:
    """Label boundary edges of the subset with signed subtree weights."""
    subset = frozenset(members)
    inside = tree.membership(subset)
    root_value = tree.n if inside[tree.root] else 0
    edge_values = {}
    for v, p in tree.edges():
        v_in, p_in = inside[v], inside[p]
        if v_in == p_in:
            edge_values[(v, p)] = 0
        elif v_in:
            edge_values[(v, p)] = weights.weight[v]
        else:
            edge_values[(v, p)] = -weights.weight[v]
    return FluxAssignment(root_value=root_value, edge_values=edge_values, subset=subset)


def check_flux_conservation(tree: RootedTree, members, weights: WeightTable = None) -> bool:
    """Whether the flux labels sum to |S|; true for every subset."""
    if weights is None:
        weights = subtree_weights(tree)
    assignment = flux_assignment(tree, members, weights)
    return assignment.total() == len(assignment.subset)


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
