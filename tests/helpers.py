"""Shared tree families for the test suite."""
from __future__ import annotations

from collections import deque

from hypothesis import strategies as st

from treeiso import RootedTree, generate_tree


def structured_trees(max_n: int):
    """All paths, stars, uniform caterpillars, and small complete t-ary
    trees with at most max_n vertices, as (label, tree) pairs."""
    trees = []
    for n in range(1, max_n + 1):
        trees.append((f"path:n={n}", generate_tree("path", {"n": n})))
        trees.append((f"star:n={n}", generate_tree("star", {"n": n})))
    for spine in range(1, max_n + 1):
        for legs in range(1, max_n):
            if spine * (1 + legs) > max_n:
                break
            trees.append(
                (
                    f"caterpillar:spine={spine},legs={legs}",
                    generate_tree("caterpillar", {"spine": spine, "legs": legs}),
                )
            )
    for t in (2, 3, 4):
        for d in (2, 3, 4):
            if (t**d - 1) // (t - 1) <= max_n:
                trees.append(
                    (f"complete_tary:t={t},d={d}", generate_tree("complete_tary", {"t": t, "d": d}))
                )
    return trees


def random_trees(count: int, max_n: int, seed0: int = 0):
    """Seeded random trees alternating between both random generators."""
    trees = []
    for i in range(count):
        kind = "random_recursive" if i % 2 == 0 else "random_prufer"
        n = 1 + (i * 37 + seed0) % max_n
        seed = seed0 * 100_000 + i
        trees.append((f"{kind}:n={n},seed={seed}", generate_tree(kind, {"n": n}, seed=seed)))
    return trees


def rooted_trees(n: int):
    """Every rooted tree on n >= 1 vertices exactly once, root 0 and the
    vertices in preorder: the canonical level sequences, from the path down
    to the star (Beyer & Hedetniemi, SIAM J. Comput. 1980).  The next
    sequence after L takes p, the last vertex deeper than level 1, and q,
    the last one before p at level L[p] - 1, and repeats L[q:p] from p on."""
    levels = list(range(n))
    while True:
        parents, last = [None] * n, {}
        for v, d in enumerate(levels):
            if d:
                parents[v] = last[d - 1]
            last[d] = v
        yield RootedTree.from_parents(parents, 0)
        p = next((v for v in range(n - 1, 0, -1) if levels[v] > 1), None)
        if p is None:
            return
        q = max(v for v in range(p) if levels[v] == levels[p] - 1)
        for v in range(p, n):
            levels[v] = levels[v - (p - q)]


def reroot(tree: RootedTree, root: int) -> RootedTree:
    """The same unrooted tree rooted at root, parents set by breadth-first
    search from it."""
    adj = tree.adjacency()
    parents = [None] * tree.n
    seen = [False] * tree.n
    seen[root] = True
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if not seen[u]:
                seen[u] = True
                parents[u] = v
                queue.append(u)
    return RootedTree.from_parents(parents, root)


@st.composite
def labelled_trees(draw, max_n=14):
    """Random recursive shapes under a random labelling, root included."""
    n = draw(st.integers(1, max_n))
    parents = [None] + [draw(st.integers(0, v - 1)) for v in range(1, n)]
    return relabel(RootedTree.from_parents(parents, 0), draw(st.permutations(range(n))))


def relabel(tree, perm):
    """The same tree with vertex v renamed perm[v]; children keep ascending ids,
    so the merge order, and with it the subtree classes, change."""
    parents = [None] * tree.n
    for v, p in enumerate(tree.parent):
        parents[perm[v]] = None if p is None else perm[p]
    return RootedTree.from_parents(parents, perm[tree.root])
