"""Rooted trees: representation, parsing/serialization, generators, subtree weights."""
from __future__ import annotations

import heapq
import json
import random
import re
from dataclasses import dataclass, field
from typing import Sequence

DEFAULT_MAX_VERTICES = 1_000_000

TREE_FORMATS = ("json", "parent-list")
# Each generator kind and the only parameters it accepts.
_KIND_PARAMS = {
    "complete_tary": ("t", "d"),
    "path": ("n",),
    "star": ("n",),
    "caterpillar": ("spine", "legs"),
    "random_recursive": ("n",),
    "random_prufer": ("n",),
}
TREE_KINDS = tuple(_KIND_PARAMS)
# Parent-list lines and generator parameters: -?[0-9]+ between ASCII spaces
# and tabs, then an optional "\r".  int() also takes "1_0", "+0", fullwidth digits.
_DECIMALS = re.compile(r"[ \t]*(?:-?[0-9]+(?:[ \t]+-?[0-9]+)*)?[ \t]*\r?")


def _decimals(text: str):
    """The integers of text, or None unless _DECIMALS matches it and int() takes each."""
    try:
        return list(map(int, text.split())) if _DECIMALS.fullmatch(text) else None
    except ValueError:  # int() refuses numbers past its digit limit
        return None


def _decimal(text: str):
    """The one integer of text under the rule of _decimals, or None."""
    ints = _decimals(text)
    return ints[0] if ints is not None and len(ints) == 1 else None


def _is_int(x) -> bool:
    """x is an int and not a bool, which Python counts as one."""
    return isinstance(x, int) and not isinstance(x, bool)


class TreeFormatError(ValueError):
    """Tree input that fails to parse or violates rooted-tree structure."""


class GenerationError(ValueError):
    """Invalid generator parameters or a size limit exceeded."""


@dataclass(frozen=True)
class RootedTree:
    """Immutable rooted tree over vertex ids 0..n-1.

    parent[root] is None; every other vertex stores its parent id.  Children
    lists are the inverse of the parent array, in ascending id order, which
    fixes traversal order for everything built on top.
    """

    n: int
    root: int
    parent: tuple
    children: tuple = field(compare=False, repr=False)

    @classmethod
    def from_parents(cls, parents: Sequence, root: int) -> "RootedTree":
        """Build and validate a tree from a parent array and declared root."""
        n = len(parents)
        if n < 1:
            raise TreeFormatError("malformed tree: vertex count must be positive")
        if not _is_int(root):
            raise TreeFormatError(f"malformed tree: root {root!r} is not an integer")
        if not (0 <= root < n):
            raise TreeFormatError(f"out-of-range id: root {root} not in [0, {n})")
        kids = [[] for _ in range(n)]
        for v, p in enumerate(parents):
            if p is None:
                continue
            if not _is_int(p):
                raise TreeFormatError(f"malformed tree: parent of vertex {v} is not an integer")
            if not (0 <= p < n):
                raise TreeFormatError(f"out-of-range id: vertex {v} has parent {p} not in [0, {n})")
            kids[p].append(v)
        if parents[root] is not None:
            raise TreeFormatError(
                f"duplicate parent entry: declared root {root} also has parent {parents[root]}"
            )
        for v, p in enumerate(parents):
            if p is None and v != root:
                raise TreeFormatError(
                    f"disconnected forest: vertex {v} has no parent but root is {root}"
                )
        tree = cls(n=n, root=root, parent=tuple(parents), children=tuple(map(tuple, kids)))
        # A vertex is reached from the root exactly when its parent chain
        # ends there.  The chain of the smallest unreached vertex runs into
        # a cycle; name the first vertex it repeats.
        order = postorder(tree)
        if len(order) < n:
            v = tree.membership(order).index(False)
            chain = set()
            while v not in chain:
                chain.add(v)
                v = parents[v]
            raise TreeFormatError(f"cycle detected: vertex {v} never reaches the root")
        return tree

    def membership(self, members) -> list:
        """inside[v] is True exactly for the given vertices; ValueError for
        an id that is not an integer (_is_int) in 0..n-1."""
        inside = [False] * self.n
        for v in members:
            # type() first: a plain int passes without a call to _is_int.
            if type(v) is not int and not _is_int(v) or not 0 <= v < self.n:
                raise ValueError(f"vertex {v!r} out of range [0, {self.n})")
            inside[v] = True
        return inside

    def edges(self) -> list:
        """All edges as (child, parent) pairs, ascending child id."""
        return [(v, self.parent[v]) for v in range(self.n) if v != self.root]

    def adjacency(self) -> list:
        """Neighbor lists (parent and children merged), ascending ids."""
        adj = [list(c) for c in self.children]
        for v in range(self.n):
            p = self.parent[v]
            if p is not None:
                adj[v].append(p)
        return [sorted(a) for a in adj]

    def degree(self, v: int) -> int:
        return len(self.children[v]) + (0 if v == self.root else 1)

    def max_degree(self) -> int:
        """Maximum vertex degree; 0 for the single-vertex tree."""
        return max(self.degree(v) for v in range(self.n))


@dataclass(frozen=True)
class WeightTable:
    """Subtree sizes of a rooted tree plus their summary statistics.

    weight[u] counts u and all its descendants.  eta is the number of
    distinct subtree sizes; depth counts nodes (not edges) on the longest
    root-to-leaf path, so eta >= depth always holds.
    """

    weight: tuple
    distinct_weights: tuple
    eta: int
    depth: int


def parse_tree(text, fmt: str) -> RootedTree:
    """Parse a tree from bytes or str in 'json' or 'parent-list' format.

    JSON: {"n": int, "root": int, "parent": [int-or-null x n]}, no key repeated.
    Parent-list: exactly three lines, line 1 vertex count, line 2 root id,
    line 3 the n space-separated parents with -1 marking the root; only
    blank lines may follow.  Lines split on newlines and hold _DECIMALS.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TreeFormatError(f"malformed input: not UTF-8 ({exc})") from exc
    if fmt == "json":
        return _parse_json(text)
    if fmt == "parent-list":
        return _parse_parent_list(text)
    raise TreeFormatError(f"unknown tree format {fmt!r}, expected one of {TREE_FORMATS}")


def _parse_json(text: str) -> RootedTree:
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested past the decoder's depth.
        raise TreeFormatError(f"malformed json: {exc}") from exc
    if not isinstance(obj, dict):
        raise TreeFormatError("malformed json: top-level value must be an object")
    for key in ("n", "root", "parent"):
        if key not in obj:
            raise TreeFormatError(f"malformed json: missing field {key!r}")
    n, root, parent = obj["n"], obj["root"], obj["parent"]
    if not _is_int(n):
        raise TreeFormatError("malformed json: field 'n' must be an integer")
    if not _is_int(root):
        raise TreeFormatError("malformed json: field 'root' must be an integer")
    if not isinstance(parent, list):
        raise TreeFormatError("malformed json: field 'parent' must be an array")
    if len(parent) != n:
        raise TreeFormatError(
            f"malformed json: 'parent' has {len(parent)} entries, expected n = {n}"
        )
    return RootedTree.from_parents(parent, root)


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a repeated key is malformed, not its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise TreeFormatError(f"malformed json: repeated key {key!r}")
        obj[key] = value
    return obj


def _parse_parent_list(text: str) -> RootedTree:
    lines = text.split("\n")
    if len(lines) < 3:
        raise TreeFormatError("malformed parent-list: expected 3 lines (n, root, parents)")
    n, root = head = [_decimal(line) for line in lines[:2]]
    for k, (line, value) in enumerate(zip(lines, head), 1):
        if value is None:
            raise TreeFormatError(f"malformed parent-list line {k}: {line!r} is not an integer")
    parents = _decimals(lines[2])
    if parents is None:
        tokens = enumerate(re.split("[ \t]+", lines[2].strip(" \t")))
        v, tok = next((v, tok) for v, tok in tokens if _decimals(tok) is None)
        raise TreeFormatError(f"malformed parent-list line 3: entry {v} ({tok!r}) is not an integer")
    if len(parents) != n:
        raise TreeFormatError(
            f"malformed parent-list line 3: {len(parents)} entries, expected n = {n}"
        )
    parents = [None if p == -1 else p for p in parents]
    for k, line in enumerate(lines[3:], 4):
        if _decimals(line) != []:
            raise TreeFormatError(f"malformed parent-list line {k}: content after line 3")
    return RootedTree.from_parents(parents, root)


def serialize_tree(tree: RootedTree, fmt: str) -> bytes:
    """Serialize to bytes; parse_tree(serialize_tree(T, f), f) round-trips."""
    if fmt == "json":
        parent = [p for p in tree.parent]
        payload = {"n": tree.n, "root": tree.root, "parent": parent}
        return json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if fmt == "parent-list":
        row = " ".join("-1" if p is None else str(p) for p in tree.parent)
        return f"{tree.n}\n{tree.root}\n{row}\n".encode("utf-8")
    raise TreeFormatError(f"unknown tree format {fmt!r}, expected one of {TREE_FORMATS}")


def generate_tree(
    kind: str,
    params: dict,
    seed: int = 0,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> RootedTree:
    """Deterministically generate a rooted tree.

    Kinds and their integer params:
      complete_tary    t >= 2 children per internal node, depth d >= 1 (in nodes)
      path             n vertices rooted at one end
      star             center root plus n - 1 leaves
      caterpillar      spine >= 1 path vertices, legs >= 0 leaves on each
      random_recursive n vertices, vertex k attached to a uniform earlier vertex
      random_prufer    uniform labeled tree on n vertices rooted at 0

    Any other parameter raises GenerationError.  Random kinds draw from
    random.Random(seed); the other kinds ignore the seed.
    """
    if kind not in TREE_KINDS:
        raise GenerationError(f"unknown tree kind {kind!r}, expected one of {TREE_KINDS}")
    for key in params:
        if key not in _KIND_PARAMS[kind]:
            raise GenerationError(
                f"unknown generator parameter {key!r} for {kind}, expected {_KIND_PARAMS[kind]}"
            )
    if kind == "complete_tary":
        t, d = _need(params, "t"), _need(params, "d")
        if t < 2 or d < 1:
            raise GenerationError(f"complete_tary requires t >= 2 and d >= 1, got t={t}, d={d}")
        # Count level by level and stop past the limit: t**d for a huge d
        # is a bignum that takes seconds to build.
        n, level = 0, 1
        for _ in range(d):
            n += level
            level *= t
            if n > max_vertices:
                raise GenerationError(
                    f"complete_tary t={t}, d={d} has more than {max_vertices} vertices, the limit"
                )
        parents = [None] + [(v - 1) // t for v in range(1, n)]
    elif kind == "caterpillar":
        spine, legs = _need(params, "spine"), _need(params, "legs")
        if spine < 1 or legs < 0:
            raise GenerationError(
                f"caterpillar requires spine >= 1 and legs >= 0, got spine={spine}, legs={legs}"
            )
        _check_size(spine * (1 + legs), max_vertices)
        parents = [None] + list(range(spine - 1))
        for i in range(spine):
            parents.extend([i] * legs)
    else:
        n = _need(params, "n")
        if n < 1:
            raise GenerationError(f"parameter n must be >= 1, got {n}")
        _check_size(n, max_vertices)
        if kind == "path":
            parents = [None] + list(range(n - 1))
        elif kind == "star":
            parents = [None] + [0] * (n - 1)
        elif kind == "random_recursive":
            rng = random.Random(seed)
            parents = [None] + [rng.randrange(k) for k in range(1, n)]
        else:
            rng = random.Random(seed)
            parents = _prufer_parents([rng.randrange(n) for _ in range(n - 2)], n)
    return RootedTree.from_parents(parents, 0)


def _need(params: dict, key: str) -> int:
    if key not in params:
        raise GenerationError(f"missing generator parameter {key!r}")
    value = params[key]
    if not _is_int(value):
        raise GenerationError(f"generator parameter {key!r} must be an integer, got {value!r}")
    return value


def _check_size(n: int, max_vertices: int) -> None:
    if n > max_vertices:
        raise GenerationError(f"tree would have {n} vertices, above the limit of {max_vertices}")


def _prufer_parents(seq: list, n: int) -> list:
    """The parent array of the labelled tree with Prufer sequence seq, rooted at 0.

    Decoding joins each removed leaf to its parent; the last vertex left,
    n - 1, is the root of those pointers, and reversing them on the path
    from 0 to it roots the tree at 0.
    """
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    # The loop removes all but two vertices, each into its entry of seq.  Of
    # the two left, n - 1 (never the smallest leaf) is the root, and the
    # other keeps n - 1 as its parent.
    parents = [n - 1] * (n - 1) + [None]
    for s in seq:
        parents[heapq.heappop(leaves)] = s
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    child, v = None, 0
    while v is not None:
        parents[v], child, v = child, v, parents[v]
    return parents


def subtree_weights(tree: RootedTree) -> WeightTable:
    """Subtree sizes, their distinct values, and the depth, in one post-order pass."""
    weight = [1] * tree.n
    height = [1] * tree.n
    for v in postorder(tree):
        p = tree.parent[v]
        if p is not None:
            weight[p] += weight[v]
            if height[v] >= height[p]:
                height[p] = height[v] + 1
    distinct = tuple(sorted(set(weight)))
    return WeightTable(
        weight=tuple(weight),
        distinct_weights=distinct,
        eta=len(distinct),
        depth=height[tree.root],
    )


def postorder(tree: RootedTree) -> list:
    """Vertices with every subtree listed before its root; children ascend by id."""
    # Reversed pre-order that visits children in descending id order.
    order = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(tree.children[v])
    order.reverse()
    return order
