"""Parsing, serialization, generators, subtree weights, and post-order."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeiso import (
    GenerationError,
    RootedTree,
    TreeFormatError,
    generate_tree,
    parse_tree,
    postorder,
    serialize_tree,
    subtree_weights,
)
from helpers import labelled_trees, random_trees, structured_trees

PATH3_JSON = b'{"n":3,"root":0,"parent":[null,0,1]}'
PATH3_TEXT = b"3\n0\n-1 0 1"


def test_parse_json_path3():
    t = parse_tree(PATH3_JSON, "json")
    assert t.n == 3
    assert t.root == 0
    assert t.parent == (None, 0, 1)
    assert t.children == ((1,), (2,), ())


def test_parent_list_equivalent_to_json():
    assert parse_tree(PATH3_TEXT, "parent-list") == parse_tree(PATH3_JSON, "json")


def test_two_parentless_vertices_rejected():
    with pytest.raises(TreeFormatError, match="disconnected"):
        parse_tree(b'{"n":2,"root":0,"parent":[null,null]}', "json")


def test_cycle_rejected():
    with pytest.raises(TreeFormatError, match="cycle"):
        parse_tree(b'{"n":3,"root":0,"parent":[null,2,1]}', "json")


def test_cycle_names_the_first_repeated_vertex_of_the_smallest_unreached_chain():
    with pytest.raises(TreeFormatError, match="^cycle detected: vertex 2 never reaches the root$"):
        parse_tree(b'{"n":5,"root":0,"parent":[null,2,3,4,2]}', "json")


def test_self_loop_rejected():
    with pytest.raises(TreeFormatError, match="cycle"):
        parse_tree(b'{"n":2,"root":0,"parent":[null,1]}', "json")


def test_out_of_range_parent_rejected():
    with pytest.raises(TreeFormatError, match="out-of-range"):
        parse_tree(b'{"n":3,"root":0,"parent":[null,0,5]}', "json")


def test_out_of_range_root_rejected():
    with pytest.raises(TreeFormatError, match="out-of-range"):
        parse_tree(b'{"n":2,"root":7,"parent":[null,0]}', "json")


def test_non_integer_root_rejected():
    """A float root is not an index, and a bool root would serialize as
    "root":true, which parse_tree rejects."""
    for parents, root in (([None, 0], 1.0), ([1, None], True)):
        with pytest.raises(TreeFormatError, match="not an integer"):
            RootedTree.from_parents(parents, root)


def test_root_with_parent_rejected():
    with pytest.raises(TreeFormatError, match="duplicate parent"):
        parse_tree(b'{"n":2,"root":0,"parent":[1,0]}', "json")


def test_malformed_json_rejected():
    with pytest.raises(TreeFormatError, match="malformed"):
        parse_tree(b'{"n":3,"root":0', "json")


def test_json_parent_length_mismatch_rejected():
    with pytest.raises(TreeFormatError, match="malformed"):
        parse_tree(b'{"n":3,"root":0,"parent":[null,0]}', "json")


def test_parent_list_bad_token_rejected():
    with pytest.raises(TreeFormatError, match="line 3"):
        parse_tree(b"3\n0\n-1 x 1", "parent-list")


def test_parent_list_too_few_lines_rejected():
    with pytest.raises(TreeFormatError, match="malformed"):
        parse_tree(b"3\n0", "parent-list")


def test_parent_list_content_after_line_3_rejected():
    """A parent-list file holds exactly one tree: two concatenated files are
    refused at the first non-blank line after line 3, and trailing blank
    lines stay valid."""
    with pytest.raises(TreeFormatError, match="line 4"):
        parse_tree(b"3\n0\n-1 0 1\n4\n0\n-1 0 1 2\n", "parent-list")
    with pytest.raises(TreeFormatError, match="line 6"):
        parse_tree(b"3\n0\n-1 0 1\n\n \nx\n", "parent-list")
    for tail in (b"", b"\n", b"\n\n  \n\t\n"):
        assert parse_tree(b"3\n0\n-1 0 1" + tail, "parent-list") == parse_tree(PATH3_JSON, "json")


def test_non_utf8_input_rejected():
    for fmt in ("json", "parent-list"):
        with pytest.raises(TreeFormatError, match="not UTF-8"):
            parse_tree(b"\xff\xfe", fmt)


def test_json_nested_past_decoder_depth_rejected():
    with pytest.raises(TreeFormatError, match="malformed json"):
        parse_tree(b"[" * 100_000, "json")


@settings(deadline=None)
@given(
    st.binary(max_size=80) | st.text('-0123456789 x\n[]{}:,"nulrotpae', max_size=80).map(str.encode),
    st.sampled_from(["json", "parent-list"]),
)
def test_arbitrary_bytes_parse_or_raise_tree_format_error(data, fmt):
    try:
        parse_tree(data, fmt)
    except TreeFormatError:
        pass


def test_unknown_format_rejected():
    with pytest.raises(TreeFormatError, match="unknown tree format"):
        parse_tree(PATH3_JSON, "xml")


def test_serialize_path3_exact_bytes():
    t = parse_tree(PATH3_JSON, "json")
    assert serialize_tree(t, "json") == PATH3_JSON


def test_serialize_depth2_binary_exact_bytes():
    t = generate_tree("complete_tary", {"t": 2, "d": 2})
    assert serialize_tree(t, "json") == b'{"n":3,"root":0,"parent":[null,0,0]}'


@pytest.mark.parametrize("fmt", ["json", "parent-list"])
def test_round_trip_identity(fmt):
    for label, tree in structured_trees(12) + random_trees(40, 14, seed0=3):
        again = parse_tree(serialize_tree(tree, fmt), fmt)
        assert again == tree, label


def test_complete_tary_counts():
    t = generate_tree("complete_tary", {"t": 2, "d": 3})
    assert t.n == 7
    assert sum(1 for v in range(t.n) if not t.children[v]) == 4
    for v in range(t.n):
        assert len(t.children[v]) in (0, 2)


@pytest.mark.parametrize("t,d", [(2, 2), (2, 5), (3, 3), (4, 3), (5, 2)])
def test_complete_tary_size_and_depth(t, d):
    tree = generate_tree("complete_tary", {"t": t, "d": d})
    assert tree.n == (t**d - 1) // (t - 1)
    assert subtree_weights(tree).depth == d


def test_path_singleton():
    t = generate_tree("path", {"n": 1})
    assert t.n == 1
    assert t.edges() == []


def test_star_shape():
    t = generate_tree("star", {"n": 5})
    assert t.children[0] == (1, 2, 3, 4)
    assert all(not t.children[v] for v in range(1, 5))
    assert t.max_degree() == 4


def test_caterpillar_shape():
    t = generate_tree("caterpillar", {"spine": 3, "legs": 2})
    assert t.n == 9
    assert t.parent[1] == 0 and t.parent[2] == 1
    for spine_v in range(3):
        leaf_kids = [c for c in t.children[spine_v] if c >= 3]
        assert len(leaf_kids) == 2


def test_random_generators_deterministic():
    for kind in ("random_recursive", "random_prufer"):
        a = generate_tree(kind, {"n": 25}, seed=7)
        b = generate_tree(kind, {"n": 25}, seed=7)
        c = generate_tree(kind, {"n": 25}, seed=8)
        assert a == b
        assert a != c, kind


def test_random_recursive_attaches_to_earlier_vertex():
    t = generate_tree("random_recursive", {"n": 50}, seed=11)
    assert all(t.parent[v] < v for v in range(1, 50))


def test_generator_param_errors():
    with pytest.raises(GenerationError):
        generate_tree("complete_tary", {"t": 1, "d": 3})
    with pytest.raises(GenerationError):
        generate_tree("path", {"n": 0})
    with pytest.raises(GenerationError):
        generate_tree("caterpillar", {"spine": 0, "legs": 1})
    with pytest.raises(GenerationError, match="missing"):
        generate_tree("path", {})
    with pytest.raises(GenerationError, match="unknown tree kind"):
        generate_tree("binary_heap", {"n": 3})
    # Each kind accepts exactly its own parameters; a misspelt or foreign
    # key is an error, not silently ignored.
    with pytest.raises(GenerationError, match="unknown generator parameter 'sed'"):
        generate_tree("random_prufer", {"n": 6, "sed": 3})
    with pytest.raises(GenerationError, match="unknown generator parameter 'n' for complete_tary"):
        generate_tree("complete_tary", {"t": 2, "d": 3, "n": 7})
    with pytest.raises(GenerationError, match="unknown generator parameter 't' for caterpillar"):
        generate_tree("caterpillar", {"spine": 2, "legs": 1, "t": 2})


def test_generator_size_limit():
    with pytest.raises(GenerationError, match="limit"):
        generate_tree("complete_tary", {"t": 10, "d": 10}, max_vertices=10_000)
    # Refused without building t**d, whose digits alone would take seconds.
    with pytest.raises(GenerationError, match="limit"):
        generate_tree("complete_tary", {"t": 3, "d": 10**7})
    assert generate_tree("complete_tary", {"t": 10, "d": 4}, max_vertices=1111).n == 1111


def test_weights_path():
    t = generate_tree("path", {"n": 6})
    w = subtree_weights(t)
    assert sorted(w.weight) == [1, 2, 3, 4, 5, 6]
    assert w.eta == 6
    assert w.depth == 6


def test_weights_star():
    t = generate_tree("star", {"n": 6})
    w = subtree_weights(t)
    assert w.distinct_weights == (1, 6)
    assert w.eta == 2
    assert w.depth == 2


@pytest.mark.parametrize("t,d", [(2, 2), (2, 4), (3, 3), (4, 2), (5, 3)])
def test_weights_tary_eta_equals_depth(t, d):
    tree = generate_tree("complete_tary", {"t": t, "d": d})
    assert subtree_weights(tree).eta == d


def test_weight_invariants_on_random_trees():
    for label, tree in random_trees(60, 20, seed0=9):
        w = subtree_weights(tree)
        assert w.weight[tree.root] == tree.n, label
        for v in range(tree.n):
            expected = 1 + sum(w.weight[c] for c in tree.children[v])
            assert w.weight[v] == expected, label
            if not tree.children[v]:
                assert w.weight[v] == 1
        assert w.eta >= w.depth, label
        assert w.eta <= tree.n, label
        assert w.distinct_weights == tuple(sorted(set(w.weight)))


def test_postorder_examples():
    assert postorder(parse_tree(PATH3_JSON, "json")) == [2, 1, 0]
    assert postorder(generate_tree("complete_tary", {"t": 2, "d": 3})) == [3, 4, 1, 5, 6, 2, 0]
    assert postorder(generate_tree("star", {"n": 5})) == [1, 2, 3, 4, 0]


def test_postorder_structure_on_random_trees():
    for label, tree in random_trees(40, 18, seed0=4):
        order = postorder(tree)
        assert sorted(order) == list(range(tree.n)), label
        pos = {v: i for i, v in enumerate(order)}
        # Every vertex appears before its parent, and each subtree is the
        # contiguous block ending at its root's position.
        sub_size = [1] * tree.n
        for v in order:
            if tree.parent[v] is not None:
                assert pos[v] < pos[tree.parent[v]], label
                sub_size[tree.parent[v]] += sub_size[v]
        for v in range(tree.n):
            block = order[pos[v] - sub_size[v] + 1 : pos[v] + 1]
            assert v in block and len(block) == sub_size[v], label
        assert order[-1] == tree.root


def _postorder_reference(tree):
    """The (vertex, child-index) stack walk postorder used before."""
    order = []
    stack = [(tree.root, 0)]
    while stack:
        v, idx = stack.pop()
        kids = tree.children[v]
        if idx < len(kids):
            stack.append((v, idx + 1))
            stack.append((kids[idx], 0))
        else:
            order.append(v)
    return order


@settings(deadline=None)
@given(labelled_trees(60))
def test_postorder_equals_child_index_walk(tree):
    assert postorder(tree) == _postorder_reference(tree)


@pytest.mark.parametrize(
    "kind, params",
    [
        ("path", {"n": 5000}),
        ("star", {"n": 500}),
        ("complete_tary", {"t": 3, "d": 6}),
        ("caterpillar", {"spine": 30, "legs": 4}),
    ],
)
def test_postorder_equals_child_index_walk_on_large_trees(kind, params):
    tree = generate_tree(kind, params)
    assert postorder(tree) == _postorder_reference(tree)


def _from_parents_reference(parents, root):
    """The validator from_parents used before: the same checks in the same
    order, then a 0/1/2 chain-state walk for reachability."""
    n = len(parents)
    if n < 1:
        raise TreeFormatError("malformed tree: vertex count must be positive")
    if not isinstance(root, int) or isinstance(root, bool):
        raise TreeFormatError(f"malformed tree: root {root!r} is not an integer")
    if not (0 <= root < n):
        raise TreeFormatError(f"out-of-range id: root {root} not in [0, {n})")
    for v, p in enumerate(parents):
        if p is None:
            continue
        if not isinstance(p, int) or isinstance(p, bool):
            raise TreeFormatError(f"malformed tree: parent of vertex {v} is not an integer")
        if not (0 <= p < n):
            raise TreeFormatError(f"out-of-range id: vertex {v} has parent {p} not in [0, {n})")
    if parents[root] is not None:
        raise TreeFormatError(
            f"duplicate parent entry: declared root {root} also has parent {parents[root]}"
        )
    for v, p in enumerate(parents):
        if p is None and v != root:
            raise TreeFormatError(
                f"disconnected forest: vertex {v} has no parent but root is {root}"
            )
    state = [0] * n
    state[root] = 2
    for start in range(n):
        if state[start]:
            continue
        chain = []
        v = start
        while state[v] == 0:
            state[v] = 1
            chain.append(v)
            v = parents[v]
        if state[v] == 1:
            raise TreeFormatError(f"cycle detected: vertex {v} never reaches the root")
        for u in chain:
            state[u] = 2
    kids = [[] for _ in range(n)]
    for v, p in enumerate(parents):
        if p is not None:
            kids[p].append(v)
    return RootedTree(n, root, tuple(parents), tuple(tuple(c) for c in kids))


def _outcome(build, parents, root):
    try:
        tree = build(parents, root)
    except (TreeFormatError, TypeError) as exc:
        return type(exc), str(exc)
    return tree, type(tree.root), tree.children


_ODD_ENTRIES = st.sampled_from([None, True, False, 1.0, 0.5, "1"])


@st.composite
def parent_arrays(draw, max_n=14):
    """(parents, root): a relabelled tree, with up to three entries replaced by
    another id (which can close a cycle with a tail), a self-loop, an
    out-of-range id or a non-integer, and sometimes a bad root."""
    n = draw(st.integers(0, max_n))
    order = draw(st.permutations(range(n)))
    parents = [None] * n
    for k in range(1, n):
        parents[order[k]] = order[draw(st.integers(0, k - 1))]
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        v = draw(st.integers(0, n - 1))
        parents[v] = draw(st.one_of(st.integers(-1, n), st.just(v), _ODD_ENTRIES))
    root = order[0] if n else 0
    if draw(st.integers(0, 9)) == 0:
        root = draw(st.one_of(st.integers(-1, n), st.booleans(), st.just(1.0)))
    return parents, root


@settings(deadline=None, max_examples=500)
@given(parent_arrays())
def test_from_parents_matches_chain_state_validator(case):
    parents, root = case
    assert _outcome(RootedTree.from_parents, parents, root) == _outcome(
        _from_parents_reference, parents, root
    )
