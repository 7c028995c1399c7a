"""The hash-consed bag reader and the one-fold bag table.

A read bag holds each distinct subtree once, counted here by a walk over the
JSON document that uses no forestsmith code; ``truth_table(bag)`` folds the
union of the bag's trees once and must agree with a per-tree reference on
bags with every kind of sharing; and a tree past the serialization cap is
refused with its size in hex once the size is too long for decimal.
"""

import json
import random
import sys

import pytest

from forestsmith import cli, trees
from forestsmith.cli import main
from forestsmith.io_formats import (
    SERIALIZE_NODE_LIMIT,
    deserialize_bag,
    doc_to_tree,
    random_bag,
    serialize_bag,
    tree_to_doc,
)
from forestsmith.trees import LEAF0, LEAF1, Bag, Leaf, Node, truth_table


def _reference_bits(bag, n_vars):
    """Vote table from one independent ``_fold`` per tree, no sharing across trees."""
    tables = [trees._tree_table_bits(t, n_vars) for t in bag.trees]
    return trees._vote_table_bits(iter(tables), bag.majority_threshold, n_vars)


def _assert_fold_matches(bag, n_vars=None):
    n_vars = bag.n_vars if n_vars is None else n_vars
    roots = list(trees._root_table_bits(bag.trees, n_vars))
    assert roots == [trees._tree_table_bits(t, n_vars) for t in bag.trees]
    assert truth_table(bag, n_vars).bits == _reference_bits(bag, n_vars)


def _shared_bag(seed):
    """Odd bag whose roots are drawn from one pool of shared subtrees.

    Children are drawn from the whole pool, so ``lo is hi``, one child inside
    its sibling's subtree, repeated roots, leaf roots, fresh equal leaves and
    roots inside other roots all occur across seeds.
    """
    rng = random.Random(seed)
    n_vars = rng.randint(1, 10)
    pool = [LEAF0, LEAF1, Leaf(0), Leaf(1)]
    for _ in range(rng.randint(0, 40)):
        lo, hi = rng.choice(pool), rng.choice(pool)
        pool.append(Node(rng.randint(1, n_vars), lo, hi))
    roots = [
        rng.choice(pool[-8:] if rng.random() < 0.7 else pool)
        for _ in range(rng.choice((1, 3, 5, 7, 9)))
    ]
    return Bag(tuple(roots), n_vars)


class TestBagFold:
    @pytest.mark.parametrize("seed", range(300))
    def test_randomized_shared_bags(self, seed):
        _assert_fold_matches(_shared_bag(seed))

    def test_wider_table_than_declared(self):
        bag = _shared_bag(7)
        _assert_fold_matches(bag, bag.n_vars + 2)

    def test_lo_is_hi(self):
        x = Node(2, LEAF0, LEAF1)
        twin = Node(1, x, x)
        _assert_fold_matches(Bag((twin, Node(3, twin, twin), x), 3))

    def test_same_tree_object_twice(self):
        t = Node(1, Node(2, LEAF0, LEAF1), LEAF1)
        _assert_fold_matches(Bag((t, t, LEAF0), 2))
        _assert_fold_matches(Bag((t, t, t), 2))

    def test_leaf_roots(self):
        _assert_fold_matches(Bag((LEAF1, LEAF0, Leaf(1)), 1))
        _assert_fold_matches(Bag((LEAF0, Node(1, LEAF0, LEAF1), LEAF0), 1))

    def test_root_inside_another_root(self):
        inner = Node(2, LEAF1, Node(3, LEAF0, LEAF1))
        outer = Node(1, inner, LEAF0)
        _assert_fold_matches(Bag((outer, inner, Node(3, outer, inner)), 3))
        _assert_fold_matches(Bag((inner, outer, LEAF1), 3))

    @pytest.mark.parametrize("sibling_first", ["lo", "hi"])
    def test_child_inside_its_siblings_subtree(self, sibling_first):
        # A walk that marks a node when pushed would table the parent before
        # this child, whichever child it visits first.
        child = Node(3, LEAF0, LEAF1)
        holder = Node(2, Node(4, child, LEAF0), LEAF1)
        if sibling_first == "lo":
            parent = Node(1, holder, child)
        else:
            parent = Node(1, child, holder)
        _assert_fold_matches(Bag((parent,), 4))
        _assert_fold_matches(Bag((parent, child, holder), 4))

    def test_majority_n19_c2_document(self, tmp_path, capsys):
        out = tmp_path / "m19.bag.json"
        assert main(["build-majority", "--n", "19", "--c", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        _assert_fold_matches(deserialize_bag(out.read_text()))


def _count_distinct_subtrees(doc):
    """Distinct internal subtrees of a bag document, by structure, by hand."""
    ids = {}

    def canon(node):
        if set(node) == {"leaf"}:
            return ("leaf", node["leaf"])
        key = (node["var"], canon(node["lo"]), canon(node["hi"]))
        return ids.setdefault(key, len(ids))

    for tree in doc["trees"]:
        canon(tree)
    return len(ids)


def _stored_nodes(bag):
    seen, stack = {}, list(bag.trees)
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            if isinstance(t, Node):
                stack += [t.lo, t.hi]
    return list(seen.values())


def _documents(tmp_path, capsys):
    commands = [
        ["build-majority", "--n", "19", "--c", "2"],
        ["build-majority", "--n", "11", "--c", "3"],
        ["build-kofn", "--n", "9", "--k", "7"],
        ["build-kofn", "--n", "7", "--k", "3", "--naive"],
        *(
            ["gen-bag", "--seed", str(seed), "--n-trees", "11", "--l", str(l),
             "--max-depth", "4"]
            for seed, l in ((1, 6), (2, 8), (3, 10), (4, 4), (5, 12))
        ),  # fmt: skip
    ]
    for i, argv in enumerate(commands):
        out = tmp_path / f"{i}.bag.json"
        assert main([*argv, "--out", str(out)]) == 0
        yield out.read_text()
    capsys.readouterr()


class TestReader:
    def test_one_object_per_distinct_subtree(self, tmp_path, capsys):
        for text in _documents(tmp_path, capsys):
            bag = deserialize_bag(text)
            stored = _stored_nodes(bag)
            internal = [t for t in stored if isinstance(t, Node)]
            assert len(internal) == _count_distinct_subtrees(json.loads(text))
            assert all(t is LEAF0 or t is LEAF1 for t in stored if isinstance(t, Leaf))

    def test_majority_n19_c2_reads_as_439_nodes(self, tmp_path, capsys):
        text = next(_documents(tmp_path, capsys))
        stored = _stored_nodes(deserialize_bag(text))
        assert sum(isinstance(t, Node) for t in stored) == 439

    def test_documents_round_trip_byte_for_byte(self, tmp_path, capsys):
        for text in _documents(tmp_path, capsys):
            bag = deserialize_bag(text)
            assert serialize_bag(bag) == text
            doc = json.loads(text)
            for tree, tree_doc in zip(bag.trees, doc["trees"]):
                assert tree_to_doc(tree) == tree_doc

    def test_equal_trees_load_as_one_object(self):
        hi = {"var": 1, "lo": {"leaf": 1}, "hi": {"leaf": 0}}
        tree = {"var": 2, "lo": {"leaf": 0}, "hi": hi}
        copy = json.loads(json.dumps(tree))
        text = json.dumps({"n_vars": 2, "trees": [tree, {"leaf": 1}, copy]})
        bag = deserialize_bag(text)
        assert bag.trees[0] is bag.trees[2]
        assert bag.trees[1] is LEAF1
        assert bag.trees[0].hi.lo is LEAF1

    def test_equal_subtrees_within_one_tree(self):
        sub = {"var": 3, "lo": {"leaf": 1}, "hi": {"leaf": 0}}
        tree = doc_to_tree({"var": 1, "lo": sub, "hi": {"var": 2, "lo": sub, "hi": sub}}, 3)
        assert tree.lo is tree.hi.lo is tree.hi.hi
        assert tree.size == 1 + 3 + (1 + 3 + 3)

    def test_each_read_builds_its_own_nodes(self):
        text = serialize_bag(random_bag(5, 3, 6, 3))
        first, second = deserialize_bag(text), deserialize_bag(text)
        assert first == second
        pairs = zip(first.trees, second.trees)
        assert all(a is not b for a, b in pairs if isinstance(a, Node))


def _chain(length):
    """Node(1, t, t) nested ``length`` times: 2^(length+1) - 1 expanded nodes."""
    t = LEAF0
    for _ in range(length):
        t = Node(1, t, t)
    return t


class TestCapRefusal:
    def test_decimal_below_the_hex_threshold(self):
        tree = _chain(20)
        with pytest.raises(ValueError) as info:
            tree_to_doc(tree)
        assert str(info.value) == (
            f"tree expands to {2**21 - 1} nodes; refusing to serialize beyond "
            f"{SERIALIZE_NODE_LIMIT}"
        )

    def test_hex_past_the_decimal_limit(self):
        digits = sys.get_int_max_str_digits()
        with pytest.raises(ValueError) as info:
            tree_to_doc(_chain(15_000))
        assert str(info.value) == (
            f"tree expands to 0x1{'f' * 3750} nodes; refusing to serialize beyond "
            f"{SERIALIZE_NODE_LIMIT}"
        )
        assert sys.get_int_max_str_digits() == digits

    def test_reduce_refuses_with_the_cap_message(self, tmp_path, capsys, monkeypatch):
        digits = sys.get_int_max_str_digits()
        chain = _chain(15_000)
        real = cli.reduce_repeated

        def huge(*args, **kwargs):
            _, report = real(*args, **kwargs)
            return Bag((chain, chain, chain), 1), report

        monkeypatch.setattr(cli, "reduce_repeated", huge)
        bag, dist = tmp_path / "in.bag.json", tmp_path / "in.dist.json"
        out, report = tmp_path / "out.bag.json", tmp_path / "out.report.json"
        for argv in (
            ["gen-bag", "--seed", "3", "--n-trees", "7", "--l", "5", "--max-depth", "2",
             "--out", str(bag)],
            ["gen-dist", "--seed", "3", "--l", "5", "--max-weight", "20", "--out", str(dist)],
        ):  # fmt: skip
            assert main(argv) == 0
        capsys.readouterr()
        code = main(
            ["reduce", "--bag", str(bag), "--dist", str(dist), "--K", "1", "--c", "1",
             "--out", str(out), "--report", str(report)]
        )  # fmt: skip
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"error: tree expands to 0x1{'f' * 3750} nodes; refusing to serialize "
            f"beyond {SERIALIZE_NODE_LIMIT}\n"
        )
        assert not out.exists() and not report.exists()
        assert sys.get_int_max_str_digits() == digits
