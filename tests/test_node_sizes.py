"""Sizes on the node against a fold reference, the per-call table cache of the
lossy step, and the right-nested four-term OR against a left-nested one."""

import pickle
import random

import pytest

from forestsmith import lossy, trees
from forestsmith.io_formats import (
    doc_to_tree,
    random_bag,
    random_distribution,
    serialize_bag,
    tree_to_doc,
)
from forestsmith.kofn import ChooseSpec, build_choose_bag, build_choose_bag_naive
from forestsmith.lossy import Distribution, reduce_once, reduce_repeated
from forestsmith.majority import build_reduced_majority
from forestsmith.trees import (
    LEAF0,
    LEAF1,
    Bag,
    Node,
    TableCache,
    conjoin,
    disjoin,
    max_var,
    negate,
    prefix_graft,
    tree_size,
)


def _fold_size(tree):
    return trees._fold(tree, lambda leaf: 1, lambda node, lo, hi: 1 + lo + hi)


def _fold_max_var(tree):
    return trees._fold(tree, lambda leaf: 0, lambda node, lo, hi: max(node.var, lo, hi))


def _stored_nodes(tree):
    seen, stack = {}, [tree]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            if isinstance(t, Node):
                stack += [t.lo, t.hi]
    return list(seen.values())


def _seeded_trees(seed):
    rng = random.Random(seed)
    l = rng.randint(2, 7)
    base = list(random_bag(seed, 5, l, rng.randint(1, l)).trees)
    a, b, c = base[0], base[1], base[2]
    grafted = prefix_graft(2, {(x, y): base[2 * x + y] for x in (0, 1) for y in (0, 1)})
    yield from base
    yield negate(a)
    yield conjoin(a, b)
    yield disjoin(conjoin(a, b), negate(c))
    yield grafted
    yield doc_to_tree(tree_to_doc(disjoin(grafted, a)), l)


BUILT = [
    *[t for n, k in ((5, 1), (7, 2), (7, 4), (9, 8)) for t in build_choose_bag(ChooseSpec(n, k)).trees],
    *build_choose_bag_naive(ChooseSpec(7, 3)).trees,
    *[t for n, c in ((7, 1), (9, 2), (11, 3)) for t in build_reduced_majority(n, c).trees],
]  # fmt: skip


@pytest.mark.parametrize(
    "tree", [t for seed in range(12) for t in _seeded_trees(seed)] + BUILT
)
def test_node_sizes_match_the_fold(tree):
    for node in _stored_nodes(tree):
        assert node.size == tree_size(node) == _fold_size(node)
        assert node.max_var == max_var(node) == _fold_max_var(node)


def test_leaf_sizes():
    assert (LEAF0.size, LEAF0.max_var, LEAF1.size, LEAF1.max_var) == (1, 0, 1, 0)


@pytest.mark.parametrize("seed", range(6))
def test_sizes_stay_out_of_equality_hash_repr_and_pickle(seed):
    for tree in _seeded_trees(seed):
        # ==, hash and repr walk the expanded tree.
        if not isinstance(tree, Node) or tree.size > 20_000:
            continue
        copy = doc_to_tree(tree_to_doc(tree), tree.max_var)
        assert copy == tree and copy is not tree
        assert hash(copy) == hash(tree) == hash((tree.var, tree.lo, tree.hi))
        assert repr(copy) == repr(tree)
        assert "size" not in repr(tree) and "max_var" not in repr(tree)
        restored = pickle.loads(pickle.dumps(tree))
        assert restored == tree
        assert (restored.size, restored.max_var) == (tree.size, tree.max_var)


def test_pickle_keeps_sharing_and_carries_no_sizes():
    shared = Node(2, LEAF0, LEAF1)
    tree = Node(1, shared, shared)
    restored = pickle.loads(pickle.dumps(tree))
    assert restored.lo is restored.hi
    assert (restored.size, restored.max_var) == (7, 2)
    assert tree.__reduce__() == (Node, (1, shared, shared))


def test_bag_check_reads_max_var():
    tree = Node(3, LEAF0, Node(5, LEAF1, LEAF0))
    with pytest.raises(ValueError, match="tree 2 queries variable 5, beyond declared 4"):
        Bag((LEAF0, tree, LEAF1), 4)
    assert Bag((LEAF0, tree, LEAF1), 5).n_vars == 5


def _count_tables(monkeypatch):
    calls = []
    original = trees._tree_table_bits

    def counting(tree, n_vars):
        calls.append(tree)
        return original(tree, n_vars)

    monkeypatch.setattr(trees, "_tree_table_bits", counting)
    return calls


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("n_trees, K, c, expected", [(11, 3, 1, 20), (9, 2, 2, 21)])
def test_each_tree_tabled_once_per_reduction(monkeypatch, seed, n_trees, K, c, expected):
    bag = random_bag(seed, n_trees, 7, 3)
    dist = random_distribution(seed, 7, 20)
    _, unpatched = reduce_repeated(bag, dist, K, c)
    calls = _count_tables(monkeypatch)
    _, report = reduce_repeated(bag, dist, K, c)
    # One table per original tree and per tree of each step's reduced bag.
    assert len(calls) == expected == sum(n_trees - 2 * s for s in range(c + 1))
    assert len({id(t) for t in calls}) == len(calls)
    assert report == unpatched


def test_reduce_once_alone_builds_its_own_cache(monkeypatch):
    bag = random_bag(4, 9, 6, 3)
    calls = _count_tables(monkeypatch)
    reduce_once(bag, Distribution.uniform(6), 2)
    assert len(calls) == 9 + 7


def test_table_cache_of_another_width_is_refused():
    bag = random_bag(1, 5, 4, 2)
    with pytest.raises(ValueError, match="table cache over 5 variables, bag over 4"):
        reduce_once(bag, Distribution.uniform(4), 1, tables=TableCache(5))


def _left_nested(bag, report):
    """reduce_once's composition with the four-term OR nested to the left."""
    t = bag.trees
    n, designated = len(t), report.designated_count
    pool = tuple(range(3, n + 1))
    ones_slots = [t[p - 1] for p in lossy._ordering(report.designated_ones, pool)]
    zeros_slots = [t[p - 1] for p in lossy._ordering(report.designated_zeros, pool)]
    head, second = t[0], t[1]
    not_head, not_second = negate(head), negate(second)
    out = []
    for i in range(1, n - 1):
        ones_part = lossy._both_ones_component(ones_slots, i, designated)
        zeros_part = lossy._both_zeros_component(zeros_slots, i, designated)
        term_ones = conjoin(head, conjoin(second, ones_part))
        term_hi_lo = conjoin(head, conjoin(not_second, t[i + 1]))
        term_lo_hi = conjoin(not_head, conjoin(second, t[i + 1]))
        term_zeros = conjoin(not_head, conjoin(not_second, zeros_part))
        out.append(disjoin(disjoin(disjoin(term_ones, term_hi_lo), term_lo_hi), term_zeros))
    return Bag(tuple(out), bag.n_vars)


@pytest.mark.parametrize("seed", range(8))
def test_right_nesting_serializes_like_left_nesting(seed):
    rng = random.Random(seed)
    l = rng.randint(4, 7)
    n_trees = rng.choice((7, 9))
    # Depth 2 keeps the reduced trees within about 10^5 expanded nodes.
    bag = random_bag(seed, n_trees, l, 2)
    dist = random_distribution(seed, l, 20)
    designated = rng.randint(1, (n_trees + 1) // 2 - 2)
    reduced, report = reduce_once(bag, dist, designated)
    assert serialize_bag(reduced) == serialize_bag(_left_nested(bag, report))
