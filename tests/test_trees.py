import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from forestsmith.trees import (
    LEAF0,
    LEAF1,
    Bag,
    Leaf,
    Node,
    bag_eval,
    conjoin,
    disjoin,
    eval_tree,
    input_bits,
    input_index,
    leaf_counts,
    negate,
    prefix_graft,
    tree_size,
    truth_table,
    vote_profile,
)
from forestsmith.kofn import ChooseSpec, build_choose_bag_naive

from conftest import make_random_tree, tree_strategy

X1 = Node(1, LEAF0, LEAF1)
X2 = Node(2, LEAF0, LEAF1)


def table_by_pointwise_eval(tree, n_vars):
    # Independent route: follow paths input by input instead of composing masks.
    return tuple(eval_tree(tree, input_bits(i, n_vars)) for i in range(1 << n_vars))


class TestEval:
    def test_constant_leaf(self):
        assert eval_tree(LEAF1, (0, 1, 0)) == 1
        assert eval_tree(LEAF0, ()) == 0

    def test_single_variable(self):
        assert eval_tree(X1, (1, 0, 0)) == 1
        assert eval_tree(X1, (0, 1, 1)) == 0

    def test_majority3_tree(self):
        maj3 = build_choose_bag_naive(ChooseSpec(3, 2)).trees[0]
        assert eval_tree(maj3, (1, 0, 1)) == 1
        assert eval_tree(maj3, (0, 1, 0)) == 0

    def test_variable_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            eval_tree(Node(4, LEAF0, LEAF1), (0, 1))


class TestSize:
    def test_leaf(self):
        assert tree_size(LEAF0) == 1

    def test_single_variable(self):
        assert tree_size(X1) == 3

    def test_conjoin_replaces_one_leaf(self):
        assert tree_size(conjoin(X1, X2)) == 5

    def test_leaf_counts(self):
        assert leaf_counts(X1) == (1, 1)
        assert leaf_counts(conjoin(X1, X2)) == (2, 1)


class TestNegate:
    def test_leaf(self):
        assert negate(LEAF1) == LEAF0
        assert negate(LEAF0) == LEAF1

    def test_single_variable_complement(self):
        table = truth_table(negate(X2), 3)
        for i in range(8):
            assert table[i] == 1 - input_bits(i, 3)[1]

    @given(tree_strategy(4))
    def test_involution(self, tree):
        assert truth_table(negate(negate(tree)), 4) == truth_table(tree, 4)

    @given(tree_strategy(4), st.integers(0, 15))
    def test_pointwise_complement(self, tree, index):
        bits = input_bits(index, 4)
        assert eval_tree(negate(tree), bits) == 1 - eval_tree(tree, bits)

    @given(tree_strategy(4))
    def test_size_preserved(self, tree):
        assert tree_size(negate(tree)) == tree_size(tree)


class TestConjoinDisjoin:
    def test_conjoin_identity_and_annihilator(self):
        t = Node(2, Node(1, LEAF1, LEAF0), LEAF1)
        assert truth_table(conjoin(LEAF1, t), 2) == truth_table(t, 2)
        assert truth_table(conjoin(LEAF0, t), 2).bits == 0

    def test_disjoin_identity_and_dominator(self):
        t = Node(2, Node(1, LEAF1, LEAF0), LEAF1)
        assert truth_table(disjoin(LEAF0, t), 2) == truth_table(t, 2)
        assert truth_table(disjoin(LEAF1, t), 2).bits == (1 << 4) - 1

    def test_and_of_two_variables(self):
        assert truth_table(conjoin(X1, X2), 2).to_tuple() == (0, 0, 0, 1)

    @given(tree_strategy(5), tree_strategy(5))
    def test_conjoin_semantics(self, t1, t2):
        got = truth_table(conjoin(t1, t2), 5)
        for i in range(32):
            bits = input_bits(i, 5)
            assert got[i] == (eval_tree(t1, bits) & eval_tree(t2, bits))

    @given(tree_strategy(5), tree_strategy(5))
    def test_disjoin_semantics(self, t1, t2):
        got = truth_table(disjoin(t1, t2), 5)
        for i in range(32):
            bits = input_bits(i, 5)
            assert got[i] == (eval_tree(t1, bits) | eval_tree(t2, bits))

    @given(tree_strategy(4), tree_strategy(4))
    def test_de_morgan(self, a, b):
        lhs = truth_table(disjoin(a, b), 4)
        rhs = truth_table(negate(conjoin(negate(a), negate(b))), 4)
        assert lhs == rhs

    @given(tree_strategy(5), tree_strategy(5))
    def test_size_bound(self, t1, t2):
        ones = leaf_counts(t1)[1]
        assert tree_size(conjoin(t1, t2)) <= tree_size(t1) + ones * tree_size(t2)
        zeros = leaf_counts(t1)[0]
        assert tree_size(disjoin(t1, t2)) <= tree_size(t1) + zeros * tree_size(t2)


class TestPrefixGraft:
    def test_single_level_is_variable(self):
        tree = prefix_graft(1, {(0,): LEAF0, (1,): LEAF1})
        assert truth_table(tree, 2).to_tuple() == (0, 1, 0, 1)

    def test_all_ones_selectors(self):
        tree = prefix_graft(2, {p: LEAF1 for p in [(0, 0), (0, 1), (1, 0), (1, 1)]})
        assert truth_table(tree, 2).bits == (1 << 4) - 1

    def test_missing_prefix(self):
        with pytest.raises(ValueError, match="missing prefix"):
            prefix_graft(2, {(0, 0): LEAF0})

    def test_size_formula(self):
        selector = {
            (0, 0): LEAF0,
            (0, 1): X1,
            (1, 0): conjoin(X1, X2),
            (1, 1): LEAF1,
        }
        tree = prefix_graft(2, selector)
        expected = (2**2 - 1) + sum(tree_size(t) for t in selector.values())
        assert tree_size(tree) == expected

    def test_two_phase_evaluation(self):
        rng = random.Random(5)
        selector = {
            (a, b): make_random_tree(rng, 4, 3) for a in (0, 1) for b in (0, 1)
        }
        tree = prefix_graft(2, selector)
        for i in range(16):
            bits = input_bits(i, 4)
            assert eval_tree(tree, bits) == eval_tree(selector[bits[:2]], bits)


class TestTruthTable:
    def test_constant(self):
        assert truth_table(LEAF1, 2).to_tuple() == (1, 1, 1, 1)

    def test_variable(self):
        assert truth_table(X1, 2).to_tuple() == (0, 1, 0, 1)

    def test_majority3_bag(self):
        bag = Bag((X1, X2, Node(3, LEAF0, LEAF1)), 3)
        assert truth_table(bag).to_tuple() == (0, 0, 0, 1, 0, 1, 1, 1)

    def test_bag_table_matches_pointwise_vote(self):
        rng = random.Random(11)
        for _ in range(10):
            trees = tuple(make_random_tree(rng, 6, 3) for _ in range(7))
            bag = Bag(trees, 6)
            table = truth_table(bag)
            for i in range(64):
                assert table[i] == bag_eval(bag, input_bits(i, 6))

    def test_cap_refused(self):
        with pytest.raises(ValueError, match="cap"):
            truth_table(LEAF1, 25)

    def test_env_cap_lowers(self, monkeypatch):
        monkeypatch.setenv("FORESTSMITH_MAX_L", "6")
        with pytest.raises(ValueError, match="cap"):
            truth_table(LEAF1, 8)
        assert truth_table(LEAF1, 6).bits == (1 << 64) - 1

    def test_env_cap_never_raises(self, monkeypatch):
        monkeypatch.setenv("FORESTSMITH_MAX_L", "30")
        with pytest.raises(ValueError, match="cap"):
            truth_table(LEAF1, 25)

    def test_requires_n_vars_for_tree(self):
        with pytest.raises(ValueError, match="n_vars"):
            truth_table(X1)


class TestBag:
    def test_even_cardinality_rejected(self):
        with pytest.raises(ValueError, match="odd cardinality"):
            Bag((X1, X2), 2)

    def test_variable_beyond_declared(self):
        with pytest.raises(ValueError, match="beyond declared"):
            Bag((Node(5, LEAF0, LEAF1),), 3)

    def test_all_ones_bag(self):
        bag = Bag((LEAF1, LEAF1, LEAF1), 2)
        assert bag_eval(bag, (0, 0)) == 1

    def test_two_of_five_is_minority(self):
        bag = Bag(tuple(Node(i, LEAF0, LEAF1) for i in range(1, 6)), 5)
        assert bag_eval(bag, (1, 1, 0, 0, 0)) == 0
        assert bag_eval(bag, (1, 1, 1, 0, 0)) == 1

    def test_vote_profile(self):
        bag = Bag(tuple(Node(i, LEAF0, LEAF1) for i in range(1, 6)), 5)
        assert vote_profile(bag, (1, 0, 1, 0, 1)) == (1, 0, 1, 0, 1)

    def test_majority_never_ties(self):
        bag = Bag(tuple(Node(i, LEAF0, LEAF1) for i in range(1, 6)), 5)
        table = truth_table(bag)
        for i in range(32):
            assert table[i] in (0, 1)

    def test_vote_equals_threshold_on_profile(self):
        rng = random.Random(3)
        trees = tuple(make_random_tree(rng, 5, 3) for _ in range(9))
        bag = Bag(trees, 5)
        for i in range(32):
            bits = input_bits(i, 5)
            profile = vote_profile(bag, bits)
            assert bag_eval(bag, bits) == (1 if sum(profile) >= 5 else 0)


class TestEncoding:
    def test_lsb_is_first_variable(self):
        assert input_bits(1, 3) == (1, 0, 0)
        assert input_bits(4, 3) == (0, 0, 1)

    @given(st.integers(0, 255))
    def test_round_trip(self, index):
        assert input_index(input_bits(index, 8)) == index


class TestValidation:
    def test_bad_leaf_label(self):
        with pytest.raises(ValueError, match="leaf label"):
            Leaf(2)

    def test_bad_variable_index(self):
        with pytest.raises(ValueError, match="positive integer"):
            Node(0, LEAF0, LEAF1)


@settings(max_examples=50)
@given(tree_strategy(6), tree_strategy(6), tree_strategy(6))
def test_composition_associativity_semantics(a, b, c):
    lhs = truth_table(conjoin(conjoin(a, b), c), 6)
    rhs = truth_table(conjoin(a, conjoin(b, c)), 6)
    assert lhs == rhs


def test_composition_semantics_at_width_12():
    rng = random.Random(12)
    for _ in range(20):
        a = make_random_tree(rng, 12, 5)
        b = make_random_tree(rng, 12, 5)
        ta, tb = truth_table(a, 12), truth_table(b, 12)
        assert truth_table(conjoin(a, b), 12) == (ta & tb)
        assert truth_table(disjoin(a, b), 12) == (ta | tb)


def test_soft_warning_past_twenty_variables():
    with pytest.warns(UserWarning, match="may be slow"):
        truth_table(LEAF1, 21)


class TestTruthTableCall:
    def test_agrees_with_tree_evaluation(self):
        rng = random.Random(11)
        for _ in range(20):
            tree = make_random_tree(rng, 5, 4)
            table = truth_table(tree, 5)
            for index in range(32):
                bits = input_bits(index, 5)
                assert table(bits) == eval_tree(tree, bits)

    def test_rejects_an_input_of_another_length(self):
        with pytest.raises(ValueError, match="need 3 input bits"):
            truth_table(X1, 3)((1, 0))
