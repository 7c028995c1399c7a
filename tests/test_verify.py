import random
import warnings

import pytest

from forestsmith import trees
from forestsmith.kofn import ChooseSpec, build_choose_bag
from forestsmith.majority import build_reduced_majority
from forestsmith.trees import (
    LEAF0,
    LEAF1,
    Bag,
    Leaf,
    Node,
    TruthTable,
    bag_eval,
    eval_tree,
    input_bits,
    input_index,
    truth_table,
)
from forestsmith.verify import (
    Counterexample,
    choose_tree_formula,
    choose_vote_formula,
    exhaustive_equiv,
    majority_oracle,
    threshold_oracle,
    threshold_table,
)

from conftest import make_random_tree


class TestOracles:
    def test_threshold_examples(self):
        assert threshold_oracle(3, (1, 0, 1, 1, 0)) == 1
        assert threshold_oracle(0, (0, 0)) == 1
        assert threshold_oracle(4, (1, 1, 1)) == 0

    def test_majority_examples(self):
        assert majority_oracle((1, 1, 0)) == 1
        assert majority_oracle((0, 0, 1)) == 0

    def test_majority_needs_odd_width(self):
        with pytest.raises(ValueError, match="odd"):
            majority_oracle((1, 0))

    @pytest.mark.parametrize("n", (3, 5, 7, 9, 11, 13))
    def test_majority_agrees_with_central_threshold(self, n):
        m = (n + 1) // 2
        for index in range(1 << n):
            bits = input_bits(index, n)
            assert majority_oracle(bits) == threshold_oracle(m, bits)


class TestExhaustiveEquiv:
    def test_choose_bag_ok(self):
        bag = build_choose_bag(ChooseSpec(5, 3))
        assert exhaustive_equiv(bag, lambda b: threshold_oracle(3, b), 5) is None

    def test_first_counterexample_in_canonical_order(self):
        bag = Bag(tuple(Node(i, LEAF0, LEAF1) for i in (1, 2, 3)), 3)
        ce = exhaustive_equiv(bag, lambda b: threshold_oracle(1, b), 3)
        assert ce == Counterexample((1, 0, 0), expected=1, actual=0)

    def test_reduced_majority_ok(self):
        bag = build_reduced_majority(5, 1)
        assert exhaustive_equiv(bag, majority_oracle, 5) is None

    def test_tree_subject(self):
        assert exhaustive_equiv(LEAF1, lambda b: 1, 4) is None
        ce = exhaustive_equiv(LEAF0, lambda b: sum(b) == 0, 2)
        assert ce == Counterexample((0, 0), expected=1, actual=0)

    def test_counterexample_requires_disagreement(self):
        with pytest.raises(ValueError):
            Counterexample((0,), expected=1, actual=1)


class TestChooseFormula:
    @pytest.mark.parametrize("n", (3, 5, 7, 9))
    def test_per_tree_agreement_with_built_bags(self, n):
        for k in range(1, n + 1):
            bag = build_choose_bag(ChooseSpec(n, k))
            tables = [truth_table(t, n) for t in bag.trees]
            for index in range(1 << n):
                bits = input_bits(index, n)
                for position, table in enumerate(tables, start=1):
                    assert table[index] == choose_tree_formula(n, k, position, bits)

    def test_vote_formula_is_the_threshold(self):
        for k in range(1, 8):
            for index in range(128):
                bits = input_bits(index, 7)
                assert choose_vote_formula(7, k, bits) == threshold_oracle(k, bits)

    def test_windowed(self):
        for index in range(256):
            bits = input_bits(index, 8)
            assert choose_vote_formula(5, 2, bits, var_offset=3) == threshold_oracle(
                2, bits[3:8]
            )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="threshold"):
            choose_tree_formula(5, 0, 1, (0,) * 5)
        with pytest.raises(ValueError, match="position"):
            choose_tree_formula(5, 2, 6, (0,) * 5)
        with pytest.raises(ValueError, match="too short"):
            choose_tree_formula(5, 2, 1, (0, 1))


class TestThresholdTable:
    @pytest.mark.parametrize("n", range(16))
    def test_matches_per_input_oracle(self, n):
        # The per-input cross-check: a shared bug between the tabulated oracle
        # and the bag tables it is compared with cannot hide here.
        inputs = [input_bits(index, n) for index in range(1 << n)]
        for k in range(-1, n + 2):
            table = threshold_table(k, n)
            assert table.n_vars == n
            expected = "".join(str(threshold_oracle(k, bits)) for bits in inputs)
            assert format(table.bits, f"0{1 << n}b")[::-1] == expected, k

    def test_edge_thresholds(self):
        assert threshold_table(0, 3).bits == 0xFF
        assert threshold_table(-5, 3).bits == 0xFF
        assert threshold_table(4, 3).bits == 0
        assert threshold_table(10**9, 3).bits == 0

    def test_rejects_negative_width(self):
        with pytest.raises(ValueError, match="variable count"):
            threshold_table(1, -1)

    def test_respects_the_width_cap(self, monkeypatch):
        monkeypatch.setenv("FORESTSMITH_MAX_L", "4")
        with pytest.raises(ValueError, match="cap 4"):
            threshold_table(3, 5)


def _scan(subject, oracle, n_vars):
    """Reference: the first disagreement found by evaluating input by input."""
    for index in range(1 << n_vars):
        bits = input_bits(index, n_vars)
        if isinstance(subject, Bag):
            actual = bag_eval(subject, bits)
        else:
            actual = eval_tree(subject, bits)
        expected = 1 if oracle(bits) else 0
        if expected != actual:
            return Counterexample(bits, expected, actual)
    return None


def _evaluator(subject):
    if isinstance(subject, Bag):
        return lambda bits: bag_eval(subject, bits)
    return lambda bits: eval_tree(subject, bits)


def _random_subject(rng, n_vars):
    kind = rng.randrange(3)
    if kind == 0:
        return Leaf(rng.randrange(2))
    if kind == 1:
        return make_random_tree(rng, n_vars, rng.randint(1, 5))
    size = rng.choice((1, 3, 5))
    return Bag(tuple(make_random_tree(rng, n_vars, 3) for _ in range(size)), n_vars)


class TestExhaustiveEquivDifferential:
    """Whole-table comparison against a plain per-input scan."""

    def oracle_pairs(self, rng, subject, n_vars):
        """(table oracle, callable oracle) pairs computing the same function."""
        k = rng.randint(-1, n_vars + 1)
        other = _random_subject(rng, n_vars)
        flipped = rng.randrange(1 << n_vars)
        own = _evaluator(subject)
        yield threshold_table(k, n_vars), lambda bits: sum(bits) >= k
        yield truth_table(other, n_vars), _evaluator(other)
        # Agreeing case: the subject against its own function.
        yield truth_table(subject, n_vars), own
        # Disagreeing at exactly one chosen input.
        yield (
            TruthTable(n_vars, truth_table(subject, n_vars).bits ^ (1 << flipped)),
            lambda bits: bool(own(bits)) != (input_index(bits) == flipped),
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_per_input_scan(self, seed):
        rng = random.Random(seed)
        n_vars = rng.randint(1, 10)
        subject = _random_subject(rng, n_vars)
        for table, predicate in self.oracle_pairs(rng, subject, n_vars):
            want = _scan(subject, predicate, n_vars)
            assert exhaustive_equiv(subject, table, n_vars) == want
            assert exhaustive_equiv(subject, predicate, n_vars) == want
            own_table = truth_table(subject, n_vars)
            assert exhaustive_equiv(own_table, table, n_vars) == want

    def test_single_flip_is_found_where_it_is(self):
        bag = build_reduced_majority(7, 1)
        base = truth_table(bag).bits
        for index in (0, 1, 64, 127):
            ce = exhaustive_equiv(bag, TruthTable(7, base ^ (1 << index)), 7)
            assert ce.input == input_bits(index, 7)
            assert ce.actual == (base >> index) & 1 and ce.expected == 1 - ce.actual

    def test_rejects_a_table_of_another_width(self):
        with pytest.raises(ValueError, match="table over 4 variables, expected 5"):
            exhaustive_equiv(LEAF0, threshold_table(2, 4), 5)
        with pytest.raises(ValueError, match="table over 3 variables, expected 5"):
            exhaustive_equiv(truth_table(LEAF0, 3), threshold_table(2, 5), 5)


class TestWidthWarning:
    def test_one_warning_per_check(self, monkeypatch, recwarn):
        monkeypatch.setattr(trees, "SOFT_WARN_VARS", 3)
        # Count repeats from one call site too; the filter ends with the test.
        warnings.simplefilter("always")
        bag = build_reduced_majority(5, 1)
        assert exhaustive_equiv(bag, threshold_table(3, 5), 5) is None
        assert exhaustive_equiv(bag, majority_oracle, 5) is None
        messages = [str(w.message) for w in recwarn]
        assert messages == ["enumerating 2^5 inputs; this may be slow"] * 2
