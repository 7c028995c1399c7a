import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from forestsmith.io_formats import random_bag, random_distribution
from forestsmith.kofn import ChooseSpec, build_choose_bag
from forestsmith.lossy import (
    Distribution,
    WeightProfile,
    disagreement_indices,
    measure_error,
    reduce_once,
    reduce_repeated,
    select_designated_subset,
    weight_profile,
)
from forestsmith.trees import (
    LEAF0,
    LEAF1,
    Bag,
    Node,
    bag_eval,
    input_bits,
    negate,
    vote_profile,
)
from forestsmith.verify import reduced_profile_formula

SINGLE_VAR_9 = build_choose_bag(ChooseSpec(9, 5))


def variable_bag(n):
    return Bag(tuple(Node(i, LEAF0, LEAF1) for i in range(1, n + 1)), n)


class TestDistribution:
    def test_uniform_total(self):
        assert Distribution.uniform(3).total == 8

    def test_table_total(self):
        d = Distribution.from_weights(2, (0, 3, 1, 2))
        assert d.total == 6
        assert d.weight(1) == 3

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="weights"):
            Distribution.from_weights(2, (1, 2, 3))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            Distribution.from_weights(1, (1, -1))

    def test_rejects_zero_total(self):
        with pytest.raises(ValueError, match="positive"):
            Distribution.from_weights(1, (0, 0))

    def test_zero_out(self):
        d = Distribution.uniform(2).zero_out(0b1010)
        assert d.weights_vector() == (1, 0, 1, 0)
        assert d.total == 2


class TestWeightProfile:
    def test_variable_bag_uniform_is_bijective(self):
        profile = weight_profile(variable_bag(3), Distribution.uniform(3))
        assert profile.total == 8
        assert all(w == 1 for w in profile.weights.values())
        assert len(profile.weights) == 8

    def test_constant_bag_collapses(self):
        bag = Bag((LEAF1, LEAF1, LEAF1), 2)
        profile = weight_profile(bag, Distribution.uniform(2))
        assert profile.weights == {(1, 1, 1): 4}

    def test_total_identity_on_random_bag(self):
        bag = random_bag(7, 5, 6, 3)
        dist = random_distribution(7, 6, 9)
        profile = weight_profile(bag, dist)
        assert profile.total == dist.total

    def test_case_weight(self):
        profile = weight_profile(variable_bag(3), Distribution.uniform(3))
        assert profile.case_weight(1, 1) == 2
        assert profile.case_weight(0, 0) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="variables"):
            weight_profile(variable_bag(3), Distribution.uniform(4))


class TestSelectDesignatedSubset:
    def test_forced_by_weights(self):
        profile = WeightProfile(3, {(1, 0, 0): 1})
        selection = select_designated_subset(profile, (1, 2, 3), 1, 1, 1)
        assert selection.positions == (2,)
        assert selection.weight == 0
        assert selection.stratum_weight == 1

    def test_uniform_weights_meet_bound_with_equality(self):
        weights = {}
        for ones in combinations(range(7), 3):
            profile = tuple(1 if i in ones else 0 for i in range(7))
            weights[profile] = 1
        profile = WeightProfile(7, weights)
        selection = select_designated_subset(profile, tuple(range(1, 8)), 2, 3, 1)
        # every pair is covered by C(5,1) profiles; the averaging bound is exact
        assert selection.weight == 5
        assert selection.stratum_weight == 35
        assert selection.averaging_bound() == Fraction(comb(3, 2) * 35, comb(7, 2))
        assert Fraction(selection.weight) == selection.averaging_bound()

    def test_random_weights_respect_averaging_bound(self):
        rng = random.Random(42)
        for _ in range(50):
            weights = {}
            for ones in combinations(range(7), 3):
                profile = tuple(1 if i in ones else 0 for i in range(7))
                weights[profile] = rng.randint(0, 100)
            profile = WeightProfile(7, weights)
            selection = select_designated_subset(profile, tuple(range(1, 8)), 2, 3, 1)
            assert selection.weight * comb(7, 2) <= comb(3, 2) * selection.stratum_weight
            # argmin over explicit enumeration agrees
            best = min(
                sum(
                    w
                    for b, w in weights.items()
                    if sum(b) == 3 and all(b[p - 1] == 1 for p in subset)
                )
                for subset in combinations(range(1, 8), 2)
            )
            assert selection.weight == best

    def test_subset_larger_than_stratum_rejected(self):
        profile = WeightProfile(3, {(1, 1, 1): 1})
        with pytest.raises(ValueError, match="exceeds stratum count"):
            select_designated_subset(profile, (1, 2, 3), 2, 1, 1)

    def test_zero_pattern_counts_zeros(self):
        profile = WeightProfile(3, {(0, 0, 1): 3, (1, 1, 1): 5})
        selection = select_designated_subset(profile, (1, 2, 3), 1, 2, 0)
        # only (0,0,1) has two zeros; position 3 avoids it entirely
        assert selection.positions == (3,)
        assert selection.weight == 0
        assert selection.stratum_weight == 3


class TestReduceOnceStructure:
    def test_construction_table_rows(self):
        # For 9 trees and 3 designated positions, with identity ordering:
        # row both-ones: t3|first-miss(3), t4|first-miss(4), t5|first-miss(5), t6..t9
        # row mixed:     t3..t9
        # row both-zeros: run(3), run(4), run(5), t6..t9
        bag = random_bag(13, 9, 8, 3)
        reduced, _ = reduce_once(bag, Distribution.uniform(8), 3, identity_permutations=True)
        for index in range(256):
            bits = input_bits(index, 8)
            t = vote_profile(bag, bits)
            got = vote_profile(reduced, bits)
            if t[0] and t[1]:
                expected = (
                    int(t[2] or not t[2]),
                    int(t[3] or (t[2] and not t[3])),
                    int(t[4] or (t[2] and t[3] and not t[4])),
                    t[5], t[6], t[7], t[8],
                )
            elif t[0] != t[1]:
                expected = t[2:]
            else:
                expected = (
                    int(t[2] and (t[3] or t[4])),
                    int(t[3] and t[4]),
                    0,
                    t[5], t[6], t[7], t[8],
                )
            assert got == expected, (index, t, got, expected)

    def test_always_one_and_always_zero_entries(self):
        reduced, _ = reduce_once(
            SINGLE_VAR_9, Distribution.uniform(9), 3, identity_permutations=True
        )
        for index in range(512):
            bits = input_bits(index, 9)
            if bits[0] and bits[1]:
                assert vote_profile(reduced, bits)[0] == 1
            if not bits[0] and not bits[1]:
                assert vote_profile(reduced, bits)[2] == 0

    def test_worked_example_profiles(self):
        reduced, _ = reduce_once(
            SINGLE_VAR_9, Distribution.uniform(9), 3, identity_permutations=True
        )
        assert vote_profile(reduced, (1, 1, 1, 1, 1, 0, 0, 0, 0)) == (1, 1, 1, 0, 0, 0, 0)
        assert bag_eval(SINGLE_VAR_9, (1, 1, 1, 1, 1, 0, 0, 0, 0)) == 1
        assert bag_eval(reduced, (1, 1, 1, 1, 1, 0, 0, 0, 0)) == 0
        assert vote_profile(reduced, (0, 0, 0, 0, 0, 1, 1, 1, 1)) == (0, 0, 0, 1, 1, 1, 1)
        assert bag_eval(SINGLE_VAR_9, (0, 0, 0, 0, 0, 1, 1, 1, 1)) == 0
        assert bag_eval(reduced, (0, 0, 0, 0, 0, 1, 1, 1, 1)) == 1

    def test_wider_bag_structural_list(self):
        # 11 trees, 3 designated: both-ones row is t3|miss3, t4|miss4, t5|miss5,
        # then t6..t11 passed through.
        bag = random_bag(29, 11, 8, 3)
        reduced, _ = reduce_once(bag, Distribution.uniform(8), 3, identity_permutations=True)
        for index in range(256):
            bits = input_bits(index, 8)
            t = vote_profile(bag, bits)
            if not (t[0] and t[1]):
                continue
            got = vote_profile(reduced, bits)
            miss = lambda j: all(t[2 : j - 1]) and not t[j - 1]
            expected = tuple(
                int(t[j - 1] or miss(j)) for j in (3, 4, 5)
            ) + t[5:]
            assert got == expected


class TestReduceOnceAccounting:
    def test_majority_bag_uniform_error(self):
        reduced, report = reduce_once(SINGLE_VAR_9, Distribution.uniform(9), 3)
        assert report.measured_error == Fraction(1, 256)
        assert report.error_bound == Fraction(1, 8)
        assert report.measured_error <= report.refined_bound <= report.error_bound
        assert measure_error(reduced, SINGLE_VAR_9, Distribution.uniform(9)) == Fraction(1, 256)

    def test_majority_bag_under_distribution_matrix(self):
        dists = [Distribution.uniform(9)] + [
            random_distribution(seed, 9, 31) for seed in (2, 11, 40)
        ]
        for dist in dists:
            for designated in (1, 2, 3):
                reduced, report = reduce_once(SINGLE_VAR_9, dist, designated)
                assert report.measured_error <= Fraction(1, 2**designated)
                assert (
                    measure_error(reduced, SINGLE_VAR_9, dist) == report.measured_error
                )

    def test_error_equals_selected_strata_weight(self):
        for seed in range(6):
            bag = random_bag(seed, 9, 8, 3)
            dist = (
                random_distribution(seed, 8, 40)
                if seed % 2
                else Distribution.uniform(8)
            )
            for designated in (1, 2, 3):
                _, report = reduce_once(bag, dist, designated)
                assert report.measured_error == Fraction(
                    report.selected_weight_ones + report.selected_weight_zeros,
                    report.total_weight,
                )
                assert report.measured_error <= report.refined_bound
                assert report.refined_bound <= report.error_bound

    def test_error_support_characterization(self):
        for seed in (3, 8, 21):
            bag = random_bag(seed, 9, 8, 3)
            dist = random_distribution(seed + 1, 8, 10)
            reduced, report = reduce_once(bag, dist, 2)
            m = 5
            ones_set = set(report.designated_ones)
            zeros_set = set(report.designated_zeros)
            for index in disagreement_indices(reduced, bag):
                t = vote_profile(bag, input_bits(index, 8))
                first_two = (t[0], t[1])
                tail = t[2:]
                assert first_two in ((1, 1), (0, 0))
                if first_two == (1, 1):
                    assert sum(tail) == m - 2
                    assert all(t[p - 1] == 1 for p in ones_set)
                else:
                    assert sum(1 - b for b in tail) == m - 2
                    assert all(t[p - 1] == 0 for p in zeros_set)

    def test_mixed_stratum_never_disagrees(self):
        for seed in (1, 9):
            bag = random_bag(seed, 11, 8, 3)
            reduced, _ = reduce_once(bag, Distribution.uniform(8), 3)
            for index in disagreement_indices(reduced, bag):
                t = vote_profile(bag, input_bits(index, 8))
                assert t[0] == t[1]

    def test_formula_route_matches_materialized_trees(self):
        pool = tuple(range(3, 10))
        for seed in (2, 5):
            bag = random_bag(seed, 9, 8, 3)
            dist = random_distribution(seed, 8, 25)
            reduced, report = reduce_once(bag, dist, 3)
            order_ones = report.designated_ones + tuple(
                p for p in pool if p not in report.designated_ones
            )
            order_zeros = report.designated_zeros + tuple(
                p for p in pool if p not in report.designated_zeros
            )
            for index in range(256):
                bits = input_bits(index, 8)
                votes = vote_profile(bag, bits)
                assert vote_profile(reduced, bits) == reduced_profile_formula(
                    votes, 3, order_ones, order_zeros
                )

    def test_size_accounting(self):
        bag = random_bag(4, 9, 8, 3)
        _, report = reduce_once(bag, Distribution.uniform(8), 2)
        assert report.size_bound_exponent == 15
        assert (
            report.size_bound_ratio
            == Fraction(report.max_size_after, report.max_size_before**15)
        )

    def test_preconditions(self):
        with pytest.raises(ValueError, match="at least 5"):
            reduce_once(variable_bag(3), Distribution.uniform(3), 1)
        with pytest.raises(ValueError, match="designated count"):
            reduce_once(variable_bag(5), Distribution.uniform(5), 2)
        with pytest.raises(ValueError, match="variables"):
            reduce_once(variable_bag(5), Distribution.uniform(6), 1)

    def test_constant_trees_tolerated(self):
        bag = Bag((LEAF1, LEAF0, LEAF1, LEAF0, Node(1, LEAF0, LEAF1)), 3)
        reduced, report = reduce_once(bag, Distribution.uniform(3), 1)
        assert len(reduced) == 3
        assert report.measured_error <= Fraction(1, 2)


class TestMeasureError:
    def test_identical_bags(self):
        assert measure_error(SINGLE_VAR_9, SINGLE_VAR_9, Distribution.uniform(9)) == 0

    def test_leaf_flipped_bag_disagrees_everywhere(self):
        bag = variable_bag(5)
        flipped = Bag(tuple(negate(t) for t in bag.trees), 5)
        dist = random_distribution(3, 5, 7)
        assert measure_error(bag, flipped, dist) == 1

    def test_symmetry(self):
        a = random_bag(1, 5, 6, 3)
        b = random_bag(2, 7, 6, 3)
        dist = random_distribution(5, 6, 11)
        assert measure_error(a, b, dist) == measure_error(b, a, dist)

    def test_mismatched_widths(self):
        with pytest.raises(ValueError, match="different variable counts"):
            measure_error(variable_bag(3), variable_bag(5), Distribution.uniform(3))


class TestReduceRepeated:
    def test_single_step_equals_reduce_once(self):
        bag = random_bag(17, 9, 8, 3)
        dist = random_distribution(17, 8, 13)
        once_bag, once_report = reduce_once(bag, dist, 2)
        rep_bag, rep_report = reduce_repeated(bag, dist, 2, 1)
        assert measure_error(once_bag, rep_bag, Distribution.uniform(8)) == 0
        assert rep_report.measured_error == once_report.measured_error
        assert rep_report.error_bound == Fraction(1, 4)
        assert len(rep_report.steps) == 1

    def test_two_steps_bound(self):
        for seed in (0, 4, 12):
            bag = random_bag(seed, 11, 8, 3)
            dist = Distribution.uniform(8)
            reduced, report = reduce_repeated(bag, dist, 3, 2)
            assert len(reduced) == 7
            assert report.measured_error <= Fraction(2, 8)
            for step in report.steps:
                assert step.measured_error <= Fraction(1, 8)

    def test_reweighting_zeroes_disagreements(self):
        bag = random_bag(23, 11, 8, 3)
        dist = Distribution.uniform(8)
        reduced_first, first_report = reduce_once(bag, dist, 3)
        bad = set(disagreement_indices(reduced_first, bag))
        _, report = reduce_repeated(bag, dist, 3, 2)
        # second step's distribution excludes exactly the first disagreement set
        assert report.steps[0].measured_error == first_report.measured_error
        assert report.steps[1].total_weight == 256 - sum(1 for _ in bad)

    def test_cumulative_error_vs_original_distribution(self):
        bag = random_bag(31, 11, 8, 3)
        dist = random_distribution(31, 8, 9)
        reduced, report = reduce_repeated(bag, dist, 3, 2)
        assert report.measured_error == measure_error(reduced, bag, dist)
        assert report.total_weight == dist.total

    def test_too_many_steps_named_iteration(self):
        bag = random_bag(2, 9, 8, 3)
        with pytest.raises(ValueError, match="iteration 4"):
            reduce_repeated(bag, Distribution.uniform(8), 1, 4)

    def test_designated_cap_shrinks_with_steps(self):
        bag = random_bag(2, 11, 8, 3)
        with pytest.raises(ValueError, match="iteration 2"):
            reduce_repeated(bag, Distribution.uniform(8), 4, 2)

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            reduce_repeated(SINGLE_VAR_9, Distribution.uniform(9), 3, 0)


class TestWeightOf:
    def test_uniform_counts_the_set_bits(self):
        assert Distribution.uniform(3).weight_of(0b1011_0001) == 4
        assert Distribution.uniform(3).weight_of(0) == 0

    def test_table_sums_the_weights_at_set_bits(self):
        d = Distribution.from_weights(3, (1, 2, 3, 4, 5, 6, 7, 8))
        assert d.weight_of(0b0001_0110) == 2 + 3 + 5
        assert d.weight_of(0b1111_1111) == d.total

    def test_matches_a_per_index_sum(self):
        rng = random.Random(5)
        for n in (1, 4, 9):
            d = Distribution.from_weights(n, [rng.randrange(4) for _ in range(1 << n)])
            mask = rng.getrandbits(1 << n)
            want = sum(d.weight(i) for i in range(1 << n) if (mask >> i) & 1)
            assert d.weight_of(mask) == want

    def test_rejects_a_mask_beyond_the_width(self):
        with pytest.raises(ValueError, match="mask"):
            Distribution.uniform(2).weight_of(1 << 4)
        with pytest.raises(ValueError, match="mask"):
            Distribution.from_weights(1, (1, 1)).weight_of(-1)
