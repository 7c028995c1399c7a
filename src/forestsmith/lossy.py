"""Lossy tree-count reduction with exact, distribution-weighted error accounting.

A bag of 2m-1 trees is rebuilt on 2m-3 trees: the first two trees become a
branch condition, and a small designated subset of the remaining trees is
composed so the vote count survives the loss of two slots except on two
narrow profile strata. All weights are non-negative integers and all error
figures exact rationals, so every bound is an exact comparison, never a
tolerance check.

Every weight is :meth:`Distribution.weight_of` of an input mask: vote profiles
are mask cells, split tree by tree on each tree's truth table, and two bags
disagree on the XOR of their vote tables. A distribution is held as bit planes
(plane j is the mask of the inputs whose weight has bit j set), so a mask's
weight is one AND and one popcount per plane, and reweighting clears a mask
from every plane. One ``reduce_repeated`` call builds each tree's table and
each bag's vote table once, in a ``TableCache`` it hands to every step; the
reduced trees are still tabled from the trees actually composed, so the
measured error stays an independent check of the selected strata weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, compress
from math import comb
from typing import Iterable, Mapping, Sequence

from .trees import (
    LEAF0,
    Bag,
    TableCache,
    Tree,
    _check_table_width,
    conjoin,
    disjoin,
    negate,
    tree_size,
)

_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
# _PLANE_DIGITS[j] maps a byte to the ASCII digit of its bit j.
_PLANE_DIGITS = tuple(bytes(48 + (v >> j & 1) for v in range(256)) for j in range(8))


class InvariantError(RuntimeError):
    """Two exact figures the construction guarantees equal (or ordered) are not."""


def _bad_weight_index(weights: Sequence) -> int | None:
    """Index of the first weight that is not a non-negative integer, else None.

    The all-good case is decided at C speed; only a failing sequence is
    walked, to name the first offender.
    """
    if set(map(type, weights)) <= {int} and min(weights) >= 0:
        return None
    for idx, w in enumerate(weights):
        if not isinstance(w, int) or isinstance(w, bool) or w < 0:
            return idx
    return None


def _bit_planes(weights: Sequence[int]) -> tuple[int, ...]:
    """Plane j is the mask of the inputs whose weight has bit j set."""
    depth = max(weights).bit_length()
    width = (depth + 7) // 8
    # One byte per input and weight byte, input 0 first.
    if width == 1:
        raw = bytes(weights)
    else:
        raw = b"".join(w.to_bytes(width, "little") for w in weights)
    planes = []
    for j in range(depth):
        if j % 8 == 0:
            lane = raw[j // 8 :: width]
        # Input 0 is the lowest bit, so the digit string is read reversed.
        planes.append(int(lane.translate(_PLANE_DIGITS[j % 8])[::-1], 2))
    return tuple(planes)


class Distribution:
    """Non-negative integer weights over all 2^n_vars inputs, held as bit planes.

    ``weights`` is None for the uniform shortcut (weight 1 per input), whose
    one plane is the full input mask. Probabilities are weight / total;
    keeping everything integral makes the error bounds exact inequalities.
    Instances are immutable.
    """

    __slots__ = ("n_vars", "total", "_weights", "_planes", "_masks")

    def __init__(self, n_vars: int, weights: Iterable[int] | None = None) -> None:
        if not isinstance(n_vars, int) or n_vars < 1:
            raise ValueError(f"n_vars must be a positive integer, got {n_vars!r}")
        planes = None
        if weights is None:
            total = 1 << n_vars
        else:
            weights = tuple(weights)
            if len(weights) != 1 << n_vars:
                raise ValueError(
                    f"need {1 << n_vars} weights for {n_vars} variables, got {len(weights)}"
                )
            bad = _bad_weight_index(weights)
            if bad is not None:
                raise ValueError(
                    f"weights[{bad}] must be a non-negative integer, got {weights[bad]!r}"
                )
            total = sum(weights)
            if total == 0:
                raise ValueError("distribution total must be positive")
            planes = _bit_planes(weights)
        self._init(n_vars, total, weights, planes)

    def _init(self, n_vars, total, weights, planes) -> None:
        # The planes weighed. A uniform distribution's one full-mask plane is
        # made here, once; ``_planes`` stays None, unlike an all-ones table's.
        masks = planes if planes is not None else ((1 << (1 << n_vars)) - 1,)
        values = (n_vars, total, weights, planes, masks)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_planes(cls, n_vars: int, planes: tuple[int, ...]) -> "Distribution":
        total = sum(p.bit_count() << j for j, p in enumerate(planes))
        if total == 0:
            raise ValueError("distribution total must be positive")
        dist = object.__new__(cls)
        dist._init(n_vars, total, None, planes)
        return dist

    @classmethod
    def uniform(cls, n_vars: int) -> "Distribution":
        return cls(n_vars)

    @classmethod
    def from_weights(cls, n_vars: int, weights: Sequence[int]) -> "Distribution":
        return cls(n_vars, weights)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n_vars, self._planes) == (other.n_vars, other._planes)

    def __hash__(self):
        return hash((self.n_vars, self._planes))

    def __reduce__(self):
        return Distribution, (self.n_vars, self.weights)

    def __repr__(self):
        return (
            f"Distribution(n_vars={self.n_vars!r}, weights={self.weights!r}, "
            f"total={self.total!r})"
        )

    @property
    def weights(self) -> tuple[int, ...] | None:
        """Per-input weights, input 0 first; None for the uniform shortcut."""
        if self._weights is None and self._planes is not None:
            # Made from planes by zero_out: spell the weights out once, on demand.
            size = 1 << self.n_vars
            rows = [
                format(p, f"0{size}b")[::-1].encode().translate(_DIGIT_VALUES)
                for p in self._planes
            ]
            weights = tuple(sum(bit << j for j, bit in enumerate(bits)) for bits in zip(*rows))
            object.__setattr__(self, "_weights", weights)
        return self._weights

    def _check_mask(self, mask: int) -> None:
        if mask < 0 or mask.bit_length() > 1 << self.n_vars:
            raise ValueError(f"mask out of range for {self.n_vars} variables")

    def weight(self, index: int) -> int:
        if self._planes is None:
            return 1
        return self.weights[index]

    def weight_of(self, mask: int) -> int:
        """Total weight of the inputs whose canonical indices are set in ``mask``.

        Sideways addition over the bit planes: one AND and one popcount per
        plane, whatever the number of inputs in ``mask``.
        """
        self._check_mask(mask)
        return sum((mask & p).bit_count() << j for j, p in enumerate(self._masks))

    def weights_vector(self) -> tuple[int, ...]:
        if self._planes is None:
            return (1,) * (1 << self.n_vars)
        return self.weights

    def zero_out(self, mask: int) -> "Distribution":
        """Copy with the inputs whose indices are set in ``mask`` forced to weight 0."""
        self._check_mask(mask)
        planes = [p ^ (p & mask) for p in self._masks]
        while planes and not planes[-1]:
            planes.pop()
        return Distribution._from_planes(self.n_vars, tuple(planes))


@dataclass(frozen=True)
class WeightProfile:
    """Total input weight carried by each vote profile of a bag."""

    n_trees: int
    weights: Mapping[tuple[int, ...], int]
    total: int = field(init=False)

    def __post_init__(self) -> None:
        clean: dict[tuple[int, ...], int] = {}
        for profile, w in self.weights.items():
            profile = tuple(profile)
            if len(profile) != self.n_trees or any(b not in (0, 1) for b in profile):
                raise ValueError(f"bad vote profile {profile!r}")
            if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                raise ValueError(f"weight of {profile!r} must be a non-negative integer")
            if w:
                clean[profile] = w
        object.__setattr__(self, "weights", clean)
        object.__setattr__(self, "total", sum(clean.values()))

    def case_weight(self, first: int, second: int) -> int:
        """Aggregate weight of profiles whose first two coordinates match."""
        return sum(
            w for b, w in self.weights.items() if b[0] == first and b[1] == second
        )


@dataclass(frozen=True, slots=True)
class SubsetSelection:
    """A designated position subset together with its conditioned weights."""

    positions: tuple[int, ...]
    weight: int
    stratum_weight: int
    pool_size: int
    subset_size: int
    stratum_count: int

    def averaging_bound(self) -> Fraction:
        """The existence bound the argmin subset must meet: C(L,K)/C(H,K) * W^L."""
        return Fraction(
            comb(self.stratum_count, self.subset_size) * self.stratum_weight,
            comb(self.pool_size, self.subset_size),
        )

    def satisfies_bound(self) -> bool:
        return self.weight <= self.averaging_bound()


def _table_cache(n_vars: int, tables: TableCache | None) -> TableCache:
    """``tables``, checked to be over ``n_vars`` variables, or a new cache."""
    if tables is None:
        return TableCache(n_vars)
    if tables.n_vars != n_vars:
        raise ValueError(f"table cache over {tables.n_vars} variables, bag over {n_vars}")
    return tables


def weight_profile(
    bag: Bag, dist: Distribution, tables: TableCache | None = None
) -> WeightProfile:
    """Exhaustive vote-profile weights of ``bag`` under ``dist``.

    Tree tables come from ``tables`` when given, and are left in it.
    """
    if dist.n_vars != bag.n_vars:
        raise ValueError(
            f"distribution over {dist.n_vars} variables, bag over {bag.n_vars}"
        )
    _check_table_width(bag.n_vars)
    tables = _table_cache(bag.n_vars, tables)
    # Split the full input mask tree by tree: each cell holds the inputs that
    # share one vote profile so far.
    cells: dict[tuple[int, ...], int] = {(): (1 << (1 << bag.n_vars)) - 1}
    for tree in bag.trees:
        table = tables.bits(tree)
        split: dict[tuple[int, ...], int] = {}
        for profile, mask in cells.items():
            ones = mask & table
            zeros = mask ^ ones
            if zeros:
                split[profile + (0,)] = zeros
            if ones:
                split[profile + (1,)] = ones
        cells = split
    result = WeightProfile(
        len(bag.trees), {profile: dist.weight_of(cell) for profile, cell in cells.items()}
    )
    if result.total != dist.total:
        raise InvariantError(
            f"profile weights sum to {result.total}, distribution total is {dist.total}"
        )
    return result


def select_designated_subset(
    profile: WeightProfile,
    positions: Sequence[int],
    subset_size: int,
    stratum_count: int,
    pattern_bit: int = 1,
    first_two: tuple[int, int] | None = None,
) -> SubsetSelection:
    """Argmin choice of the designated positions.

    Among profiles (optionally restricted by their first two coordinates)
    carrying exactly ``stratum_count`` pattern bits over ``positions``, find
    the subset of ``subset_size`` positions minimizing the weight of profiles
    that show the pattern bit on the whole subset. Ties break lexicographically
    on the sorted position list, and the minimum always satisfies the
    averaging bound C(L,K)/C(H,K) * W^L.
    """
    pool = tuple(sorted(positions))
    if len(set(pool)) != len(pool):
        raise ValueError("positions must be distinct")
    if pattern_bit not in (0, 1):
        raise ValueError(f"pattern bit must be 0 or 1, got {pattern_bit}")
    if subset_size < 1:
        raise ValueError(f"subset size must be >= 1, got {subset_size}")
    if subset_size > stratum_count:
        raise ValueError(
            f"subset size {subset_size} exceeds stratum count {stratum_count}"
        )
    if stratum_count > len(pool):
        raise ValueError(
            f"stratum count {stratum_count} exceeds pool size {len(pool)}"
        )
    candidates = combinations(pool, subset_size)
    selection = _select(profile, pool, candidates, stratum_count, pattern_bit, first_two)
    if not selection.satisfies_bound():
        raise InvariantError(
            f"selected weight {selection.weight} exceeds averaging bound "
            f"{selection.averaging_bound()}"
        )
    return selection


def _select(
    profile: WeightProfile,
    pool: tuple[int, ...],
    candidates: Iterable[tuple[int, ...]],
    stratum_count: int,
    pattern_bit: int,
    first_two: tuple[int, int] | None,
) -> SubsetSelection:
    """The first lightest of ``candidates``, weighed as in select_designated_subset."""
    relevant = [
        (b, w)
        for b, w in profile.weights.items()
        if (first_two is None or (b[0], b[1]) == first_two)
        and sum(1 for p in pool if b[p - 1] == pattern_bit) == stratum_count
    ]
    best: tuple[int, ...] | None = None
    best_weight = 0
    for subset in candidates:
        subset_weight = sum(
            w for b, w in relevant if all(b[p - 1] == pattern_bit for p in subset)
        )
        if best is None or subset_weight < best_weight:
            best, best_weight = subset, subset_weight
    stratum_total = sum(w for _, w in relevant)
    return SubsetSelection(
        best, best_weight, stratum_total, len(pool), len(best), stratum_count
    )


@dataclass(frozen=True)
class ReductionReport:
    """Exact accounting for one two-tree reduction step."""

    trees_before: int
    trees_after: int
    designated_count: int
    designated_ones: tuple[int, ...]
    designated_zeros: tuple[int, ...]
    case_weight_ones: int
    case_weight_zeros: int
    stratum_weight_ones: int
    stratum_weight_zeros: int
    selected_weight_ones: int
    selected_weight_zeros: int
    total_weight: int
    measured_error: Fraction
    error_bound: Fraction
    refined_bound: Fraction
    max_size_before: int
    max_size_after: int
    size_bound_exponent: int
    size_bound_ratio: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.measured_error <= 1:
            raise ValueError("measured error outside [0, 1]")
        if self.measured_error > self.error_bound:
            raise ValueError("measured error exceeds its bound")


@dataclass(frozen=True)
class IteratedReductionReport:
    """Accounting for a chain of reduction steps with reweighting."""

    steps: tuple[ReductionReport, ...]
    trees_before: int
    trees_after: int
    designated_count: int
    total_weight: int
    measured_error: Fraction
    error_bound: Fraction
    max_size_before: int
    max_size_after: int

    def __post_init__(self) -> None:
        if self.measured_error > self.error_bound:
            raise ValueError("cumulative error exceeds its bound")


def _ordering(selected: Sequence[int], pool: Sequence[int]) -> tuple[int, ...]:
    rest = [p for p in pool if p not in selected]
    return tuple(selected) + tuple(rest)


def _conjoin_chain(parts: Sequence[Tree], final: Tree) -> Tree:
    out = final
    for part in reversed(parts):
        out = conjoin(part, out)
    return out


def _disjoin_chain(parts: Sequence[Tree], final: Tree) -> Tree:
    out = final
    for part in reversed(parts):
        out = disjoin(part, out)
    return out


def _both_ones_component(slot_trees: Sequence[Tree], i: int, designated: int) -> Tree:
    # slot_trees[0] holds slot 3. Designated slots get "slot fires, or every
    # earlier designated slot fires and this one is the first miss"; later
    # slots pass through.
    if i > designated:
        return slot_trees[i - 1]
    first_miss = _conjoin_chain(slot_trees[: i - 1], negate(slot_trees[i - 1]))
    return disjoin(slot_trees[i - 1], first_miss)


def _both_zeros_component(slot_trees: Sequence[Tree], i: int, designated: int) -> Tree:
    # Designated slots get "slot fires and some later designated slot fires";
    # later slots pass through.
    if i > designated:
        return slot_trees[i - 1]
    successors = _disjoin_chain(slot_trees[i:designated], LEAF0)
    return conjoin(slot_trees[i - 1], successors)


def reduce_once(
    bag: Bag,
    dist: Distribution,
    designated: int,
    identity_permutations: bool = False,
    tables: TableCache | None = None,
) -> tuple[Bag, ReductionReport]:
    """Rebuild a bag of 2m-1 trees on 2m-3 trees, with exact error accounting.

    ``designated`` is the number of tail positions composed specially in the
    both-ones and both-zeros branches; the designated subsets are chosen
    independently per branch to minimize the weight of the only two profile
    strata that can disagree with the original vote. The measured error is
    at most 1/2^designated, exactly. ``identity_permutations`` skips the
    subset search and designates positions 3..designated+2 in both branches
    (a test hook). A forced subset carries no 1/2^designated guarantee: when
    its two strata weigh more than that, ValueError is raised before any tree
    is composed. ``tables`` keeps the tree and vote tables built here for a
    caller that needs them again.
    """
    n = len(bag.trees)
    if n < 5:
        raise ValueError(f"need at least 5 trees to drop two, got {n}")
    m = (n + 1) // 2
    if not 1 <= designated <= m - 2:
        raise ValueError(
            f"designated count must be in 1..{m - 2} for {n} trees, got {designated}"
        )
    tables = _table_cache(bag.n_vars, tables)
    profile = weight_profile(bag, dist, tables)
    pool = tuple(range(3, n + 1))
    stratum = m - 2
    if identity_permutations:
        sel_ones = _select(profile, pool, (pool[:designated],), stratum, 1, (1, 1))
        sel_zeros = _select(profile, pool, (pool[:designated],), stratum, 0, (0, 0))
        forced = Fraction(sel_ones.weight + sel_zeros.weight, dist.total)
        if forced > Fraction(1, 2**designated):
            raise ValueError(
                f"identity permutations: forced strata weight {forced} exceeds its "
                f"bound 1/{2**designated}"
            )
    else:
        sel_ones = select_designated_subset(profile, pool, designated, stratum, 1, (1, 1))
        sel_zeros = select_designated_subset(profile, pool, designated, stratum, 0, (0, 0))
    order_ones = _ordering(sel_ones.positions, pool)
    order_zeros = _ordering(sel_zeros.positions, pool)

    t = bag.trees
    head, second = t[0], t[1]
    not_head, not_second = negate(head), negate(second)
    ones_slots = [t[p - 1] for p in order_ones]
    zeros_slots = [t[p - 1] for p in order_zeros]
    reduced_trees = []
    for i in range(1, n - 1):
        ones_part = _both_ones_component(ones_slots, i, designated)
        zeros_part = _both_zeros_component(zeros_slots, i, designated)
        passthrough = t[i + 1]
        term_ones = conjoin(head, conjoin(second, ones_part))
        term_hi_lo = conjoin(head, conjoin(not_second, passthrough))
        term_lo_hi = conjoin(not_head, conjoin(second, passthrough))
        term_zeros = conjoin(not_head, conjoin(not_second, zeros_part))
        # Right-nested: each term is walked once. disjoin substitutes for
        # 0-leaves, so A[0<-B][0<-C] = A[0<-B[0<-C]] and the tree is the same.
        reduced_trees.append(
            disjoin(term_ones, disjoin(term_hi_lo, disjoin(term_lo_hi, term_zeros)))
        )
    reduced = Bag(tuple(reduced_trees), bag.n_vars)

    measured = measure_error(reduced, bag, dist, tables)
    # The disagreement set is exactly the two designated strata, so the
    # exhaustive measurement must reproduce the profile-level weights.
    selected = Fraction(sel_ones.weight + sel_zeros.weight, dist.total)
    if measured != selected:
        raise InvariantError(
            f"measured error {measured} differs from selected strata weight {selected}"
        )
    case_ones = profile.case_weight(1, 1)
    case_zeros = profile.case_weight(0, 0)
    refined = Fraction(
        comb(stratum, designated) * (case_ones + case_zeros),
        comb(len(pool), designated) * dist.total,
    )
    bound = Fraction(1, 2**designated)
    if not identity_permutations:
        if measured > refined:
            raise InvariantError(f"measured error {measured} exceeds refined bound {refined}")
        if refined > bound:
            raise InvariantError(f"refined bound {refined} exceeds error bound {bound}")
    size_before = max(tree_size(tree) for tree in t)
    size_after = max(tree_size(tree) for tree in reduced_trees)
    exponent = 2 * designated + 11
    report = ReductionReport(
        trees_before=n,
        trees_after=n - 2,
        designated_count=designated,
        designated_ones=sel_ones.positions,
        designated_zeros=sel_zeros.positions,
        case_weight_ones=case_ones,
        case_weight_zeros=case_zeros,
        stratum_weight_ones=sel_ones.stratum_weight,
        stratum_weight_zeros=sel_zeros.stratum_weight,
        selected_weight_ones=sel_ones.weight,
        selected_weight_zeros=sel_zeros.weight,
        total_weight=dist.total,
        measured_error=measured,
        error_bound=bound,
        refined_bound=refined,
        max_size_before=size_before,
        max_size_after=size_after,
        size_bound_exponent=exponent,
        size_bound_ratio=Fraction(size_after, size_before**exponent),
    )
    return reduced, report


def _disagreement_mask(bag_a: Bag, bag_b: Bag, tables: TableCache | None = None) -> int:
    """Mask of the inputs where the two bags' votes differ."""
    if bag_a.n_vars != bag_b.n_vars:
        raise ValueError(
            f"bags over different variable counts: {bag_a.n_vars} vs {bag_b.n_vars}"
        )
    _check_table_width(bag_a.n_vars)
    tables = _table_cache(bag_a.n_vars, tables)
    return tables.bits(bag_a) ^ tables.bits(bag_b)


def disagreement_indices(bag_a: Bag, bag_b: Bag) -> list[int]:
    """Canonical indices of every input where the two bags' votes differ."""
    # One base-2 digit per input, input 0 first: a linear pass, no shifts.
    digits = format(_disagreement_mask(bag_a, bag_b), "b")[::-1].encode()
    return list(compress(range(len(digits)), digits.translate(_DIGIT_VALUES)))


def measure_error(
    bag_a: Bag, bag_b: Bag, dist: Distribution, tables: TableCache | None = None
) -> Fraction:
    """Exact disagreement weight of two bags under ``dist``, as a fraction of total."""
    if dist.n_vars != bag_a.n_vars:
        raise ValueError(
            f"distribution over {dist.n_vars} variables, bags over {bag_a.n_vars}"
        )
    mask = _disagreement_mask(bag_a, bag_b, tables)
    return Fraction(dist.weight_of(mask), dist.total)


def reduce_repeated(
    bag: Bag,
    dist: Distribution,
    designated: int,
    steps: int,
    identity_permutations: bool = False,
) -> tuple[Bag, IteratedReductionReport]:
    """Apply :func:`reduce_once` ``steps`` times, reweighting between steps.

    Before each further step, the inputs where the new bag disagrees with the
    previous step's input bag get weight 0; the remaining integer weights are
    kept, so each per-step error is exact under the step's own distribution.
    No reweighting follows the last step. The cumulative error against the
    original bag under the original distribution is at most steps/2^designated.
    Each tree's table and each bag's vote table is built once per call.
    """
    if steps < 1:
        raise ValueError(f"step count must be >= 1, got {steps}")
    current_bag, current_dist = bag, dist
    tables = TableCache(bag.n_vars)
    reports: list[ReductionReport] = []
    for step in range(1, steps + 1):
        n = len(current_bag.trees)
        m = (n + 1) // 2
        if n < 5:
            raise ValueError(
                f"iteration {step}: only {n} trees left, cannot drop two more"
            )
        if designated > m - 2:
            raise ValueError(
                f"iteration {step}: designated count {designated} exceeds limit {m - 2} "
                f"for {n} trees"
            )
        reduced, report = reduce_once(
            current_bag, current_dist, designated, identity_permutations, tables
        )
        reports.append(report)
        if step < steps:
            mask = _disagreement_mask(reduced, current_bag, tables)
            current_dist = current_dist.zero_out(mask)
        current_bag = reduced
    cumulative = measure_error(current_bag, bag, dist, tables)
    bound = Fraction(steps, 2**designated)
    report = IteratedReductionReport(
        steps=tuple(reports),
        trees_before=len(bag.trees),
        trees_after=len(current_bag.trees),
        designated_count=designated,
        total_weight=dist.total,
        measured_error=cumulative,
        error_bound=bound,
        max_size_before=reports[0].max_size_before,
        max_size_after=reports[-1].max_size_after,
    )
    return current_bag, report
