"""Independent oracles and exhaustive equivalence checking.

The oracles here decide by counting bits directly and never touch the tree
machinery, so they stay independent of the constructions they are used to
check. ``threshold_oracle`` and ``majority_oracle`` answer one input at a
time; ``threshold_table`` tabulates the same threshold function over all
2^n inputs at once by splitting on the top variable, a linear pass of
shifts and ORs. It builds no trees and shares no code with the bit-sliced
vote counter (``_lanes_at_least``/``_vote_table_bits``) that computes a
bag's table, so a bug in that counter cannot cancel out of the comparison.
``exhaustive_equiv`` compares two whole tables: the least set bit of their
XOR is the first counterexample in canonical order.

The formula evaluators re-derive the composed constructions by plain
Boolean logic over per-tree outputs, giving a second route around
conjoin/disjoin/prefix_graft.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence, Union

from .trees import Bag, Tree, TruthTable, _check_table_width, input_bits, truth_table


def threshold_oracle(k: int, bits: Sequence[int]) -> int:
    """1 iff at least ``k`` of the bits are 1 (k <= 0 always 1, k > len always 0)."""
    return 1 if sum(bits) >= k else 0


def majority_oracle(bits: Sequence[int]) -> int:
    """1 iff more than half of an odd number of bits are 1."""
    if len(bits) % 2 == 0:
        raise ValueError(f"majority needs an odd number of bits, got {len(bits)}")
    return 1 if sum(bits) >= (len(bits) + 1) // 2 else 0


def threshold_table(k: int, n_vars: int) -> TruthTable:
    """Table of "at least ``k`` of ``n_vars`` bits are 1" over every input.

    Same edge rules as :func:`threshold_oracle`: k <= 0 gives all ones and
    k > n_vars all zeros. Built variable by variable from
    T(j, v+1) = T(j, v) | T(j-1, v) << 2^v, where T(j, v) is the table of
    "at least j ones among x_1..x_v" over the first 2^v inputs.
    """
    if n_vars < 0:
        raise ValueError(f"variable count must be >= 0, got {n_vars}")
    _check_table_width(n_vars, warn=False)
    size = 1 << n_vars
    if k <= 0:
        return TruthTable(n_vars, (1 << size) - 1)
    if k > n_vars:
        return TruthTable(n_vars, 0)
    rows = [1] + [0] * k  # rows[j] = T(j, 0): only j <= 0 holds on zero variables
    for v in range(n_vars):
        half = 1 << v
        for j in range(k, 0, -1):
            rows[j] |= rows[j - 1] << half
        rows[0] = (1 << (half << 1)) - 1
    return TruthTable(n_vars, rows[k])


def _tabulate(oracle: Callable[[tuple[int, ...]], int], n_vars: int) -> TruthTable:
    """Table of a per-input oracle, asked once per input in canonical order."""
    digits = bytearray(b"0") * (1 << n_vars)
    # product() varies its last position fastest; reversed, that is x_1.
    for index, reversed_bits in enumerate(product((0, 1), repeat=n_vars)):
        if oracle(reversed_bits[::-1]):
            digits[index] = ord("1")
    digits.reverse()
    return TruthTable(n_vars, int(digits, 2))


def _check_same_width(table: TruthTable, n_vars: int) -> None:
    if table.n_vars != n_vars:
        raise ValueError(f"table over {table.n_vars} variables, expected {n_vars}")


@dataclass(frozen=True, slots=True)
class Counterexample:
    """First input (in canonical index order) where subject and oracle disagree."""

    input: tuple[int, ...]
    expected: int
    actual: int

    def __post_init__(self) -> None:
        if self.expected == self.actual:
            raise ValueError("counterexample requires expected != actual")


def exhaustive_equiv(
    subject: Union[Tree, Bag, TruthTable],
    oracle: Union[TruthTable, Callable[[tuple[int, ...]], int]],
    n_vars: int,
) -> Counterexample | None:
    """Compare ``subject`` against ``oracle`` on every input.

    ``subject`` is a tree, a bag, or its already computed table; ``oracle``
    is a table or a per-input callable (any truthy result counts as 1),
    which is tabulated first. Returns None when they agree everywhere,
    otherwise the counterexample with the smallest canonical input index.
    """
    actual = subject if isinstance(subject, TruthTable) else truth_table(subject, n_vars)
    _check_same_width(actual, n_vars)
    expected = oracle if isinstance(oracle, TruthTable) else _tabulate(oracle, n_vars)
    _check_same_width(expected, n_vars)
    diff = actual.bits ^ expected.bits
    if not diff:
        return None
    index = (diff & -diff).bit_length() - 1
    return Counterexample(
        input_bits(index, n_vars), (expected.bits >> index) & 1, (actual.bits >> index) & 1
    )


def choose_tree_formula(
    n: int, k: int, position: int, bits: Sequence[int], var_offset: int = 0
) -> int:
    """Value of tree ``position`` of the k-out-of-n bag, by direct counting.

    Mirrors the three-case construction without building any tree: constant
    rows, single-variable row, leftmost-zeros row, and ones-after row.
    """
    window = bits[var_offset : var_offset + n]
    if len(window) != n:
        raise ValueError("input too short for the requested window")
    if not 1 <= position <= n:
        raise ValueError(f"position {position} outside 1..{n}")
    m = (n + 1) // 2
    if not 1 <= k <= n:
        raise ValueError(f"threshold {k} outside 1..{n}")
    if k == m:
        return window[position - 1]
    if k < m:
        limit = m - k
        if position <= limit or window[position - 1]:
            return 1
        zeros_before = (position - 1) - sum(window[: position - 1])
        return 1 if zeros_before <= limit - 1 else 0
    run = k - m
    if position > n - run or not window[position - 1]:
        return 0
    return 1 if sum(window[position:]) >= run else 0


def choose_vote_formula(n: int, k: int, bits: Sequence[int], var_offset: int = 0) -> int:
    """Majority vote over the formula-evaluated k-out-of-n trees."""
    fired = sum(
        choose_tree_formula(n, k, position, bits, var_offset)
        for position in range(1, n + 1)
    )
    return 1 if fired >= (n + 1) // 2 else 0


def reduced_majority_profile_formula(
    n: int, c: int, bits: Sequence[int]
) -> tuple[int, ...]:
    """Per-tree outputs of the (n, c) reduced majority bag, by direct counting."""
    m = (n + 1) // 2
    inner_n = n - 2 * c
    zeros_in_prefix = 2 * c - sum(bits[: 2 * c])
    k = m - 2 * c + zeros_in_prefix
    if k < 1:
        return (1,) * inner_n
    if k > inner_n:
        return (0,) * inner_n
    return tuple(
        choose_tree_formula(inner_n, k, position, bits, var_offset=2 * c)
        for position in range(1, inner_n + 1)
    )


def reduced_majority_vote_formula(n: int, c: int, bits: Sequence[int]) -> int:
    profile = reduced_majority_profile_formula(n, c, bits)
    return 1 if sum(profile) >= (len(profile) + 1) // 2 else 0


def reduced_profile_formula(
    votes: Sequence[int],
    designated: int,
    order_ones: Sequence[int] | None = None,
    order_zeros: Sequence[int] | None = None,
) -> tuple[int, ...]:
    """Outputs of the lossily reduced bag, from the original vote profile.

    ``votes`` is the original per-tree profile. ``order_ones`` and
    ``order_zeros`` list original positions (1-based) in slot order for the
    reordered tail used by the both-ones and both-zeros branches; identity
    order is used when omitted. Pure Boolean logic, no tree composition.
    """
    n = len(votes)
    if n % 2 == 0 or n < 5:
        raise ValueError(f"need an odd profile of length >= 5, got {n}")
    k = designated
    slots = tuple(range(3, n + 1))
    ones_order = tuple(order_ones) if order_ones is not None else slots
    zeros_order = tuple(order_zeros) if order_zeros is not None else slots
    if sorted(ones_order) != list(slots) or sorted(zeros_order) != list(slots):
        raise ValueError("orders must permute positions 3..n")
    first, second = votes[0], votes[1]
    out = []
    if first and second:
        u = [votes[p - 1] for p in ones_order]
        for i in range(1, n - 1):
            if i <= k:
                prior_all_one = all(u[: i - 1])
                value = u[i - 1] or (prior_all_one and not u[i - 1])
            else:
                value = u[i - 1]
            out.append(1 if value else 0)
    elif first != second:
        out = [1 if votes[i + 1] else 0 for i in range(1, n - 1)]
    else:
        v = [votes[p - 1] for p in zeros_order]
        for i in range(1, n - 1):
            if i <= k:
                value = v[i - 1] and any(v[i:k])
            else:
                value = v[i - 1]
            out.append(1 if value else 0)
    return tuple(out)


def reduced_vote_formula(
    votes: Sequence[int],
    designated: int,
    order_ones: Sequence[int] | None = None,
    order_zeros: Sequence[int] | None = None,
) -> int:
    profile = reduced_profile_formula(votes, designated, order_ones, order_zeros)
    return 1 if sum(profile) >= (len(profile) + 1) // 2 else 0
