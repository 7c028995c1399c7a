"""Simple binary decision trees, majority-vote bags, and exact Boolean composition.

Trees are immutable. Composition operations (negate, conjoin, disjoin,
prefix_graft) may share subtree storage internally; all size accounting
reports the fully expanded tree-node count, so shared storage is invisible
to callers.

A node's expanded size and largest variable are synthesized attributes: each
``Node`` sets them from its children when it is built, so ``tree_size`` and
``max_var`` are O(1) reads however large the expanded tree is. Truth tables
are folds over the stored node graph; a ``TableCache`` keeps each tree's and
each bag's table for the length of one computation, keyed by identity. A
bag's ``truth_table`` is one fold over the distinct nodes of all its trees,
so a subtree shared between trees is tabled once, and each table is dropped
after its last use.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, ClassVar, Iterable, Iterator, Mapping, Sequence, Union

MAX_TABLE_VARS = 24
SOFT_WARN_VARS = 20
_ENV_CAP = "FORESTSMITH_MAX_L"


@dataclass(frozen=True, slots=True)
class Leaf:
    """Terminal node labeled 0 or 1."""

    label: int
    size: ClassVar[int] = 1
    max_var: ClassVar[int] = 0

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise ValueError(f"leaf label must be 0 or 1, got {self.label!r}")


@dataclass(frozen=True, slots=True)
class Node:
    """Internal node querying variable ``var`` (1-based).

    ``lo`` is followed when the queried variable is 0, ``hi`` when it is 1.
    ``size`` (expanded node count, leaves included) and ``max_var`` (largest
    variable queried) are derived from the children at construction and take
    no part in equality, hashing, repr or pickling.
    """

    var: int
    lo: "Tree"
    hi: "Tree"
    size: int = field(init=False, repr=False, compare=False)
    max_var: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        var, lo, hi = self.var, self.lo, self.hi
        if not isinstance(var, int) or isinstance(var, bool) or var < 1:
            raise ValueError(f"variable index must be a positive integer, got {var!r}")
        object.__setattr__(self, "size", 1 + lo.size + hi.size)
        object.__setattr__(self, "max_var", max(var, lo.max_var, hi.max_var))

    def __reduce__(self):
        # Rebuilt through __init__, so a pickle carries no sizes and is
        # revalidated on load, the same on every Python version.
        return Node, (self.var, self.lo, self.hi)


Tree = Union[Leaf, Node]

LEAF0 = Leaf(0)
LEAF1 = Leaf(1)


def _fold(root: Tree, leaf_fn: Callable, node_fn: Callable):
    """Bottom-up fold over the stored node graph.

    Shared subtrees are visited once (memoized by object identity), so the
    cost is linear in stored nodes even when the expanded tree is huge.
    Iterative to stay independent of the recursion limit.
    """
    memo: dict[int, object] = {}
    stack = [root]
    while stack:
        t = stack[-1]
        if id(t) in memo:
            stack.pop()
            continue
        if isinstance(t, Leaf):
            memo[id(t)] = leaf_fn(t)
            stack.pop()
            continue
        lo, hi = t.lo, t.hi
        ready = True
        if id(lo) not in memo:
            stack.append(lo)
            ready = False
        if id(hi) not in memo:
            stack.append(hi)
            ready = False
        if ready:
            memo[id(t)] = node_fn(t, memo[id(lo)], memo[id(hi)])
            stack.pop()
    return memo[id(root)]


def tree_size(tree: Tree) -> int:
    """Number of nodes in the expanded tree, leaves included."""
    return tree.size


def max_var(tree: Tree) -> int:
    """Largest variable index queried anywhere in the tree (0 for leaves)."""
    return tree.max_var


def leaf_counts(tree: Tree) -> tuple[int, int]:
    """(number of 0-leaves, number of 1-leaves) in the expanded tree."""
    return _fold(
        tree,
        lambda leaf: (0, 1) if leaf.label else (1, 0),
        lambda node, lo, hi: (lo[0] + hi[0], lo[1] + hi[1]),
    )


def eval_tree(tree: Tree, bits: Sequence[int]) -> int:
    """Follow the queried bits from the root and return the reached leaf label."""
    t = tree
    while isinstance(t, Node):
        if t.var > len(bits):
            raise ValueError(
                f"variable index {t.var} out of range for input of length {len(bits)}"
            )
        t = t.hi if bits[t.var - 1] else t.lo
    return t.label


def negate(tree: Tree) -> Tree:
    """Complement the computed function by swapping every leaf label."""
    return _fold(
        tree,
        lambda leaf: LEAF0 if leaf.label else LEAF1,
        lambda node, lo, hi: Node(node.var, lo, hi),
    )


def conjoin(t1: Tree, t2: Tree) -> Tree:
    """AND of two trees: every 1-leaf of ``t1`` is replaced by ``t2``.

    Expanded size is size(t1) - ones(t1) + ones(t1) * size(t2), within the
    size(t1) + ones(t1) * size(t2) bound.
    """

    def node_fn(node: Node, lo: Tree, hi: Tree) -> Tree:
        if lo is node.lo and hi is node.hi:
            return node
        return Node(node.var, lo, hi)

    return _fold(t1, lambda leaf: t2 if leaf.label else leaf, node_fn)


def disjoin(t1: Tree, t2: Tree) -> Tree:
    """OR of two trees: every 0-leaf of ``t1`` is replaced by ``t2``."""

    def node_fn(node: Node, lo: Tree, hi: Tree) -> Tree:
        if lo is node.lo and hi is node.hi:
            return node
        return Node(node.var, lo, hi)

    return _fold(t1, lambda leaf: leaf if leaf.label else t2, node_fn)


def prefix_graft(prefix_len: int, selector: Mapping[tuple[int, ...], Tree]) -> Tree:
    """Branch on x_1..x_{prefix_len} in order, then behave as the selected subtree.

    ``selector`` must map every prefix assignment (a 0/1 tuple of length
    ``prefix_len``) to the tree grafted onto that outcome.
    """
    if prefix_len < 1:
        raise ValueError(f"prefix length must be >= 1, got {prefix_len}")

    def build(prefix: tuple[int, ...]) -> Tree:
        if len(prefix) == prefix_len:
            try:
                return selector[prefix]
            except KeyError:
                raise ValueError(f"selector missing prefix {prefix}") from None
        return Node(len(prefix) + 1, build(prefix + (0,)), build(prefix + (1,)))

    return build(())


@dataclass(frozen=True, slots=True)
class Bag:
    """Odd-cardinality collection of trees deciding by majority vote."""

    trees: tuple[Tree, ...]
    n_vars: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "trees", tuple(self.trees))
        if len(self.trees) % 2 == 0:
            raise ValueError(
                f"bag must have odd cardinality, got {len(self.trees)} trees"
            )
        if not isinstance(self.n_vars, int) or self.n_vars < 1:
            raise ValueError(f"n_vars must be a positive integer, got {self.n_vars!r}")
        for pos, tree in enumerate(self.trees, start=1):
            worst = tree.max_var
            if worst > self.n_vars:
                raise ValueError(
                    f"tree {pos} queries variable {worst}, beyond declared {self.n_vars}"
                )

    def __len__(self) -> int:
        return len(self.trees)

    @property
    def majority_threshold(self) -> int:
        """Votes needed to win: M for a bag of 2M-1 trees."""
        return (len(self.trees) + 1) // 2


def vote_profile(bag: Bag, bits: Sequence[int]) -> tuple[int, ...]:
    """Per-tree outputs for one input, in bag order."""
    return tuple(eval_tree(t, bits) for t in bag.trees)


def bag_eval(bag: Bag, bits: Sequence[int]) -> int:
    """Majority vote of the bag's trees on one input."""
    votes = sum(eval_tree(t, bits) for t in bag.trees)
    return 1 if votes >= bag.majority_threshold else 0


def input_bits(index: int, n_vars: int) -> tuple[int, ...]:
    """Canonical decoding: x_1 is the least-significant bit of ``index``."""
    return tuple((index >> j) & 1 for j in range(n_vars))


def input_index(bits: Sequence[int]) -> int:
    """Canonical encoding, inverse of :func:`input_bits`."""
    return sum((1 << j) for j, b in enumerate(bits) if b)


def max_table_vars() -> int:
    """Active truth-table cap: 24, optionally lowered by FORESTSMITH_MAX_L."""
    cap = MAX_TABLE_VARS
    raw = os.environ.get(_ENV_CAP)
    if raw is not None:
        try:
            override = int(raw)
        except ValueError:
            raise ValueError(f"{_ENV_CAP} must be an integer, got {raw!r}") from None
        if override < 1:
            raise ValueError(f"{_ENV_CAP} must be >= 1, got {override}")
        cap = min(cap, override)
    return cap


def _check_table_width(n_vars: int, warn: bool = True) -> None:
    """Refuse widths over the cap; warn past SOFT_WARN_VARS when ``warn``.

    Callers that enumerate the 2^n_vars inputs warn; helpers that only build
    a table for such a caller pass ``warn=False`` so one check warns once.
    """
    cap = max_table_vars()
    if n_vars > cap:
        raise ValueError(
            f"refusing exhaustive enumeration over {n_vars} variables (cap {cap})"
        )
    if warn and n_vars > SOFT_WARN_VARS:
        warnings.warn(
            f"enumerating 2^{n_vars} inputs; this may be slow", stacklevel=3
        )


@lru_cache(maxsize=None)
def _variable_masks(n_vars: int) -> tuple[int, ...]:
    masks = []
    size = 1 << n_vars
    for v in range(1, n_vars + 1):
        half = 1 << (v - 1)
        block = half << 1
        seg = ((1 << half) - 1) << half
        while block < size:
            seg |= seg << block
            block <<= 1
        masks.append(seg)
    return tuple(masks)


@dataclass(frozen=True, slots=True)
class TruthTable:
    """Bit vector over all 2^n_vars inputs, packed into an int.

    Bit ``i`` is the function value on the input with canonical index ``i``.
    """

    n_vars: int
    bits: int
    # Little-endian bytes of ``bits``, made on the first index lookup: reading
    # bit i as (bits >> i) & 1 copies the int, quadratic over a whole table.
    _bytes: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> (1 << self.n_vars):
            raise ValueError("truth-table bits out of range for declared width")

    def __len__(self) -> int:
        return 1 << self.n_vars

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < (1 << self.n_vars):
            raise IndexError(index)
        if self._bytes is None:
            size = ((1 << self.n_vars) + 7) // 8
            object.__setattr__(self, "_bytes", self.bits.to_bytes(size, "little"))
        return (self._bytes[index >> 3] >> (index & 7)) & 1

    def __call__(self, bits: Sequence[int]) -> int:
        """Value on one input given as bits, so a table can stand in for an oracle."""
        if len(bits) != self.n_vars:
            raise ValueError(f"need {self.n_vars} input bits, got {len(bits)}")
        return self[input_index(bits)]

    def to_tuple(self) -> tuple[int, ...]:
        return tuple(self[i] for i in range(1 << self.n_vars))

    def ones(self) -> int:
        return self.bits.bit_count()

    def _mask(self) -> int:
        return (1 << (1 << self.n_vars)) - 1

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.n_vars, self.bits & other.bits)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.n_vars, self.bits | other.bits)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.n_vars, self.bits ^ other.bits)

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.n_vars, self.bits ^ self._mask())

    def _check(self, other: "TruthTable") -> None:
        if self.n_vars != other.n_vars:
            raise ValueError("truth tables over different variable counts")


def _tree_table_bits(tree: Tree, n_vars: int) -> int:
    masks = _variable_masks(n_vars)
    full = (1 << (1 << n_vars)) - 1

    def node_fn(node: Node, lo: int, hi: int) -> int:
        if node.var > n_vars:
            raise ValueError(
                f"variable index {node.var} out of range for {n_vars} variables"
            )
        # hi where the variable is 1, lo elsewhere. Non-negative operands only:
        # the complement ~mask is a negative big int, several times slower.
        return lo ^ ((lo ^ hi) & masks[node.var - 1])

    return _fold(tree, lambda leaf: full if leaf.label else 0, node_fn)


def _root_table_bits(roots: Sequence[Tree], n_vars: int) -> Iterator[int]:
    """Table bits of each root in order, from one fold over their stored nodes.

    A node shared by several roots is tabled once. Each table is dropped as
    soon as its last parent (or, for a root, its vote) has used it. The
    caller vouches that no root queries a variable beyond ``n_vars``.
    """
    masks = _variable_masks(n_vars)
    full = (1 << (1 << n_vars)) - 1
    # First pass: number the distinct stored nodes in post-order, root by
    # root, and count each slot's uses, one per parent edge and one per root
    # occurrence. A node is numbered only when it is back on top of the stack
    # with both children numbered, so a child first reached through its
    # sibling's subtree still comes first.
    slot_of: dict[int, int] = {}
    values: list[int | None] = []
    uses: list[int] = []
    steps: list[tuple[int, int, int, int]] = []  # (slot, lo slot, hi slot, mask)
    root_slots: list[int] = []
    ends: list[int] = []
    for root in roots:
        stack = [root]
        while stack:
            t = stack[-1]
            if id(t) in slot_of:
                stack.pop()
            elif t.__class__ is Leaf:
                slot_of[id(t)] = len(values)
                values.append(full if t.label else 0)
                uses.append(0)
                stack.pop()
            else:
                lo = slot_of.get(id(t.lo))
                hi = slot_of.get(id(t.hi))
                if lo is None:
                    stack.append(t.lo)
                if hi is None:
                    stack.append(t.hi)
                if lo is not None and hi is not None:
                    stack.pop()
                    slot = slot_of[id(t)] = len(values)
                    values.append(None)
                    uses.append(0)
                    uses[lo] += 1
                    uses[hi] += 1
                    steps.append((slot, lo, hi, masks[t.var - 1]))
        slot = slot_of[id(root)]
        uses[slot] += 1
        root_slots.append(slot)
        ends.append(len(steps))
    # Second pass: table the nodes in that order, handing each root's table
    # to the vote as soon as it is built.
    start = 0
    for root_slot, end in zip(root_slots, ends):
        for slot, lo, hi, mask in steps[start:end]:
            lo_bits, hi_bits = values[lo], values[hi]
            uses[lo] -= 1
            if not uses[lo]:
                values[lo] = None
            uses[hi] -= 1
            if not uses[hi]:
                values[hi] = None
            # hi where the variable is 1, lo elsewhere (see _tree_table_bits).
            values[slot] = lo_bits ^ ((lo_bits ^ hi_bits) & mask)
        start = end
        yield values[root_slot]
        uses[root_slot] -= 1
        if not uses[root_slot]:
            values[root_slot] = None


def _lanes_at_least(planes: list[int], k: int, full: int) -> int:
    """Lanes whose per-lane binary counter (little-endian planes) is >= k."""
    if k <= 0:
        return full
    width = max(len(planes), k.bit_length())
    ge = 0
    eq = full
    for j in reversed(range(width)):
        plane = planes[j] if j < len(planes) else 0
        if (k >> j) & 1:
            eq &= plane
        else:
            ge |= eq & plane
            eq &= ~plane & full
    return ge | eq


def _vote_table_bits(tree_tables: Iterable[int], threshold: int, n_vars: int) -> int:
    """Lanes where at least ``threshold`` of the tree tables are 1.

    The tables are taken one at a time, so a generator keeps one alive.
    """
    planes: list[int] = []
    for carry in tree_tables:
        j = 0
        while carry:
            if j == len(planes):
                planes.append(carry)
                break
            planes[j], carry = planes[j] ^ carry, planes[j] & carry
            j += 1
    full = (1 << (1 << n_vars)) - 1
    return _lanes_at_least(planes, threshold, full)


class TableCache:
    """Truth-table bits at one width: each tree's, and each bag's vote, built once.

    Entries are keyed by object identity, and each holds a reference to its
    tree or bag, so no key can be taken over by a new object while the cache
    lives. A cache lasts for one computation (one ``reduce_repeated`` call);
    nothing is kept between calls. Callers check the width.
    """

    __slots__ = ("n_vars", "_tables")

    def __init__(self, n_vars: int) -> None:
        self.n_vars = n_vars
        self._tables: dict[int, tuple[Union[Tree, Bag], int]] = {}

    def bits(self, subject: Union[Tree, Bag]) -> int:
        """Table bits of a tree, or of a bag's majority vote."""
        hit = self._tables.get(id(subject))
        if hit is None:
            if isinstance(subject, Bag):
                tree_tables = map(self.bits, subject.trees)
                value = _vote_table_bits(tree_tables, subject.majority_threshold, self.n_vars)
            else:
                value = _tree_table_bits(subject, self.n_vars)
            hit = self._tables[id(subject)] = (subject, value)
        return hit[1]


def truth_table(subject: Union[Tree, Bag], n_vars: int | None = None) -> TruthTable:
    """Exhaustive function table of a tree, or of a bag's majority vote."""
    if isinstance(subject, Bag):
        if n_vars is None:
            n_vars = subject.n_vars
        elif n_vars < subject.n_vars:
            raise ValueError(
                f"bag declares {subject.n_vars} variables, table width {n_vars} too small"
            )
        _check_table_width(n_vars)
        root_tables = _root_table_bits(subject.trees, n_vars)
        bits = _vote_table_bits(root_tables, subject.majority_threshold, n_vars)
        return TruthTable(n_vars, bits)
    if n_vars is None:
        raise ValueError("n_vars is required for a bare tree")
    _check_table_width(n_vars)
    return TruthTable(n_vars, _tree_table_bits(subject, n_vars))
