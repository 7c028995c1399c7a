"""Canonical JSON documents for bags, distributions, and reports; seeded corpora.

Serialization is byte-stable: keys are sorted, separators fixed, and every
persisted value is an integer or a "p/q" rational string, so golden files
compare exactly across runs and platforms. Documents spell trees out in
full, one object per expanded node; a bag read back holds one node per
distinct subtree, across all its trees.
"""

from __future__ import annotations

import json
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Any

from .lossy import (
    Distribution,
    IteratedReductionReport,
    ReductionReport,
    _bad_weight_index,
)
from .trees import LEAF0, LEAF1, Bag, Leaf, Node, Tree, tree_size

BAG_SUFFIX = ".bag.json"
DIST_SUFFIX = ".dist.json"
REPORT_SUFFIX = ".report.json"

# Documents spell trees out in full, so a tree whose expanded form is huge
# (iterated compositions can reach astronomical node counts) must be refused
# rather than exhausting memory.
SERIALIZE_NODE_LIMIT = 1_000_000

# Sizes longer than this many bits are spelled in hex with a 0x prefix, in the
# sweep CSV and in the refusal above. CPython refuses to write an int of more
# than 4 300 decimal digits (about 14 284 bits) by default, and that limit is
# process-global state, so the spelling is chosen by bit length alone;
# smaller sizes stay decimal.
HEX_SIZE_BITS = 13_000


class SchemaError(ValueError):
    """Document failed validation; the message names the offending path."""


@contextmanager
def _deep_documents():
    # Composed trees nest a few thousand levels; json and the doc walk are
    # recursive, so give them room.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 50_000))
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def _require_int(value: Any, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{path}: expected an integer, got {value!r}")
    return value


def _size_str(size: int) -> int | str:
    """A node count as written: the int itself, or 0x hex past HEX_SIZE_BITS."""
    return f"0x{size:x}" if size.bit_length() > HEX_SIZE_BITS else size


def tree_to_doc(tree: Tree) -> dict:
    expanded = tree_size(tree)
    if expanded > SERIALIZE_NODE_LIMIT:
        raise ValueError(
            f"tree expands to {_size_str(expanded)} nodes; refusing to serialize beyond "
            f"{SERIALIZE_NODE_LIMIT}"
        )
    memo: dict[int, dict] = {}

    def build(t: Tree) -> dict:
        key = id(t)
        if key not in memo:
            if isinstance(t, Leaf):
                memo[key] = {"leaf": t.label}
            else:
                memo[key] = {"var": t.var, "lo": build(t.lo), "hi": build(t.hi)}
        return memo[key]

    with _deep_documents():
        return build(tree)


def doc_to_tree(doc: Any, n_vars: int, path: str = "tree") -> Tree:
    return _read_tree(doc, n_vars, path, {})


def _read_tree(doc: Any, n_vars: int, path: str, unique: dict) -> Tree:
    """Validate and build one tree through ``unique``, the document's node table.

    ``unique`` maps ``(var, id(lo), id(hi))`` to the node already built with
    that label and those children; it holds every node, so no id is reused
    while it lives. Leaves are ``LEAF0``/``LEAF1``, so equal subtrees are one
    object however often the document spells them out (Bryant's unique table).
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object, got {type(doc).__name__}")
    keys = set(doc)
    if keys == {"leaf"}:
        label = _require_int(doc["leaf"], f"{path}.leaf")
        if label not in (0, 1):
            raise SchemaError(f"{path}.leaf: expected 0 or 1, got {label}")
        return LEAF1 if label else LEAF0
    if keys == {"var", "lo", "hi"}:
        var = _require_int(doc["var"], f"{path}.var")
        if not 1 <= var <= n_vars:
            raise SchemaError(f"{path}.var: index {var} out of range [1, {n_vars}]")
        lo = _read_tree(doc["lo"], n_vars, f"{path}.lo", unique)
        hi = _read_tree(doc["hi"], n_vars, f"{path}.hi", unique)
        key = (var, id(lo), id(hi))
        node = unique.get(key)
        if node is None:
            node = unique[key] = Node(var, lo, hi)
        return node
    raise SchemaError(
        f"{path}: expected keys {{'leaf'}} or {{'var', 'lo', 'hi'}}, got {sorted(keys)}"
    )


def bag_to_doc(bag: Bag) -> dict:
    with _deep_documents():
        return {"n_vars": bag.n_vars, "trees": [tree_to_doc(t) for t in bag.trees]}


def doc_to_bag(doc: Any) -> Bag:
    if not isinstance(doc, dict):
        raise SchemaError(f"bag: expected an object, got {type(doc).__name__}")
    if set(doc) != {"n_vars", "trees"}:
        raise SchemaError(
            f"bag: expected keys {{'n_vars', 'trees'}}, got {sorted(set(doc))}"
        )
    n_vars = _require_int(doc["n_vars"], "bag.n_vars")
    if n_vars < 1:
        raise SchemaError(f"bag.n_vars: must be >= 1, got {n_vars}")
    trees_doc = doc["trees"]
    if not isinstance(trees_doc, list):
        raise SchemaError("bag.trees: expected a list")
    if len(trees_doc) % 2 == 0:
        raise SchemaError(
            f"bag.trees: odd cardinality required, got {len(trees_doc)} trees"
        )
    unique: dict = {}
    with _deep_documents():
        trees = [
            _read_tree(td, n_vars, f"bag.trees[{i}]", unique)
            for i, td in enumerate(trees_doc)
        ]
    return Bag(tuple(trees), n_vars)


def _dumps(doc: Any) -> str:
    with _deep_documents():
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _loads(text: str, what: str) -> Any:
    try:
        with _deep_documents():
            return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what}: not valid JSON ({exc})") from None


def serialize_bag(bag: Bag) -> str:
    return _dumps(bag_to_doc(bag))


def deserialize_bag(text: str) -> Bag:
    return doc_to_bag(_loads(text, "bag"))


def dist_to_doc(dist: Distribution) -> dict:
    if dist.weights is None:
        return {"type": "uniform", "l": dist.n_vars}
    return {"type": "table", "l": dist.n_vars, "weights": list(dist.weights)}


def doc_to_dist(doc: Any) -> Distribution:
    if not isinstance(doc, dict):
        raise SchemaError(f"distribution: expected an object, got {type(doc).__name__}")
    kind = doc.get("type")
    if kind == "uniform":
        if set(doc) != {"type", "l"}:
            raise SchemaError(
                f"distribution: expected keys {{'type', 'l'}}, got {sorted(set(doc))}"
            )
        n_vars = _require_int(doc["l"], "distribution.l")
        if n_vars < 1:
            raise SchemaError(f"distribution.l: must be >= 1, got {n_vars}")
        return Distribution.uniform(n_vars)
    if kind == "table":
        if set(doc) != {"type", "l", "weights"}:
            raise SchemaError(
                "distribution: expected keys {'type', 'l', 'weights'}, "
                f"got {sorted(set(doc))}"
            )
        n_vars = _require_int(doc["l"], "distribution.l")
        if n_vars < 1:
            raise SchemaError(f"distribution.l: must be >= 1, got {n_vars}")
        weights_doc = doc["weights"]
        if not isinstance(weights_doc, list):
            raise SchemaError("distribution.weights: expected a list")
        if len(weights_doc) != 1 << n_vars:
            raise SchemaError(
                f"distribution.weights: expected {1 << n_vars} entries, "
                f"got {len(weights_doc)}"
            )
        try:
            return Distribution.from_weights(n_vars, weights_doc)
        except ValueError:
            # The count and width are checked above, so the weights are bad;
            # name the first offender as the document path sees it.
            bad = _bad_weight_index(weights_doc)
        if bad is None:
            raise SchemaError("distribution.weights: total must be positive")
        w = _require_int(weights_doc[bad], f"distribution.weights[{bad}]")
        raise SchemaError(f"distribution.weights[{bad}]: must be >= 0, got {w}")
    raise SchemaError(
        f"distribution.type: expected 'uniform' or 'table', got {kind!r}"
    )


def serialize_distribution(dist: Distribution) -> str:
    return _dumps(dist_to_doc(dist))


def deserialize_distribution(text: str) -> Distribution:
    return doc_to_dist(_loads(text, "distribution"))


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def step_report_to_doc(report: ReductionReport) -> dict:
    return {
        "trees_before": report.trees_before,
        "trees_after": report.trees_after,
        "designated_count": report.designated_count,
        "designated_ones": list(report.designated_ones),
        "designated_zeros": list(report.designated_zeros),
        "case_weight_ones": report.case_weight_ones,
        "case_weight_zeros": report.case_weight_zeros,
        "stratum_weight_ones": report.stratum_weight_ones,
        "stratum_weight_zeros": report.stratum_weight_zeros,
        "selected_weight_ones": report.selected_weight_ones,
        "selected_weight_zeros": report.selected_weight_zeros,
        "total_weight": report.total_weight,
        "measured_error": _fraction_str(report.measured_error),
        "error_bound": _fraction_str(report.error_bound),
        "refined_bound": _fraction_str(report.refined_bound),
        "max_size_before": report.max_size_before,
        "max_size_after": report.max_size_after,
        "size_bound_exponent": report.size_bound_exponent,
        "size_bound_ratio": _fraction_str(report.size_bound_ratio),
    }


def report_to_doc(report: IteratedReductionReport) -> dict:
    return {
        "steps": [step_report_to_doc(step) for step in report.steps],
        "trees_before": report.trees_before,
        "trees_after": report.trees_after,
        "designated_count": report.designated_count,
        "total_weight": report.total_weight,
        "measured_error": _fraction_str(report.measured_error),
        "error_bound": _fraction_str(report.error_bound),
        "max_size_before": report.max_size_before,
        "max_size_after": report.max_size_after,
    }


def serialize_report(report: IteratedReductionReport) -> str:
    return _dumps(report_to_doc(report))


def _random_tree(rng: random.Random, n_vars: int, max_depth: int) -> Tree:
    def grow(depth: int, available: tuple[int, ...]) -> Tree:
        if depth >= max_depth or not available or rng.random() < 0.25:
            return Leaf(rng.randrange(2))
        var = available[rng.randrange(len(available))]
        remaining = tuple(v for v in available if v != var)
        return Node(var, grow(depth + 1, remaining), grow(depth + 1, remaining))

    return grow(0, tuple(range(1, n_vars + 1)))


def random_bag(seed: int, n_trees: int, n_vars: int, max_depth: int) -> Bag:
    """Deterministic bag of random trees, each read-once along every path."""
    if n_trees % 2 == 0 or n_trees < 1:
        raise ValueError(f"n_trees must be odd and >= 1, got {n_trees}")
    if n_vars < 1:
        raise ValueError(f"n_vars must be >= 1, got {n_vars}")
    if not 0 <= max_depth <= n_vars:
        raise ValueError(
            f"max_depth must be in 0..{n_vars} for read-once paths, got {max_depth}"
        )
    rng = random.Random(seed)
    return Bag(
        tuple(_random_tree(rng, n_vars, max_depth) for _ in range(n_trees)), n_vars
    )


def random_distribution(seed: int, n_vars: int, max_weight: int) -> Distribution:
    """Deterministic integer-weight distribution; never all-zero."""
    if n_vars < 1:
        raise ValueError(f"n_vars must be >= 1, got {n_vars}")
    if max_weight < 1:
        raise ValueError(f"max_weight must be >= 1, got {max_weight}")
    rng = random.Random(seed)
    while True:
        weights = [rng.randint(0, max_weight) for _ in range(1 << n_vars)]
        if any(weights):
            return Distribution.from_weights(n_vars, weights)
