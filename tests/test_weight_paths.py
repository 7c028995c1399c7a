"""Differential checks of the mask-cell weight path and the bit-plane
distribution against per-input counts, and the exit-2 contract for broken
invariants and over-deep documents."""

import json
import pickle
import random
from fractions import Fraction

import pytest

from forestsmith.cli import main
from forestsmith.io_formats import (
    SchemaError,
    deserialize_distribution,
    random_bag,
    serialize_bag,
    serialize_distribution,
)
from forestsmith.lossy import (
    Distribution,
    InvariantError,
    SubsetSelection,
    disagreement_indices,
    measure_error,
    reduce_once,
    select_designated_subset,
    weight_profile,
)
from forestsmith.trees import bag_eval, input_bits, vote_profile


def _distributions(seed, l):
    rng = random.Random(seed)
    size = 1 << l
    zero_heavy = [rng.randint(1, 9) if rng.random() < 0.05 else 0 for _ in range(size)]
    zero_heavy[rng.randrange(size)] = rng.randint(1, 9)
    single = [0] * size
    single[rng.randrange(size)] = rng.randint(1, 1000)
    return [
        ("uniform", Distribution.uniform(l)),
        ("random", Distribution.from_weights(l, [rng.randint(0, 20) for _ in range(size)])),
        ("zero-heavy", Distribution.from_weights(l, zero_heavy)),
        ("single-point", Distribution.from_weights(l, single)),
    ]


SHAPES = [(5, 3), (5, 6), (7, 5), (7, 8), (9, 7), (9, 9), (11, 6), (11, 9)]
CASES = [
    (seed, n_trees, l, name, dist)
    for seed, (n_trees, l) in enumerate((SHAPES * 4)[:30])
    for name, dist in _distributions(1000 + seed, l)
]


def _per_input_profile(bag, dist):
    counts = {}
    for index in range(1 << bag.n_vars):
        w = dist.weight(index)
        if w:
            b = vote_profile(bag, input_bits(index, bag.n_vars))
            counts[b] = counts.get(b, 0) + w
    return counts


@pytest.mark.parametrize(
    "seed,n_trees,l,name,dist",
    CASES,
    ids=[f"seed{c[0]}-t{c[1]}-l{c[2]}-{c[3]}" for c in CASES],
)
def test_weight_profile_matches_per_input_count(seed, n_trees, l, name, dist):
    bag = random_bag(seed, n_trees, l, 3)
    profile = weight_profile(bag, dist)
    assert profile.weights == _per_input_profile(bag, dist)
    assert profile.total == dist.total


def _hand_scored(bag, dist, forced, pattern_bit):
    """Stratum and forced-subset weights of one branch, input by input."""
    n = len(bag.trees)
    stratum = (n + 1) // 2 - 2
    pool = range(3, n + 1)
    stratum_weight = forced_weight = 0
    for index in range(1 << bag.n_vars):
        b = vote_profile(bag, input_bits(index, bag.n_vars))
        if (b[0], b[1]) != (pattern_bit, pattern_bit):
            continue
        if sum(1 for p in pool if b[p - 1] == pattern_bit) != stratum:
            continue
        stratum_weight += dist.weight(index)
        if all(b[p - 1] == pattern_bit for p in forced):
            forced_weight += dist.weight(index)
    return stratum_weight, forced_weight


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("designated", [1, 2, 3])
def test_identity_selection_matches_hand_scored_subset(seed, designated):
    bag = random_bag(200 + seed, 9, 7, 3)
    forced = tuple(range(3, 3 + designated))
    for _, dist in _distributions(300 + seed, 7):
        ones, zeros = _hand_scored(bag, dist, forced, 1), _hand_scored(bag, dist, forced, 0)
        if Fraction(ones[1] + zeros[1], dist.total) > Fraction(1, 2**designated):
            # Forced subsets carry no 1/2^K guarantee; the report refuses them.
            with pytest.raises(ValueError, match="exceeds its bound"):
                reduce_once(bag, dist, designated, identity_permutations=True)
            continue
        _, report = reduce_once(bag, dist, designated, identity_permutations=True)
        assert report.designated_ones == report.designated_zeros == forced
        assert (report.stratum_weight_ones, report.selected_weight_ones) == ones
        assert (report.stratum_weight_zeros, report.selected_weight_zeros) == zeros


@pytest.mark.parametrize("seed", range(12))
def test_measure_error_matches_per_index_sum(seed):
    l = 4 + seed % 6
    bag_a, bag_b = random_bag(seed, 7, l, 3), random_bag(seed + 50, 7, l, 3)
    indices = disagreement_indices(bag_a, bag_b)
    per_input = [
        i for i in range(1 << l)
        if bag_eval(bag_a, input_bits(i, l)) != bag_eval(bag_b, input_bits(i, l))
    ]
    assert indices == per_input
    for _, dist in _distributions(seed, l):
        expected = Fraction(sum(dist.weight(i) for i in indices), dist.total)
        assert measure_error(bag_a, bag_b, dist) == expected


def test_disagreement_indices_of_equal_bags_is_empty():
    bag = random_bag(3, 5, 4, 3)
    assert disagreement_indices(bag, bag) == []


@pytest.fixture
def off_by_one_error(monkeypatch):
    from forestsmith import lossy

    original = lossy.measure_error

    def skewed(bag_a, bag_b, dist, *tables):
        return original(bag_a, bag_b, dist, *tables) + Fraction(1, dist.total)

    monkeypatch.setattr(lossy, "measure_error", skewed)


def test_reduce_once_raises_on_measured_mismatch(off_by_one_error):
    bag = random_bag(5, 9, 6, 3)
    with pytest.raises(InvariantError, match="differs from selected strata weight"):
        reduce_once(bag, Distribution.uniform(6), 2)


def test_cli_reports_invariant_error_as_exit_2(off_by_one_error, tmp_path, capsys):
    bag_path = tmp_path / "b.bag.json"
    dist_path = tmp_path / "u.dist.json"
    bag_path.write_text(serialize_bag(random_bag(5, 9, 6, 3)))
    dist_path.write_text(serialize_distribution(Distribution.uniform(6)))
    out, report = tmp_path / "o.bag.json", tmp_path / "r.json"
    code = main([
        "reduce", "--bag", str(bag_path), "--dist", str(dist_path),
        "--K", "2", "--c", "1", "--out", str(out), "--report", str(report),
    ])  # fmt: skip
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: measured error ")
    assert "Traceback" not in captured.err
    assert not out.exists() and not report.exists()


def test_weight_profile_raises_when_cells_miss_weight(monkeypatch):
    monkeypatch.setattr(Distribution, "weight_of", lambda self, mask: 0)
    with pytest.raises(InvariantError, match="distribution total is 16"):
        weight_profile(random_bag(1, 5, 4, 3), Distribution.uniform(4))


def test_selection_raises_when_bound_fails(monkeypatch):
    monkeypatch.setattr(SubsetSelection, "satisfies_bound", lambda self: False)
    profile = weight_profile(random_bag(1, 5, 4, 3), Distribution.uniform(4))
    with pytest.raises(InvariantError, match="exceeds averaging bound"):
        select_designated_subset(profile, (3, 4, 5), 1, 1, 1, (1, 1))


def test_deep_document_exits_2(tmp_path, capsys):
    depth = 100_000
    text = (
        '{"n_vars":1,"trees":['
        + '{"var":1,"lo":' * depth
        + '{"leaf":0}'
        + ',"hi":{"leaf":0}}' * depth
        + "]}"
    )
    bag_path = tmp_path / "deep.bag.json"
    bag_path.write_text(text)
    code = main(["verify", "--bag", str(bag_path), "--oracle", "maj"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def _weight_lists(seed, l):
    """Per-input weight lists that exercise one-byte, two-byte and wide planes."""
    rng = random.Random(seed)
    size = 1 << l
    single = [0] * size
    single[rng.randrange(size)] = rng.randint(1, 1 << 20)
    lists = {
        "zero-one": [rng.randint(0, 1) for _ in range(size)],
        "up-to-20": [rng.randint(0, 20) for _ in range(size)],
        "past-a-byte": [rng.randint(0, 300) for _ in range(size)],
        "past-64-bits": [rng.randint(0, 1 << 70) for _ in range(size)],
        "single-point": single,
    }
    lists["zero-one"][-1] = 1
    lists["past-a-byte"][0] = 256 + rng.randrange(45)
    lists["past-64-bits"][-1] = (1 << 64) + rng.randrange(1 << 6)
    return lists


PLANE_CASES = [
    (l, name, weights)
    for l in (1, 3, 6, 9)
    for name, weights in _weight_lists(l, l).items()
] + [(l, "uniform", None) for l in (1, 3, 6, 9)]
PLANE_IDS = [f"l{l}-{name}" for l, name, _ in PLANE_CASES]


def _masked_sum(weights, mask):
    return sum(w for i, w in enumerate(weights) if (mask >> i) & 1)


def _dist_and_vector(l, weights):
    if weights is None:
        return Distribution.uniform(l), (1,) * (1 << l)
    return Distribution.from_weights(l, weights), tuple(weights)


@pytest.mark.parametrize("l,name,weights", PLANE_CASES, ids=PLANE_IDS)
def test_plane_weight_of_matches_per_index_sum(l, name, weights):
    dist, vector = _dist_and_vector(l, weights)
    rng = random.Random(l)
    masks = [0, (1 << (1 << l)) - 1] + [rng.getrandbits(1 << l) for _ in range(20)]
    for mask in masks:
        assert dist.weight_of(mask) == _masked_sum(vector, mask)


@pytest.mark.parametrize("l,name,weights", PLANE_CASES, ids=PLANE_IDS)
def test_zero_out_matches_per_index_zeroing(l, name, weights):
    dist, vector = _dist_and_vector(l, weights)
    rng = random.Random(100 + l)
    for _ in range(10):
        mask = rng.getrandbits(1 << l)
        expected = [0 if (mask >> i) & 1 else w for i, w in enumerate(vector)]
        if not any(expected):
            with pytest.raises(ValueError, match="positive"):
                dist.zero_out(mask)
            continue
        zeroed = dist.zero_out(mask)
        assert zeroed.weights_vector() == zeroed.weights == tuple(expected)
        assert zeroed.total == sum(expected)
        assert zeroed == Distribution.from_weights(l, expected)
        assert all(zeroed.weight(i) == w for i, w in enumerate(expected))
        other = rng.getrandbits(1 << l)
        assert zeroed.weight_of(other) == _masked_sum(expected, other)
        # The mask leaves the original untouched.
        assert dist.weights_vector() == vector


@pytest.mark.parametrize("l,name,weights", PLANE_CASES, ids=PLANE_IDS)
def test_total_and_vector_round_trip(l, name, weights):
    dist, vector = _dist_and_vector(l, weights)
    assert dist.weights_vector() == vector
    assert dist.total == sum(vector)
    assert Distribution.from_weights(l, dist.weights_vector()).weights_vector() == vector
    text = serialize_distribution(dist)
    assert deserialize_distribution(text) == dist
    assert serialize_distribution(deserialize_distribution(text)) == text
    assert pickle.loads(pickle.dumps(dist)) == dist
    # Zeroing nothing keeps every weight, but the result is a table.
    table = dist.zero_out(0)
    assert table.weights == vector
    assert serialize_distribution(table) == serialize_distribution(
        Distribution.from_weights(l, vector)
    )
    assert (table == dist) == (weights is not None)


def test_uniform_and_all_ones_table_stay_apart():
    uniform, table = Distribution.uniform(3), Distribution.from_weights(3, (1,) * 8)
    assert uniform != table
    assert serialize_distribution(table) == (
        '{"l":3,"type":"table","weights":[1,1,1,1,1,1,1,1]}\n'
    )
    with pytest.raises(AttributeError):
        table.total = 9


def test_uniform_full_plane_is_made_once():
    uniform = Distribution.uniform(5)
    (full,) = uniform._masks
    assert full == (1 << 32) - 1 and uniform._planes is None
    assert uniform.weight_of(full) == 32
    assert uniform.zero_out(0b101).weight_of(full) == 30
    assert uniform._masks[0] is full
    assert hash(uniform) != hash(Distribution.from_weights(5, (1,) * 32))


@pytest.mark.parametrize("bad", [True, 1.0, -3, "2"], ids=["bool", "float", "negative", "str"])
def test_bad_last_weight_keeps_its_message(bad):
    weights = [1] * 15 + [bad]
    with pytest.raises(ValueError) as excinfo:
        Distribution.from_weights(4, weights)
    assert str(excinfo.value) == f"weights[15] must be a non-negative integer, got {bad!r}"
    text = serialize_distribution(Distribution.from_weights(4, [1] * 16))
    text = text.replace("1]", f"{json.dumps(bad)}]")
    with pytest.raises(SchemaError) as excinfo:
        deserialize_distribution(text)
    if bad == -3:
        assert str(excinfo.value) == "distribution.weights[15]: must be >= 0, got -3"
    else:
        assert str(excinfo.value) == (
            f"distribution.weights[15]: expected an integer, got {bad!r}"
        )
