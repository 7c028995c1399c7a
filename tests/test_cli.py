import csv
import json
import sys
import warnings
from fractions import Fraction

import pytest

from forestsmith import cli, trees
from forestsmith.cli import CSV_COLUMNS, HEX_SIZE_BITS, _row, main
from forestsmith.io_formats import (
    deserialize_bag,
    serialize_bag,
    serialize_distribution,
)
from forestsmith.kofn import ChooseSpec, build_choose_bag
from forestsmith.lossy import Distribution
from forestsmith.trees import LEAF0, Bag, Node, vote_profile
from forestsmith.verify import exhaustive_equiv, threshold_oracle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuildKofn:
    def test_build_and_verify(self, tmp_path, capsys):
        out = tmp_path / "bag.bag.json"
        code, stdout, _ = run(
            capsys, "build-kofn", "--n", "9", "--k", "7", "--out", str(out)
        )
        assert code == 0
        assert "size bound: n^(|m-k|+1) = 9^3 = 729" in stdout
        bag = deserialize_bag(out.read_text())
        assert exhaustive_equiv(bag, lambda b: threshold_oracle(7, b), 9) is None

    def test_central_threshold_writes_single_variable_trees(self, tmp_path, capsys):
        out = tmp_path / "m.bag.json"
        code, _, _ = run(capsys, "build-kofn", "--n", "5", "--k", "3", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert [t["var"] for t in doc["trees"]] == [1, 2, 3, 4, 5]

    def test_naive_flag(self, tmp_path, capsys):
        out = tmp_path / "naive.bag.json"
        code, _, _ = run(
            capsys, "build-kofn", "--n", "7", "--k", "2", "--naive", "--out", str(out)
        )
        assert code == 0
        bag = deserialize_bag(out.read_text())
        assert exhaustive_equiv(bag, lambda b: threshold_oracle(2, b), 7) is None

    def test_invalid_threshold_exits_2(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "build-kofn", "--n", "5", "--k", "6", "--out", str(tmp_path / "x")
        )
        assert code == 2
        assert "threshold" in stderr


class TestBuildMajority:
    def test_build_and_verify(self, tmp_path, capsys):
        out = tmp_path / "maj.bag.json"
        code, stdout, _ = run(
            capsys, "build-majority", "--n", "11", "--c", "2", "--out", str(out)
        )
        assert code == 0
        bag = deserialize_bag(out.read_text())
        assert len(bag) == 7
        code, stdout, _ = run(capsys, "verify", "--bag", str(out), "--oracle", "maj")
        assert code == 0 and stdout.strip() == "ok"

    def test_too_aggressive_c_exits_2(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "build-majority", "--n", "5", "--c", "2", "--out", str(tmp_path / "x")
        )
        assert code == 2
        assert "keeps >= 3 trees" in stderr


class TestReduce:
    @pytest.fixture
    def table_setup(self, tmp_path):
        bag_path = tmp_path / "nine.bag.json"
        dist_path = tmp_path / "uniform.dist.json"
        bag_path.write_text(serialize_bag(build_choose_bag(ChooseSpec(9, 5))))
        dist_path.write_text(serialize_distribution(Distribution.uniform(9)))
        return bag_path, dist_path

    def test_reduce_writes_bag_and_report(self, table_setup, tmp_path, capsys):
        bag_path, dist_path = table_setup
        out = tmp_path / "seven.bag.json"
        report = tmp_path / "seven.report.json"
        code, stdout, _ = run(
            capsys,
            "reduce",
            "--bag", str(bag_path),
            "--dist", str(dist_path),
            "--K", "3",
            "--c", "1",
            "--out", str(out),
            "--report", str(report),
            "--identity-perms",
        )
        assert code == 0
        assert "error: 1/256" in stdout
        reduced = deserialize_bag(out.read_text())
        assert len(reduced) == 7
        assert vote_profile(reduced, (1, 1, 1, 1, 1, 0, 0, 0, 0)) == (1, 1, 1, 0, 0, 0, 0)
        assert vote_profile(reduced, (0, 0, 0, 0, 0, 1, 1, 1, 1)) == (0, 0, 0, 1, 1, 1, 1)
        doc = json.loads(report.read_text())
        assert doc["measured_error"] == "1/256"
        assert doc["error_bound"] == "1/8"
        assert doc["steps"][0]["designated_ones"] == [3, 4, 5]

    def test_underfull_bag_rejected_with_iteration(self, tmp_path, capsys):
        bag_path = tmp_path / "three.bag.json"
        bag_path.write_text(serialize_bag(build_choose_bag(ChooseSpec(3, 2))))
        dist_path = tmp_path / "u.dist.json"
        dist_path.write_text(serialize_distribution(Distribution.uniform(3)))
        code, _, stderr = run(
            capsys,
            "reduce",
            "--bag", str(bag_path), "--dist", str(dist_path),
            "--K", "1", "--c", "1",
            "--out", str(tmp_path / "o"), "--report", str(tmp_path / "r"),
        )
        assert code == 2
        assert "iteration 1" in stderr

    def test_no_op_step_count_rejected(self, table_setup, tmp_path, capsys):
        bag_path, dist_path = table_setup
        code, _, stderr = run(
            capsys,
            "reduce",
            "--bag", str(bag_path), "--dist", str(dist_path),
            "--K", "3", "--c", "0",
            "--out", str(tmp_path / "o"), "--report", str(tmp_path / "r"),
        )
        assert code == 2
        assert "no-op" in stderr

    def test_identity_perms_over_the_bound_refused(self, tmp_path, capsys):
        # Seed 19 at l=5: the forced subset 3..4 leaves strata of weight 42
        # out of 151, more than 1/2^2.
        bag_path, dist_path = tmp_path / "b.bag.json", tmp_path / "d.dist.json"
        assert run(
            capsys, "gen-bag", "--seed", "19", "--n-trees", "9", "--l", "5",
            "--max-depth", "3", "--out", str(bag_path),
        )[0] == 0  # fmt: skip
        assert run(
            capsys, "gen-dist", "--seed", "19", "--l", "5", "--max-weight", "20",
            "--out", str(dist_path),
        )[0] == 0  # fmt: skip
        out, report = tmp_path / "o.bag.json", tmp_path / "r.json"
        code, stdout, stderr = run(
            capsys,
            "reduce",
            "--bag", str(bag_path), "--dist", str(dist_path),
            "--K", "2", "--c", "1",
            "--out", str(out), "--report", str(report),
            "--identity-perms",
        )  # fmt: skip
        assert code == 2
        assert stdout == ""
        assert stderr == (
            "error: identity permutations: forced strata weight 42/151 "
            "exceeds its bound 1/4\n"
        )
        assert not out.exists() and not report.exists()


class TestVerify:
    def test_kofn_oracle(self, tmp_path, capsys):
        path = tmp_path / "b.bag.json"
        path.write_text(serialize_bag(build_choose_bag(ChooseSpec(7, 2))))
        code, stdout, _ = run(capsys, "verify", "--bag", str(path), "--oracle", "kofn:2")
        assert code == 0 and stdout.strip() == "ok"

    def test_failure_prints_first_counterexample(self, tmp_path, capsys):
        path = tmp_path / "b.bag.json"
        path.write_text(serialize_bag(build_choose_bag(ChooseSpec(3, 2))))
        code, stdout, _ = run(capsys, "verify", "--bag", str(path), "--oracle", "kofn:1")
        assert code == 1
        assert "counterexample: input=(1, 0, 0) expected=1 actual=0" in stdout

    def test_bag_comparison_with_weight(self, tmp_path, capsys):
        subject = tmp_path / "s.bag.json"
        reference = tmp_path / "r.bag.json"
        dist = tmp_path / "d.dist.json"
        subject.write_text(serialize_bag(build_choose_bag(ChooseSpec(5, 2))))
        reference.write_text(serialize_bag(build_choose_bag(ChooseSpec(5, 3))))
        dist.write_text(serialize_distribution(Distribution.uniform(5)))
        code, stdout, _ = run(
            capsys,
            "verify",
            "--bag", str(subject),
            "--oracle", f"bag:{reference}",
            "--dist", str(dist),
        )
        assert code == 1
        # thresholds 2 and 3 differ exactly on inputs with two ones
        assert "disagreement weight: 5/16" in stdout

    def test_bag_comparison_equal(self, tmp_path, capsys):
        subject = tmp_path / "s.bag.json"
        reference = tmp_path / "r.bag.json"
        subject.write_text(serialize_bag(build_choose_bag(ChooseSpec(5, 3))))
        reference.write_text(serialize_bag(build_choose_bag(ChooseSpec(5, 3))))
        code, stdout, _ = run(
            capsys, "verify", "--bag", str(subject), "--oracle", f"bag:{reference}"
        )
        assert code == 0 and stdout.strip() == "ok"

    def test_unknown_oracle_exits_2(self, tmp_path, capsys):
        path = tmp_path / "b.bag.json"
        path.write_text(serialize_bag(build_choose_bag(ChooseSpec(3, 2))))
        code, _, stderr = run(capsys, "verify", "--bag", str(path), "--oracle", "nope")
        assert code == 2
        assert "oracle" in stderr


class TestVerifyWeights:
    """Disagreement weights under a non-uniform table, counted by hand."""

    WEIGHTS = (1, 2, 3, 4, 5, 6, 7, 8)  # total 36

    @pytest.fixture
    def dist(self, tmp_path):
        path = tmp_path / "w.dist.json"
        path.write_text(serialize_distribution(Distribution.from_weights(3, self.WEIGHTS)))
        return path

    def write_bag(self, tmp_path, k):
        path = tmp_path / f"k{k}.bag.json"
        path.write_text(serialize_bag(build_choose_bag(ChooseSpec(3, k))))
        return path

    def test_kofn_oracle(self, tmp_path, dist, capsys):
        subject = self.write_bag(tmp_path, 2)
        code, stdout, _ = run(
            capsys, "verify", "--bag", str(subject), "--oracle", "kofn:1", "--dist", str(dist)
        )
        assert code == 1
        # "at least 2 of 3" and "at least 1 of 3" differ on the inputs with a
        # single 1: indices 1, 2 and 4, weights 2 + 3 + 5 = 10 of 36.
        assert stdout.splitlines() == [
            "counterexample: input=(1, 0, 0) expected=1 actual=0",
            "disagreement weight: 5/18",
        ]

    def test_majority_oracle(self, tmp_path, dist, capsys):
        subject = self.write_bag(tmp_path, 3)
        code, stdout, _ = run(
            capsys, "verify", "--bag", str(subject), "--oracle", "maj", "--dist", str(dist)
        )
        assert code == 1
        # "all 3" and majority differ on the inputs with two 1s: indices 3, 5
        # and 6, weights 4 + 6 + 7 = 17 of 36.
        assert stdout.splitlines() == [
            "counterexample: input=(1, 1, 0) expected=1 actual=0",
            "disagreement weight: 17/36",
        ]

    def test_agreement_prints_ok(self, tmp_path, dist, capsys):
        subject = self.write_bag(tmp_path, 1)
        code, stdout, _ = run(
            capsys, "verify", "--bag", str(subject), "--oracle", "kofn:1", "--dist", str(dist)
        )
        assert code == 0 and stdout == "ok\n"

    def test_distribution_of_another_width_exits_2(self, tmp_path, capsys):
        subject = self.write_bag(tmp_path, 2)
        dist = tmp_path / "u4.dist.json"
        dist.write_text(serialize_distribution(Distribution.uniform(4)))
        for oracle in ("maj", "kofn:1", f"bag:{subject}"):
            code, stdout, stderr = run(
                capsys, "verify", "--bag", str(subject), "--oracle", oracle, "--dist", str(dist)
            )
            assert code == 2 and stdout == ""
            assert "distribution over 4 variables, bag over 3" in stderr


class TestVerifyWidthWarning:
    @pytest.fixture
    def subject(self, tmp_path, monkeypatch):
        monkeypatch.setattr(trees, "SOFT_WARN_VARS", 2)
        path = tmp_path / "s.bag.json"
        path.write_text(serialize_bag(build_choose_bag(ChooseSpec(3, 2))))
        return path

    def warnings_of(self, capsys, recwarn, *argv):
        # Count repeats from one call site too; the filter ends with the test.
        warnings.simplefilter("always")
        code, stdout, _ = run(capsys, *argv)
        assert code == 0 and stdout == "ok\n"
        return [str(w.message) for w in recwarn]

    @pytest.mark.parametrize("oracle", ["maj", "kofn:2"])
    def test_one_warning_per_verify(self, subject, oracle, capsys, recwarn):
        argv = ("verify", "--bag", str(subject), "--oracle", oracle)
        assert self.warnings_of(capsys, recwarn, *argv) == [
            "enumerating 2^3 inputs; this may be slow"
        ]

    def test_one_warning_per_bag_table(self, subject, capsys, recwarn):
        # Two bags are enumerated: the reference and the subject.
        argv = ("verify", "--bag", str(subject), "--oracle", f"bag:{subject}")
        assert len(self.warnings_of(capsys, recwarn, *argv)) == 2


class TestSweep:
    def read_rows(self, path):
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            assert reader.fieldnames == CSV_COLUMNS
            return list(reader)

    def test_kofn_rows(self, tmp_path, capsys):
        out = tmp_path / "kofn.csv"
        code, _, _ = run(
            capsys, "sweep", "--mode", "kofn", "--csv", str(out), "--n-list", "3,5"
        )
        assert code == 0
        rows = self.read_rows(out)
        assert len(rows) == 3 + 5
        assert all(row["verified"] == "True" for row in rows)
        assert all(row["error"] == "0/1" for row in rows)
        first = rows[0]
        assert first["mode"] == "kofn" and first["n"] == "3" and first["k"] == "1"
        assert int(first["max_tree_size"]) <= int(first["bound"]) * 2

    def test_majority_rows(self, tmp_path, capsys):
        out = tmp_path / "maj.csv"
        code, stdout, _ = run(
            capsys, "sweep", "--mode", "majority", "--csv", str(out), "--n-list", "5,7,9"
        )
        assert code == 0
        rows = self.read_rows(out)
        assert [(r["n"], r["c"]) for r in rows] == [
            ("5", "1"), ("7", "1"), ("7", "2"),
            ("9", "1"), ("9", "2"), ("9", "3"),
        ]
        assert all(r["verified"] == "True" for r in rows)
        assert "informational" in stdout

    def test_lossy_rows(self, tmp_path, capsys):
        out = tmp_path / "lossy.csv"
        code, _, _ = run(
            capsys,
            "sweep", "--mode", "lossy", "--csv", str(out),
            "--seed", "10", "--count", "4", "--n-trees", "9", "--l", "6",
            "--max-depth", "2", "--K", "2", "--c", "1",
        )
        assert code == 0
        rows = self.read_rows(out)
        assert len(rows) == 4
        for row in rows:
            num, den = row["error"].split("/")
            assert Fraction(int(num), int(den)) <= Fraction(1, 4)
            assert row["bound"] == "1/4"
            assert row["verified"] == "True"

    def test_lossy_requires_seed(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "sweep", "--mode", "lossy", "--csv", str(tmp_path / "x.csv")
        )
        assert code == 2
        assert "--seed is mandatory" in stderr

    def test_failed_kofn_row_error_is_the_table_difference(
        self, tmp_path, capsys, monkeypatch
    ):
        real = cli.build_choose_bag
        # Hand the sweep the "at least 3 of 5" bag for k=2: the two functions
        # differ exactly on the C(5, 2) = 10 inputs with two ones.
        monkeypatch.setattr(
            cli,
            "build_choose_bag",
            lambda spec: real(ChooseSpec(5, 3) if (spec.n, spec.k) == (5, 2) else spec),
        )
        out = tmp_path / "kofn.csv"
        code, stdout, _ = run(
            capsys, "sweep", "--mode", "kofn", "--csv", str(out), "--n-list", "3,5"
        )
        assert code == 1
        assert "all verified: False" in stdout
        rows = self.read_rows(out)
        failed = [r for r in rows if r["verified"] != "True"]
        assert [(r["n"], r["k"]) for r in failed] == [("5", "2")]
        assert (failed[0]["error"], failed[0]["error_decimal"]) == ("5/16", "0.312500")
        assert all(r["error"] == "0/1" for r in rows if r["verified"] == "True")

    def test_empty_range_writes_header_only(self, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        code, _, _ = run(
            capsys, "sweep", "--mode", "kofn", "--csv", str(out), "--n-list", ""
        )
        assert code == 0
        assert out.read_text() == ",".join(CSV_COLUMNS) + "\n"


class TestGenerators:
    def test_gen_bag_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.bag.json", tmp_path / "b.bag.json"
        for out in (a, b):
            code, _, _ = run(
                capsys,
                "gen-bag", "--seed", "3", "--n-trees", "7", "--l", "6",
                "--max-depth", "3", "--out", str(out),
            )
            assert code == 0
        assert a.read_text() == b.read_text()

    def test_gen_dist(self, tmp_path, capsys):
        out = tmp_path / "d.dist.json"
        code, _, _ = run(
            capsys, "gen-dist", "--seed", "3", "--l", "4", "--max-weight", "9",
            "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["type"] == "table" and len(doc["weights"]) == 16


class TestEnvironmentCap:
    def test_cap_lowered_by_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FORESTSMITH_MAX_L", "4")
        path = tmp_path / "b.bag.json"
        path.write_text(serialize_bag(build_choose_bag(ChooseSpec(5, 3))))
        code, _, stderr = run(capsys, "verify", "--bag", str(path), "--oracle", "maj")
        assert code == 2
        assert "cap" in stderr

    def test_cap_cannot_be_raised(self, monkeypatch):
        monkeypatch.setenv("FORESTSMITH_MAX_L", "99")
        from forestsmith.trees import max_table_vars

        assert max_table_vars() == 24


def test_usage_errors_exit_2(capsys):
    assert main(["sweep", "--mode", "bogus", "--csv", "x.csv"]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def _chain(length):
    """Node(1, t, t) nested ``length`` times: 2^(length+1) - 1 expanded nodes."""
    t = LEAF0
    for _ in range(length):
        t = Node(1, t, t)
    return t


class TestHugeSizes:
    """Sizes past CPython's 4 300-digit str limit are written in hex."""

    def test_row_spelling_switches_at_the_threshold(self):
        digits = sys.get_int_max_str_digits()
        below, above = _chain(HEX_SIZE_BITS - 1), _chain(HEX_SIZE_BITS)
        assert below.size.bit_length() == HEX_SIZE_BITS
        row = _row("lossy", Bag((below,), 1), "1/2", True, Fraction(0), 0.0)
        assert row["max_tree_size"] == below.size == 2 ** HEX_SIZE_BITS - 1
        assert row["total_size"] == below.size
        row = _row("lossy", Bag((above, below, above), 1), "1/2", True, Fraction(0), 0.0)
        assert row["max_tree_size"] == "0x" + format(above.size, "x")
        assert int(row["total_size"], 16) == 2 * above.size + below.size
        assert sys.get_int_max_str_digits() == digits

    def test_sweep_writes_a_huge_size_in_hex(self, tmp_path, capsys, monkeypatch):
        digits = sys.get_int_max_str_digits()
        chain = _chain(15_000)
        assert chain.size == 2**15_001 - 1
        real = cli.reduce_repeated

        def huge(*args, **kwargs):
            _, report = real(*args, **kwargs)
            return Bag((chain, chain, chain), 1), report

        monkeypatch.setattr(cli, "reduce_repeated", huge)
        out = tmp_path / "lossy.csv"
        code, _, stderr = run(
            capsys,
            "sweep", "--mode", "lossy", "--csv", str(out), "--seed", "3", "--count", "2",
            "--n-trees", "7", "--l", "5", "--max-depth", "2", "--K", "1", "--c", "1",
        )  # fmt: skip
        assert (code, stderr) == (0, "")
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        for row in rows:
            assert row["max_tree_size"] == "0x1" + "f" * 3750
            assert int(row["total_size"], 16) == 3 * chain.size
            assert row["trees"] == "3" and row["verified"] == "True"
        assert sys.get_int_max_str_digits() == digits
