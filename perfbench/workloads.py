"""The benchmark's three workloads: seeded inputs, job command lines, output checks.

Every job is a list of ``forestsmith`` command lines. The harness runs them in
process through ``forestsmith.cli.main`` and hands the captured exit codes and
output to :meth:`check`, which runs after the timed phase and never uses the
program's table code: it recounts with its own bit masks, or with the formula
evaluators in ``forestsmith.verify``, which build no trees.

Inputs come from a fixed panel so that every run measures the same bags and
the run-to-run spread stays inside the bounds in ``BENCHMARK.json``: job ``k``
of a run with workload seed ``s`` uses panel entry ``(s + k) mod panel``. The
seed sets which entry comes first and the order; a run covers the panel
about once.
"""

from __future__ import annotations

import csv
import json
import random
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

OK = "ok"
# The program's documented refusal to write a document over its serialization
# cap, confirmed by the check: a correct outcome, counted apart from OK.
REFUSED = "refused"
FAILED = "failed"  # no usable output: an unexpected error exit or a crash
WRONG = "wrong"  # the output contradicts the independent check

CAP_REFUSAL = re.compile(
    r"error: tree expands to (\d+) nodes; refusing to serialize beyond (\d+)"
)
DOCUMENTED_CAP = 1_000_000  # the program's README: larger trees are refused


@dataclass
class Job:
    tag: str
    directory: Path
    commands: list[list[str]]
    facts: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """Exit code (None for an exception), stdout and stderr of each command."""

    codes: list[int | None]
    stdout: list[str]
    stderr: list[str]
    seconds: float


def _dumps(doc) -> str:
    # The program's canonical form, so generated files equal gen-bag/gen-dist output.
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def random_bag_doc(seed: int, n_trees: int, n_vars: int, max_depth: int) -> dict:
    """The algorithm of ``forestsmith gen-bag``, kept here so inputs stay fixed
    when the program changes."""
    rng = random.Random(seed)

    def grow(depth: int, available: tuple[int, ...]) -> dict:
        if depth >= max_depth or not available or rng.random() < 0.25:
            return {"leaf": rng.randrange(2)}
        var = available[rng.randrange(len(available))]
        remaining = tuple(v for v in available if v != var)
        lo = grow(depth + 1, remaining)
        hi = grow(depth + 1, remaining)
        return {"var": var, "lo": lo, "hi": hi}

    trees = [grow(0, tuple(range(1, n_vars + 1))) for _ in range(n_trees)]
    return {"n_vars": n_vars, "trees": trees}


def random_weights(seed: int, n_vars: int, max_weight: int) -> list[int]:
    """The algorithm of ``forestsmith gen-dist --max-weight``."""
    rng = random.Random(seed)
    while True:
        weights = [rng.randint(0, max_weight) for _ in range(1 << n_vars)]
        if any(weights):
            return weights


# --- independent evaluation: bit masks over all 2^l inputs --------------------


def variable_masks(n_vars: int) -> list[int]:
    """Mask of the inputs (x_1 least significant) where variable v is 1."""
    masks = []
    for v in range(n_vars):
        half = 1 << v
        pattern, width = ((1 << half) - 1) << half, 2 * half
        while width < 1 << n_vars:
            pattern |= pattern << width
            width *= 2
        masks.append(pattern)
    return masks


def tree_mask(doc: dict, masks: list[int], full: int) -> int:
    if "leaf" in doc:
        return full if doc["leaf"] else 0
    m = masks[doc["var"] - 1]
    return (tree_mask(doc["hi"], masks, full) & m) | (
        tree_mask(doc["lo"], masks, full) & ~m & full
    )


def weight_planes(weights: list[int]) -> list[int]:
    """Plane j is the mask of inputs whose weight has bit j set."""
    planes = []
    for j in range(max(weights).bit_length()):
        plane = bytearray((len(weights) + 7) // 8)
        for i, w in enumerate(weights):
            if w >> j & 1:
                plane[i >> 3] |= 1 << (i & 7)
        planes.append(int.from_bytes(plane, "little"))
    return planes


def profile_cells(tables: list[int], full: int) -> list[tuple[tuple[int, ...], int]]:
    """Every non-empty vote profile with the mask of inputs that produce it."""
    cells = [((), full)]
    for table in tables:
        split = []
        for profile, mask in cells:
            ones = mask & table
            if ones:
                split.append((profile + (1,), ones))
            if mask ^ ones:
                split.append((profile + (0,), mask ^ ones))
        cells = split
    return cells


def eval_doc(doc: dict, bits: list[int]) -> int:
    while "leaf" not in doc:
        doc = doc["hi"] if bits[doc["var"] - 1] else doc["lo"]
    return doc["leaf"]


def _fraction(text: str) -> Fraction:
    p, q = text.split("/")
    return Fraction(int(p), int(q))


def _ordering(designated: list[int], n: int) -> list[int]:
    return designated + [p for p in range(3, n + 1) if p not in designated]


# --- workloads ---------------------------------------------------------------


def _bad_exit(outcome: Outcome, wanted: list[int]) -> str | None:
    for code, err, want in zip(outcome.codes, outcome.stderr, wanted):
        if code != want:
            first = err.strip().splitlines()[-1:] or [""]
            return f"exit {code}, wanted {want}: {first[0][:200]}"
    return None


@dataclass(frozen=True)
class LossyReduce:
    """``reduce --K 3 --c 1`` on one seeded 11-tree bag at l=16 per job."""

    name: str = "lossy-reduce"
    l: int = 16
    n_trees: int = 11
    max_depth: int = 3
    max_weight: int = 20
    K: int = 3
    c: int = 1
    first_bag: int = 100
    panel: int = 24

    def bag_seed(self, seed: int, k: int) -> int:
        return self.first_bag + (seed + k) % self.panel

    def small(self) -> LossyReduce:
        return replace(self, l=8, panel=2)

    def prepare(self, inputs: Path) -> None:
        for bag_seed in range(self.first_bag, self.first_bag + self.panel):
            doc = random_bag_doc(bag_seed, self.n_trees, self.l, self.max_depth)
            (inputs / f"{bag_seed}.bag.json").write_text(_dumps(doc))
            weights = random_weights(bag_seed, self.l, self.max_weight)
            dist = {"type": "table", "l": self.l, "weights": weights}
            (inputs / f"{bag_seed}.dist.json").write_text(_dumps(dist))

    def job(self, inputs: Path, directory: Path, seed: int, k: int) -> Job:
        bag_seed = self.bag_seed(seed, k)
        command = [
            "reduce",
            "--bag", str(inputs / f"{bag_seed}.bag.json"),
            "--dist", str(inputs / f"{bag_seed}.dist.json"),
            "--K", str(self.K),
            "--c", str(self.c),
            "--out", str(directory / "reduced.bag.json"),
            "--report", str(directory / "reduced.report.json"),
        ]  # fmt: skip
        facts = {"inputs": inputs, "bag_seed": bag_seed}
        return Job(f"bag-{bag_seed}", directory, [command], facts)

    def check(self, job: Job, outcome: Outcome) -> tuple[str, str]:
        bad = _bad_exit(outcome, [0])
        if bad and outcome.codes[0] == 2:
            return self.check_refusal(job, outcome, bad)
        if bad:
            return (FAILED if outcome.codes[0] is None else WRONG), bad
        report = json.loads((job.directory / "reduced.report.json").read_text())
        if report["trees_after"] != self.n_trees - 2 * self.c:
            return WRONG, f"report says {report['trees_after']} trees"
        for step in report["steps"]:
            measured = _fraction(step["measured_error"])
            refined = _fraction(step["refined_bound"])
            bound = _fraction(step["error_bound"])
            if not measured <= refined <= bound:
                return WRONG, f"measured {measured} refined {refined} bound {bound}"
        recount = self.recount(job, report)
        if _fraction(report["measured_error"]) != recount:
            return WRONG, f"measured {report['measured_error']}, recount {recount}"
        if not (job.directory / "reduced.bag.json").is_file():
            return WRONG, "no output bag"
        return OK, ""

    def check_refusal(self, job: Job, outcome: Outcome, bad: str) -> tuple[str, str]:
        """Exit 2 is correct only as the serialization cap's refusal: the
        message names an expanded size over the stated cap and over the
        documented one, and neither output file is left behind."""
        found = CAP_REFUSAL.fullmatch(outcome.stderr[0].strip())
        if found is None:
            return FAILED, bad
        expanded, cap = int(found[1]), int(found[2])
        if expanded <= max(cap, DOCUMENTED_CAP):
            return WRONG, f"refused {expanded} nodes under a cap of {cap}"
        for name in ("reduced.bag.json", "reduced.report.json"):
            if (job.directory / name).exists():
                return WRONG, f"refused, yet wrote {name}"
        return REFUSED, f"serialization cap: {expanded} expanded nodes"

    def recount(self, job: Job, report: dict) -> Fraction:
        """Disagreement weight of one reduction step, by profile cells and the
        reduced-vote formula of ``forestsmith.verify``."""
        from forestsmith.verify import reduced_vote_formula

        if self.c != 1:
            raise ValueError("the recount covers a single reduction step")
        inputs, bag_seed = job.facts["inputs"], job.facts["bag_seed"]
        bag = json.loads((inputs / f"{bag_seed}.bag.json").read_text())
        weights = json.loads((inputs / f"{bag_seed}.dist.json").read_text())["weights"]
        full = (1 << (1 << self.l)) - 1
        masks = variable_masks(self.l)
        tables = [tree_mask(t, masks, full) for t in bag["trees"]]
        planes = weight_planes(weights)
        step = report["steps"][0]
        order_ones = _ordering(step["designated_ones"], self.n_trees)
        order_zeros = _ordering(step["designated_zeros"], self.n_trees)
        threshold = (self.n_trees + 1) // 2
        disagree = 0
        for profile, mask in profile_cells(tables, full):
            before = 1 if sum(profile) >= threshold else 0
            after = reduced_vote_formula(profile, self.K, order_ones, order_zeros)
            if before != after:
                disagree += sum((mask & p).bit_count() << j for j, p in enumerate(planes))
        return Fraction(disagree, sum(weights))

    def expanded_nodes_out(self, job: Job) -> int:
        return _document_nodes(job.directory / "reduced.bag.json")


def _document_nodes(path: Path) -> int:
    """Expanded node count of a bag document, which spells every node out."""
    if not path.is_file():
        return 0
    text = path.read_text()
    return text.count('"leaf"') + text.count('"var"')


@dataclass(frozen=True)
class MajorityVerify:
    """``build-majority --n 19 --c 2``, then ``verify`` against ``maj`` and
    against the n=19, c=0 bag."""

    name: str = "majority-verify"
    n: int = 19
    c: int = 2
    spot_checks: int = 4096
    panel: int = 1  # every job has the same inputs

    def small(self) -> MajorityVerify:
        return replace(self, n=9, spot_checks=64)

    def prepare(self, inputs: Path) -> None:
        trees = [
            {"var": v, "lo": {"leaf": 0}, "hi": {"leaf": 1}} for v in range(1, self.n + 1)
        ]
        (inputs / "reference.bag.json").write_text(_dumps({"n_vars": self.n, "trees": trees}))

    def job(self, inputs: Path, directory: Path, seed: int, k: int) -> Job:
        built = str(directory / "majority.bag.json")
        reference = str(inputs / "reference.bag.json")
        commands = [
            ["build-majority", "--n", str(self.n), "--c", str(self.c), "--out", built],
            ["verify", "--bag", built, "--oracle", "maj"],
            ["verify", "--bag", built, "--oracle", f"bag:{reference}"],
        ]
        return Job(f"job-{k}", directory, commands)

    def check(self, job: Job, outcome: Outcome) -> tuple[str, str]:
        bad = _bad_exit(outcome, [0, 0, 0])
        if bad:
            return (WRONG if 1 in outcome.codes else FAILED), bad
        if [out.strip() for out in outcome.stdout[1:]] != ["ok", "ok"]:
            return WRONG, f"verdicts {outcome.stdout[1:]!r}"
        bag = json.loads((job.directory / "majority.bag.json").read_text())
        if len(bag["trees"]) != self.n - 2 * self.c:
            return WRONG, f"{len(bag['trees'])} trees"
        # Sampled recount by plain tree walks, so an "ok" on a wrong bag shows.
        rng = random.Random(self.n)
        samples = [[0] * self.n, [1] * self.n]
        samples += [[rng.randrange(2) for _ in range(self.n)] for _ in range(self.spot_checks)]
        need = (len(bag["trees"]) + 1) // 2
        for bits in samples:
            votes = sum(eval_doc(t, bits) for t in bag["trees"])
            if (votes >= need) != (sum(bits) > self.n // 2):
                return WRONG, f"bag disagrees with majority on {bits}"
        return OK, ""

    def expanded_nodes_out(self, job: Job) -> int:
        return _document_nodes(job.directory / "majority.bag.json")


@dataclass(frozen=True)
class SweepSmall:
    """The README sweeps: kofn, majority, and lossy with c=1 and c=2."""

    name: str = "sweep-small"
    kofn_n: tuple[int, ...] = (3, 5, 7, 9, 11, 13)
    majority_n: tuple[int, ...] = (5, 7, 9, 11, 13)
    count: int = 30
    l: int = 8
    max_depth: int = 3
    max_weight: int = 20
    lossy_runs: tuple[tuple[int, int, int], ...] = ((11, 3, 1), (9, 2, 2))  # trees, K, c
    panel: int = 8

    def small(self) -> SweepSmall:
        return replace(self, kofn_n=(3, 5), majority_n=(5, 7), count=3, l=6, panel=2)

    def prepare(self, inputs: Path) -> None:
        """The sweeps generate their own bags from ``--seed``."""

    def lossy_seed(self, seed: int, k: int) -> int:
        return 1 + self.count * ((seed + k) % self.panel)

    def job(self, inputs: Path, directory: Path, seed: int, k: int) -> Job:
        lossy_seed = self.lossy_seed(seed, k)
        commands = [
            ["sweep", "--mode", "kofn", "--csv", str(directory / "kofn.csv"),
             "--n-list", ",".join(map(str, self.kofn_n))],
            ["sweep", "--mode", "majority", "--csv", str(directory / "majority.csv"),
             "--n-list", ",".join(map(str, self.majority_n))],
        ]  # fmt: skip
        for trees, K, c in self.lossy_runs:
            commands.append(
                ["sweep", "--mode", "lossy", "--csv", str(directory / f"lossy-{trees}-{K}-{c}.csv"),
                 "--seed", str(lossy_seed), "--count", str(self.count), "--l", str(self.l),
                 "--max-depth", str(self.max_depth), "--max-weight", str(self.max_weight),
                 "--n-trees", str(trees), "--K", str(K), "--c", str(c)]
            )  # fmt: skip
        return Job(f"seed-{lossy_seed}", directory, commands)

    def expected_rows(self) -> dict[str, int]:
        rows = {"kofn": sum(self.kofn_n)}
        rows["majority"] = sum(max(0, (n + 1) // 2 - 2) for n in self.majority_n)
        for trees, K, c in self.lossy_runs:
            rows[f"lossy-{trees}-{K}-{c}"] = self.count
        return rows

    def _rows(self, job: Job, stem: str) -> list[dict]:
        with open(job.directory / f"{stem}.csv", newline="") as handle:
            return list(csv.DictReader(handle))

    def check(self, job: Job, outcome: Outcome) -> tuple[str, str]:
        bad = _bad_exit(outcome, [0] * len(job.commands))
        if bad:
            return (WRONG if 1 in outcome.codes else FAILED), bad
        for stem, expected in self.expected_rows().items():
            rows = self._rows(job, stem)
            if len(rows) != expected:
                return WRONG, f"{stem}: {len(rows)} rows, expected {expected}"
            if any(row["verified"] != "True" for row in rows):
                return WRONG, f"{stem}: a row is not verified"
            if stem.startswith("lossy") and any(
                _fraction(row["error"]) > _fraction(row["bound"]) for row in rows
            ):
                return WRONG, f"{stem}: an error exceeds its bound"
        return OK, ""

    def expanded_nodes_out(self, job: Job) -> int:
        return sum(
            int(row["total_size"])
            for stem in self.expected_rows()
            for row in self._rows(job, stem)
        )


WORKLOADS = {w.name: w for w in (LossyReduce(), MajorityVerify(), SweepSmall())}

# The same jobs at small widths: each set-up's warm-up job, and the harness's smoke test.
SMALL = {name: w.small() for name, w in WORKLOADS.items()}
