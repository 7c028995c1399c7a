"""Batch command-line front door: build, reduce, verify, and sweep."""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from .io_formats import (
    HEX_SIZE_BITS,  # noqa: F401 (the sweep CSV's hex threshold, named here too)
    SchemaError,
    _size_str,
    deserialize_bag,
    deserialize_distribution,
    random_bag,
    random_distribution,
    serialize_bag,
    serialize_distribution,
    serialize_report,
)
from .kofn import ChooseSpec, build_choose_bag, build_choose_bag_naive
from .lossy import Distribution, InvariantError, reduce_repeated
from .majority import build_reduced_majority
from .trees import Bag, TruthTable, tree_size, truth_table
from .verify import exhaustive_equiv, threshold_table

CSV_COLUMNS = [
    "mode",
    "n",
    "k",
    "c",
    "K",
    "seed",
    "trees",
    "max_tree_size",
    "total_size",
    "bound",
    "ratio",
    "verified",
    "error",
    "error_decimal",
]

def _write_text_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_bag(path: str) -> Bag:
    return deserialize_bag(Path(path).read_text())


def _load_dist(path: str) -> Distribution:
    return deserialize_distribution(Path(path).read_text())


def _sizes(bag: Bag) -> tuple[int, int]:
    sizes = [tree_size(t) for t in bag.trees]
    return max(sizes), sum(sizes)


def _frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def cmd_build_kofn(args: argparse.Namespace) -> int:
    spec = ChooseSpec(args.n, args.k)
    builder = build_choose_bag_naive if args.naive else build_choose_bag
    bag = builder(spec)
    _write_text_atomic(args.out, serialize_bag(bag))
    max_size, total = _sizes(bag)
    exponent = abs(spec.m - spec.k) + 1
    bound = spec.n**exponent
    print(f"wrote {args.out}")
    print(f"trees: {len(bag)}  max_tree_size: {max_size}  total_size: {total}")
    print(f"size bound: n^(|m-k|+1) = {spec.n}^{exponent} = {bound}")
    return 0


def cmd_build_majority(args: argparse.Namespace) -> int:
    bag = build_reduced_majority(args.n, args.c)
    _write_text_atomic(args.out, serialize_bag(bag))
    max_size, total = _sizes(bag)
    bound = (4**args.c) * args.n ** (args.c + 1)
    print(f"wrote {args.out}")
    print(f"trees: {len(bag)}  max_tree_size: {max_size}  total_size: {total}")
    print(f"size bound: 2^(2c) * n^(c+1) = {bound}")
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    bag = _load_bag(args.bag)
    dist = _load_dist(args.dist)
    if args.c < 1:
        raise ValueError(f"step count must be >= 1, got {args.c} (no-op reductions are rejected)")
    reduced, report = reduce_repeated(
        bag, dist, args.K, args.c, identity_permutations=args.identity_perms
    )
    _write_text_atomic(args.out, serialize_bag(reduced))
    _write_text_atomic(args.report, serialize_report(report))
    print(f"wrote {args.out} and {args.report}")
    print(
        f"trees: {report.trees_before} -> {report.trees_after}  "
        f"error: {_frac_str(report.measured_error)}  "
        f"bound: {_frac_str(report.error_bound)}"
    )
    return 0


def _parse_oracle(spec: str, n_vars: int, other_loader) -> TruthTable:
    if spec == "maj":
        if n_vars % 2 == 0:
            raise ValueError(f"majority oracle needs an odd variable count, got {n_vars}")
        return threshold_table((n_vars + 1) // 2, n_vars)
    if spec.startswith("kofn:"):
        return threshold_table(int(spec.split(":", 1)[1]), n_vars)
    if spec.startswith("bag:"):
        other = other_loader(spec.split(":", 1)[1])
        if other.n_vars != n_vars:
            raise ValueError(
                f"reference bag declares {other.n_vars} variables, subject {n_vars}"
            )
        return truth_table(other)
    raise ValueError(f"oracle must be maj, kofn:<k>, or bag:<file>, got {spec!r}")


def cmd_verify(args: argparse.Namespace) -> int:
    bag = _load_bag(args.bag)
    oracle = _parse_oracle(args.oracle, bag.n_vars, _load_bag)
    table = truth_table(bag)
    counterexample = exhaustive_equiv(table, oracle, bag.n_vars)
    dist = _load_dist(args.dist) if args.dist else None
    if dist is not None and dist.n_vars != bag.n_vars:
        raise ValueError(
            f"distribution over {dist.n_vars} variables, bag over {bag.n_vars}"
        )
    if counterexample is None:
        print("ok")
        return 0
    print(
        f"counterexample: input={counterexample.input} "
        f"expected={counterexample.expected} actual={counterexample.actual}"
    )
    if dist is not None:
        disagree = dist.weight_of((table ^ oracle).bits)
        print(f"disagreement weight: {_frac_str(Fraction(disagree, dist.total))}")
    return 1


def _parse_int_list(text: str, flag: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated integer list, got {text!r}")


def _row(
    mode: str, bag: Bag, bound, verified: bool, error: Fraction | None, ratio=None, **params
) -> dict:
    """One sweep CSV row; ``ratio`` defaults to the largest tree's size over ``bound``."""
    max_size, total = _sizes(bag)
    if ratio is None:
        ratio = max_size / bound
    return {
        "mode": mode,
        **params,
        "trees": len(bag),
        "max_tree_size": _size_str(max_size),
        "total_size": _size_str(total),
        "bound": bound,
        "ratio": f"{ratio:.6f}",
        "verified": verified,
        "error": "" if error is None else _frac_str(error),
        "error_decimal": "" if error is None else f"{float(error):.6f}",
    }


def _sweep_kofn(args: argparse.Namespace) -> tuple[list[dict], bool]:
    rows = []
    all_ok = True
    for n in _parse_int_list(args.n_list, "--n-list"):
        m = (n + 1) // 2
        for k in range(1, n + 1):
            bag = build_choose_bag(ChooseSpec(n, k))
            table, oracle = truth_table(bag), threshold_table(k, n)
            verified = exhaustive_equiv(table, oracle, n) is None
            all_ok &= verified
            # Uniform error: the share of the 2^n inputs where the tables differ.
            error = Fraction((table ^ oracle).ones(), 1 << n)
            rows.append(_row("kofn", bag, n ** (abs(m - k) + 1), verified, error, n=n, k=k))
    return rows, all_ok


def _sweep_majority(args: argparse.Namespace) -> tuple[list[dict], bool]:
    rows = []
    all_ok = True
    wanted_c = _parse_int_list(args.c_list, "--c-list") if args.c_list else None
    for n in _parse_int_list(args.n_list, "--n-list"):
        m = (n + 1) // 2
        c_values = wanted_c if wanted_c is not None else list(range(1, m - 1))
        for c in c_values:
            if not 1 <= c <= m - 2:
                continue
            bag = build_reduced_majority(n, c)
            counterexample = exhaustive_equiv(bag, threshold_table(m, n), n)
            verified = counterexample is None
            all_ok &= verified
            error = Fraction(0) if verified else None
            bound = (4**c) * n ** (c + 1)
            rows.append(_row("majority", bag, bound, verified, error, n=n, c=c))
        if c_values:
            # Informational context only: generic lower bounds for exact
            # majority on few trees grow exponentially in n; the recorded
            # sizes are measurements, not asymptotic claims.
            t = n - 2 * max(c for c in c_values if 1 <= c <= m - 2) if any(
                1 <= c <= m - 2 for c in c_values
            ) else n
            context = (2.0**n / (n**0.5)) ** (2.0 / (t + 1))
            print(
                f"informational: n={n}, smallest swept tree count {t}; "
                f"known exponential lower-bound scale ~ {context:.3e} nodes"
            )
    return rows, all_ok


def _sweep_lossy(args: argparse.Namespace) -> tuple[list[dict], bool]:
    rows = []
    all_ok = True
    for offset in range(args.count):
        seed = args.seed + offset
        bag = random_bag(seed, args.n_trees, args.l, args.max_depth)
        if args.max_weight > 0:
            dist = random_distribution(seed, args.l, args.max_weight)
        else:
            dist = Distribution.uniform(args.l)
        reduced, report = reduce_repeated(bag, dist, args.K, args.c)
        verified = report.measured_error <= report.error_bound
        all_ok &= verified
        ratio = (
            float(report.measured_error / report.error_bound)
            if report.error_bound
            else 0.0
        )
        bound, error = _frac_str(report.error_bound), report.measured_error
        params = {"n": args.l, "c": args.c, "K": args.K, "seed": seed}
        rows.append(_row("lossy", reduced, bound, verified, error, ratio, **params))
    return rows, all_ok


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.mode == "kofn":
        rows, all_ok = _sweep_kofn(args)
    elif args.mode == "majority":
        rows, all_ok = _sweep_majority(args)
    else:
        if args.seed is None:
            raise ValueError("--seed is mandatory for the lossy sweep")
        rows, all_ok = _sweep_lossy(args)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS, restval="", lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    _write_text_atomic(args.csv, buffer.getvalue())
    print(f"wrote {args.csv} ({len(rows)} rows, all verified: {all_ok})")
    return 0 if all_ok else 1


def cmd_gen_bag(args: argparse.Namespace) -> int:
    bag = random_bag(args.seed, args.n_trees, args.l, args.max_depth)
    _write_text_atomic(args.out, serialize_bag(bag))
    print(f"wrote {args.out}")
    return 0


def cmd_gen_dist(args: argparse.Namespace) -> int:
    if args.max_weight > 0:
        dist = random_distribution(args.seed, args.l, args.max_weight)
    else:
        dist = Distribution.uniform(args.l)
    _write_text_atomic(args.out, serialize_distribution(dist))
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forestsmith",
        description="Build, reduce, and exhaustively verify bags of decision trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-kofn", help="bag voting the k-out-of-n function")
    p.add_argument("--n", type=int, required=True, help="odd window size")
    p.add_argument("--k", type=int, required=True, help="threshold in 1..n")
    p.add_argument("--naive", action="store_true", help="single counting tree baseline")
    p.add_argument("--out", required=True, help="output .bag.json path")
    p.set_defaults(func=cmd_build_kofn)

    p = sub.add_parser("build-majority", help="majority on n variables with n-2c trees")
    p.add_argument("--n", type=int, required=True, help="odd variable count")
    p.add_argument("--c", type=int, required=True, help="tree pairs removed")
    p.add_argument("--out", required=True, help="output .bag.json path")
    p.set_defaults(func=cmd_build_majority)

    p = sub.add_parser("reduce", help="lossy reduction with exact error accounting")
    p.add_argument("--bag", required=True, help="input .bag.json path")
    p.add_argument("--dist", required=True, help="input .dist.json path")
    p.add_argument("--K", type=int, required=True, help="designated positions per case")
    p.add_argument("--c", type=int, required=True, help="number of reduction steps")
    p.add_argument("--out", required=True, help="output .bag.json path")
    p.add_argument("--report", required=True, help="output .report.json path")
    p.add_argument(
        "--identity-perms",
        action="store_true",
        help=(
            "test hook: skip the subset search, designate positions 3..K+2; "
            "refused (exit 2) when their strata weigh more than 1/2^K"
        ),
    )
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="exhaustively compare a bag against an oracle")
    p.add_argument("--bag", required=True, help="subject .bag.json path")
    p.add_argument(
        "--oracle", required=True, help="maj | kofn:<k> | bag:<file.bag.json>"
    )
    p.add_argument("--dist", help="optional .dist.json for disagreement weight")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="parameter sweeps with verification, to CSV")
    p.add_argument("--mode", choices=("kofn", "majority", "lossy"), required=True)
    p.add_argument("--csv", required=True, help="output CSV path")
    p.add_argument("--n-list", default="", help="comma list of odd n (kofn, majority)")
    p.add_argument("--c-list", default="", help="comma list of c values (majority)")
    p.add_argument("--seed", type=int, help="base seed (mandatory for lossy)")
    p.add_argument("--count", type=int, default=30, help="lossy: number of bags")
    p.add_argument("--n-trees", type=int, default=9, help="lossy: trees per bag")
    p.add_argument("--l", type=int, default=8, help="lossy: variable count")
    p.add_argument("--max-depth", type=int, default=3, help="lossy: tree depth cap")
    p.add_argument("--K", type=int, default=3, help="lossy: designated positions")
    p.add_argument("--c", type=int, default=1, help="lossy: reduction steps")
    p.add_argument(
        "--max-weight", type=int, default=0, help="lossy: 0 for uniform, else weight cap"
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen-bag", help="seeded random bag for test corpora")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-trees", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--max-depth", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_bag)

    p = sub.add_parser("gen-dist", help="seeded random distribution for test corpora")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument(
        "--max-weight", type=int, default=0, help="0 for uniform, else weight cap"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_dist)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SchemaError, ValueError, OSError, InvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply (recursion limit exceeded)", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
