"""forestsmith benchmark: one closed-loop client driving the CLI in process.

    python3 perfbench/run.py --workload lossy-reduce --seed 1 --seconds 20 --trace 0

Run from anywhere; it works on the checkout that holds this file and imports
the program from its ``src/``. One process runs one job at a time through
``forestsmith.cli.main(argv)``. Set-up (importing the program, writing the
seeded inputs, one untimed warm-up job) comes first; then jobs run until
``--seconds`` of job time is spent; then every job's output is checked. With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` each job
runs untraced and then traced, and the per-layer metrics of the traced jobs
are printed. The last line of standard output is the result as JSON. A record
of the run (command lines, per-job times and verdicts, span trees) is written
under ``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import FAILED, OK, REFUSED, WORKLOADS, WRONG, Job, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_ROUNDS = 5  # setup_s is the median of this many cold set-ups

END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_s.p50": "s", "peak_rss_mb": "MB"}

# Per traced job, except trace.overhead.
PER_LAYER = {
    "cli.self_s": "s",
    "io_formats.parse_s": "s",
    "io_formats.bytes_in": "byte",
    "io_formats.write_s": "s",
    "io_formats.bytes_out": "byte",
    "io_formats.refused": "count",
    "trees.truth_table_s": "s",
    "trees.truth_table_calls": "count",
    "trees.table_bits": "bit",
    "trees.bag_eval_s": "s",
    "trees.bag_eval_calls": "count",
    "trees.compose_s": "s",
    "trees.compose_calls": "count",
    "trees.tree_size_s": "s",
    "trees.bag_init_s": "s",
    "trees.expanded_nodes_out": "count",
    "kofn.build_s": "s",
    "kofn.build_calls": "count",
    "majority.build_s": "s",
    "lossy.weight_profile_s": "s",
    "lossy.weight_profile_calls": "count",
    "lossy.profiles_distinct": "count",
    "lossy.subset_search_s": "s",
    "lossy.subsets_scanned": "count",
    "lossy.measure_error_s": "s",
    "lossy.zero_out_s": "s",
    "lossy.reduce_self_s": "s",
    "verify.exhaustive_equiv_s": "s",
    "verify.exhaustive_equiv_calls": "count",
    "verify.oracle_calls": "count",
    "verify.inputs_checked": "count",
    "trace.overhead": "ratio",
}


class Refusal(Exception):
    """The benchmark cannot measure the program as given."""


def preflight() -> Path:
    """Refuse early when the run could not measure this checkout's program."""
    if "FORESTSMITH_MAX_L" in os.environ:
        raise Refusal(
            "FORESTSMITH_MAX_L is set; a lowered width cap turns jobs into exit-2 "
            "failures and measures a different program. Unset it and run again."
        )
    package = ROOT / "src" / "forestsmith"
    if not (package / "__init__.py").is_file():
        raise Refusal(f"no forestsmith sources at {package}; run from a full checkout")
    return package


def load_program():
    """Import forestsmith from this checkout's ``src/`` and nowhere else."""
    package = preflight()
    if str(package.parent) not in sys.path:
        sys.path.insert(0, str(package.parent))
    import forestsmith.cli

    if Path(forestsmith.cli.__file__).resolve().parent != package:
        raise Refusal(f"imported forestsmith from {forestsmith.cli.__file__}, not {package}")
    return forestsmith.cli


def run_job(job: Job) -> Outcome:
    """Run a job's commands through ``forestsmith.cli.main``; time only the calls."""
    cli = sys.modules["forestsmith.cli"]
    job.directory.mkdir(parents=True, exist_ok=True)
    outcome = Outcome([], [], [], 0.0)
    for argv in job.commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash fails the job; the run goes on
                code = None
                traceback.print_exc()
            outcome.seconds += time.perf_counter() - start
        outcome.codes.append(code)
        outcome.stdout.append(out.getvalue())
        outcome.stderr.append(err.getvalue())
    return outcome


def set_up(workload, work: Path) -> tuple[Path, float]:
    """Import the program, write the inputs, run one warm-up job; return its time.

    The warm-up job is the workload's job at small widths: it runs every code
    path a timed job runs, and keeps set-up short enough to repeat.
    """
    started = time.perf_counter()
    load_program()
    inputs, warm_inputs = work / "inputs", work / "warm-up-inputs"
    inputs.mkdir(parents=True)
    warm_inputs.mkdir()
    workload.prepare(inputs)
    small = workload.small()
    small.prepare(warm_inputs)
    run_job(small.job(warm_inputs, work / "warm-up", 0, 0))
    return inputs, time.perf_counter() - started


def cold_set_up(workload, work: Path) -> float:
    """One set-up in a fresh interpreter, so nothing the program keeps is warm."""
    code = "import pickle, sys, run; print(run.set_up(*pickle.load(sys.stdin.buffer))[1])"
    done = subprocess.run(
        [sys.executable, "-c", code], input=pickle.dumps((workload, work)), cwd=HERE,
        env=dict(os.environ, PYTHONPATH=str(HERE)), capture_output=True, check=True, timeout=600,
    )  # fmt: skip
    return float(done.stdout.split()[-1])


def check(workload, job: Job, outcome: Outcome) -> tuple[str, str]:
    try:
        return workload.check(job, outcome)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return WRONG, f"unreadable output: {exc!r}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced_phase(workload, seed, seconds, inputs, jobs_dir, max_jobs):
    """Run jobs until ``seconds`` of job time is spent and every panel input
    has run once; return them with the peak RSS read at that first point.

    The panel's inputs differ in cost and memory (on lossy-reduce one bag
    alone lifts the peak from 31 MB to 50 MB), so a run that stopped short
    of the panel would measure a different mix. Later jobs repeat inputs in
    a heap the earlier ones fragmented, which lifts the peak by up to a
    fifth depending on where the run stops, so the peak is read before them.
    """
    records = []
    spent = 0.0
    peak = None
    while (spent < seconds or len(records) < workload.panel) and len(records) < max_jobs:
        k = len(records)
        job = workload.job(inputs, jobs_dir / f"{k:04d}", seed, k)
        gc.collect()
        outcome = run_job(job)
        spent += outcome.seconds
        records.append((job, outcome))
        if len(records) == workload.panel:
            peak = peak_rss_mb()
    return records, peak_rss_mb() if peak is None else peak


def traced_phase(workload, seed, seconds, inputs, jobs_dir, max_jobs):
    """Each job runs untraced, then traced; returns (plain, traced, span docs)."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced, layers = [], [], []
    spent = 0.0
    while spent < seconds and len(traced) < max_jobs:
        k = len(traced)
        job = workload.job(inputs, jobs_dir / f"{k:04d}-plain", seed, k)
        gc.collect()
        plain.append((job, run_job(job)))
        job = workload.job(inputs, jobs_dir / f"{k:04d}-traced", seed, k)
        gc.collect()
        tracer.begin_job()
        tracer.install()
        try:
            outcome = run_job(job)
        finally:
            tracer.uninstall()
        traced.append((job, outcome))
        summary = tracer.job_summary()
        # Self times partition the traced calls; what is left is harness time.
        unattributed = outcome.seconds - sum(v for n, v in summary.items() if n.endswith("_s"))
        layers.append(
            {"summary": summary, "unattributed_s": unattributed, "spans": tracer.root.to_doc()}
        )
        spent += plain[-1][1].seconds + outcome.seconds
    return plain, traced, layers


def git_revision() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def job_record(job: Job, outcome: Outcome, verdict: tuple[str, str]) -> dict:
    root = str(ROOT) + os.sep
    return {
        "tag": job.tag,
        "seconds": outcome.seconds,
        "codes": outcome.codes,
        "verdict": verdict[0],
        "reason": verdict[1],
        "commands": [["forestsmith"] + [a.replace(root, "") for a in argv] for argv in job.commands],
    }


def measure(workload, seed, seconds, trace, out=OUT, max_jobs=None):
    """One run: set-up, timed phase, checks. Returns the full record."""
    max_jobs = sys.maxsize if max_jobs is None else max_jobs
    work = out / "work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs, setup_s = set_up(workload, work)
        jobs_dir = work / "jobs"
        record = {"setup_s": [setup_s]}
        if trace:
            plain, traced, layers = traced_phase(workload, seed, seconds, inputs, jobs_dir, max_jobs)
            done = plain + traced
        else:
            done, record["peak_rss_mb"] = untraced_phase(
                workload, seed, seconds, inputs, jobs_dir, max_jobs
            )
        verdicts = [check(workload, job, outcome) for job, outcome in done]
        record["jobs"] = [job_record(j, o, v) for (j, o), v in zip(done, verdicts)]
        if trace:
            for layer, (job, _), verdict in zip(layers, traced, verdicts[len(plain):]):
                nodes = workload.expanded_nodes_out(job) if verdict[0] == OK else 0
                layer["summary"]["trees.expanded_nodes_out"] = nodes
            record["traced"] = layers
            record["trace_overhead"] = sum(o.seconds for _, o in traced) / sum(
                o.seconds for _, o in plain
            )
        else:
            # Further cold set-ups for a steadier median.
            for r in range(1, SETUP_ROUNDS):
                record["setup_s"].append(cold_set_up(workload, work / f"set-up-{r}"))
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def metrics(record: dict, trace: bool) -> dict:
    if not trace:
        times = [job["seconds"] for job in record["jobs"]]
        values = {
            "setup_s": statistics.median(record["setup_s"]),
            "jobs_per_s": len(times) / sum(times),
            "job_s.p50": statistics.median(times),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        units = END_TO_END
    else:
        summaries = [layer["summary"] for layer in record["traced"]]
        values = {
            name: sum(s.get(name, 0) for s in summaries) / len(summaries) for name in PER_LAYER
        }
        values["trace.overhead"] = record["trace_overhead"]
        units = PER_LAYER
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def summary_line(record: dict, trace: bool) -> dict:
    verdicts = [job["verdict"] for job in record["jobs"]]
    return {
        "correct": WRONG not in verdicts,
        "attempted": len(verdicts),
        "failed": sum(v not in (OK, REFUSED) for v in verdicts),
        "metrics": metrics(record, trace),
    }


def report(workload, seed, trace, record, result, path) -> None:
    meta = record["meta"]
    print(
        f"workload {workload.name}  seed {seed}  trace {int(trace)}  "
        f"revision {meta['revision']}  python {meta['python']}  nproc {meta['nproc']}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']}")
    if not trace:
        print(f"    setup_s is the median of {len(record['setup_s'])} set-ups")
        print(f"    job_s.p50 is the median of {len(record['jobs'])} jobs")
    jobs = record["jobs"]
    for name, verdicts in (("failed_frac", (FAILED, WRONG)), ("refused_frac", (REFUSED,))):
        picked = [job for job in jobs if job["verdict"] in verdicts]
        print(f"  {name:<30} {len(picked) / len(jobs):>14.6g} ({len(picked)} of {len(jobs)} jobs)")
        for job in picked:
            print(f"    {job['verdict']}: {job['tag']}: {job['reason']}")
    print(f"record: {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="job time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        preflight()
        record = measure(workload, args.seed, args.seconds, bool(args.trace))
    except Refusal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    record["meta"] = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "revision": git_revision(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    result = summary_line(record, bool(args.trace))
    record["result"] = result
    path = OUT / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    report(workload, args.seed, bool(args.trace), record, result, path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
