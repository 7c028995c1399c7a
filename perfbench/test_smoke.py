"""Smoke test of the benchmark harness at tiny widths.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import SMALL, WORKLOADS, Outcome

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = (
    "trees.table_bits",
    "lossy.subsets_scanned",
    "verify.inputs_checked",
    "io_formats.bytes_out",
    "trees.expanded_nodes_out",
)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench")
    return {
        (name, trace, repeat): run.measure(workload, 5, 60.0, trace, out=out, max_jobs=2)
        for name, workload in SMALL.items()
        for trace in (False, True)
        for repeat in (0, 1)
    }


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS) == list(SMALL)


@pytest.mark.parametrize("name", list(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(records, name, trace):
    result = run.summary_line(records[name, trace, 0], trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("name", list(SMALL))
def test_computed_counts_repeat_exactly(records, name):
    first, second = (run.summary_line(records[name, True, r], True) for r in (0, 1))
    for count in EXACT_COUNTS:
        assert first["metrics"][count]["value"] == second["metrics"][count]["value"], count


@pytest.mark.parametrize("name", list(SMALL))
def test_layer_self_times_sum_to_traced_job_time(records, name):
    record = records[name, True, 0]
    traced = record["jobs"][len(record["traced"]) :]
    for layer, job in zip(record["traced"], traced):
        self_times = sum(v for n, v in layer["summary"].items() if n.endswith("_s"))
        assert self_times == pytest.approx(job["seconds"], rel=0.01, abs=1e-3)
        assert abs(layer["unattributed_s"]) <= 0.01 * job["seconds"] + 1e-3


def test_lossy_recount_catches_a_wrong_report(tmp_path):
    workload = SMALL["lossy-reduce"]
    run.load_program()
    (tmp_path / "inputs").mkdir()
    workload.prepare(tmp_path / "inputs")
    job = workload.job(tmp_path / "inputs", tmp_path / "job", 0, 0)
    outcome = run.run_job(job)
    assert run.check(workload, job, outcome) == ("ok", "")
    path = job.directory / "reduced.report.json"
    report = json.loads(path.read_text())
    p, q = report["measured_error"].split("/")
    report["measured_error"] = f"{int(p) + 1}/{q}"
    path.write_text(json.dumps(report))
    verdict, reason = run.check(workload, job, outcome)
    assert verdict == "wrong" and "recount" in reason


def test_only_the_serialization_cap_is_a_refusal(tmp_path):
    workload = WORKLOADS["lossy-reduce"]
    run.load_program()
    job = workload.job(tmp_path, tmp_path / "job", 0, 0)
    job.directory.mkdir()

    def verdict(code, err):
        return run.check(workload, job, Outcome([code], [""], [err], 1.0))[0]

    cap = "error: tree expands to {} nodes; refusing to serialize beyond 1000000\n"
    assert verdict(2, cap.format(4019827)) == "refused"
    assert verdict(2, cap.format(999)) == "wrong"
    assert verdict(2, cap.format(4019827).replace("1000000", "5000")) == "refused"
    assert verdict(2, cap.format(9999).replace("1000000", "5000")) == "wrong"
    assert verdict(2, "error: --K must be positive\n") == "failed"
    assert verdict(None, "Traceback ...\n") == "failed"
    assert verdict(1, "") == "wrong"
    (job.directory / "reduced.report.json").write_text("{}")
    assert verdict(2, cap.format(4019827)) == "wrong"


def test_refuses_a_lowered_width_cap(monkeypatch, capsys):
    monkeypatch.setenv("FORESTSMITH_MAX_L", "12")
    assert run.main(["--workload", "lossy-reduce", "--seed", "1", "--seconds", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "FORESTSMITH_MAX_L" in captured.err


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert done.returncode != 0
    assert done.stdout == "" and "no forestsmith sources" in done.stderr
