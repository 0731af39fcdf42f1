"""Tests of the benchmark itself, on tiny synthetic logs.

Run from the repository root:  python -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = run.Synth(users=40, events=400, t_span=40 * 86_400)


def tiny(name: str) -> run.Workload:
    workload = run.WORKLOADS[name]
    return dataclasses.replace(workload, synth=TINY, queries=min(workload.queries, 12))


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("bench_work")


@pytest.fixture(scope="module")
def reports(work) -> dict[str, dict]:
    """Each workload once, untraced then traced, at seed 3."""
    return {name: run.Run(tiny(name), 3, 0, True, work).execute() for name in run.WORKLOADS}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_workload_runs_end_to_end(reports, name):
    report = reports[name]
    assert report["correct"], report["problems"]
    assert report["failed"] == 0
    ops = tiny(name).queries or 1
    assert report["attempted"] >= ops * (run.CHILDREN + run.TRACED_CHILDREN)  # a repetition per child


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_named_metric_appears(reports, name):
    report = reports[name]
    units = {name: m["unit"] for name, m in report["end_to_end"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in report["end_to_end"].values())
    assert {m["name"] for m in SPEC["per_layer"]} <= set(report["layers"])


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tracing_leaves_the_output_digest_unchanged(reports, name):
    # one digest over every untraced and traced repetition
    assert reports[name]["digest"] is not None


def test_all_pass_counts(reports):
    layers = reports["otc-eighth-all"]["layers"]
    assert layers["model.node_metrics.calls"] == 5
    assert layers["dynamics.snapshot_series.calls"] == 3
    assert layers["categories.categorize.calls"] == 3
    assert layers["static.configuration_null.swap_ratio"] > 0


def test_query_workload_reports_latencies(reports):
    extra = reports["otc-1x-queries"]["extra"]
    assert extra["trust_p50_ms"]["n"] == extra["history_p50_ms"]["n"] == 6 * run.CHILDREN
    assert reports["otc-1x-queries"]["layers"]["model.gettrust.calls"] == 6


def test_corrupted_output_fails_the_checks(reports, work, tmp_path):
    assert reports["otc-eighth-all"]["correct"]
    out = tmp_path / "run"
    shutil.copytree(work / "runs" / "otc-eighth-all" / "child0" / "rep0", out)
    log = next((work / "inputs").glob("*/synthetic.csv"))
    facts = run.log_facts(run.read_log(log))
    input_sha = run.sha256_file(log)
    assert run.check_outputs(out, input_sha, facts) == []
    digest = run.csv_digest(out)

    categories = out / "categories.csv"
    categories.write_text("".join(categories.read_text().splitlines(True)[:-1]))
    assert any("categories.csv" in p for p in run.check_outputs(out, input_sha, facts))
    assert run.csv_digest(out) != digest

    record = tmp_path / "digests.json"
    assert run.check_digest(record, "key", digest) == []
    assert run.check_digest(record, "key", run.csv_digest(out)) != []

    (out / "stray.csv").write_text("x\n")
    assert any("manifest lists" in p for p in run.check_outputs(out, input_sha, facts))


def test_wrong_answer_fails_the_oracle_check():
    rows = [(1, 2, 5, 10), (2, 3, 4, 20), (1, 3, -2, 30), (3, 1, 1, 40)]
    queries = [["trust", 1, 3, 40], ["history", None, None, 20]]
    history = run.oracle_history(rows, 20)
    assert run.oracle_trust(rows, 1, 3, 40) == -2 + 4
    assert history == [[1, 0, 0, 1, 0, 0, 0], [2, 1, 0, 1, 0, 5, 0], [3, 1, 0, 0, 0, 4, 0]]
    assert run.check_answers(rows, queries, {"0": 2, "1": history}) == []
    assert len(run.check_answers(rows, queries, {"0": 3, "1": history[:2]})) == 2


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "otc-eighth-all", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout == ""
