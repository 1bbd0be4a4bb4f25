"""Smoke test of the benchmark command at tiny size.

Runs every workload end to end, untraced and traced, and checks that the
reply check ran and that every metric ``BENCHMARK.json`` declares is
printed.  Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench.workload import SPECS, Workload, make_inputs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _source:
    DECLARED = json.load(_source)
# Every defined workload, including point_tcp, which runs by hand but is not
# in BENCHMARK.json (see README.md).
WORKLOADS = list(SPECS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_checks_replies_and_reports_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    report = "\n".join(lines[:-1])
    assert f"seed=3 trace={trace}" in report and "error_rate" in report
    if trace:
        assert "attribution: named layers explain" in report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reply_check_rejects_a_flipped_verdict(workload):
    spec = SPECS[workload]
    work = Workload(spec, make_inputs(spec, 3, "tiny"))
    check = work.make_check()
    assert check(work.expected[0], 0) is None
    if spec.protocol == "http":
        members = list(work.verdicts[0])
        members[0] = not members[0]
        wrong = json.dumps({"members": members, "generation": 1}).encode()
    else:
        head, verdicts = work.expected[0][:4], work.expected[0][4:].split()
        verdicts[0] = b"0" if verdicts[0] == b"1" else b"1"
        wrong = head + b" ".join(verdicts)
    assert check(wrong, 0) is not None


def test_costed_check_rejects_false_negatives_and_older_generations():
    spec = SPECS["costed_rebuild"]
    work = Workload(spec, make_inputs(spec, 3, "tiny"))
    check = work.make_check()
    index, (position, member_from) = next(
        (i, members[-1]) for i, members in enumerate(work.members) if members
    )
    generation = max(member_from, 2)
    verdicts = [b"1"] * len(work.groups[index])
    assert check(b"V %d " % generation + b" ".join(verdicts), index) is None
    verdicts[position] = b"0"
    assert "false negative" in check(b"V %d " % generation + b" ".join(verdicts), index)
    verdicts[position] = b"1"
    older = b"V %d " % (generation - 1) + b" ".join(verdicts)
    assert "went back" in check(older, index)
