"""Smoke test of the pipeline benchmark.

    python3 -m pytest perfbench

Every workload runs once at its smallest size, untraced and traced; each
metric BENCHMARK.json names, and each of the six end-to-end metrics the
README defines, must be printed with its unit.  The output checks must
flag a tampered certificate and a misreported verifier slack.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import check  # noqa: E402
import gen  # noqa: E402

SIX = {"setup_s": "s", "op_s.p50": "s", "lattice_pts_per_s": "points/s",
       "entries_per_s": "entries/s", "peak_rss_mb": "MB", "failed_share": "ratio"}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--smoke",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    table, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    want = _spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    if not trace:
        rows = {line.split()[0]: line.split()[1:] for line in table if line.startswith("  ") and
                line.split()[0] in SIX}
        for name, unit in SIX.items():
            assert rows[name][1] == unit, (name, rows.get(name))


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("table"))
    manifest = gen.build("verify-tables", 5, work, smoke=True)
    op = next(op for op in manifest["ops"] if op["theorem"] == "4.3")
    with open(op["certificate"], encoding="utf-8") as fh:
        cert = json.load(fh)
    return check.load_problem(op["problem"]), op, cert, manifest


def test_generated_table_passes_the_checks(table):
    prob, op, cert, manifest = table
    assert manifest["setup_problems"] == []
    assert check.check_table(prob, op["point"], cert, "4.3", op["N"]) == []


def test_tampered_certificate_is_flagged(table):
    prob, op, cert, _ = table
    bad = copy.deepcopy(cert)
    bad["entries"][-1]["xstar"][0][0] += 10.0
    complaints = check.check_table(prob, op["point"], bad, "4.3", op["N"])
    assert any("subdiff_f[0]" in c for c in complaints)


def test_misreported_slack_is_flagged(table):
    _, op, _, _ = table
    names = next(iter(op["reference"].values()))
    slacks = {name: [0.0] * op["N"] for name in names}
    for k, ours in op["reference"].items():
        for name, value in ours.items():
            slacks[name][int(k)] = value
    assert check.check_reported_slacks(op["reference"], {"slacks": slacks}) == []
    slacks["normal_C"][0] -= 1e-3
    assert check.check_reported_slacks(op["reference"], {"slacks": slacks})


def test_lattice_search_tells_dominated_from_efficient(tmp_path):
    op = gen.build("oracle-scan", 7, str(tmp_path), smoke=True)["ops"][0]
    prob = check.load_problem(op["problem"])
    assert not check.lattice_dominates(prob, op["point"], op["grid"])
    assert check.lattice_dominates(prob, [0.0] * prob["n"], op["grid"])
