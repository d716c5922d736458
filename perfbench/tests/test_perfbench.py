"""Tests of the benchmark itself: every workload at a tiny size, the result
schema against BENCHMARK.json, and the tracer's self-time accounting.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import harness  # noqa: E402
import theorem_sweep  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.3", "--trace", str(trace),
           "--scale", "0.05", "--min-jobs", "4", "--setup-samples", "2"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(metrics, spec):
    assert sorted(metrics) == sorted(m["name"] for m in spec)
    for m in spec:
        value = metrics[m["name"]]
        assert set(value) == {"value", "unit"}
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_prints_every_end_to_end_metric(workload):
    done = run_bench(workload, trace=0)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    check_metrics(result["metrics"], SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0.0
    details = json.loads(lines[-2])
    env = details["env"]
    assert env["seed"] == 7 and env["nproc"] >= 1
    assert set(env["threads"].values()) == {"1"}
    assert {"python", "numpy", "scipy"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_accounts_for_job_time(workload):
    done = run_bench(workload, trace=1)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    check_metrics(result["metrics"], SPEC["per_layer"])
    tracing_info = json.loads(lines[-2])["tracing"]
    assert sorted(tracing_info["layers"]) == sorted(tracing.LAYER_METRICS)
    assert tracing_info["accounting"]["accounted_share"] == pytest.approx(1.0, abs=1e-9)
    assert "overhead_jobs_per_s" in tracing_info
    assert os.path.exists(os.path.join(ROOT, tracing_info["spans_file"]))


def test_refuses_to_run_without_the_program(tmp_path):
    # only BENCHMARK.json and the benchmark's own files, no src/rdcert
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = run_bench("scalar-certify", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_self_times_add_up_to_the_root_span():
    tr = tracing.Tracer()

    def child():
        tr._enter("grid.inner")
        tr._exit()

    def job():
        tr._enter("solver.outer")
        child()
        child()
        tr._exit()

    tr.run_job("j1", "job.test", job)
    total_self = sum(tr.self_time.values())
    assert total_self == pytest.approx(tr.job_wall, rel=1e-12)
    assert tr.inclusive["solver.outer"] >= tr.inclusive["grid.inner"]
    parents = {span[0]: span[1] for span in tr.spans}
    names = {span[0]: span[3] for span in tr.spans}
    for span_id, parent in parents.items():
        if names[span_id] == "grid.inner":
            assert names[parent] == "solver.outer"


def test_install_and_uninstall_restore_the_program():
    import rdcert
    import rdcert.cli
    import rdcert.solver
    # the table run-theorem dispatches on: scenario id -> constructor
    table = next(v for v in vars(rdcert.cli).values() if isinstance(v, dict)
                 and rdcert.exponential_decay_scenario in v.values())
    before = (rdcert.cli.simulate, rdcert.simulate, rdcert.solver.norms_from_values,
              dict(table))
    tr = tracing.Tracer()
    tr.install()
    try:
        assert rdcert.cli.simulate is not before[0]
        assert table["3.1"] is not before[3]["3.1"]
        assert rdcert.solver.simulate is before[0]  # defining module left alone
    finally:
        tr.uninstall()
    after = (rdcert.cli.simulate, rdcert.simulate, rdcert.solver.norms_from_values,
             dict(table))
    assert after == before


def test_tail_percentile_keeps_ten_samples_beyond():
    values = sorted(float(i) for i in range(1, 101))
    tail, beyond = harness.nearest_rank(values, 90)
    assert tail == 90.0 and beyond == 10


def test_reference_comparison_flags_a_changed_answer():
    table = theorem_sweep.load_reference()
    entry = next(j for j in table["jobs"] if j["expected"]["exit"] == 0)
    expected = entry["expected"]
    assert theorem_sweep.compare(dict(expected), expected, table["rtol"]) == []
    drifted = dict(expected, final_g=expected["final_g"] * (1.0 + 1e-4))
    assert theorem_sweep.compare(drifted, expected, table["rtol"])
    flipped = dict(expected, exit=3)
    assert theorem_sweep.compare(flipped, expected, table["rtol"])
