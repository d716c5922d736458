"""theorem-sweep: seeded ``rdcert run-theorem`` jobs over regimes 3.1 to 3.4.

Each job is one ``rdcert.cli.main(["run-theorem", ...])`` call on a config
drawn from the pool stored in ``reference/theorem_sweep.json``.  The pool was
made by ``make_reference.py``: every entry perturbs a demo config (L, c0,
amplitude, dt, and Dirichlet or Neumann ends) and records what the program
answered at the commit that defined the benchmark.  A run draws pool entries
from its --seed in a fixed cycle of templates, so every seed runs the same
mix of regimes and each job is checked against its reference entry.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass

NAME = "theorem-sweep"
TAIL_PERCENTILE = 90
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference", "theorem_sweep.json")

# Fields compared exactly and fields compared within the table's rtol.
EXACT_FIELDS = ("exit", "status", "hypotheses_passed", "envelope_verified",
                "envelope_violations", "certificate_check_pass")
CLOSE_FIELDS = ("worst_ratio", "g0", "alpha_factor", "final_g", "time_of_failure")


@dataclass(frozen=True)
class Job:
    id: str
    kind: str
    which: str
    config: str
    expected: dict


def render_config(sections: dict) -> str:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
        lines.append("")
    return "\n".join(lines)


def observe(out_dir: str, code: int) -> dict:
    """The checked fields of one run-theorem job, read from its outputs."""
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    check = report.get("certificate_check") or {}
    final_g = None
    series = os.path.join(out_dir, "series.csv")
    if os.path.exists(series):
        with open(series, "rb") as fh:
            fh.seek(max(0, os.path.getsize(series) - 4096))
            last = fh.read().decode("utf-8").strip().splitlines()[-1]
        final_g = float(last.split(",")[1])
    return {
        "exit": code,
        "status": report.get("status"),
        "hypotheses_passed": report.get("hypotheses_passed"),
        "envelope_verified": report.get("envelope_verified"),
        "envelope_violations": report.get("envelope_violations"),
        "certificate_check_pass": check.get("pass"),
        "worst_ratio": report.get("worst_ratio"),
        "g0": report.get("g0"),
        "alpha_factor": (report.get("constants") or {}).get("alpha_factor"),
        "final_g": final_g,
        "time_of_failure": report.get("time_of_failure"),
    }


def compare(observed: dict, expected: dict, rtol: float) -> list:
    problems = []
    for key in EXACT_FIELDS:
        if observed[key] != expected[key]:
            problems.append(f"{key}: got {observed[key]!r}, reference {expected[key]!r}")
    for key in CLOSE_FIELDS:
        got, want = observed[key], expected[key]
        if (got is None) != (want is None):
            problems.append(f"{key}: got {got!r}, reference {want!r}")
        elif got is not None and not math.isclose(got, want, rel_tol=rtol, abs_tol=1e-300):
            problems.append(f"{key}: got {got!r}, reference {want!r} (rtol {rtol:g})")
    return problems


def load_reference(path: str = REFERENCE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_theorem(cli, which: str, config_path: str, out_dir: str) -> int:
    # run-theorem reports not-applicable and blow-up outcomes on stderr;
    # they are expected answers here, so keep them off the console.
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["run-theorem", which, "--config", config_path, "--out", out_dir])


class Workload:
    name = NAME
    tail_percentile = TAIL_PERCENTILE

    def __init__(self, seed: int, work_dir: str):
        import rdcert.cli
        self.cli = rdcert.cli
        table = load_reference()
        self.rtol = table["rtol"]
        self.cycle = table["cycle"]
        self.out_dir = os.path.join(work_dir, "job")
        config_dir = os.path.join(work_dir, "configs")
        os.makedirs(config_dir, exist_ok=True)
        self.pool = {}
        for entry in table["jobs"]:
            path = os.path.join(config_dir, entry["id"].replace("/", "_") + ".cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render_config(entry["config"]))
            self.pool.setdefault(entry["template"], []).append(
                Job(entry["id"], entry["template"], entry["which"], path, entry["expected"]))
        self.cycle_length = len(self.cycle)
        self.inputs = (f"run-theorem on {len(table['jobs'])} pooled configs, N 64-128, "
                       "220-300 steps, cycle " + " ".join(self.cycle))
        self.rng = random.Random(seed)
        self.position = 0

    def next_job(self) -> Job:
        template = self.cycle[self.position % len(self.cycle)]
        self.position += 1
        return self.rng.choice(self.pool[template])

    def run(self, job: Job) -> int:
        return run_theorem(self.cli, job.which, job.config, self.out_dir)

    def check(self, job: Job, code: int) -> list:
        try:
            return compare(observe(self.out_dir, code), job.expected, self.rtol)
        except (OSError, ValueError, IndexError) as exc:
            return [f"unreadable outputs: {exc}"]
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)
