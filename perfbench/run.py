"""rdcert benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload theorem-sweep --seed 1 --seconds 20 --trace 0

Run from the root of an rdcert checkout; the package is imported from its
``src/`` directory.  One client runs jobs back to back in this process (a
closed loop), with BLAS and OpenMP pinned to one thread.  The last line of
standard output is the result: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones listed in BENCHMARK.json.  The line before it
carries the environment and the details behind the metrics.  See
perfbench/README.md for the metric and workload definitions.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402  (standard library only at import)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

# Pinned before numpy is imported, here and in the set-up probes (inherited).
for _var in harness.THREAD_VARS:
    os.environ[_var] = "1"

WORKLOADS = {"theorem-sweep": "theorem_sweep", "fine-grid": "fine_grid",
             "scalar-certify": "scalar_certify"}
SETUP_SAMPLES = 5         # fresh processes, one after another
MIN_JOBS = 150            # so p90 always has at least 15 samples beyond it
PROBE_TIMEOUT = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="job size factor, below 1 only for the benchmark's own tests")
    parser.add_argument("--min-jobs", type=int, default=MIN_JOBS)
    parser.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def rdcert_src():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rdcert", "__init__.py")):
        raise SystemExit(f"error: no rdcert sources under {src}; run from a checkout root")
    return src


def import_rdcert():
    """Import rdcert from this checkout's src/, never from anywhere else."""
    src = rdcert_src()
    sys.path.insert(0, src)
    import rdcert
    if not os.path.abspath(rdcert.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported rdcert from {rdcert.__file__}, not {src}")
    return rdcert


def set_up(args, work_dir):
    """Everything set-up time covers: imports, seeded inputs, one warm-up job.

    Returns the workload, the warm-up job's tally entry and the seconds spent
    since this process started.
    """
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import scipy.integrate  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.optimize  # noqa: F401
    import_rdcert()
    import importlib
    module = importlib.import_module(WORKLOADS[args.workload])
    kwargs = {} if args.workload == "theorem-sweep" else {"scale": args.scale}
    workload = module.Workload(args.seed, work_dir, **kwargs)
    warm = harness.Tally()
    harness.run_one(workload, workload.next_job(), warm)
    return workload, warm, time.perf_counter() - _PROCESS_START


def probe_setup(args):
    """Set-up time of fresh processes, one after another."""
    times = []
    for _ in range(args.setup_samples):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--scale", str(args.scale)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def work_dir_for(args):
    path = os.path.join(ROOT, ".bench_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def main(argv=None):
    args = parse_args(argv)
    rdcert_src()
    work_dir = work_dir_for(args)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": set_up(args, work_dir)[2]}))
            return 0
        return run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, work_dir):
    setup_samples = probe_setup(args)
    workload, warm, _ = set_up(args, work_dir)
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    tally = harness.measure(workload, args.seconds, args.min_jobs, tracer)
    failures = warm.failures + tally.failures
    attempted = warm.attempted + tally.attempted
    summary = harness.latency_summary(tally.latencies, workload.tail_percentile)
    details = {"env": harness.environment(args.seed, args.workload, args.seconds, args.trace),
               "setup_samples_s": setup_samples,
               "inputs": workload.inputs,
               "latency": summary,
               "latency_by_kind": harness.by_kind(tally.latencies),
               "calibration_s_p50": statistics.median(tally.calibration),
               "failures": failures[:20]}

    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "jobs_per_s": {"value": summary["jobs_per_s"], "unit": "1/s"},
            "job_s_p50": {"value": summary["job_s_p50"], "unit": "s"},
            "job_s_tail": {"value": summary["job_s_tail"], "unit": "s"},
            "peak_rss_mb": {"value": harness.peak_rss_mb(), "unit": "MB"},
            "ok_ratio": {"value": (attempted - len(failures)) / attempted, "unit": "ratio"},
        }
    else:
        layers = tracer.layer_metrics()
        traced = harness.latency_summary(tally.traced_latencies, workload.tail_percentile)
        details["tracing"] = {
            "untraced_jobs_per_s": summary["jobs_per_s"],
            "traced_jobs_per_s": traced["jobs_per_s"],
            "overhead_jobs_per_s": traced["jobs_per_s"] - summary["jobs_per_s"],
            "overhead_share": traced["jobs_per_s"] / summary["jobs_per_s"] - 1.0,
            "accounting": tracer.accounting(),
            "layers": layers,
        }
        spans_dir = os.path.join(ROOT, ".bench_out")
        spans_path = os.path.join(spans_dir, f"spans-{args.workload}.jsonl.gz")
        tracer.write(spans_path)
        details["tracing"]["spans_file"] = os.path.relpath(spans_path, ROOT)
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            wanted = [m["name"] for m in json.load(fh)["per_layer"]]
        metrics = {name: layers[name] for name in wanted}

    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
