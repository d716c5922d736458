"""Closed-loop job runner, latency statistics and the environment record.

One client runs a workload's jobs back to back in this process.  Only the
call into rdcert is timed; checking each outcome against its reference or
oracle happens between jobs, outside the timed region.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# A run stops measuring after this many seconds even if it has not reached
# --seconds of job time or the minimum job count, so that with its set-up it
# ends within three minutes on a much slower machine.
MAX_MEASURE_S = 120.0


def calibration_kernel():
    """Fixed interpreter and small-array work, independent of rdcert.

    Its time, taken between job cycles, tracks the speed of the machine during
    the run, so results from different runs can be told apart from machine
    drift.  It is reported, never used to adjust a metric.
    """
    import numpy as np
    start = time.perf_counter()
    a = np.linspace(0.0, 1.0, 128)
    total = 0.0
    for i in range(300):
        b = a * 1.0001 + 0.5
        total += float(np.sqrt(b * b + 1.0) @ a) + {"i": i}["i"] * 1e-9
    return time.perf_counter() - start


class Tally:
    """Latencies and failures of the measured jobs of one run."""

    def __init__(self):
        self.latencies = []           # (job kind, seconds)
        self.traced_latencies = []
        self.attempted = 0
        self.failures = []      # (job id, message)
        self.calibration = []   # seconds of calibration_kernel, once per cycle

    def fail(self, job_id, message):
        self.failures.append((job_id, message))


def run_one(workload, job, tally, tracer=None):
    """Run and check one job; returns its latency in seconds."""
    tally.attempted += 1
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        if tracer is None:
            outcome = workload.run(job)
        else:
            outcome = tracer.run_job(job.id, "job." + workload.name,
                                     lambda: workload.run(job))
        error = None
    except Exception:  # an unexpected raise is a failed job, reported below
        outcome, error = None, traceback.format_exc(limit=3)
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    if error is not None:
        tally.fail(job.id, "raised: " + error.strip().splitlines()[-1])
        return latency
    problems = workload.check(job, outcome)
    for message in problems:
        tally.fail(job.id, message)
    if tracer is not None:
        tracer.count("inequality.oracle_mismatches", len(problems))
    return latency


def measure(workload, seconds, min_jobs, tracer=None):
    """Run jobs until ``seconds`` of job time and ``min_jobs`` jobs (on each
    side, when traced) are done.

    With a tracer, whole cycles of the workload's job kinds alternate between
    traced and untraced, so both sides see the same mix of inputs and the
    same machine conditions.
    """
    tally = Tally()
    busy = 0.0
    deadline = time.perf_counter() + MAX_MEASURE_S
    index = 0
    while (busy < seconds or len(tally.latencies) < min_jobs
           or (tracer is not None and len(tally.traced_latencies) < min_jobs)):
        if time.perf_counter() > deadline:
            break
        if index % workload.cycle_length == 0:
            tally.calibration.append(calibration_kernel())
        job = workload.next_job()
        traced = tracer is not None and (index // workload.cycle_length) % 2 == 1
        latency = run_one(workload, job, tally, tracer if traced else None)
        (tally.traced_latencies if traced else tally.latencies).append((job.kind, latency))
        busy += latency
        index += 1
    return tally


def nearest_rank(sorted_values, percentile):
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def latency_summary(latencies, tail_percentile):
    values = sorted(lat for _, lat in latencies)
    tail, beyond = nearest_rank(values, tail_percentile)
    return {"jobs": len(values),
            "jobs_per_s": len(values) / sum(values),
            "job_s_p50": statistics.median(values),
            "job_s_tail": tail,
            "tail_percentile": tail_percentile,
            "tail_samples_beyond": beyond}


def by_kind(latencies):
    """Median latency and job count per job kind."""
    groups = {}
    for kind, latency in latencies:
        groups.setdefault(kind, []).append(latency)
    return {kind: {"jobs": len(v), "job_s_p50": statistics.median(v)}
            for kind, v in sorted(groups.items())}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed, workload, seconds, trace):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
        "seed": seed,
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
    }
