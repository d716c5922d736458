"""Regenerate ``reference/theorem_sweep.json``, the theorem-sweep job pool.

    python3 perfbench/make_reference.py

Every pool entry perturbs one demo config from ``demos/configs`` (L, c0,
initial amplitude, dt, and for the not-applicable template the boundary
condition), runs it once through ``rdcert run-theorem`` and stores the
answer.  Timed runs compare every job against this table, so regenerate it
only when the program's answers are meant to change, and say so.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import theorem_sweep  # noqa: E402

POOL_SEED = 20120622
POOL_SIZE = 12
RTOL = 1e-6

# Steps per job are fixed per template and chosen so that every job costs
# about the same (two-component regimes step more slowly); T = steps * dt.
# Base values follow demos/configs/theorem3*.cfg.
TEMPLATES = {
    "exp31": {"which": "3.1", "steps": 300, "amps": [0.0797884560802865], "mode": 1,
              "sections": {"domain": {"L": math.pi, "N": 128, "bc": "dirichlet"},
                           "kinetics": {"matrix": "1.0", "nonlinearity": "saturated_power",
                                        "p": 2.0, "c0_v0": 0.05},
                           "diffusion": {"v0": "2.0"},
                           "run": {"dt": 0.002}}},
    "pow32": {"which": "3.2", "steps": 300, "amps": [0.42], "mode": 1,
              "sections": {"domain": {"L": 1.0, "N": 96, "bc": "dirichlet"},
                           "kinetics": {"matrix": "0.2", "nonlinearity": "saturated_power",
                                        "p": 2.0, "c0_v0": 0.5},
                           "modulation": {"kind": "power_decay", "v0": 1.0, "exponent": 1.0},
                           "diffusion": {"kind": "power_decay", "v0": "1.0",
                                         "exponent": 1.0},
                           "run": {"dt": 0.004},
                           "certificate": {"m": 2.0}}},
    "neu33": {"which": "3.3", "steps": 300, "amps": [0.5], "mode": 0,
              "sections": {"domain": {"L": 1.0, "N": 64, "bc": "neumann"},
                           "kinetics": {"matrix": "0.1", "nonlinearity": "saturated_power",
                                        "p": 2.0, "c0_v0": 0.2},
                           "modulation": {"kind": "power_decay", "v0": 1.0, "exponent": 2.0},
                           "diffusion": {"v0": "1.0"},
                           "run": {"dt": 0.004},
                           "certificate": {"nu": 1.0, "mu_split": 0.5}}},
    "mod34d": {"which": "3.4", "steps": 220, "amps": [0.05, 0.05], "mode": 1,
               "sections": {"domain": {"L": 2.0, "N": 96, "bc": "dirichlet"},
                            "kinetics": {"matrix": "1,2;-2,-2",
                                         "nonlinearity": "saturated_power",
                                         "p": 2.0, "c0_v0": 0.01},
                            "modulation": {"kind": "power_decay", "v0": 10.0,
                                           "exponent": 1.0},
                            "diffusion": {"kind": "power_decay", "v0": "5.0, 100.0",
                                          "exponent": 1.0},
                            "run": {"dt": 0.004},
                            "certificate": {"m": 1.0}}},
    "mod34b": {"which": "3.4", "steps": 220, "amps": [0.1, 0.1], "mode": 1,
               "sections": {"domain": {"L": 4.0, "N": 96, "bc": "dirichlet"},
                            "kinetics": {"matrix": "1,2;-2,-2",
                                         "nonlinearity": "saturated_power",
                                         "p": 2.0, "c0_v0": 0.05},
                            "modulation": {"kind": "power_decay", "v0": 0.35,
                                           "exponent": 2.0},
                            "diffusion": {"kind": "power_decay", "v0": "0.175, 3.5",
                                          "exponent": 2.0},
                            "run": {"dt": 0.004},
                            "certificate": {"nu": 1.0, "mu_split": 0.5}}},
}

# Jobs per cycle, in order: a run draws one pool entry per slot.  Two of the
# nine slots are expected to fail their theorem: "na" flips the boundary
# condition so the regime does not apply (exit 2), "blowup" makes the linear
# part so strong that the solution overflows (exit 3).
CYCLE = ["exp31", "pow32", "neu33", "exp31", "mod34d", "pow32", "mod34b", "na", "blowup"]


def perturbed(template: str, rng: random.Random) -> tuple:
    spec = TEMPLATES[template]
    sections = json.loads(json.dumps(spec["sections"]))
    sections["domain"]["L"] *= rng.uniform(0.9, 1.1)
    sections["kinetics"]["c0_v0"] *= rng.uniform(0.6, 1.4)
    dt = sections["run"]["dt"] * rng.choice((0.8, 1.0, 1.25))
    amps = [a * rng.uniform(0.6, 1.4) for a in spec["amps"]]
    sections["run"].update({"dt": dt, "T": spec["steps"] * dt,
                            "ic": f"mode({spec['mode']}, " + ", ".join(map(repr, amps)) + ")"})
    return spec["which"], sections


def make_entry(template: str, rng: random.Random) -> tuple:
    if template == "na":
        base = rng.choice(sorted(TEMPLATES))
        which, sections = perturbed(base, rng)
        flip = {"dirichlet": "neumann", "neumann": "dirichlet"}
        sections["domain"]["bc"] = flip[sections["domain"]["bc"]]
        return which, sections
    if template == "blowup":
        which, sections = perturbed("exp31", rng)
        sections["kinetics"]["matrix"] = repr(rng.uniform(1500.0, 2500.0))
        return which, sections
    return perturbed(template, rng)


def stringify(sections: dict) -> dict:
    return {sec: {k: (repr(v) if isinstance(v, float) else str(v)) for k, v in keys.items()}
            for sec, keys in sections.items()}


def build_table() -> dict:
    import rdcert.cli
    rng = random.Random(POOL_SEED)
    jobs = []
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "job.cfg")
        out_dir = os.path.join(tmp, "out")
        for template in sorted(set(CYCLE)):
            for index in range(POOL_SIZE):
                which, sections = make_entry(template, rng)
                config = stringify(sections)
                with open(cfg_path, "w", encoding="utf-8") as fh:
                    fh.write(theorem_sweep.render_config(config))
                code = theorem_sweep.run_theorem(rdcert.cli, which, cfg_path, out_dir)
                expected = theorem_sweep.observe(out_dir, code)
                shutil.rmtree(out_dir)
                jobs.append({"id": f"{template}/{index:02d}", "template": template,
                             "which": which, "config": config, "expected": expected})
                print(f"{template}/{index:02d}: exit {code} {expected['status']}")
    return {"rtol": RTOL, "pool_seed": POOL_SEED, "cycle": CYCLE, "jobs": jobs}


def main():
    table = build_table()
    path = os.path.join(HERE, "reference", "theorem_sweep.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    codes = [job["expected"]["exit"] for job in table["jobs"]]
    print(f"wrote {path}: {len(codes)} jobs, exit codes "
          + ", ".join(f"{c}: {codes.count(c)}" for c in sorted(set(codes))))


if __name__ == "__main__":
    main()
