#!/usr/bin/env python3
"""Benchmark of the lohesphere library, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload {mean_field,large_n,measures} \\
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

--trace 0 times repetitions of the workload in a fresh process for S
seconds and prints the end-to-end metrics; --trace 1 runs a fixed number of
repetitions with every layer's public functions wrapped and prints the
per-layer metrics.  Inputs depend only on the workload, the seed and the
size.  Every repetition's outputs are checked outside the timed span.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give each metric with
its unit and the environment, and perfbench/out/ keeps a JSON record of
the run (and the spans of a traced run).

This script only starts worker.py processes and collects what they report,
so its own imports stay out of every timing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
WORKLOADS = ("mean_field", "large_n", "measures")

#: fresh processes whose set-up times give setup_s (their median)
SETUP_SAMPLES = 5

#: every worker must have ended this many seconds after the start
DEADLINE_S = 170.0

#: the measured worker starts no repetition later than this many seconds
#: before the deadline, which leaves room for the last repetition, its
#: checks and the workload's closing step on a slow machine
STOP_MARGIN_S = 60.0


class WorkerError(RuntimeError):
    pass


def monotonic() -> float:
    """The clock the workers stamp their ready time with (shared by all processes)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args: argparse.Namespace, mode: str, deadline: float, env: dict | None = None) -> dict:
    """Run one worker to completion; returns its report plus its set-up seconds."""
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--size", args.size,
        "--mode", mode,
    ]
    if mode == "trace":
        cmd += ["--spans", str(OUT / f"spans_{args.workload}_seed{args.seed}.csv")]
    if mode == "run":
        cmd += ["--stop-at", repr(deadline - STOP_MARGIN_S)]
    t_spawn = monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1", **(env or {})},
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - t_spawn, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker ran past the deadline") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise WorkerError(f"{mode} worker printed no report: {exc}") from exc
    report["setup_s"] = report["t_ready"] - t_spawn
    return report


def end_to_end(args: argparse.Namespace, deadline: float) -> tuple[dict, dict]:
    setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    main = spawn(args, "run", deadline)
    if not main["rep_s"]:
        raise WorkerError("no repetition completed: " + " ".join(main["failures"]))
    setups.append(main["setup_s"])
    wall = statistics.median(main["rep_s"])
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MiB"),
        "particle_steps_per_s": (main["work_per_rep"] / wall, "1/s"),
        "record_p50_ms": (main["record_p50_ms"], "ms"),
    }
    notes = {
        "wall_s": f"median of {len(main['rep_s'])} repetitions",
        "setup_s": f"median of {len(setups)} fresh processes",
        "particle_steps_per_s": f"{main['work_per_rep']} particle-steps per repetition",
        "record_p50_ms": f"median over {main['record_blocks']} blocks, "
        f"{main['record_samples']} intervals",
        "record_p90_ms": f"median over {main['record_blocks']} blocks; printed, not a "
        "metric: host stalls spread it too widely across runs",
    }
    info = {"record_p90_ms": {"value": main["record_p90_ms"], "unit": "ms"}}
    record = {**main, "setup_samples_s": setups, "notes": notes, "info": info}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, record


def per_layer(args: argparse.Namespace, deadline: float) -> tuple[dict, dict]:
    main = spawn(args, "trace", deadline)
    blas1 = spawn(args, "blas1", deadline, env={"OPENBLAS_NUM_THREADS": "1"})
    metrics = dict(main.pop("layers"))
    if blas1["ns_per_particle"] is None:
        main["absent"].append("dynamics.lhs_rhs (single-thread BLAS timing)")
    else:
        metrics["dynamics.lhs_rhs.ns_per_particle_blas1"] = {
            "value": blas1["ns_per_particle"],
            "unit": "ns",
        }
    notes = {
        "dynamics.lhs_rhs.ns_per_particle_blas1": "large_n ensemble, OPENBLAS_NUM_THREADS=1",
        "trace_overhead_share": f"{main['reps']} repetitions traced against {main['reps']} untraced",
    }
    return metrics, {**main, "blas1_env": blas1["env"], "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lohesphere benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke test"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lohesphere" / "__init__.py").is_file():
        print(f"perfbench: no lohesphere sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = monotonic() + DEADLINE_S
    try:
        metrics, record = (per_layer if args.trace else end_to_end)(args, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    notes = record.pop("notes")
    env = record.pop("env")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {m['value']!r} {m['unit']}{note}")
    for name, m in record.get("info", {}).items():
        print(f"info {name} {m['value']!r} {m['unit']}  ({notes[name]})")
    if record.get("absent"):
        print("absent " + " ".join(record["absent"]))
    if record["failures"]:
        print("failed checks " + " ".join(sorted(set(record["failures"]))))

    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    stem = f"result_{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({**result, "env": env, "notes": notes, "record": record}, indent=1) + "\n"
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
