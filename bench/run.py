"""Benchmark entry point for morinode.

    python3 bench/run.py --workload census --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Each workload runs in fresh single-threaded processes (BLAS and OpenMP
pools pinned to one thread), one process at a time, never two workloads at
once. ``setup_s`` is the median over several fresh processes of the time
from process start to imports done, inputs generated and warm-up done. With
``--trace 0`` one of them goes on to the timed phase and the correctness
gate; with ``--trace 1`` it makes one untraced and two traced passes
instead (see spans.py) and reports the per-layer metrics.

End-to-end metrics, on every workload: ``wall_ref``, the timed phase's wall
time divided by the mean time of a fixed reference job run every 0.25 s
during it (see ``SpeedProbe`` in workloads.py), which cancels the CPU-speed
drift of a shared machine; ``peak_rss_mb``; and ``setup_s``. The raw
``wall_s`` and the workload-specific times (``fibre_point_s``,
``locate_s``, ``reparam_s``, ``sweep_cell_s``) and ``fail_ratio`` are
printed by name above the JSON line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, the workload-specific figures, the gate's
failures and the machine.
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
WORKLOADS = ("census", "fibre", "geometry")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}

# figures printed by name on the workloads they apply to; the JSON line
# carries the metrics every workload has
FIGURE_UNITS = {"wall_s": "s", "fibre_point_s": "s", "locate_s": "s",
                "reparam_s": "s", "sweep_cell_s": "s", "ref_job_s": "s"}


class BenchError(Exception):
    pass


def _spawn(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Run one workload process; (monotonic start, stdout lines)."""
    env = dict(os.environ, **THREAD_PINS)
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "workloads.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process passed the {DEADLINE_S:.0f} s limit")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return start, out.splitlines()


def _tagged(lines: list[str], tag: str) -> str:
    for line in lines:
        if line.startswith(tag + " "):
            return line[len(tag) + 1:]
    raise BenchError(f"workload process printed no {tag} line")


def run_workload(name: str, seed: int, seconds: int, trace: int,
                 deadline: float) -> dict:
    args = ["--workload", name, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace)]
    setups = []
    for _ in range(0 if trace else SETUP_SAMPLES - 1):
        start, lines = _spawn(args + ["--setup-only"], deadline)
        setups.append(float(_tagged(lines, "SETUP")) - start)
    start, lines = _spawn(args, deadline)
    setups.append(float(_tagged(lines, "SETUP")) - start)
    result = json.loads(_tagged(lines, "RESULT"))
    result["setup_s"] = statistics.median(setups)
    return result


def report(name: str, seed: int, trace: int, result: dict) -> dict:
    """Print the human-readable block; return the contract's JSON object."""
    fail_ratio = result["failed"] / result["attempted"]
    correct = result["failed"] == 0 and result.get("counts_repeat", True)
    print(f"== {name} seed {seed} trace {trace}: {result['repeats']} "
          f"pass(es), {result['attempted']} operations checked")
    if trace:
        metrics = {k: (v, result["units"][k])
                   for k, v in result["metrics"].items()}
        print(f"  counts repeat across traced passes: {result['counts_repeat']}"
              + "".join(f"\n    differs: {k}" for k in result["count_mismatch"]))
        print(f"  spans written to {result['spans']}")
    else:
        metrics = {"wall_ref": (result["metrics"]["wall_ref"], "refjob"),
                   "peak_rss_mb": (result["peak_rss_mb"], "MB"),
                   "setup_s": (result["setup_s"], "s")}
        for k, v in result["metrics"].items():
            if k in FIGURE_UNITS:
                print(f"  {k} = {v:.6g} {FIGURE_UNITS[k]}")
    for k, (v, unit) in metrics.items():
        print(f"  {k} = {v if isinstance(v, int) else f'{v:.6g}'} {unit}")
    print(f"  fail_ratio = {fail_ratio:.6g} 1 "
          f"({result['failed']}/{result['attempted']})")
    for k, v in result["figures"].items():
        print(f"  {k} = {v:.6g}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print("  environment " + json.dumps(result["environment"]))
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "morinode" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no morinode sources under {ROOT / 'src'}\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace,
                                  deadline)
        except BenchError as exc:
            sys.stderr.write(f"bench: {name}: {exc}\n")
            return 1
        lines[name] = report(name, args.seed, args.trace, result)
    sys.stdout.flush()
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({"workloads": lines}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
