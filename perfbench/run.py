"""uscmem benchmark: cold-process wall time per CLI experiment, and a traced
per-layer breakdown.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Closed loop, one client: every sample is a fresh child process, started
after the previous one exits, that pays import and warm-up like a CLI user.
The first sample of a run uses the reference input of the frozen test
values; the rest use inputs drawn from the seed. With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it runs each input twice,
untraced and traced, and reports the per-layer metrics. Without --trace
both are run. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import check_pair, check_sample
from workloads import REFERENCE_INPUT, WORKLOADS, cli_overrides, sample_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# One BLAS thread per child (never more than nproc); threaded OpenBLAS on a
# small shared box adds run-to-run noise.
BLAS_THREADS = 1
# Extra children per untraced run that stop once the spec is resolved, so
# setup_s is a median over many set-ups even when samples are long: this
# many before the first sample, and more in the time left after the last.
SETUP_PROBES = 3
# Rounds run even when --seconds is shorter than they take. Kept low so a
# run on a slowed-down host still ends near --seconds.
MIN_ROUNDS = {False: 2, True: 1}
# A run stops waiting for children after this long, to end within 180 s.
HARD_LIMIT_S = 170.0

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("per_step"):
        return "calls/step"
    if name == "trace_overhead_frac":
        return "frac"
    return {"linalg.eigh.n3": "computed-n3", "cli.emit_csv.bytes": "B"}.get(name, "count")


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONPATH=str(ROOT / "src"))
    return env


def spawn(request: dict, deadline: float) -> dict:
    """Run one child to completion; its result, or {"error": reason}."""
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    request = dict(request, out=str(OUT_DIR))
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(request)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": "timed out"}
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)
    if proc.returncode != 0:
        lines = stderr.strip().splitlines()
        return {"error": lines[-1] if lines else f"exit code {proc.returncode}"}
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": "no result line on stdout"}
    result["setup_s"] = result["ready"] - started
    return result


def encode(overrides: dict) -> dict:
    return {k: [v.real, v.imag] if isinstance(v, complex) else v for k, v in overrides.items()}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: counts, metric values and the environment."""
    workload = WORKLOADS[name]
    start = time.monotonic()
    soft_end, hard_end = start + seconds, start + HARD_LIMIT_S
    inputs = sample_inputs(seed, workload.equator)
    walls, setups, rss, overheads, layers, closure = [], [], [], [], [], []
    env = None
    attempted = failed = 0

    def record(mode: str, result: dict, problems: list[str]) -> bool:
        nonlocal attempted, failed, env
        attempted += 1
        if "error" in result:
            problems = [result["error"], *problems]
        print(f"{name} {mode} #{attempted}: "
              + (f"FAILED {'; '.join(problems)}" if problems else
                 f"ok wall={result.get('wall_s', 0):.3f}s setup={result['setup_s']:.3f}s"),
              file=sys.stderr, flush=True)
        failed += bool(problems)
        env = env or result.get("env")
        return not problems

    probe = {"experiment": workload.experiment, "mode": "setup",
             "overrides": encode(cli_overrides(workload, *REFERENCE_INPUT))}

    def probe_setup() -> None:
        result = spawn(probe, hard_end)
        if record("setup", result, []):
            setups.append(result["setup_s"])

    for _ in range(0 if trace else SETUP_PROBES):
        probe_setup()

    rounds, last = 0, 0.0
    while time.monotonic() < hard_end and (
            rounds < MIN_ROUNDS[trace] or time.monotonic() + last <= soft_end):
        began = time.monotonic()
        request = {"experiment": workload.experiment,
                   "overrides": encode(cli_overrides(workload, *next(inputs)))}
        plain = spawn(dict(request, mode="plain"), hard_end)
        problems = [] if "error" in plain else check_sample(name, plain, rounds == 0)
        plain_ok = record("plain", plain, problems)
        if plain_ok:
            walls.append(plain["wall_s"])
            setups.append(plain["setup_s"])
            rss.append(plain["peak_rss_mb"])
        if trace:
            traced = spawn(dict(request, mode="trace"), hard_end)
            problems = [] if "error" in traced else check_sample(name, traced, rounds == 0)
            if not problems and plain_ok:
                problems += check_pair(plain, traced)
            if record("trace", traced, problems):
                layers.append(traced["trace"]["metrics"])
                if plain_ok:
                    overheads.append(traced["wall_s"] / plain["wall_s"] - 1.0)
                closure.append(abs(traced["trace"]["closure_err_s"]))
        rounds += 1
        last = time.monotonic() - began
    while not trace and setups and time.monotonic() + statistics.median(setups) <= soft_end:
        probe_setup()

    metrics = {}
    if trace and overheads:
        for key in layers[0]:
            metrics[key] = statistics.median(sample[key] for sample in layers)
        # Each pair runs back to back, so its ratio cancels most of the
        # host's speed drift that a ratio of two medians would keep.
        metrics["trace_overhead_frac"] = statistics.median(overheads)
    elif not trace and walls:
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": statistics.median(rss)}
    return {"attempted": attempted, "failed": failed, "samples": len(walls),
            "setups": len(setups), "metrics": metrics, "env": env,
            "closure_err_s": max(closure, default=None)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; default both")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "uscmem" / "__init__.py").is_file():
        print(f"error: no uscmem package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [bool(args.trace)] if args.trace is not None else [False, True]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in traces:
            run = measure(name, args.seed, args.seconds, trace)
            if not run["metrics"]:
                print(f"error: {name}: no sample succeeded", file=sys.stderr)
                return 1
            combined["attempted"] += run["attempted"]
            combined["failed"] += run["failed"]
            env = dict(run["env"], nproc=os.cpu_count(), child_blas_env=BLAS_THREADS)
            print(f"[{name} trace={int(trace)}] env {json.dumps(env, sort_keys=True)}")
            print(f"[{name} trace={int(trace)}] samples={run['samples']} "
                  f"setups={run['setups']} failed_frac={run['failed']}/{run['attempted']}"
                  f" = {run['failed'] / run['attempted']:.4f}")
            if trace:
                print(f"[{name} trace=1] spans close: max |run total - sum of self times|"
                      f" = {run['closure_err_s']:.3g} s")
            for key, value in run["metrics"].items():
                unit = E2E_UNITS.get(key) or layer_unit(key)
                print(f"[{name} trace={int(trace)}] {key} = {value:.6g} {unit}")
                label = key if len(names) == 1 else f"{name}.{key}"
                combined["metrics"][label] = {"value": value, "unit": unit}
    combined["correct"] = combined["failed"] == 0
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
