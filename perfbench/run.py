"""gamedecomp benchmark: CLI latency and law-suite throughput, per-layer times.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact-wide --seed 1 --seconds 25 --trace 0

Each workload runs in its own process (workload.py) as a closed loop with one
client: one in-process ``gamedecomp.cli.main(argv)`` call at a time, stdout
captured. ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` reports the per-layer metrics from a separate traced run.
Set-up time is the median of several fresh interpreters, each importing
``gamedecomp.cli`` and making the workload's warm-up call. Timings are the
process's CPU time, which leaves out the time other guests of a shared host
take the CPU away; they are scaled to a reference host speed, measured by
timing a fixed pure-Python computation in the same process (see meta.json).
The table also prints them raw and in wall time. BLAS is pinned to one thread for every child process. The last line of
stdout is the JSON result; the lines before it are a readable table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def child(script: str, args: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, script), *args],
        capture_output=True, text=True, env=env, timeout=timeout, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{script} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def table(result: dict, setup: list[float], setup_raw: list[float]) -> list[str]:
    machine = result["machine"]
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  mode {result['mode']}  "
        f"closed loop, 1 client  calls/round {result['calls_per_round']}",
        "machine " + "  ".join(f"{k}={v}" for k, v in machine.items()),
    ]
    for game in result["inputs"]:
        lines.append(
            f"input {game['name']}  |S|={game['profiles']}  players={game['players']}  "
            f"max_input_bits={game['max_bits']}"
        )
    e2e = result.get("end_to_end")
    if e2e:
        raw = e2e["raw"]
        lines.append(
            f"host speed {e2e['host_speed']:.3f} of the reference; scaled CPU figure, "
            "then raw CPU as measured, then wall time"
        )
        lines.append(
            f"setup_s                  {statistics.median(setup):.6f} s  "
            f"raw {statistics.median(setup_raw):.6f}  (median of {len(setup)})"
        )
        for name in ("ops_per_s", "verify_trials_per_s", "latency_p50_s", "latency_tail_s",
                     "decompose_p50_s", "classify_p50_s", "closest_potential_p50_s"):
            unit = "1/s" if name.endswith("_per_s") else "s"
            text = f"{e2e[name]:.6f} {unit}  raw {raw[name]:.6f}" if name in e2e else "absent"
            if name in e2e["wall"]:
                text += f"  wall {e2e['wall'][name]:.6f}"
            lines.append(f"{name:<24} {text}")
        lines.append(
            f"  tail is p{e2e['tail_pct']} (Harrell-Davis): {e2e['tail_beyond']} samples beyond, "
            f"n={e2e['samples']}, {e2e['rounds']} rounds"
        )
        lines.append(f"peak_rss_mb              {result['peak_rss_mb']:.3f} MB")
    for name, value in sorted(result.get("per_layer", {}).items()):
        lines.append(f"{name:<34} {value:.6f}" if isinstance(value, float) else f"{name:<34} {value}")
    if "per_layer" in result:
        layers = result["per_layer"]
        share = layers["operators.poisson_s"] / max(layers["trace.layer_total_s"], 1e-12)
        lines.append(f"operators.poisson_s share of traced time: {share:.1%}")
    lines.append(
        f"error_rate               {result['failed'] / result['attempted']:.6f}  "
        f"({result['failed']}/{result['attempted']})"
    )
    if "digest" in result:
        lines.append(f"output digest {result['digest']}")
    lines.extend(f"ERROR {message}" for message in result["errors"])
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "gamedecomp", "cli.py")):
        return fail(f"no gamedecomp sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(HERE, "meta.json"), encoding="utf-8") as handle:
        meta = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    if args.workload not in meta["workloads"]:
        return fail(f"unknown workload {args.workload!r}")
    seed = meta["default_seed"] if args.seed is None else args.seed
    env = dict(os.environ, **BLAS_ENV, PYTHONHASHSEED="0")
    common = ["--workload", args.workload, "--seed", str(seed), "--root", ROOT]

    try:
        setup, setup_raw, probe_errors = [], [], []
        if not args.trace:
            for _ in range(meta["setup_probes"]):
                probe = child("probe.py", common, env, 60)
                setup_raw.append(probe["setup_s"])
                setup.append(probe["setup_s"] * meta["reference_s"] / probe["reference_s"])
                if not probe["ok"]:
                    probe_errors.append("the warm-up call failed in a set-up probe")
        remaining = DEADLINE_S - (time.monotonic() - start)
        result = child(
            "workload.py",
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, remaining,
        )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return fail(str(exc))

    result["errors"] += probe_errors
    result["correct"] = result["correct"] and not probe_errors
    print("\n".join(table(result, setup, setup_raw)))
    if args.trace:
        values, units = result["per_layer"], bench["per_layer"]
    else:
        values = dict(result["end_to_end"], setup_s=statistics.median(setup),
                      peak_rss_mb=result["peak_rss_mb"])
        units = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in units}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
