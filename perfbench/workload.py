"""One workload in its own process: generate inputs, warm up, time, check.

Run by run.py; prints one JSON object with the raw measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import checks
import oracle
from inputs import make_rounds
from spans import LAYERS, SpanRecorder, write_spans

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_EVERY_S = 0.1
PERCENTILE_STEPS = 50
COMMAND_METRICS = {
    "decompose": "decompose_p50_s",
    "classify": "classify_p50_s",
    "closest-potential": "closest_potential_p50_s",
}


def load_cli(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import gamedecomp.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"gamedecomp was imported from {cli.__file__}, not {src}")
    return cli


def invoke(cli, argv):
    """One CLI call with stdout captured.

    Returns (CPU seconds, wall seconds, stdout, error or None). The CPU time is
    that of the whole process, so work moved to another thread still counts.
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001 - any exception is a failed call
        code, error = 1, f"{type(exc).__name__}: {exc}"
    cpu, wall = time.process_time() - cpu_start, time.perf_counter() - start
    if code != 0 and error is None:
        error = f"exit {code}: {(err.getvalue() or out.getvalue()).strip()[-300:]}"
    return cpu, wall, out.getvalue(), error


class Checker:
    """Checks each call's output: fully the first time, then byte equality."""

    def __init__(self, spec: dict, calls):
        self.exact = spec["mode"] == "exact"
        self.first: dict[str, str] = {}
        self.refs = {
            call.game.name: checks.reference(call.game)
            for call in calls
            if call.game is not None
        }

    def __call__(self, call, out: str) -> str | None:
        seen = self.first.get(call.label)
        if seen is not None:
            if out == seen:
                return None
            if self.exact:
                return f"{call.label}: output differs from its first run"
        problem = self._check(call, out)
        if problem is None and seen is None:
            self.first[call.label] = out
        return problem and f"{call.label}: {problem}"

    def _check(self, call, out: str) -> str | None:
        if call.command == "verify":
            _, law, _, trials, _, seed = call.argv
            return checks.check_verify(law, trials, seed, out)
        ref = self.refs[call.game.name]
        if call.command == "decompose":
            if self.exact:
                return checks.check_exact_decompose(call.game, out, ref)
            return checks.check_float_decompose(call.game, out, ref)
        if call.command == "classify":
            return checks.check_classify(out, ref)
        return checks.check_closest(call.game, out, ref, self.exact)


def run_rounds(cli, round_calls, checker, seconds=0.0, min_rounds=1, rounds=None, recorder=None):
    """``rounds`` whole rounds, or the whole number of rounds whose call time
    comes nearest ``seconds`` (at least ``min_rounds``).

    Call time is counted in wall seconds to bound the run; each sample holds the
    call's CPU time. Between calls, about every REFERENCE_EVERY_S of call time,
    and once at the end, the fixed reference computation is timed too
    (untraced), as the host-speed yardstick; ``ref_before`` holds, for each
    sample, the index of the last reference time taken before it.
    """
    samples, walls, errors, traced, refs, ref_before = [], [], [], [], [], []
    busy = since_ref = 0.0
    done = 0
    while done < rounds if rounds is not None else (
        done < min_rounds or busy + busy / done / 2 < seconds
    ):
        for call in round_calls(done):
            if not refs or since_ref >= REFERENCE_EVERY_S:
                refs.append(oracle.reference_seconds())
                since_ref = 0.0
            if recorder is not None:
                recorder.active = True
            cpu, wall, out, error = invoke(cli, call.argv)
            if recorder is not None:
                recorder.active = False
            busy += wall
            since_ref += wall
            problem = error or checker(call, out)
            samples.append((call, cpu, problem is None))
            walls.append(wall)
            ref_before.append(len(refs) - 1)
            if problem:
                errors.append(problem)
        if recorder is not None:
            traced.append(recorder.take_round())
        done += 1
    refs.append(oracle.reference_seconds())
    return {
        "samples": samples, "walls": walls, "errors": errors, "busy": busy,
        "rounds": done, "traced": traced, "refs": refs, "ref_before": ref_before,
    }


def percentile(values, pct):
    """Harrell-Davis estimate of the pct-th percentile.

    A mean of all order statistics, weighted by the Beta((n+1)q, (n+1)(1-q))
    mass over ((i-1)/n, i/n] (q = pct/100), integrated by the midpoint rule
    on PERCENTILE_STEPS points per interval.
    One noisy sample does not decide it, as it does a single sample
    percentile, so it is steadier from run to run when samples are few.
    """
    ordered = sorted(values)
    n = len(ordered)
    q = pct / 100
    a, b = (n + 1) * q - 1, (n + 1) * (1 - q) - 1
    steps = PERCENTILE_STEPS
    grid = [(k + 0.5) / (n * steps) for k in range(n * steps)]
    logs = [a * math.log(x) + b * math.log1p(-x) for x in grid]
    top = max(logs)
    weights = [
        sum(math.exp(v - top) for v in logs[i * steps:(i + 1) * steps]) for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def figures(spec: dict, samples: list, times: list[float]) -> dict:
    """The end-to-end figures of one list of call times, in sample order."""
    out = {
        "ops_per_s": len(times) / sum(times),
        "latency_p50_s": percentile(times, 50),
        "latency_tail_s": percentile(times, spec["tail_pct"]),
    }
    for command, metric in COMMAND_METRICS.items():
        values = [t for (call, _, _), t in zip(samples, times) if call.command == command]
        if values:
            out[metric] = percentile(values, 50)
    if "laws" in spec:
        ok = sum(1 for call, _, good in samples if good and call.command == "verify")
        out["verify_trials_per_s"] = ok * spec["trials"] / sum(times)
    return out


def end_to_end(spec: dict, run: dict, reference_s: float) -> dict:
    """Call CPU times, each scaled to the reference host speed.

    A call's time is multiplied by reference_s / the mean of the reference
    times taken just before and just after it, so a change of host speed
    during the run cancels call by call. Also returns the figures unscaled
    (raw) and in wall time (wall).
    """
    refs, samples = run["refs"], run["samples"]
    cpu = [elapsed for _, elapsed, _ in samples]
    scaled = [
        elapsed * reference_s * 2 / (refs[k] + refs[k + 1])
        for elapsed, k in zip(cpu, run["ref_before"])
    ]
    out = figures(spec, samples, scaled)
    out.update(
        raw=figures(spec, samples, cpu),
        wall=figures(spec, samples, run["walls"]),
        host_speed=reference_s / statistics.fmean(refs),
        tail_pct=spec["tail_pct"],
        tail_beyond=sum(1 for x in scaled if x > out["latency_tail_s"]),
        samples=len(samples),
        rounds=run["rounds"],
    )
    return out


def per_layer(recorder_rounds: list[dict], untraced: dict, traced: dict, laws: list[str]) -> tuple[dict, list[str]]:
    problems = []
    rounds = len(recorder_rounds)
    names = list(LAYERS) + [f"laws.{law}_s" for law in laws]
    metrics = {name: 0.0 for name in names}
    root_total = 0.0
    for rnd in recorder_rounds:
        for name, value in rnd["self"].items():
            metrics[name] = metrics.get(name, 0.0) + value
        root_total += rnd["root_total"]
        if not rnd["nesting_ok"]:
            problems.append("a span is not nested inside its parent")
    layer_sum = sum(metrics.values())
    if abs(layer_sum - root_total) > 1e-6 * max(root_total, 1e-9):
        problems.append(f"layer self times sum to {layer_sum}, cli.main spans to {root_total}")
    if any(value < -1e-6 for value in metrics.values()):
        problems.append("negative self time")
    metrics = {name: value / rounds for name, value in metrics.items()}
    metrics.update(recorder_rounds[0]["counts"])
    metrics["trace.overhead_ratio"] = traced["busy"] / untraced["busy"]
    metrics["trace.layer_total_s"] = layer_sum / rounds
    return metrics, problems


def machine_info() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    args = parser.parse_args()

    with open(os.path.join(HERE, "meta.json"), encoding="utf-8") as handle:
        meta = json.load(handle)
    spec = meta["workloads"][args.workload]
    cli = load_cli(args.root)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tmp = os.path.join(out_dir, f"inputs-{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        round_calls = make_rounds(args.workload, spec, args.seed, tmp)
        calls = round_calls(0)
        checker = Checker(spec, calls)
        warm = run_rounds(cli, lambda _: calls[:1], checker, rounds=1)
        errors = warm["errors"]

        result = {
            "workload": args.workload,
            "seed": args.seed,
            "mode": spec["mode"],
            "machine": machine_info(),
            "inputs": [
                {"name": c.game.name, "profiles": c.game.num_profiles,
                 "players": c.game.players, "max_bits": c.game.max_bits()}
                for c in calls if c.game is not None and c.command == calls[0].command
            ],
            "calls_per_round": len(calls),
        }
        if args.trace:
            untraced = run_rounds(cli, round_calls, checker, args.seconds / 2, min_rounds=2)
            recorder = SpanRecorder()
            recorder.install()
            try:
                traced = run_rounds(
                    cli, round_calls, checker, rounds=untraced["rounds"], recorder=recorder
                )
                # round 0 once more: its exact counts must repeat
                replay = run_rounds(cli, round_calls, checker, rounds=1, recorder=recorder)
            finally:
                recorder.uninstall()
            runs = [untraced, traced, replay]
            layers, problems = per_layer(
                traced["traced"], untraced, traced, meta["workloads"]["verify-all"]["laws"]
            )
            if replay["traced"][0]["counts"] != traced["traced"][0]["counts"]:
                problems.append(
                    f"counts of round 0 did not repeat: {traced['traced'][0]['counts']} "
                    f"then {replay['traced'][0]['counts']}"
                )
            errors += problems
            result["per_layer"] = layers
            write_spans(
                os.path.join(out_dir, f"spans-{args.workload}.jsonl"),
                {"workload": args.workload, "seed": args.seed, "rounds": traced["rounds"]},
                [rnd["spans"] for rnd in traced["traced"]],
            )
        else:
            timed = run_rounds(cli, round_calls, checker, args.seconds)
            runs = [timed]
            result["end_to_end"] = end_to_end(spec, timed, meta["reference_s"])
        for run in runs:
            errors += run["errors"]

        first_round = runs[0]["samples"][: len(calls)]
        if spec["mode"] == "exact" and args.seed == meta["default_seed"]:
            digest = output_digest(checker, first_round)
            result["digest"] = digest
            with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
                expected = json.load(handle).get(args.workload)
            if digest != expected:
                errors.append(f"output digest {digest} != committed {expected}")

        attempted = sum(len(run["samples"]) for run in runs)
        failed = sum(1 for run in runs for _, _, good in run["samples"] if not good)
        result.update(
            attempted=attempted,
            failed=failed,
            errors=errors[:20],
            correct=not errors,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


def output_digest(checker: Checker, first_round) -> str:
    digest = hashlib.sha256()
    for call, _, _ in first_round:
        digest.update(call.label.encode() + b"\n")
        digest.update(checker.first.get(call.label, "<failed>").encode() + b"\0")
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
