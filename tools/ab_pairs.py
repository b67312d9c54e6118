"""Run the benchmark on two revisions in alternating pairs and compare them.

Usage (from the repository root):

    python3 tools/ab_pairs.py PARENT CHANGE --workload float-deep --pairs 10 \\
        --seed 1 --claim ops_per_s

Each revision (anything ``git archive`` takes: a commit, a branch, a tag) is
exported into its own temporary directory outside the repository, and
``perfbench/run.py --workload W --seed S --seconds T`` runs in each
checkout, T being ``run_seconds`` of the parent's ``BENCHMARK.json``, one
pair at a time, alternating which side runs first (the
parent in even pairs, the change in odd ones).  It prints one row per run
with every end-to-end metric of ``BENCHMARK.json``, then per metric each
side's median and quartiles, how many pairs the change won (ties count for
neither) and a verdict:

- the claimed metric (``--claim``) is met when there are at least ten
  pairs, the change wins at least nine tenths of them and the medians
  differ, in the metric's better direction, by more than the parent's
  interquartile range; with fewer pairs it is ``too few pairs``;
- any other metric is ``unresolved`` when the parent's interquartile range,
  relative to its median, is wider than the metric's bound, unless every
  run of the change reads better than every run of the parent
  (``better``); else ``worse`` when the change's median is worse than the
  parent's by more than the bound, and ``not worse`` otherwise.

A run that is not correct or has failed calls is reported.  The last line
is the whole record as JSON.  Stdlib only; nothing is written inside the
repository.
"""

from __future__ import annotations

import argparse
import io
import json
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_CLAIM_PAIRS = 10  # a gain is claimed from no fewer alternating pairs


def export(revision: str, into: Path) -> Path:
    """``git archive revision`` unpacked into ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", revision], capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its JSON line, the
    metrics flattened to name -> value."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run.py in {checkout} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict], claim: str | None = None) -> list[dict]:
    """Per metric of ``metrics`` (BENCHMARK.json's ``end_to_end``: name,
    better, bound), compare the (parent, change) metric dicts of ``pairs``:
    each side's quartiles, the change's wins, and the verdict the module
    docstring states."""
    rows = []
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "higher" else -1
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        pq, cq = quartiles(parent), quartiles(change)
        iqr = pq[2] - pq[0]
        gain = sign * (cq[1] - pq[1])  # > 0: the change's median is better
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        if name == claim and len(pairs) < MIN_CLAIM_PAIRS:
            verdict = "too few pairs"
        elif name == claim:
            met = wins >= 0.9 * len(pairs) and gain > iqr
            verdict = "claim met" if met else "claim not met"
        elif iqr > bound * abs(pq[1]):
            all_better = min(sign * c for c in change) > max(sign * p for p in parent)
            verdict = "better" if all_better else "unresolved"
        else:
            verdict = "worse" if -gain > bound * abs(pq[1]) else "not worse"
        rows.append({
            "name": name, "parent": pq, "change": cq, "parent_iqr": iqr,
            "change_vs_parent": cq[1] / pq[1] - 1 if pq[1] else None,
            "wins": wins, "pairs": len(pairs), "verdict": verdict,
        })
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--claim", help="the end-to-end metric the change claims to improve")
    args = parser.parse_args()
    # a SIGTERM unwinds like an exception: the checkouts are removed and
    # run.py is killed (its workload child runs out its own --seconds)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        sides = {side: export(rev, Path(tmp) / side)
                 for side, rev in (("parent", args.parent), ("change", args.change))}
        benchmark = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
        metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
        names = [m["name"] for m in metrics]
        print(f"workload {args.workload}  seed {args.seed}  seconds {seconds}  "
              f"parent {args.parent}  change {args.change}")
        print(f"{'pair':>4} {'side':<6} " + " ".join(f"{n:>14}" for n in names))
        pairs, problems = [], []
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            runs = {}
            for side in order:
                run = runs[side] = bench(sides[side], args.workload, args.seed, seconds)
                print(f"{k:>4} {side:<6} " + " ".join(f"{run['metrics'][n]:>14.6g}" for n in names),
                      flush=True)
                if not run["correct"] or run["failed"]:
                    problems.append(f"pair {k} {side}: correct={run['correct']} "
                                    f"failed={run['failed']}/{run['attempted']}")
            pairs.append((runs["parent"]["metrics"], runs["change"]["metrics"]))

    rows = summarize(pairs, metrics, args.claim)
    print(f"{'metric':<16} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} "
          f"{'change':>8} {'wins':>6}  verdict")
    for row in rows:
        sides_text = ["/".join(f"{v:.5g}" for v in row[s]) for s in ("parent", "change")]
        ratio = row["change_vs_parent"]
        print(f"{row['name']:<16} {sides_text[0]:>32} {sides_text[1]:>32} "
              f"{'' if ratio is None else f'{ratio:+.1%}':>8} "
              f"{row['wins']:>3}/{row['pairs']:<2}  {row['verdict']}")
    for problem in problems:
        print(f"ERROR {problem}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": seconds,
                      "parent": args.parent, "change": args.change, "pairs": pairs,
                      "summary": rows, "errors": problems}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
