"""Set-up probe: a fresh interpreter's `import gamedecomp.cli` plus the warm-up call.

Both are timed in process CPU time, as the workload's calls are.

Only the standard library and the benchmark's stdlib-only modules are
imported before the clock starts. The reference computation is timed just
before and just after, in the same interpreter, as the host-speed yardstick.
Prints one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import time

from inputs import make_rounds
from oracle import reference_seconds

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True)
    args = parser.parse_args()
    with open(os.path.join(HERE, "meta.json"), encoding="utf-8") as handle:
        spec = json.load(handle)["workloads"][args.workload]
    tmp = os.path.join(HERE, "out", f"probe-{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        warmup = make_rounds(args.workload, spec, args.seed, tmp)(0)[0]
        reference_seconds()  # the first run warms up
        references = [reference_seconds() for _ in range(5)]
        start = time.process_time()
        sys.path.insert(0, os.path.join(args.root, "src"))
        import gamedecomp.cli as cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(warmup.argv)
        elapsed = time.process_time() - start
        references += [reference_seconds() for _ in range(5)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({
        "setup_s": elapsed, "reference_s": statistics.fmean(references), "ok": code == 0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
