"""Check the benchmark itself.

    python3 bench/selfcheck.py [--workloads a,b] [--seconds 2]

For every workload, with short runs:
* the end-to-end run emits exactly the `end_to_end` metrics of
  BENCHMARK.json and the traced run exactly the `per_layer` metrics;
* a deliberately wrong expected digest makes the failed fraction non-zero;
* two traced runs of one seed report identical counts (every metric whose
  unit is `count` or `ratio`).
Exits non-zero on the first failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import WORKLOADS  # noqa: E402


# Counts that show the baseline's known shape, printed for the record.
SHAPE = ("monomial.minimalize_array.per_product", "monomial.product_array.calls",
         "counting.count_grid.calls", "harness.run_instance.calls")


def bench_run(workload, seed, seconds, trace, *extra) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seconds", type=float, default=2)
    p.add_argument("--seed", type=int, default=3)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    counts = sorted(name for name, unit in layers.items() if unit in ("count", "ratio"))

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        wrong = Path(tmp) / "digests.json"
        wrong.write_text(json.dumps({
            "seed": args.seed,
            "digests": {w: "0" * 64 for w in WORKLOADS}}))
        for workload in args.workloads.split(","):
            plain = bench_run(workload, args.seed, args.seconds, 0, "--digests", str(wrong))
            if set(plain["metrics"]) != e2e:
                raise SystemExit(f"{workload}: end-to-end metrics {sorted(plain['metrics'])}")
            if plain["failed"] == 0 or plain["correct"]:
                raise SystemExit(f"{workload}: a wrong digest did not fail the run")
            first = bench_run(workload, args.seed, args.seconds, 1)
            second = bench_run(workload, args.seed, args.seconds, 1)
            for run in (first, second):
                if set(run["metrics"]) != set(layers) or not run["correct"]:
                    raise SystemExit(f"{workload}: traced run {run}")
            differ = [n for n in counts
                      if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
            if differ:
                raise SystemExit(f"{workload}: counts differ between runs: {differ}")
            shape = {n: first["metrics"][n]["value"] for n in SHAPE}
            print(f"{workload}: ok ({plain['failed']}/{plain['attempted']} failed with a "
                  f"wrong digest; {len(counts)} counts repeat) {shape}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
