"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads verify-d2,closure-d4 --seeds 1-10 \
        [--seconds 20] [--trace 0] [--out FILE.json]

For every workload and metric prints the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them and the spread, which is the
distance between the quartiles as a share of the median.  The end-to-end
bounds in BENCHMARK.json are checked against that spread.  Runs are made
one after another; each run is a fresh `run.py` process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import environment  # noqa: E402


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect\n{proc.stdout}")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    seeds = seed_list(args.seeds)
    report = {"environment": environment(), "seconds": args.seconds, "seeds": seeds,
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list] = {}
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()
                if k in bounds or args.trace), flush=True)
        summary = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                             "spread": spread}
            if name in bounds:
                print(f"  {workload:15} {name:13} median {med:.5g}  "
                      f"IQR [{q1:.5g}, {q3:.5g}]  spread {spread:.4f}  "
                      f"bound {bounds[name]}  ({spread / bounds[name]:.2f} of bound)")
        report["workloads"][workload] = summary
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
