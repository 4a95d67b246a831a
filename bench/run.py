"""multlab benchmark: one seeded workload, outputs checked, metrics as JSON.

    python3 bench/run.py --workload verify-d4 --seed 0 --seconds 20 --trace 0

Each workload has a fixed batch of items (`worker.build_batch`).  A run
makes --seconds / `worker.BATCH_SECONDS` passes over it (at least one).
Each pass is a few consecutive shards, each in a fresh interpreter with
jobs=1, so every shard pays import and cold caches as a CLI invocation
does.  An item's time is its median over passes.  Every output of every pass is
checked, all passes must agree byte for byte, and at the pinned seed the
batch must reproduce its recorded digest.

Times are reported in reference seconds.  The shared-core machines this
runs on change speed by up to a third within seconds as other tenants come
and go, and no repetition averages that out of a 20 s run.  Each shard
therefore times a fixed pure-Python loop between items (`worker.calibrate`)
and scales its times by REFERENCE_CALIBRATION_S over that loop's median, so
a shard that ran on a slowed core is not counted as slower code.  Raw wall
time is printed beside the scaled one.

With --trace 0 the last stdout line carries the end-to-end metrics.  With
--trace 1 the batch runs one pass untraced and one traced, and the line
carries the per-layer metrics, including the tracing overhead.  Lines
before it give the numbers for people, with sample counts, the failed
fraction and the environment.  Exit status is non-zero, with no result
line, when a shard cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import layer_metrics  # noqa: E402
from worker import BATCH_SECONDS, WORKLOADS  # noqa: E402

SHARD_SECONDS = 2.5  # one set-up and one calibration scale per shard this long
# Median `worker.calibrate()` time on a quiet core of the 2-core Xeon
# container the recorded baselines come from.
REFERENCE_CALIBRATION_S = 0.0036
PINNED_SEED = 0
DEADLINE_S = 170  # every run must end within 180 s


class ShardError(RuntimeError):
    pass


def batch_digest(outputs) -> str:
    """SHA-256 of the outputs, one per line; for verify-* the JSONL report bytes."""
    h = hashlib.sha256()
    for out in outputs:
        h.update(out.encode() + b"\n")
    return h.hexdigest()


def run_pass(args, shards: int, trace: int, deadline: float) -> list[dict]:
    env = dict(os.environ, MULTLAB_JOBS="1", PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    results = []
    for k in range(shards):
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--shard", str(k), "--shards", str(shards), "--trace", str(trace)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise ShardError(f"shard {k} did not finish before the run deadline")
        if proc.returncode != 0:
            raise ShardError(f"shard {k} exited with {proc.returncode}: {proc.stderr.strip()}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def tail(times):
    """(value, percentile): the highest percentile with ten items beyond it."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def summarize(passes, expected_digest):
    """Metrics of one batch from its passes (lists of shard results).

    Times are in reference seconds; an item's time is its median over passes.
    """
    runs, setups, raw_wall = [], [], 0.0
    for shards in passes:
        items = []
        for shard in shards:
            scale = REFERENCE_CALIBRATION_S / shard["calibration_s"]
            setups.append(shard["setup_s"] * scale)
            for j, t, ok, out in shard["items"]:
                items.append((j, t * scale, ok, out))
                raw_wall += t / len(passes)
        runs.append(sorted(items))
    first = runs[0]
    times, failed = [], 0
    for n, (j, _, _, out) in enumerate(first):
        times.append(statistics.median(run[n][1] for run in runs))
        failed += not all(run[n][0] == j and run[n][2] and run[n][3] == out for run in runs)
    digest = batch_digest(out for _, _, _, out in first)
    if expected_digest is not None and digest != expected_digest:
        failed = len(first)  # the batch as a whole is wrong; no item can be trusted
    tail_value, tail_pct = tail(times)
    return {
        "items": len(first),
        "failed": failed,
        "digest": digest,
        "setup_s": statistics.median(setups),
        "setups": len(setups),
        "wall_s": sum(times),
        "raw_wall_s": raw_wall,
        "item_p50_s": statistics.median(times),
        "item_tail_s": tail_value,
        "tail_pct": tail_pct,
        "peak_rss_mib": max(s["peak_rss_kib"] for shards in passes for s in shards) / 1024,
    }


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=PINNED_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--digests", default=str(HERE / "digests.json"),
                   help="batch digests recorded at the pinned seed")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "multlab" / "__init__.py").is_file():
        print(f"bench: no multlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    with open(args.digests) as fh:
        recorded = json.load(fh)
    expected = recorded["digests"][args.workload] if args.seed == recorded["seed"] else None

    batch_s = BATCH_SECONDS[args.workload]
    passes = 1 if args.trace else max(1, round(args.seconds / batch_s))
    shards = max(2, round(batch_s / SHARD_SECONDS))
    deadline = time.monotonic() + DEADLINE_S
    try:
        plain = summarize([run_pass(args, shards, 0, deadline) for _ in range(passes)],
                          expected)
        traced_shards = run_pass(args, shards, 1, deadline) if args.trace else None
    except ShardError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = plain["items"], plain["failed"]
    names = ("setup_s", "wall_s", "item_p50_s", "item_tail_s", "peak_rss_mib")
    units = {"peak_rss_mib": "MiB"}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}: "
          f"{attempted} items, {passes} passes of {shards} fresh-interpreter shards, "
          f"jobs=1; times in reference seconds")
    print(f"  setup_s      {plain['setup_s']:.4f} s (median of {plain['setups']} shards)")
    print(f"  wall_s       {plain['wall_s']:.4f} s (raw wall {plain['raw_wall_s']:.4f} s "
          f"per pass)")
    print(f"  item_p50_s   {plain['item_p50_s']:.6f} s (n={attempted})")
    print(f"  item_tail_s  {plain['item_tail_s']:.6f} s "
          f"(p{plain['tail_pct']:.1f}, n={attempted})")
    print(f"  peak_rss_mib {plain['peak_rss_mib']:.1f} MiB")
    print(f"  failed_frac  {failed / attempted:g} ({failed}/{attempted})")
    state = "not checked" if expected is None else (
        "matches" if plain["digest"] == expected else "MISMATCH")
    print(f"  digest       {plain['digest']} ({state})")
    print("  environment  " + json.dumps(environment(), sort_keys=True))

    if args.trace:
        traced = summarize([traced_shards], expected)
        attempted += traced["items"]
        failed += traced["failed"]
        raw = {}
        for shard in traced_shards:
            for key, value in shard["layers"].items():
                raw[key] = raw.get(key, 0) + value
        layers = layer_metrics(raw)
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        for key, value in layers.items():
            print(f"  {key} {value}")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": plain[k], "unit": units.get(k, "s")} for k in names}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("_ratio") or stat == "per_product":
        return "ratio"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
