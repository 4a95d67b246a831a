"""One shard of one pass of a benchmark run, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --shard K --shards M --trace 0|1

Imports `multlab` from the checkout's `src`, builds the workload's seeded
batch (set-up), keeps every M-th item starting at K, and runs those items
one by one through multlab's public entry points, timing each one together
with its correctness check.  Between items, at most every
`CALIBRATE_EVERY_S`, it times a fixed pure-Python loop, so the caller can
tell how fast the core ran during this shard.  Prints one JSON object:
set-up seconds, the median calibration time, peak resident memory, one
record per item and, when traced, the raw layer totals from `tracer.py`.

verify-d2 runs `multlab verify --dim 2 --rank 3` on the corpus of the seed.
The other workloads run pinned pools from `corpus.json` with the variables
of every item renamed by a seeded permutation.  Multiplicities, colengths
and closures commute with renaming, so every seed's outputs are checked
exactly against values recorded from the pinned inputs, while the program
still receives different inputs for every seed.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "corpus.json"  # pinned inputs, recorded outputs

WORKLOADS = ("verify-d4", "verify-d2", "br-cross-check", "closure-d4")
# Seconds one batch takes on the reference machine (a 2-core Xeon
# container); a run repeats the batch --seconds / BATCH_SECONDS times.
BATCH_SECONDS = {"verify-d4": 20, "verify-d2": 5, "br-cross-check": 20, "closure-d4": 20}
D2_INSTANCES = 300
D2_CHECKS = ("lech_classical", "lech_mixed", "prop_dim2", "additivity")
CALIBRATE_EVERY_S = 0.1
CALIBRATE_AT_ENDS = 5  # samples before the first and after the last item


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop (about 4 ms)."""
    start = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    return time.perf_counter() - start


def _import_multlab():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import multlab
    except ImportError as exc:
        sys.exit(f"bench: cannot import multlab from {ROOT / 'src'}: {exc}")
    if Path(multlab.__file__).resolve().parent != ROOT / "src" / "multlab":
        sys.exit(f"bench: multlab imported from {multlab.__file__}, not from this checkout")
    return multlab


def _renamed(ml, I, perm):
    """I with variable i renamed to variable perm[i]."""
    return ml.ideal([tuple(g[p] for p in perm) for g in I.gens], dim=I.dim)


# ---------------------------------------------------------------------------
# items: each builder parses and renames its inputs (set-up) and returns a
# thunk that computes and checks one output (timed), giving (ok, output).


def _corpus_verify(ml, config, check, index):
    def run():
        report = ml.harness.run_instance(config, check, index)
        return report.holds or report.exploratory, report.to_json()

    return run


def _pool_verify(ml, entry, perm):
    d = entry["dim"]
    ideals = [_renamed(ml, ml.parse_ideal(t, dim=d), perm) for t in entry["ideals"]]
    meta = {
        "instance": {"ideals": [ml.format_ideal(I) for I in ideals]},
        "index": entry["index"],
    }
    check = entry["check"]
    fn = getattr(ml.harness, f"check_{check}")
    if check == "lech_classical":
        args = (ideals[0],)
    elif check == "main_br":
        args = (ml.DirectSumModule(tuple(ideals)),)
    elif check == "additivity":
        args = (ideals[:-1], ideals[-1])
    else:
        args = (ideals,)
    expected = (entry["lhs"], entry["rhs"])

    def run():
        report = fn(*args, **meta)
        return report.holds and (report.lhs, report.rhs) == expected, report.to_json()

    return run


def _pool_br(ml, entry, perm):
    ideals = ml.parse_module(entry["module"], dim=entry["dim"])
    E = ml.DirectSumModule(tuple(_renamed(ml, I, perm) for I in ideals))
    text = ";".join(ml.format_ideal(I) for I in E.ideals)

    def run():
        direct = ml.buchsbaum_rim.br_direct(E)
        via_mixed = ml.buchsbaum_rim.br_via_mixed(E)
        ok = direct == via_mixed == entry["br"]
        return ok, json.dumps([text, direct, via_mixed])

    return run


def _pool_closure(ml, entry, perm):
    d = entry["dim"]
    I = _renamed(ml, ml.parse_ideal(entry["ideal"], dim=d), perm)
    expected = _renamed(ml, ml.parse_ideal(entry["closure"], dim=d), perm)

    def run():
        C = ml.closure.integral_closure(I)
        ok = C == expected and ml.monomial.ideal_contains(C, I)
        return ok, ml.format_ideal(C)

    return run


POOL_BUILDERS = {
    "verify-d4": _pool_verify,
    "br-cross-check": _pool_br,
    "closure-d4": _pool_closure,
}


def build_batch(ml, workload, seed, corpus):
    """All items of the batch, in canonical order, as set-up functions."""
    if workload == "verify-d2":
        config = ml.CorpusConfig(seed=seed, dim=2, rank=3, instances=D2_INSTANCES, jobs=1)
        return [
            lambda check=check, index=index: _corpus_verify(ml, config, check, index)
            for check in D2_CHECKS
            for index in range(D2_INSTANCES)
        ]
    builder = POOL_BUILDERS[workload]
    batch = []
    for j, entry in enumerate(corpus[workload]):
        d = entry["dim"]
        perm = random.Random(f"{seed}:{workload}:{j}").sample(range(d), d)
        batch.append(lambda entry=entry, perm=perm: builder(ml, entry, perm))
    return batch


def main(argv=None) -> int:
    start = time.perf_counter()
    calibrations = [calibrate() for _ in range(CALIBRATE_AT_ENDS)]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--shard", type=int, required=True)
    p.add_argument("--shards", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    ml = _import_multlab()
    with open(CORPUS) as fh:
        corpus = json.load(fh)
    batch = build_batch(ml, args.workload, args.seed, corpus)
    mine = [(j, make()) for j, make in enumerate(batch) if j % args.shards == args.shard]
    setup_s = time.perf_counter() - start - sum(calibrations)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    items = []
    last = time.perf_counter()
    for j, run in mine:
        if time.perf_counter() - last >= CALIBRATE_EVERY_S:
            calibrations.append(calibrate())
            last = time.perf_counter()
        t0 = time.perf_counter()
        try:
            ok, out = run()
        except (ml.StabilizationError, ArithmeticError) as exc:
            ok, out = False, f"{type(exc).__name__}: {exc}"
        items.append([j, time.perf_counter() - t0, bool(ok), out])
    calibrations += [calibrate() for _ in range(CALIBRATE_AT_ENDS)]

    result = {
        "setup_s": setup_s,
        "calibration_s": statistics.median(calibrations),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "items": items,
    }
    if tracer is not None:
        result["layers"] = tracer.raw()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
