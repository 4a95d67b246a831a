"""Regenerate the benchmark's pinned inputs and recorded outputs.

    python3 bench/record.py

Writes `corpus.json` (the pinned pools of the verify-d4, br-cross-check and
closure-d4 workloads, each item with the output multlab computed for it)
and `digests.json` (the digest of every workload's batch at the pinned
seed).  The pools come from multlab's own seeded generator, but once
written they are data: later changes to the generator do not change what
the benchmark runs.  Re-recording is only right when outputs are meant to
change, and such a change must say so.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import run
import worker

HERE = Path(__file__).resolve().parent

# Each pool takes about 20 s and is mixed so that the median item and the
# tail item (the 11th slowest) fall inside a group of items of one kind, not
# on the edge between two kinds whose times differ tenfold.
#
# verify-d4: the default `multlab verify --dim 4` corpus (seed 0, rank 2,
# pure powers <= 3, 2 extra generators), first instances of each check.
# Of 30 reports, the median (15th) and the tail (20th) are among the 20
# lech_mixed and main_br reports.
D4_INSTANCES = {"lech_classical": 8, "lech_mixed": 10, "main_br": 10,
                "additivity": 1, "main_mixed": 1}
# br-cross-check: direct sums with pure powers <= 3 and 2 extra generators
# per column, by (dimension, rank).  Of 79 modules, the median (40th) is
# among the (3, 2) ones and the tail (69th) among the (3, 3) ones.
BR_SHAPES = {(2, 2): 12, (2, 3): 16, (3, 2): 36, (3, 3): 15}
# closure-d4: pure powers up to 10 and 16 extra generator draws, keeping
# ideals whose colength is 80 to 250 (0.1 to 0.4 s each), so that no single
# ideal decides the batch time.
CLOSURE_IDEALS = 85
CLOSURE_COLENGTH = (80, 250)


def record_corpus(ml) -> dict:
    config = ml.CorpusConfig(dim=4, jobs=1)
    verify = []
    for check, count in D4_INSTANCES.items():
        for index in range(count):
            r = ml.harness.run_instance(config, check, index)
            verify.append({"check": check, "index": index, "dim": 4,
                           "ideals": r.instance["ideals"], "lhs": r.lhs, "rhs": r.rhs})

    rng = random.Random("multlab-bench:br-cross-check")
    br = []
    for (d, r), count in BR_SHAPES.items():
        for _ in range(count):
            cols = tuple(ml.gen_random_mprimary(d, 3, 2, rng) for _ in range(r))
            E = ml.DirectSumModule(cols)
            value = ml.br_direct(E)
            if ml.br_via_mixed(E) != value:
                raise SystemExit(f"routes disagree on {cols}")
            br.append({"dim": d, "module": ";".join(ml.format_ideal(I) for I in cols),
                       "br": value})

    rng = random.Random("multlab-bench:closure-d4")
    closure = []
    lo, hi = CLOSURE_COLENGTH
    while len(closure) < CLOSURE_IDEALS:
        I = ml.gen_random_mprimary(4, 10, 16, rng)
        if lo <= ml.colength(I) <= hi:
            closure.append({"dim": 4, "ideal": ml.format_ideal(I),
                            "closure": ml.format_ideal(ml.integral_closure(I))})
    return {"verify-d4": verify, "br-cross-check": br, "closure-d4": closure}


def main() -> int:
    ml = worker._import_multlab()
    corpus = record_corpus(ml)
    worker.CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")

    digests = {}
    for workload in worker.WORKLOADS:
        batch = worker.build_batch(ml, workload, run.PINNED_SEED, corpus)
        outputs = []
        for make in batch:
            ok, out = make()()
            if not ok:
                raise SystemExit(f"{workload}: an item failed its check: {out}")
            outputs.append(out)
        digests[workload] = run.batch_digest(outputs)
        print(workload, len(outputs), digests[workload])
    record = {"seed": run.PINNED_SEED, "digests": digests}
    (HERE / "digests.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
