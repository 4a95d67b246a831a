"""The benchmark batches take the code paths their workloads are meant to time.

Each workload's seed-0 batch is built once by `bench/worker.py`, loaded as
`test_tracer_targets.py` loads the tracer, so nothing is written under
`bench/`.  It then runs in-process with these guards in place, and every
item must pass:

* `ProductSampler.colengths`, the one entry of the table engine's point
  climb (`mixed_difference_table` and `colength_at` take it), raises: the
  oracle's climb is on no timed path, and br-cross-check reaches the
  sampler through `_composition_sums` alone;
* `harness._draw_bounds` raises: `CorpusConfig` checks `dim` and
  `max_pure_power` once, when it is made, and every draw takes them with
  no second check;
* `harness._sweep` is counted: every draw goes through the draw table,
  `harness._interned`, keyed by its raw row set, and only a miss sweeps and
  builds its ideal, so verify-d2's 2 700 draws sweep once per miss, 89 times;
* in verify-d2, `closure._newton_facets`, the one hull algorithm, raises:
  plane mixed multiplicities come from the ideals' edge chains.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


def _load_worker():
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def _refuse(what):
    def refused(*args):
        raise AssertionError(f"a benchmark item {what}")

    return refused


@pytest.mark.parametrize("workload", ["verify-d4", "verify-d2", "br-cross-check", "closure-d4"])
def test_every_item_passes_on_its_timed_path(workload, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read bench/, write nothing there
    monkeypatch.setattr(sys, "path", list(sys.path))  # the worker puts the checkout's src first
    worker = _load_worker()
    assert workload in worker.WORKLOADS
    ml = worker._import_multlab()
    corpus = json.loads(worker.CORPUS.read_text())
    batch = [make() for make in worker.build_batch(ml, workload, 0, corpus)]

    monkeypatch.setattr(ml.ProductSampler, "colengths", _refuse("ran ProductSampler.colengths"))
    monkeypatch.setattr(ml.harness, "_draw_bounds", _refuse("re-checked its draw bounds"))
    swept, sweep = [], ml.harness._sweep
    monkeypatch.setattr(ml.harness, "_sweep", lambda rows: swept.append(None) or sweep(rows))
    if workload == "verify-d2":
        monkeypatch.setattr(ml.closure, "_newton_facets", _refuse("built a Newton hull"))

    results = [run() for run in batch]
    failed = [j for j, (ok, _) in enumerate(results) if not ok]
    assert results and not failed, failed
    if workload == "verify-d2":
        info = ml.harness._interned.cache_info()
        assert len(results) == 1200
        assert info.hits + info.misses == 2700
        assert len(swept) == info.misses == 89, (len(swept), info)
