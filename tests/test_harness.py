"""The inequality harness: generators, checks, determinism, report formats."""

import concurrent.futures
import csv
import gc
import hashlib
import io
import json
import multiprocessing
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
import weakref
from dataclasses import replace
from itertools import islice
from math import factorial

import numpy as np
import pytest

from multlab import (
    CHECK_NAMES,
    CorpusConfig,
    DirectSumModule,
    Tally,
    box_bounds,
    check_additivity,
    check_lech_classical,
    check_lech_mixed,
    check_main_br,
    check_main_mixed,
    check_prop_dim2,
    check_prop_dim3,
    colength,
    gen_random_mprimary,
    hilbert_samuel,
    ideal,
    is_m_primary,
    m_ideal,
    m_power,
    mixed_multiplicity,
    parse_ideal,
    run_suite,
    unit_ideal,
    write_jsonl,
    write_summary_csv,
)
from multlab import harness
from multlab.harness import _applicable_checks, fuzz, rng_for, run_instance


def _python(code: str) -> str:
    """The stripped stdout of `code`, run by a fresh interpreter on this checkout's multlab."""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True).stdout.strip()


class TestGenerator:
    def test_always_m_primary(self):
        for index in range(50):
            rng = rng_for(3, "gen", index)
            I = gen_random_mprimary(3, 3, 2, rng)
            assert is_m_primary(I)

    def test_respects_power_cap(self):
        for index in range(30):
            rng = rng_for(9, "cap", index)
            I = gen_random_mprimary(2, 4, 3, rng)
            assert all(b <= 4 for b in box_bounds(I))

    def test_collapses_to_m_when_unit_box(self):
        rng = rng_for(0, "x", 0)
        I = gen_random_mprimary(3, 1, 5, rng)
        assert I == m_ideal(3)

    def test_deterministic_per_key(self):
        a = gen_random_mprimary(3, 3, 2, rng_for(5, "c", 7))
        b = gen_random_mprimary(3, 3, 2, rng_for(5, "c", 7))
        c = gen_random_mprimary(3, 3, 2, rng_for(5, "c", 8))
        assert a == b
        assert a != c  # (x, y, z) at index 7, (x^3, x*y, y^2, z^2) at index 8
        assert c == parse_ideal("(x^3, x*y, y^2, z^2)")

    def test_rejection_loop_is_randrange(self):
        # the draw's numbers below n come from getrandbits by CPython's own
        # rejection loop; on this interpreter that must be randrange(n), and
        # 1 + it randint(1, n), leaving the generator in the same state
        def below(rng, n):
            k = n.bit_length()
            r = rng.getrandbits(k)
            while r >= n:
                r = rng.getrandbits(k)
            return r

        sizes = [*range(1, 301), 2**31 - 1]
        for seed in range(40):
            ours, theirs, ints = random.Random(seed), random.Random(seed), random.Random(seed)
            for n in sizes:
                r = below(ours, n)
                assert r == theirs.randrange(n) == ints.randint(1, n) - 1, (seed, n)
            assert ours.getstate() == theirs.getstate() == ints.getstate()

    def test_draws_equal_the_randrange_draw(self):
        # the draw as it was written on randint and randrange: pure powers,
        # then extra points, kept unless 0, once some power exceeds 1
        def reference(dim, top, extra, rng):
            powers = [rng.randint(1, top) for _ in range(dim)]
            gens = [tuple(k if i == j else 0 for j in range(dim)) for i, k in enumerate(powers)]
            if any(k > 1 for k in powers):
                for _ in range(extra):
                    v = tuple(rng.randrange(0, k) for k in powers)
                    if any(v):
                        gens.append(v)
            return ideal(gens, dim=dim)

        for dim in range(1, 7):
            for top in (1, 2, 3, 4, 5, 6, 200):
                for extra in range(5):
                    for index in range(3):
                        ours, theirs = (rng_for(dim, f"draw-{top}-{extra}", index) for _ in range(2))
                        got = gen_random_mprimary(dim, top, extra, ours)
                        assert got == reference(dim, top, extra, theirs), (dim, top, extra, index)
                        assert ours.getstate() == theirs.getstate()

    def test_seeds_without_the_built_in_hash(self):
        # with neither of the interpreter's own SHA-256 modules, rng_for falls
        # back to hashlib's: the same digest, so the same draws
        keys = [(0, "lech_classical", 0), (5, "c", 7), (11, "main_br", 299), (2**40, "x", 1)]
        code = f"""if True:
            import sys
            from itertools import starmap
            sys.modules["_sha2"] = sys.modules["_sha256"] = None
            import hashlib
            from multlab import harness
            assert harness.sha256 is hashlib.sha256
            print([[rng.random() for _ in range(3)] for rng in starmap(harness.rng_for, {keys})])
        """
        fallback = _python(code)
        builtin = [[rng.random() for _ in range(3)] for rng in (rng_for(*key) for key in keys)]
        reference = [
            [rng.random() for _ in range(3)]
            for rng in (random.Random(int.from_bytes(
                hashlib.sha256(f"{s}:{c}:{i}".encode()).digest()[:8], "big")) for s, c, i in keys)
        ]
        assert fallback == repr(builtin) == repr(reference)

    def test_unchecked_build_equals_the_checked_one(self, monkeypatch):
        # the draw's rows reach the sweep unchecked; ideal() of the same rows,
        # which converts, checks and minimalizes them, must give the same ideal
        drawn = []
        sweep = harness._sweep
        monkeypatch.setattr(harness, "_sweep", lambda rows: drawn.append(rows) or sweep(rows))
        for dim in range(1, 6):
            for top in range(1, 6):
                for extra in range(5):
                    for index in range(4):
                        rng = rng_for(dim, f"unchecked-{top}-{extra}", index)
                        got = gen_random_mprimary(dim, top, extra, rng)
                        want = ideal(list(drawn.pop()), dim=dim)
                        assert got == want and hash(got) == hash(want)
                        assert box_bounds(got) == box_bounds(want)
                        assert all(type(e) is int for g in got.gens for e in g)

    def test_instances_draw_as_the_public_generator_does(self, monkeypatch):
        # _gen_many draws on the bounds its config checked, with no check per
        # draw, and gives the successive draws of gen_random_mprimary on the
        # same stream; at 1 no extra generator is drawn, and the powers of two
        # are where the rejection loop's bit count changes
        configs = [CorpusConfig(seed=3, dim=dim, max_pure_power=top, extra_gens=extra)
                   for dim in range(1, 7) for top in (1, 2, 3, 4, 7, 8, 2**31 - 1)
                   for extra in range(5)]
        want = {}
        for config in configs:
            for index in range(3):
                rng = rng_for(config.seed, "many", index)
                want[config, index] = [
                    gen_random_mprimary(config.dim, config.max_pure_power, config.extra_gens, rng)
                    for _ in range(4)]

        def refused(dim, max_pure_power):
            raise AssertionError("a corpus draw checked its bounds again")

        monkeypatch.setattr(harness, "_draw_bounds", refused)
        for (config, index), ideals in want.items():
            assert harness._gen_many(config, "many", index, 4) == ideals, (config, index)

    @pytest.mark.parametrize("dim, top, message", [
        (0, 3, "dim must be at least 1"),
        (1025, 3, "at most 1024"),
        (2, 0, "max_pure_power must be at least 1"),
        (2, 2**31, "below 2147483648"),
        (2.0, 3, "dim must be an integer"),
        (2, 3.0, "max_pure_power must be an integer"),
    ])
    def test_refuses_what_it_cannot_build(self, dim, top, message):
        with pytest.raises(ValueError, match=message):
            gen_random_mprimary(dim, top, 2, rng_for(0, "bad", 0))


class TestChecks:
    def test_lech_classical_values(self):
        I = parse_ideal("(x^2, x*y, y^3)")
        rep = check_lech_classical(I)
        assert (rep.lhs, rep.rhs) == (5, 8)
        assert rep.relation == "<="
        assert rep.holds
        assert rep.slack == 3

    def test_lech_classical_sharpness_needs_m(self):
        # equality e(I) = d! lambda(R/I) fails strictly once I != m^e...
        rep = check_lech_classical(m_ideal(3))
        assert rep.lhs == 1 and rep.rhs == 6

    def test_lech_mixed_on_m_powers(self):
        # e(m^a, m^b) = ab; lambda terms give (a(a+1) + b(b+1))/2
        rep = check_lech_mixed([m_power(2, 2), m_power(2, 3)])
        assert rep.lhs == 6
        assert rep.rhs == colength(m_power(2, 2)) + colength(m_power(2, 3))
        assert rep.holds

    def test_main_mixed_strict_and_gated(self):
        quad = [m_ideal(4)] * 4
        rep = check_main_mixed(quad)
        assert rep.relation == "<"
        assert (rep.lhs, rep.rhs) == (16, 24)  # e(m^2 x4) = 16 < 3! * 4
        assert rep.holds
        with pytest.raises(ValueError):
            check_main_mixed([m_ideal(3)] * 3)
        rep2 = check_main_mixed([m_ideal(3)] * 3, exploratory=True)
        assert rep2.exploratory

    def test_main_br_strict(self):
        E = DirectSumModule((m_ideal(4), m_ideal(4)))
        rep = check_main_br(E)
        assert rep.lhs == 80  # br((m^2)^2) after scaling
        assert rep.rhs == (factorial(5) // 2) * 2
        assert rep.holds
        with pytest.raises(ValueError):
            check_main_br(DirectSumModule((m_ideal(3), m_ideal(3))))

    def test_prop_dim2_sharp_on_equal_m_powers(self):
        # equal powers of m make the refined bound an equality
        for s, r in [(1, 2), (2, 2), (2, 3), (3, 4)]:
            rep = check_prop_dim2([m_power(2, s)] * r)
            assert rep.holds
            assert rep.slack == 0, (s, r)

    def test_prop_dim2_values(self):
        rep = check_prop_dim2([m_ideal(2), m_ideal(2)])
        assert rep.lhs == 2 + 1 + 1  # 2*e(m,m) + 1*(e(m,m)+e(m,m)) = 4
        assert rep.rhs == 4
        assert rep.terms == {"pair_sum": 1, "section_sum": 2}

    def test_prop_dim2_rejects_wrong_dim(self):
        with pytest.raises(ValueError):
            check_prop_dim2([m_ideal(3)] * 2)

    def test_prop_dim3_all_m(self):
        rep = check_prop_dim3([m_ideal(3)] * 4)
        # 4 triples + 6 pairs + 4 singles + 1 = 15 <= 6 * 4 = 24
        assert rep.lhs == 15
        assert rep.rhs == 24
        assert rep.holds
        assert rep.terms == {"triple_sum": 4, "pair_sum": 6, "single_sum": 4}

    def test_prop_dim3_m_cubed(self):
        rep = check_prop_dim3([m_power(3, 3), m_ideal(3), m_ideal(3), m_ideal(3)])
        assert rep.lhs == 29
        assert rep.rhs == 78
        assert rep.holds

    def test_additivity_exact(self):
        A, B, J = parse_ideal("(x, y^2)"), parse_ideal("(x^2, y)"), m_ideal(2)
        rep = check_additivity([A, B], J)
        assert rep.relation == "=="
        assert rep.holds
        assert rep.lhs == mixed_multiplicity([A, B]) + mixed_multiplicity([J, B])

    def test_check_main_mixed_rhs_uses_unscaled_ideals(self):
        quad = [m_ideal(4)] * 4
        rep = check_main_mixed(quad)
        assert rep.rhs == factorial(3) * sum(colength(I) for I in quad)

    @pytest.mark.parametrize("check, message", [
        (check_lech_mixed, "at least one ideal"),
        (check_main_mixed, "at least one ideal"),
        pytest.param(lambda ideals: check_additivity(ideals, m_ideal(2)), "at least one ideal",
                     id="check_additivity-at least one ideal"),
        (check_prop_dim2, "at least two ideals"),
        (check_prop_dim3, "exactly four ideals"),
    ])
    def test_empty_ideal_lists_are_value_errors(self, check, message):
        # each read ideals[0] of the empty list and raised IndexError
        for ideals in ([], iter([])):
            with pytest.raises(ValueError, match=message):
                check(ideals)

    @pytest.mark.parametrize("check, args, message", [
        (check_lech_mixed, [m_ideal(2)] * 3, "need 2 ideals, got 3"),
        (check_main_br, DirectSumModule((m_ideal(4), unit_ideal(4))), "contained in mF"),
        (check_prop_dim3, [m_ideal(2)] * 4, "specific to dimension 3"),
    ])
    def test_inputs_of_the_wrong_shape_are_value_errors(self, check, args, message):
        with pytest.raises(ValueError, match=message):
            check(args)


class TestSuite:
    def test_small_suite_runs_and_passes(self):
        cfg = CorpusConfig(seed=1, dim=2, rank=2, instances=3)
        reports = list(run_suite(cfg))
        names = {r.check for r in reports}
        assert names == {"lech_classical", "lech_mixed", "prop_dim2", "additivity"}
        assert all(r.holds for r in reports)

    def test_dim3_enables_prop_dim3(self):
        cfg = CorpusConfig(seed=1, dim=3, instances=2)
        names = {r.check for r in run_suite(cfg)}
        assert "prop_dim3" in names
        assert "prop_dim2" not in names
        assert "main_mixed" not in names  # gated below dim 4

    def test_exploration_flags_reports(self):
        cfg = CorpusConfig(
            seed=2, dim=2, instances=2, exploration=True,
            checks=("main_mixed", "lech_classical"),
        )
        tally = Tally()
        reports = [tally.add(r) for r in run_suite(cfg)]
        expl = [r for r in reports if r.check == "main_mixed"]
        assert expl and all(r.exploratory for r in expl)
        # exploratory outcomes do not decide the verdict
        violations = sum(row["violations"] for row in tally.summary_rows())
        assert violations == sum(not (r.holds or r.exploratory) for r in reports)

    def test_byte_identical_reports(self):
        cfg = CorpusConfig(seed=42, dim=2, rank=2, instances=4)
        out1, out2 = io.StringIO(), io.StringIO()
        write_jsonl(run_suite(cfg), out1)
        write_jsonl(run_suite(cfg), out2)
        assert out1.getvalue() == out2.getvalue()
        assert out1.getvalue()  # non-empty

    def test_parallel_matches_serial(self):
        serial = run_suite(CorpusConfig(seed=3, dim=2, instances=3, jobs=1))
        parallel = run_suite(CorpusConfig(seed=3, dim=2, instances=3, jobs=2))
        s1, s2 = io.StringIO(), io.StringIO()
        write_jsonl(serial, s1)
        write_jsonl(parallel, s2)
        assert s1.getvalue() == s2.getvalue()

    def test_import_loads_no_process_pool(self):
        # a serial run never pays for concurrent.futures or multiprocessing, and
        # `import multlab` loads the calculator alone: the harness module waits
        # in sys.modules unrun, and OpenSSL's hashlib stays out (unless the
        # interpreter's own `random` needs it, having no built-in SHA)
        code = """if True:
            import random, sys, types
            before = set(sys.modules)
            import multlab
            pending = type(sys.modules["multlab.harness"]) is not types.ModuleType
            print(sorted({"concurrent.futures", "multiprocessing", "hashlib", "_hashlib", "csv"}
                         & set(sys.modules) - before), pending)
            assert multlab.CorpusConfig is multlab.harness.CorpusConfig
            assert multlab.harness.run_instance(multlab.CorpusConfig(), "lech_classical", 0).holds
            assert getattr(multlab, "check_main_br") is multlab.harness.check_main_br
            star = {}
            exec("from multlab import *", star)
            assert set(multlab.__all__) <= star.keys()
            assert {"CorpusConfig", "run_suite", "harness", "colength"} <= set(dir(multlab))
            try:
                multlab.no_such_name
            except AttributeError:
                print("AttributeError")
        """
        assert _python(code).split("\n") == ["[] True", "AttributeError"]

    @staticmethod
    def _in_process_pool(monkeypatch):
        """Patch in a pool that runs each submission at once; return its log.

        The log holds ("open", workers), one ("submit", tasks) per chunk and
        ("shutdown", cancel_futures), in order.
        """
        log = []

        class InProcessPool:
            def __init__(self, max_workers):
                log.append(("open", max_workers))

            def submit(self, fn, *args):
                log.append(("submit", len(args[0])))
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                log.append(("shutdown", cancel_futures))

        # `harness._pooled` imports the pool class when it opens a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        return log

    def test_pool_has_no_more_workers_than_tasks(self, monkeypatch):
        log = self._in_process_pool(monkeypatch)
        cfg = CorpusConfig(seed=3, dim=2, instances=1, jobs=64,
                           checks=("lech_classical", "lech_mixed"))
        pooled = list(run_suite(cfg))
        assert log == [("open", 2), ("submit", 2), ("shutdown", True)]
        assert pooled == list(run_suite(replace(cfg, jobs=1)))

    def test_pooled_suite_keeps_a_bounded_window(self, monkeypatch):
        # two chunks of 4 tasks per worker, plus the one submitted as the
        # first chunk's reports are yielded, and no list of every task
        log = self._in_process_pool(monkeypatch)
        tracemalloc.start()
        try:
            stream = run_suite(CorpusConfig(dim=2, rank=3, instances=10**5, jobs=2))
            first = next(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (first.check, first.index) == ("lech_classical", 0)
        assert peak < 4 * 2**20, peak
        assert log == [("open", 2)] + [("submit", 4)] * 5
        stream.close()
        assert log[-1] == ("shutdown", True)
        # the order of the reports is the serial order
        cfg = CorpusConfig(seed=5, dim=2, rank=3, instances=11, jobs=3)
        assert list(run_suite(cfg)) == list(run_suite(replace(cfg, jobs=1)))

    def test_closing_a_pooled_stream_stops_every_worker(self):
        stream = run_suite(CorpusConfig(dim=2, rank=3, instances=10**5, jobs=2))
        assert next(stream).index == 0
        start = time.perf_counter()
        stream.close()
        assert time.perf_counter() - start < 10
        assert multiprocessing.active_children() == []

    def test_serial_suite_makes_no_task_list(self):
        # the first of 4 * 10**5 reports comes before any list of the
        # (check, index) pairs is built; such a list peaks at about 67 MiB
        tracemalloc.start()
        try:
            first = next(run_suite(CorpusConfig(dim=2, rank=3, instances=10**5)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (first.check, first.index) == ("lech_classical", 0)
        assert peak < 4 * 2**20, peak

    def test_fuzz_finishes_one_round_of_checks(self):
        # the round is the first instance of every check: the reports of a
        # one-instance verify, byte for byte
        for dim, rank in ((2, 3), (4, 2)):
            cfg = CorpusConfig(seed=0, dim=dim, rank=rank)
            reports = list(fuzz(cfg, 1e-9))
            assert [r.check for r in reports] == _applicable_checks(cfg)
            assert [r.to_json() for r in reports] == [
                r.to_json() for r in run_suite(replace(cfg, instances=1))]

    def test_fuzz_stream_keeps_no_reports(self):
        stream = fuzz(CorpusConfig(dim=2, rank=3), 3600)
        first = weakref.ref(next(stream))
        assert len(list(islice(stream, 200))) == 200
        gc.collect()
        assert first() is None

    def test_usage_errors_raise_at_the_call(self):
        # each refused check is named with its reason; an empty selection names none
        for dim, check, reason in ((1, "prop_dim2", "not defined at dim 1"),
                                   (3, "main_br", "a d >= 4 bound")):
            config = CorpusConfig(dim=dim, checks=(check,))
            message = re.escape(f"no applicable checks for this configuration: {check} ({reason}")
            with pytest.raises(ValueError, match=message):
                run_suite(config)
            with pytest.raises(ValueError, match=message):
                fuzz(config, 1)
        with pytest.raises(ValueError, match="no applicable checks for this configuration$"):
            run_suite(CorpusConfig(dim=2, checks=()))
        with pytest.raises(ValueError, match="seconds"):
            fuzz(CorpusConfig(dim=2), 0)

    def test_checks_subset_respected(self):
        cfg = CorpusConfig(seed=1, dim=2, instances=2, checks=("lech_classical",))
        assert {r.check for r in run_suite(cfg)} == {"lech_classical"}

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            CorpusConfig(checks=("nope",))

    def test_repeated_check_rejected(self):
        with pytest.raises(ValueError, match="repeated checks: lech_classical$"):
            CorpusConfig(checks=("lech_classical", "prop_dim2", "lech_classical"))

    def test_jsonl_schema(self):
        cfg = CorpusConfig(seed=5, dim=2, instances=2, checks=("lech_mixed",))
        buf = io.StringIO()
        write_jsonl(run_suite(cfg), buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2
        row = json.loads(lines[0])
        assert set(row) == {
            "check", "index", "instance", "lhs", "rhs", "relation",
            "holds", "slack", "exploratory", "terms",
        }
        assert row["relation"] == "<="
        assert row["slack"] == row["rhs"] - row["lhs"]
        assert isinstance(row["instance"]["ideals"], list)

    def test_summary_csv(self):
        cfg = CorpusConfig(seed=5, dim=2, instances=2)
        tally = Tally()
        reports = [tally.add(r) for r in run_suite(cfg)]
        buf = io.StringIO()
        write_summary_csv(tally, buf)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert [r["check"] for r in rows] == [n for n in CHECK_NAMES if n in {r.check for r in reports}]
        for row in rows:
            assert row["violations"] == "0"

    def test_tally_counts_only_verdict_failures(self):
        tally = Tally()
        for check, slack, exploratory in (
            ("main_mixed", -1, True), ("lech_classical", 2, False), ("lech_classical", 0, False),
        ):
            tally.add(harness._report(check, 0, slack, "<", exploratory=exploratory))
        assert tally.summary_rows() == [
            {"check": "lech_classical", "instances": 2, "exploratory": 0,
             "violations": 1, "min_slack": 0, "max_slack": 2},
            {"check": "main_mixed", "instances": 1, "exploratory": 1,
             "violations": 0, "min_slack": -1, "max_slack": -1},
        ]

    def test_run_instance_is_pure(self):
        cfg = CorpusConfig(seed=11, dim=2)
        a = run_instance(cfg, "additivity", 0)
        b = run_instance(cfg, "additivity", 0)
        assert a == b

    def test_check_names_constant(self):
        assert set(CHECK_NAMES) == {
            "lech_classical", "lech_mixed", "prop_dim2", "prop_dim3",
            "main_mixed", "main_br", "additivity",
        }

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CorpusConfig(dim=0)
        with pytest.raises(ValueError):
            CorpusConfig(instances=0)
        with pytest.raises(ValueError):
            CorpusConfig(jobs=0)
        with pytest.raises(ValueError, match="rank must be at least 1"):
            CorpusConfig(rank=0)
        with pytest.raises(ValueError, match="max_pure_power must be at least 1"):
            CorpusConfig(max_pure_power=0)
        with pytest.raises(ValueError, match="max_pure_power must be .* below 2147483648"):
            CorpusConfig(max_pure_power=2**31)
        assert CorpusConfig(max_pure_power=2**31 - 1).max_pure_power == 2**31 - 1
        # a report at a larger dim would name variables that parse_ideal refuses
        with pytest.raises(ValueError, match="dim must be at least 1 and at most 1024"):
            CorpusConfig(dim=1025)
        assert CorpusConfig(dim=1024).dim == 1024
        with pytest.raises(ValueError, match="extra_gens must be non-negative"):
            CorpusConfig(extra_gens=-1)

    @pytest.mark.parametrize("field, value", [
        ("seed", 0.5), ("dim", 2.5), ("dim", "2"), ("rank", 1.5), ("max_pure_power", 2.5),
        ("extra_gens", 1.5), ("instances", 2.5), ("jobs", 1.5),
    ])
    def test_int_fields_must_be_integers(self, field, value):
        # a float rank or seed once ran a corpus; the others failed later, in run_suite
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            CorpusConfig(**{"instances": 2, field: value})
        config = CorpusConfig(**{field: np.int64(3)})
        assert type(getattr(config, field)) is int

    @pytest.mark.parametrize("field, value", [
        ("exploration", "no"), ("exploration", 1), ("exploration", None),
        ("checks", "lech_mixed"), ("checks", "main_br"),
    ])
    def test_flag_and_check_fields_keep_their_types(self, field, value):
        # exploration="no" once ran the flagged strict bounds, and a bare
        # check name was split into letters, each one an unknown check
        with pytest.raises(ValueError, match=f"^{field} must be"):
            CorpusConfig(**{"instances": 2, field: value})
        assert CorpusConfig(checks=["lech_mixed"], exploration=True).checks == ("lech_mixed",)


# (applicable checks, {check: (ideals drawn, exploratory)}) at rank 3, by
# (dim, exploration); draws are pinned for d <= 4 only, d = 5 is too slow
_DISPATCH = {
    (1, False): {"lech_classical": (1, False)},
    (1, True): {"lech_classical": (1, False), "main_br": (3, True)},
    (2, False): {
        "lech_classical": (1, False), "lech_mixed": (2, False),
        "prop_dim2": (3, False), "additivity": (3, False),
    },
    (2, True): {
        "lech_classical": (1, False), "lech_mixed": (2, False),
        "prop_dim2": (3, False), "main_mixed": (2, True),
        "main_br": (3, True), "additivity": (3, False),
    },
    (3, False): {
        "lech_classical": (1, False), "lech_mixed": (3, False),
        "prop_dim3": (4, False), "additivity": (4, False),
    },
    (3, True): {
        "lech_classical": (1, False), "lech_mixed": (3, False),
        "prop_dim3": (4, False), "main_mixed": (3, True),
        "main_br": (3, True), "additivity": (4, False),
    },
    (4, False): {
        "lech_classical": (1, False), "lech_mixed": (4, False),
        "main_mixed": (4, False), "main_br": (3, False), "additivity": (5, False),
    },
}
_DISPATCH[4, True] = _DISPATCH[4, False]
_DISPATCH[5, False] = _DISPATCH[5, True] = _DISPATCH[4, False]


class TestDispatch:
    @pytest.mark.parametrize("dim,exploration", sorted(_DISPATCH))
    def test_applicable_checks(self, dim, exploration):
        cfg = CorpusConfig(dim=dim, rank=3, exploration=exploration)
        assert _applicable_checks(cfg) == list(_DISPATCH[dim, exploration])

    @pytest.mark.parametrize("dim,exploration", [k for k in sorted(_DISPATCH) if k[0] <= 4])
    def test_draw_counts_and_flags(self, dim, exploration):
        # draws do not depend on the pure-power cap; 2 keeps d = 4 quick
        cfg = CorpusConfig(dim=dim, rank=3, max_pure_power=2, exploration=exploration)
        seen = {}
        for check in _applicable_checks(cfg):
            rep = run_instance(cfg, check, 0)
            assert rep.check == check and rep.index == 0
            seen[check] = (len(rep.instance["ideals"]), rep.exploratory)
        assert seen == _DISPATCH[dim, exploration]

    @pytest.mark.parametrize("dim,exploration,checks,refused", [
        (2, False, ("prop_dim3", "lech_classical"), "prop_dim3 (not defined at dim 2)"),
        (3, False, ("main_mixed", "lech_classical"), "main_mixed (a d >= 4 bound"),
        (3, True, ("prop_dim2", "main_br"), "prop_dim2 (not defined at dim 3)"),
    ])
    def test_selected_checks_that_do_not_apply_raise(self, dim, exploration, checks, refused):
        cfg = CorpusConfig(dim=dim, rank=3, exploration=exploration, checks=checks)
        with pytest.raises(ValueError, match="selected checks that do not apply") as info:
            _applicable_checks(cfg)
        assert refused in str(info.value) and checks[1] not in str(info.value)

    def test_unknown_check_in_run_instance_raises(self):
        with pytest.raises(ValueError, match="unknown check"):
            run_instance(CorpusConfig(), "nope", 0)
