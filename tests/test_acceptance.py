"""Acceptance gate: one test per release criterion, all comparisons exact.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Every expected value is an exact integer (tolerance zero);
the elapsed-time assertions are generous single-core budgets.

The random corpora are seeded through :func:`multlab.harness.rng_for`, so
every run of this file exercises byte-for-byte the same instances.
"""

import io
import time
from itertools import product as iter_product
from math import prod

from multlab.buchsbaum_rim import br_direct, br_via_mixed, module
from multlab.cli import main as cli_main
from multlab.closure import integral_closure
from multlab.expr import parse_ideal
from multlab.harness import (
    CorpusConfig,
    check_main_br,
    check_main_mixed,
    check_prop_dim2,
    check_prop_dim3,
    gen_random_mprimary,
    rng_for,
    run_suite,
    write_jsonl,
)
from multlab.lengths import colength, colength_naive, shared_sampler
from multlab.monomial import box_bounds, m_ideal, m_power, product
from multlab.multiplicity import (
    StabilizePolicy,
    hilbert_samuel,
    mixed_difference_table,
    mixed_multiplicity,
    stabilize,
)


def compositions(d: int, r: int):
    """The compositions of d into r non-negative parts: the types of a rank-r Buchsbaum-Rim expansion."""
    return [a for a in iter_product(range(d + 1), repeat=r) if sum(a) == d]


def test_criterion_01_golden_values_and_rank_one_collapse():
    """e(m)=1, e(m,...,m)=1, e(m^2)=2^d for d=2..5; rank-1 BR equals e."""
    start = time.monotonic()
    for d in (2, 3, 4, 5):
        m = m_ideal(d)
        assert hilbert_samuel(m) == 1
        assert mixed_multiplicity([m] * d) == 1
        assert hilbert_samuel(m_power(d, 2)) == 2**d
    collapses = 0
    for dim in (2, 3):
        for index in range(10):
            rng = rng_for(101, f"rank_one_dim{dim}", index)
            I = gen_random_mprimary(dim, 3, 2, rng)
            assert br_direct(module([I])) == hilbert_samuel(I)
            collapses += 1
    assert collapses >= 20
    assert time.monotonic() - start < 60


def test_criterion_02_buchsbaum_rim_routes_agree():
    """Difference-table BR equals the mixed-multiplicity expansion exactly.

    The expansion is summed twice: from Newton values (`br_via_mixed`) and
    from the engine's difference tables, term by term.
    """
    start = time.monotonic()
    checked = 0
    for dim in (2, 3):
        for rank in (1, 2, 3):
            for index in range(9):
                rng = rng_for(202, f"routes_d{dim}_r{rank}", index)
                E = module(
                    gen_random_mprimary(dim, 3, 2, rng) for _ in range(rank)
                )
                tables = sum(
                    mixed_difference_table(E.ideals, a).result
                    for a in compositions(dim, rank)
                )
                assert br_direct(E) == br_via_mixed(E) == tables
                checked += 1
    assert checked >= 50
    assert time.monotonic() - start < 600


def test_criterion_03_mixed_multiplicity_is_additive_over_products():
    """e(IJ, rest) == e(I, rest) + e(J, rest) on seeded corpora, slack zero.

    Both sides are read again from the engine's difference tables.
    """
    total = 0
    for dim in (2, 3):
        for report in run_suite(
            CorpusConfig(seed=303, dim=dim, instances=15, checks=("additivity",))
        ):
            assert report.relation == "=="
            assert report.holds
            assert report.slack == 0
            (first, *rest), J = (
                [parse_ideal(t, dim=dim) for t in report.instance["ideals"][:-1]],
                parse_ideal(report.instance["ideals"][-1], dim=dim),
            )
            tables = [mixed_difference_table([I, *rest]).result for I in (product(first, J), first, J)]
            assert (report.lhs, report.rhs) == (tables[0], tables[1] + tables[2])
            total += 1
    assert total >= 30


def test_criterion_04_scaling_by_m_gives_strict_mixed_bound_in_dim4():
    """e(mI_1,...,mI_4) < 3! sum lambda(R/I_i), slack >= 1, on 100 quadruples."""
    start = time.monotonic()
    base = check_main_mixed([m_ideal(4)] * 4)
    assert (base.lhs, base.rhs) == (16, 24)
    reports = list(run_suite(
        CorpusConfig(
            seed=404,
            dim=4,
            instances=100,
            max_pure_power=3,
            extra_gens=2,
            checks=("main_mixed",),
        )
    ))
    assert len(reports) == 100
    for report in reports:
        assert not report.exploratory
        assert report.relation == "<"
        assert report.holds
        assert report.slack >= 1
    assert time.monotonic() - start < 1800


def test_criterion_05_scaling_by_m_gives_strict_br_bound_in_dim4():
    """br(mE) < (d+r-1)!/r! lambda(F/E) in d=4 for ranks 1 and 2."""
    start = time.monotonic()
    base = check_main_br(module([m_ideal(4)] * 2))
    assert (base.lhs, base.rhs) == (80, 120)
    assert br_direct(module([m_power(4, 2)] * 2)) == 80
    total = 0
    for rank in (1, 2):
        for report in run_suite(
            CorpusConfig(
                seed=505, dim=4, rank=rank, instances=25, checks=("main_br",)
            )
        ):
            assert not report.exploratory
            assert report.relation == "<"
            assert report.holds
            assert report.slack >= 1
            total += 1
    assert total >= 50
    assert time.monotonic() - start < 1800


def test_criterion_06_dim2_pairwise_bound_holds_and_is_sharp():
    """The dimension-2 refinement holds over ranks 2..4 and is tight on m-powers."""
    total = 0
    for rank in (2, 3, 4):
        reports = list(run_suite(
            CorpusConfig(
                seed=606, dim=2, rank=rank, instances=34, checks=("prop_dim2",)
            )
        ))
        assert all(r.holds for r in reports)
        total += len(reports)
    assert total >= 100
    for power, rank in ((1, 2), (2, 2), (2, 3), (3, 4)):
        report = check_prop_dim2([m_power(2, power)] * rank)
        assert report.holds
        assert report.slack == 0


def test_criterion_07_sum_bound_all_dims_and_dim3_refinement():
    """e(I_1,..,I_d) <= (d-1)! sum lambda in d=2,3,4; dim-3 four-ideal bound."""
    total = 0
    for dim, instances in ((2, 40), (3, 40), (4, 20)):
        reports = list(run_suite(
            CorpusConfig(
                seed=707, dim=dim, instances=instances, checks=("lech_mixed",)
            )
        ))
        assert all(r.holds for r in reports)
        total += len(reports)
    assert total >= 100
    refined = list(run_suite(
        CorpusConfig(seed=708, dim=3, instances=30, checks=("prop_dim3",))
    ))
    assert all(r.holds for r in refined)
    assert len(refined) >= 30
    all_m = check_prop_dim3([m_ideal(3)] * 4)
    assert (all_m.lhs, all_m.rhs) == (15, 24)
    assert all_m.holds


def test_criterion_08_symmetry_closure_invariance_and_pair_mean_bound():
    """e is symmetric, unchanged under integral closure, and 2e(I,J) <= e(I)+e(J)."""
    for index in range(50):
        rng = rng_for(808, "invariance_pairs", index)
        I = gen_random_mprimary(2, 3, 2, rng)
        J = gen_random_mprimary(2, 3, 2, rng)
        e_ij = mixed_multiplicity([I, J])
        assert mixed_multiplicity([J, I]) == e_ij
        assert mixed_multiplicity([integral_closure(I), J]) == e_ij
        assert mixed_multiplicity([integral_closure(I), integral_closure(J)]) == e_ij
        assert 2 * e_ij <= hilbert_samuel(I) + hilbert_samuel(J)


def test_criterion_09_fast_counter_matches_naive_and_tables_reproduce():
    """Grid counter == brute-force box walk; tables re-derive at doubled base."""
    checked = 0
    for dim in (2, 3, 4):
        for index in range(25):
            rng = rng_for(909, f"oracle_d{dim}", index)
            I = gen_random_mprimary(dim, 4, 3, rng)
            for J in (I, product(I, I)):
                if prod(box_bounds(J)) <= 10**6:
                    assert colength(J) == colength_naive(J)
                    checked += 1
    assert checked >= 100
    for index in range(10):
        dim = 2 + index % 2
        rng = rng_for(910, "doubled_base", index)
        ideals = [gen_random_mprimary(dim, 3, 1, rng) for _ in range(dim)]
        table = mixed_difference_table(ideals)
        doubled = tuple(2 * b for b in table.base)
        merged = tuple(dict.fromkeys(ideals))  # equal draws merge, as in the table
        again = stabilize(
            shared_sampler(merged).colengths,
            table.order,
            StabilizePolicy(initial_base=doubled),
        )
        assert again.result == table.result


def test_criterion_10_verify_reports_are_byte_identical(tmp_path):
    """Two CLI verify runs with one config produce identical JSONL bytes."""
    blobs = []
    for run in range(2):
        report_path = tmp_path / f"report{run}.jsonl"
        code = cli_main(
            [
                "verify",
                "--seed", "1010",
                "--dim", "2",
                "--rank", "2",
                "--instances", "3",
                "--report", str(report_path),
            ]
        )
        assert code == 0
        blobs.append(report_path.read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0]
    # and the library-level writer is as deterministic as the CLI
    buffers = []
    for run in range(2):
        out = io.StringIO()
        write_jsonl(run_suite(CorpusConfig(seed=1010, dim=2, rank=2, instances=3)), out)
        buffers.append(out.getvalue())
    assert buffers[0] == buffers[1]
