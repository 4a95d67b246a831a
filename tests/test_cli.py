"""Command-line interface: subcommands, output, exit codes."""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from itertools import count, islice
from pathlib import Path

import pytest

from multlab import CorpusConfig, ImpossibleValueError, cli, harness
from multlab.cli import (
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_UNSTABLE,
    EXIT_USAGE,
    EXIT_VIOLATION,
    _finish_suite,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMult:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "mult", "(x^2, x*y, y^3)")
        assert code == EXIT_OK
        assert "multiplicity = 5" in out
        assert "colength = 4" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "mult", "(x^2, x*y, y^3)", "--json")
        payload = json.loads(out)
        assert payload["multiplicity"] == 5
        assert payload["colength"] == 4

    def test_scale_by_m(self, capsys):
        code, out, _ = run(capsys, "mult", "(x, y)", "--scale-by-m", "--json")
        assert json.loads(out)["multiplicity"] == 4  # e(m^2) = 2^2

    def test_dim_flag(self, capsys):
        code, out, _ = run(capsys, "mult", "(x^2, y, z^3)", "--dim", "3", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["colength"] == 6  # 2 * 1 * 3 box points

    def test_parse_error_is_usage_exit(self, capsys):
        code, _, err = run(capsys, "mult", "(x^2, q*y)")
        assert code == EXIT_USAGE
        assert "q" in err

    def test_non_primary_is_usage_exit(self, capsys):
        code, _, err = run(capsys, "mult", "(x^2, x*y)")
        assert code == EXIT_USAGE
        assert "x2" in err

    def test_non_primary_message_stays_short_at_the_largest_dimension(self, capsys):
        # the message names the first three variables without a pure power
        # and counts the rest, so it stays one line at any dimension
        code, _, err = run(capsys, "mult", "(x^2, y^2)", "--dim", "1024")
        assert code == EXIT_USAGE
        assert len(err.encode()) < 200
        assert "no pure power of x3, x4, x5 and 1019 more:" in err
        code, _, err = run(capsys, "mult", "(x^2, y^2)", "--dim", "3")
        assert code == EXIT_USAGE
        assert err == "multlab: no pure power of x3: the colength is infinite\n"


class TestMixed:
    def test_two_ideals(self, capsys):
        code, out, _ = run(capsys, "mixed", "(x, y^2)", "(x^2, y)", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["mixed_multiplicity"] == 1

    def test_explicit_type(self, capsys):
        code, out, _ = run(
            capsys, "mixed", "(x, y)", "(x^2, y^2)", "--type", "1,1", "--json"
        )
        assert json.loads(out)["mixed_multiplicity"] == 2

    def test_type_sum_error(self, capsys):
        code, _, err = run(capsys, "mixed", "(x, y)", "(x^2, y^2)", "--type", "1,2")
        assert code == EXIT_USAGE
        assert "sum" in err

    def test_malformed_type_names_the_flag(self, capsys):
        code, out, err = run(capsys, "mixed", "(x,y^2)", "(x^2,y)", "--type", "1,a")
        assert code == EXIT_USAGE
        assert "--type" in err
        assert out == ""

    def test_dimension_unified_across_arguments(self, capsys):
        code, out, _ = run(capsys, "mixed", "(x, y)", "(x, y, z)", "--json")
        assert code == EXIT_USAGE  # 2 ideals in dim 3 with unit type

    def test_scale_by_m(self, capsys):
        code, out, _ = run(capsys, "mixed", "(x, y)", "(x^2, y)", "--scale-by-m", "--json")
        assert code == EXIT_OK
        # e(m^2, J) = 2 e(m, J) = 2 ord(J) for J = m (x^2, y) of order 2
        assert json.loads(out) == {
            "ideals": ["(x^2, x*y, y^2)", "(x^3, x*y, y^2)"],
            "mixed_multiplicity": 4,
            "type": [1, 1],
        }


class TestBr:
    def test_module(self, capsys):
        code, out, _ = run(capsys, "br", "--module", "(x, y);(x, y)", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["buchsbaum_rim"] == 3

    # br answers from Newton polyhedra; the cross-check runs the table engine,
    # br_direct, which hands each round's window of n to one walk of the
    # sampler over the compositions, and both routes must agree.  Past a
    # rank-2 module in d = 2: a rank-3 module; a rank-1 module, whose one slot
    # climbs from the unit ideal through every power up to the round's top
    # and counts only those in the window, and whose value is e(I) = 20; a
    # d = 4 module, where most min-plus updates
    # are by generators of height 0; and a unit column and a repeated one,
    # twice: equal columns are fused into one slot weighted by a binomial,
    # and the unit ideal's slot climbs as a copy of its field.  Under numpy
    # 1.x value-based casting the climb adds heights as scalars of the field's
    # own type, and these values must still come out exact.
    @pytest.mark.parametrize("module_text, value", [
        ("(x, y^2);(x^2, y)", 5),
        ("(x^2, x*y, y^3, z^2);(x^3, y, z^2);(x, y^2, y*z, z^3)", 46),
        ("(x^3, x*y^2, y^4, z^2)", 20),
        ("(x^4, y^4, z^4, w^4, x*y*z*w);(x^5, y^3, z^4, w^2, x*w);(x^3, y^5, z^2, w^4, y*z)", 1243),
        ("(x^2, y);(x^2, y);(1)", 6),
        ("(x^2, x*y, y^3, z^2);(x^2, x*y, y^3, z^2);(x^3, y, z^2)", 66),
    ], ids=["rank2", "rank3", "rank1", "d4", "unit-column", "repeated-column"])
    def test_cross_check_agrees(self, capsys, module_text, value):
        code, out, _ = run(capsys, "br", "--module", module_text, "--cross-check", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert (payload["buchsbaum_rim"], payload["direct"]) == (value, value)
        assert payload["routes_agree"] is True

    def test_cross_check_disagreement_exits_2_and_still_prints(self, capsys, monkeypatch):
        # the table engine runs once more from twice its stop base, gives 5
        # again, and the routes still disagree
        monkeypatch.setattr("multlab.cli.br_via_mixed", lambda E: 6)
        code, out, err = run(
            capsys, "br", "--module", "(x, y^2);(x^2, y)", "--cross-check", "--json"
        )
        assert code == EXIT_VIOLATION
        assert "gave 5 at base 3; running it again from base 6" in err
        assert "cross-check failed: the two routes disagree" in err
        assert json.loads(out) == {
            "buchsbaum_rim": 6,
            "direct": 5,
            "module": ["(x, y^2)", "(x^2, y)"],
            "routes_agree": False,
        }

    @pytest.mark.parametrize("module_text, value, stop", [
        ("(z^4, y^5, x*y^2*z, x^3)", 59, 6),
        ("(x^5, x^3*z, x*y^3, y^4, z^4)", 67, 6),
        ("(x^6, x^4*y, x*z^4, y^6, z^5)", 149, 14),
    ])
    def test_cross_check_runs_past_a_false_stop(self, capsys, module_text, value, stop):
        # the engine's window stops at `stop` one short of the Newton value;
        # one more table from twice that base gives it, and the check passes
        code, out, err = run(capsys, "br", "--module", module_text, "--cross-check", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert (payload["buchsbaum_rim"], payload["direct"]) == (value, value)
        assert f"gave {value - 1} at base {stop}; running it again from base {2 * stop}" in err

    def test_only_the_cross_check_runs_the_table_engine(self, capsys, monkeypatch):
        def oracle(E, base=None):
            raise AssertionError("the table engine ran without --cross-check")

        monkeypatch.setattr("multlab.cli._br_table", oracle)
        code, out, _ = run(capsys, "br", "--module", "(x, y^2);(x^2, y)", "--json")
        assert code == EXIT_OK
        assert json.loads(out) == {"buchsbaum_rim": 5, "module": ["(x, y^2)", "(x^2, y)"]}

    def test_scale(self, capsys):
        code, out, _ = run(
            capsys, "br", "--module", "(x, y)", "--scale-by-m", "--json"
        )
        assert json.loads(out)["buchsbaum_rim"] == 4

    def test_unit_column_takes_the_module_dimension(self, capsys):
        code, out, _ = run(capsys, "br", "--module", "(1);(x^2, y)")
        assert code == EXIT_OK
        assert "buchsbaum_rim = 2" in out


class TestVerify:
    def test_small_verify_passes(self, capsys, tmp_path):
        report = tmp_path / "r.jsonl"
        summary = tmp_path / "s.csv"
        code, out, _ = run(
            capsys, "verify", "--seed", "1", "--dim", "2", "--instances", "3",
            "--report", str(report), "--summary", str(summary),
        )
        assert code == EXIT_OK
        assert "violations" in out
        lines = report.read_text().splitlines()
        assert lines and all(json.loads(line)["holds"] for line in lines)
        assert summary.read_text().startswith("check,")

    @pytest.mark.parametrize("command", [["verify", "--instances", "20"], ["fuzz", "--seconds", "1"]])
    def test_unwritable_summary_exits_1_before_the_first_instance(self, capsys, tmp_path, monkeypatch, command):
        ran = []
        real = harness.run_instance
        monkeypatch.setattr(harness, "run_instance", lambda *args: ran.append(args) or real(*args))
        report, summary = tmp_path / "r.jsonl", tmp_path / "missing" / "s.csv"
        code, out, err = run(capsys, *command, "--dim", "2", "--report", str(report), "--summary", str(summary))
        assert code == EXIT_USAGE
        assert str(summary) in err and "Traceback" not in out + err
        assert ran == [] and out == ""
        assert not report.exists() or report.read_text() == ""

    def test_verify_reports_are_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            code, _, _ = run(
                capsys, "verify", "--seed", "9", "--dim", "2",
                "--instances", "2", "--report", str(path),
            )
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(
            "seed = 4\ndim = 2\ninstances = 2\nchecks = lech_classical\n"
            "# a comment\nmax-pure-power = 3\n"
        )
        code, out, _ = run(capsys, "verify", "--config", str(cfg))
        assert code == EXIT_OK
        assert "lech_classical" in out

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("seed = 4\ndim = 3\ninstances = 1\n")
        code, out, _ = run(
            capsys, "verify", "--config", str(cfg), "--dim", "2",
            "--checks", "prop_dim2",
        )
        assert code == EXIT_OK
        assert "prop_dim2" in out

    def test_bad_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("sed = 4\n")
        code, _, err = run(capsys, "verify", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "sed" in err

    def test_config_line_without_equals_names_the_line(self, capsys, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("dim 2\ninstances = 1\n")
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert f"{cfg}:1" in err
        assert "total" not in out

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "verify", "--config", "/nonexistent.cfg")
        assert code == EXIT_USAGE

    def test_no_applicable_checks_is_usage_error(self, capsys):
        # the message names each refused check with its reason
        for dim, check, reason in (("1", "prop_dim2", "not defined at dim 1"),
                                   ("3", "main_br", "a d >= 4 bound")):
            code, out, err = run(capsys, "verify", "--dim", dim, "--checks", check)
            assert code == EXIT_USAGE
            assert "no applicable checks" in err and f"{check} ({reason}" in err
            assert "total" not in out

    @pytest.mark.parametrize("argv, refused", [
        (("--dim", "2", "--checks", "prop_dim3,lech_classical"), "prop_dim3 (not defined at dim 2)"),
        (("--dim", "3", "--checks", "main_mixed,lech_classical"), "main_mixed (a d >= 4 bound"),
    ])
    def test_selected_check_that_does_not_apply_is_usage_error(self, capsys, tmp_path, argv, refused):
        # the bound named is not silently dropped while the others run
        report = tmp_path / "r.jsonl"
        code, out, err = run(capsys, "verify", "--instances", "2", *argv, "--report", str(report))
        assert code == EXIT_USAGE
        assert refused in err and "lech_classical" not in err
        assert "total" not in out
        assert not report.exists()

    @pytest.mark.parametrize("checks", [",", "", " , "])
    def test_empty_checks_flag_is_usage_error(self, capsys, checks):
        code, out, err = run(capsys, "verify", "--dim", "2", "--instances", "1", "--checks", checks)
        assert code == EXIT_USAGE
        assert "no applicable checks" in err
        assert "total" not in out

    def test_empty_checks_config_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("dim = 2\ninstances = 1\nchecks =\n")
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "no applicable checks" in err
        assert "total" not in out

    def test_repeated_checks_flag_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "--dim", "2", "--instances", "2",
            "--checks", "lech_classical,lech_classical",
        )
        assert code == EXIT_USAGE
        assert "repeated checks: lech_classical" in err
        assert "total" not in out

    def test_repeated_checks_config_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("dim = 2\ninstances = 2\nchecks = lech_classical, prop_dim2, lech_classical\n")
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "repeated checks: lech_classical" in err
        assert "total" not in out

    @pytest.mark.parametrize(
        "value, explores",
        [("1", True), ("true", True), ("YES", True), ("On", True),
         ("0", False), ("False", False), ("no", False), ("OFF", False)],
    )
    def test_config_booleans(self, capsys, tmp_path, value, explores):
        # main_mixed runs below d = 4 only with exploration, and selected
        # without it, it is refused by name
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(
            f"dim = 3\ninstances = 1\nchecks = lech_classical, main_mixed\nexploration = {value}\n"
        )
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == (EXIT_OK if explores else EXIT_USAGE)
        assert ("main_mixed" in out) == explores
        assert ("main_mixed" in err) != explores

    @pytest.mark.parametrize("value", ["maybe", "ture", "", "2"])
    def test_config_boolean_that_is_not_one_is_usage_error(self, capsys, tmp_path, value):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(
            f"dim = 3\ninstances = 1\nchecks = lech_classical, main_mixed\nexploration = {value}\n"
        )
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "exploration" in err
        assert "total" not in out

    def test_report_and_summary_config_keys_write_their_files(self, capsys, tmp_path):
        report, summary = tmp_path / "r.jsonl", tmp_path / "s.csv"
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(f"dim = 2\ninstances = 2\nreport = {report}\nsummary = {summary}\n")
        code, out, _ = run(capsys, "verify", "--config", str(cfg))
        assert code == EXIT_OK
        total = int(out.splitlines()[-1].split()[1])
        assert len(report.read_text().splitlines()) == total
        assert summary.read_text().startswith("check,")

    def test_config_key_is_refused(self, capsys, tmp_path):
        other = tmp_path / "other.cfg"
        other.write_text("dim = 2\n")
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(f"instances = 1\nconfig = {other}\n")
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "config" in err
        assert "total" not in out

    @pytest.mark.parametrize("key", ["dim", "max_pure_power", "instances"])
    def test_malformed_integer_names_the_file_and_the_key(self, capsys, tmp_path, key):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(f"{key} = two\n")
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert str(cfg) in err
        assert key.replace("_", "-") in err
        assert "total" not in out

    def test_abbreviated_flags_are_refused(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", "--dim", "2", "--inst", "1")
        assert code == EXIT_USAGE
        assert "--inst" in err
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("dim = 2\ninst = 1\n")
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert str(cfg) in err and "inst" in err
        assert "total" not in out

    def test_no_environment_variable_sets_the_jobs(self, capsys, monkeypatch):
        # --jobs and a config file's jobs line set the workers; no environment
        # variable does, so a malformed MULTLAB_JOBS is never read
        monkeypatch.setenv("MULTLAB_JOBS", "zero")
        code, _, _ = run(capsys, "verify", "--dim", "2", "--instances", "1")
        assert code == EXIT_OK


@pytest.mark.parametrize("command", [["verify", "--instances", "3"], ["fuzz", "--seconds", "0.1"]])
def test_suite_throughput_goes_to_stderr(capsys, command):
    # one line after the summary, on stderr alone; stdout ends with the total
    code, out, err = run(capsys, *command, "--dim", "2", "--seed", "5")
    assert code == EXIT_OK
    total = re.fullmatch(r"(?s).*\ntotal (\d+) reports, 0 violations\n", out).group(1)
    assert re.fullmatch(rf"{total} reports in \d+\.\d{{3}} s \(\d+\.\d reports/s\)\n", err), err


class TestFuzz:
    def test_short_budget_runs(self, capsys):
        code, out, _ = run(
            capsys, "fuzz", "--seconds", "0.5", "--dim", "2", "--seed", "8",
            "--checks", "lech_classical,lech_mixed",
        )
        assert code == EXIT_OK
        assert "lech_classical" in out

    @pytest.mark.parametrize("seconds", ["-1", "0", "nan", "inf"])
    def test_seconds_must_be_positive_and_finite(self, capsys, seconds):
        code, out, err = run(capsys, "fuzz", "--seconds", seconds, "--dim", "2")
        assert code == EXIT_USAGE
        assert "seconds" in err
        assert "total" not in out

    def test_no_applicable_checks_is_usage_error(self, capsys):
        for dim, check, reason in (("1", "prop_dim2", "not defined at dim 1"),
                                   ("3", "main_br", "a d >= 4 bound")):
            code, _, err = run(capsys, "fuzz", "--seconds", "0.1", "--dim", dim, "--checks", check)
            assert code == EXIT_USAGE
            assert "no applicable checks" in err and f"{check} ({reason}" in err

    def test_selected_checks_that_do_not_apply_are_usage_errors(self, capsys, tmp_path):
        report = tmp_path / "r.jsonl"
        code, out, err = run(capsys, "fuzz", "--seconds", "0.1", "--dim", "2", "--report", str(report),
                             "--checks", "main_br,prop_dim3,lech_classical")
        assert code == EXIT_USAGE
        assert "main_br (a d >= 4 bound" in err and "prop_dim3 (not defined at dim 2)" in err
        assert "lech_classical" not in err
        assert "total" not in out
        assert not report.exists()

    def test_jobs_flag_is_rejected(self, capsys):
        code, _, err = run(capsys, "fuzz", "--seconds", "0.1", "--jobs", "2")
        assert code == EXIT_USAGE
        assert "--jobs" in err

    def test_jobs_config_key_is_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "fuzz.cfg"
        cfg.write_text("dim = 2\njobs = 2\n")
        code, _, err = run(capsys, "fuzz", "--seconds", "0.1", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "jobs" in err

    def test_instances_config_key_is_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "fuzz.cfg"
        cfg.write_text("dim = 2\ninstances = 1\n")
        code, _, err = run(capsys, "fuzz", "--seconds", "0.1", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "instances" in err

    def test_seconds_config_key_is_used(self, capsys, tmp_path):
        cfg = tmp_path / "fuzz.cfg"
        cfg.write_text("dim = 2\nseconds = 0\n")
        code, out, err = run(capsys, "fuzz", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "seconds must be positive and finite, got 0" in err
        assert "total" not in out
        cfg.write_text("dim = 2\nseconds = 0.1\n")
        assert run(capsys, "fuzz", "--config", str(cfg))[0] == EXIT_OK

    def test_seconds_flag_overrides_the_config_key(self, capsys, tmp_path):
        # 600 s from the file would outlast the test; the flag's 0.1 s wins
        cfg = tmp_path / "fuzz.cfg"
        cfg.write_text("dim = 2\nseconds = 600\nchecks = lech_classical\n")
        code, out, _ = run(capsys, "fuzz", "--config", str(cfg), "--seconds", "0.1")
        assert code == EXIT_OK
        assert "lech_classical" in out

    @pytest.mark.parametrize("argv", [
        ("fuzz", "--seconds", "0"),
        ("fuzz", "--seconds", "0.1", "--dim", "1", "--checks", "prop_dim2"),
        ("verify", "--dim", "1", "--checks", "prop_dim2"),
    ])
    def test_usage_error_writes_no_report(self, capsys, tmp_path, argv):
        report = tmp_path / "f.jsonl"
        code, _, _ = run(capsys, *argv, "--report", str(report))
        assert code == EXIT_USAGE
        assert not report.exists()

    def test_report_lines_match_the_printed_total(self, capsys, tmp_path):
        report = tmp_path / "f.jsonl"
        code, out, _ = run(capsys, "fuzz", "--seconds", "0.2", "--dim", "2", "--report", str(report))
        assert code == EXIT_OK
        total = int(out.splitlines()[-1].split()[1])
        assert len(report.read_text().splitlines()) == total

    def test_interrupt_exits_130_and_keeps_the_written_reports(self, capsys, tmp_path, monkeypatch):
        k = 7  # the interrupt falls inside the second round of four checks
        config = CorpusConfig(dim=2)
        want = [r.to_json() for r in islice(harness.fuzz(config, 3600), k - 1)]
        real = harness.run_instance
        calls = count(1)

        def interrupted(*args):
            if next(calls) == k:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(harness, "run_instance", interrupted)
        report = tmp_path / "f.jsonl"
        code, out, err = run(capsys, "fuzz", "--seconds", "60", "--dim", "2", "--report", str(report))
        assert code == EXIT_INTERRUPTED
        assert err == "multlab: interrupted\n"
        assert "Traceback" not in out + err
        assert report.read_text().splitlines() == want

    def test_each_report_line_reaches_the_file_before_the_next_report(self, capsys, tmp_path):
        want = [r.to_json() + "\n" for r in islice(harness.fuzz(CorpusConfig(dim=2), 3600), 6)]
        path = tmp_path / "f.jsonl"
        on_disk = []

        def reports():
            for r in islice(harness.fuzz(CorpusConfig(dim=2), 3600), 6):
                on_disk.append(path.read_text())
                yield r

        args = argparse.Namespace(report=str(path), summary=None)
        assert _finish_suite(reports(), args) == EXIT_OK
        assert on_disk == ["".join(want[:i]) for i in range(6)]
        assert path.read_text() == "".join(want)


class TestImpossibleValue:
    def test_maps_to_unstable_exit_without_traceback(self, capsys, monkeypatch):
        def inconsistent(*args, **kwargs):
            raise ImpossibleValueError("difference table produced 0")

        monkeypatch.setattr("multlab.cli.mixed_multiplicity", inconsistent)
        code, out, err = run(capsys, "mixed", "(x, y^2)", "(x^2, y)")
        assert code == EXIT_UNSTABLE
        assert "difference table produced 0" in err
        assert "Traceback" not in err + out

    def test_other_arithmetic_errors_are_not_swallowed(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("defect")

        monkeypatch.setattr("multlab.cli.mixed_multiplicity", broken)
        with pytest.raises(ZeroDivisionError):
            main(["mixed", "(x, y^2)", "(x^2, y)"])


class TestOutOfMemory:
    def test_maps_to_exit_4_without_traceback(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("multlab.cli.mixed_multiplicity", exhausted)
        code, out, err = run(capsys, "mixed", "(x, y^2)", "(x^2, y)")
        assert code == 4  # documented in the cli docstring and the README
        assert err == "multlab: out of memory\n"
        assert "Traceback" not in err + out

    def test_fields_past_numpys_maximum_size_exit_4(self, capsys):
        # one field row of (2**31 - 1)**2 uint32 cells passes numpy's maximum
        # array size, which numpy refuses with a ValueError; the field code
        # raises MemoryError before it allocates anything
        code, out, err = run(capsys, "mult", "(x^2147483647, y^2147483647, z^2147483647, w^2147483647)")
        assert code == 4
        assert err == "multlab: out of memory\n"
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("br", "--module", "(x^1000000, y^1000000, z^1000000, w^1000000)"),
        ("mixed", "(x^1000000, y^1000000, z^1000000, w^1000000)", "--type", "4"),
    ])
    def test_boxes_too_large_to_allocate_exit_4_at_once(self, argv):
        # from d = 4 on a Newton value sums closure colengths over a box: the
        # first field, of 10^18 cells, fails as it is allocated; nothing is
        # planned or computed before it, so the exit comes at once
        resource = pytest.importorskip("resource")
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        start = time.monotonic()
        out = subprocess.run([sys.executable, "-m", "multlab.cli", *argv], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": path},
                             preexec_fn=limit, timeout=60)
        assert (out.returncode, out.stdout, out.stderr) == (4, "", "multlab: out of memory\n")
        assert time.monotonic() - start < 5


class TestBoxFree:
    def test_large_pure_powers_answer_in_d3(self, capsys):
        # in d <= 3 mixed and Buchsbaum-Rim values come from the facets of one
        # hull, with no box, so pure powers of 10^6 answer exactly; the
        # module's value is p^3 + 2p^2 + 6p + 30, the sum for complete
        # intersections
        p = "(x^1000000, y^1000000, z^1000000)"
        code, out, _ = run(capsys, "br", "--module", f"{p};(x^3, y^2, z^5)", "--json")
        assert (code, json.loads(out)["buchsbaum_rim"]) == (0, 1000002000006000030)
        code, out, _ = run(capsys, "mixed", p, "--type", "3", "--json")
        assert (code, json.loads(out)["mixed_multiplicity"]) == (0, 10**18)


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, *[])[0] == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_exit_codes_distinct(self):
        assert len({EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, EXIT_UNSTABLE, EXIT_INTERRUPTED}) == 5

    @pytest.mark.parametrize("argv, bound", [
        # an exponent bound the draws never reached the library's check with:
        # this run built fields and then exited 4
        (("verify", "--max-pure-power", "2147483648", "--instances", "1"), "below 2147483648"),
        # dimensions the parser's variable bound did not cover: each run built
        # rows that long, and none of them exited within 20 s
        (("mult", "(x^2, y^2)", "--dim", "2147483648"), "at most 1024"),
        (("verify", "--dim", "1025", "--instances", "1"), "at most 1024"),
        (("verify", "--dim", "3000", "--instances", "1", "--checks", "lech_classical"), "at most 1024"),
    ])
    def test_sizes_past_the_bounds_are_usage_errors(self, capsys, argv, bound):
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert bound in err and len(err) < 200
        assert time.monotonic() - start < 5
