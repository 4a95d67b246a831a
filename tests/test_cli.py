"""Command-line interface: subcommands, output, exit codes."""

import json
from itertools import count, islice

import pytest

from multlab import CorpusConfig, ImpossibleValueError, harness
from multlab.cli import (
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_UNSTABLE,
    EXIT_USAGE,
    EXIT_VIOLATION,
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

    def test_dimension_unified_across_arguments(self, capsys):
        code, out, _ = run(capsys, "mixed", "(x, y)", "(x, y, z)", "--json")
        assert code == EXIT_USAGE  # 2 ideals in dim 3 with unit type


class TestBr:
    def test_module(self, capsys):
        code, out, _ = run(capsys, "br", "--module", "(x, y);(x, y)", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["buchsbaum_rim"] == 3

    def test_cross_check_agrees(self, capsys):
        code, out, _ = run(
            capsys, "br", "--module", "(x, y^2);(x^2, y)", "--cross-check", "--json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["routes_agree"] is True
        assert payload["buchsbaum_rim"] == payload["via_mixed"]

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

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "verify", "--config", "/nonexistent.cfg")
        assert code == EXIT_USAGE

    def test_no_applicable_checks_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--dim", "1", "--checks", "prop_dim2")
        assert code == EXIT_USAGE
        assert "no applicable checks" in err
        assert "total" not in out

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

    @pytest.mark.parametrize("value", ["zero", "0", "-2", "1.5"])
    def test_malformed_jobs_variable_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("MULTLAB_JOBS", value)
        code, _, err = run(capsys, "verify", "--dim", "2", "--instances", "1")
        assert code == EXIT_USAGE
        assert "MULTLAB_JOBS" in err

    def test_jobs_variable_sets_the_default(self, capsys, monkeypatch):
        monkeypatch.setenv("MULTLAB_JOBS", " 1 ")
        code, _, _ = run(capsys, "verify", "--dim", "2", "--instances", "1")
        assert code == EXIT_OK
        # an explicit flag wins over a malformed variable
        monkeypatch.setenv("MULTLAB_JOBS", "zero")
        code, _, _ = run(capsys, "verify", "--dim", "2", "--instances", "1", "--jobs", "1")
        assert code == EXIT_OK


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
        code, _, err = run(capsys, "fuzz", "--seconds", "0.1", "--dim", "1", "--checks", "prop_dim2")
        assert code == EXIT_USAGE
        assert "no applicable checks" in err

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


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, *[])[0] == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_exit_codes_distinct(self):
        assert len({EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, EXIT_UNSTABLE, EXIT_INTERRUPTED}) == 5
