"""Command-line interface: outputs, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blocknorm
import blocknorm.mc as mc
from blocknorm.cli import MAX_GRID_POINTS, main, parse_grid
from blocknorm.errors import ConfigurationError


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGridParsing:
    def test_inclusive_endpoints(self):
        grid = parse_grid("1.6:4.0:0.1")
        assert len(grid) == 25
        assert grid[0] == 1.6 and grid[-1] == 4.0

    def test_rho_grid(self):
        assert parse_grid("0:0.9:0.1") == [round(0.1 * i, 12) for i in range(10)]

    def test_single_value(self):
        assert parse_grid("2.5") == [2.5]

    def test_bad_grids(self):
        with pytest.raises(ConfigurationError):
            parse_grid("1:2")
        with pytest.raises(ConfigurationError):
            parse_grid("1:2:0")
        with pytest.raises(ConfigurationError):
            parse_grid("3:1:0.5")
        with pytest.raises(ConfigurationError):
            parse_grid("1:two:0.5")
        for text in ("1:nan:1", "nan:2:1", "1:2:nan", "0:nan:0.1", "1:inf:1", "-inf:1:1", "1:2:inf", "nan"):
            with pytest.raises(ConfigurationError, match="finite"):
                parse_grid(text)
        for text in ("0:1e300:1e-300", "0:1e9:1e-9"):  # an infinite and a huge point count
            with pytest.raises(ConfigurationError, match="points"):
                parse_grid(text)


    def test_grid_point_limit(self):
        assert len(parse_grid(f"1:{MAX_GRID_POINTS}:1")) == MAX_GRID_POINTS
        with pytest.raises(ConfigurationError, match="points"):
            parse_grid(f"0:{MAX_GRID_POINTS}:1")

    def test_default_threshold_grid_is_the_table1_grid(self):
        assert tuple(parse_grid("1.6:4.0:0.1")) == mc.DEFAULT_X_GRID


class TestTable1Command:
    def test_stdout_contents(self, capsys):
        code, out, err = _run(capsys, "table1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 26
        assert lines[11].split(",") == ["2.6", "0.00466", "0.00879", "0.01437", "3.08271"]
        assert "manifest" not in out
        assert "rng_algorithm" in err  # manifest goes to stderr for stdout output

    def test_file_output_with_manifest(self, capsys, tmp_path):
        path = tmp_path / "t1.csv"
        code, _, _ = _run(capsys, "table1", "--output", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 26
        manifest = json.loads((tmp_path / "t1.csv.manifest.json").read_text())
        assert manifest["command"].startswith("blocknorm table1")
        assert "library_version" in manifest

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, err = _run(capsys, "table1", "--output", str(tmp_path / "missing" / "t.csv"))
        assert code != 0
        assert err


class TestSimulateCommand:
    def test_deterministic_repeat(self, capsys, tmp_path):
        args = [
            "simulate", "--process", "iid", "--stat", "i-star", "--m", "50",
            "--n", "400", "--reps", "10", "--seed", "1", "--x", "1.6:2.0:0.2",
        ]
        code1, out1, _ = _run(capsys, *args)
        code2, out2, _ = _run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_json_format_embeds_manifest(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        code, _, _ = _run(
            capsys, "simulate", "--process", "ar1", "--rho", "0.5", "--stat", "t-star",
            "--m", "20", "--n", "200", "--reps", "50", "--seed", "3",
            "--x", "2.0:3.0:0.5", "--format", "json", "--output", str(path),
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["manifest"]["master_seed"] == 3
        assert payload["metadata"]["config"]["process"] == "ar1"
        assert len(payload["rows"]["x"]) == 3

    def test_grid_csv_shape(self, capsys):
        code, out, _ = _run(
            capsys, "simulate", "--process", "ar1", "--rho-grid", "0:0.2:0.1",
            "--stat", "i-star", "--m", "10", "--n", "100", "--reps", "40",
            "--seed", "5", "--x", "1.6:1.8:0.1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,rho=0,rho=0.1,rho=0.2,full:rho=0,full:rho=0.1,full:rho=0.2"
        assert len(lines) == 4

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_grid_manifest_records_the_grid(self, capsys, tmp_path, fmt):
        path = tmp_path / "grid.out"
        code, _, _ = _run(
            capsys, "simulate", "--process", "ar1", "--rho-grid", "0.3:0.6:0.3",
            "--stat", "i-star", "--m", "10", "--n", "100", "--reps", "40",
            "--x", "1.6:1.8:0.1", "--format", fmt, "--output", str(path),
        )
        assert code == 0
        if fmt == "csv":
            manifest = json.loads((tmp_path / "grid.out.manifest.json").read_text())
        else:
            manifest = json.loads(path.read_text())["manifest"]
        assert manifest["config"]["config"]["rho"] == [0.3, 0.6]

    def test_grid_manifest_on_stderr_records_the_grid(self, capsys):
        code, _, err = _run(
            capsys, "simulate", "--process", "arch1", "--b-grid", "0.2:0.4:0.2",
            "--stat", "i-star", "--m", "10", "--n", "100", "--reps", "40", "--x", "1.6",
        )
        assert code == 0
        assert json.loads(err)["config"]["config"]["b"] == [0.2, 0.4]

    def test_interlace_stat_rejects_bigsmall_flags(self, capsys):
        code, _, err = _run(
            capsys, "simulate", "--process", "iid", "--stat", "i-star",
            "--m1", "5", "--m2", "2", "--n", "100", "--reps", "10", "--seed", "1",
        )
        assert code == 1
        assert "m1" in err

    def test_bigsmall_stat_requires_m1_m2(self, capsys):
        code, _, _ = _run(
            capsys, "simulate", "--process", "iid", "--stat", "w-star",
            "--m", "5", "--n", "100", "--reps", "10", "--seed", "1",
        )
        assert code == 1

    def test_process_param_mismatch(self, capsys):
        code, _, err = _run(
            capsys, "simulate", "--process", "iid", "--rho", "0.5",
            "--stat", "i-star", "--m", "5", "--n", "100", "--reps", "10", "--seed", "1",
        )
        assert code == 1
        assert "rho" in err

    def test_arch_scale_only_applies_to_arch1(self, capsys):
        for process in ("iid", "ar1"):
            code, _, err = _run(
                capsys, "simulate", "--process", process, "--a", "0",
                "--stat", "i-star", "--m", "5", "--n", "100", "--reps", "10", "--seed", "1",
            )
            assert code == 1
            assert "--a does not apply" in err

    def test_empty_parameter_grid_is_an_error(self, capsys):
        code, _, err = _run(
            capsys, "simulate", "--process", "ar1", "--rho-grid", "",
            "--stat", "i-star", "--m", "5", "--n", "100", "--reps", "10", "--seed", "1",
        )
        assert code == 1
        assert "grid" in err

    def test_unknown_flag_is_an_error(self, capsys):
        code, _, _ = _run(capsys, "simulate", "--process", "iid", "--nonsense", "1")
        assert code == 1

    def test_workers_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("BLOCKNORM_WORKERS", "2")
        args = [
            "simulate", "--process", "iid", "--stat", "t-star", "--m", "10",
            "--n", "100", "--reps", "30", "--seed", "9", "--x", "2.0:2.0:1.0",
        ]
        code, out_env, _ = _run(capsys, *args)
        assert code == 0
        monkeypatch.delenv("BLOCKNORM_WORKERS")
        code, out_one, _ = _run(capsys, *args)
        assert code == 0
        assert out_env == out_one  # worker count never changes the numbers

    def test_non_numeric_workers_env_is_a_configuration_error(self, capsys, monkeypatch):
        monkeypatch.setenv("BLOCKNORM_WORKERS", "abc")
        code, _, err = _run(
            capsys, "simulate", "--process", "iid", "--stat", "t-star", "--m", "10",
            "--n", "100", "--reps", "30", "--seed", "9",
        )
        assert code == 1
        assert "configuration error" in err
        assert "BLOCKNORM_WORKERS" in err and "'abc'" in err
        assert "Traceback" not in err

    def test_malformed_config_value_is_a_configuration_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("process = iid\nstat = i-star\nm = 10\nn = 120\nreps = lots\n")
        code, _, err = _run(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert "configuration error" in err
        assert "reps" in err and "'lots'" in err
        assert "Traceback" not in err

    def test_misspelt_config_key_is_a_configuration_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("process = iid\nstat = i-star\nm = 10\nn = 100\nreps = 10\nrep = 5\nproces = ar1\n")
        code, out, err = _run(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert "configuration error" in err
        assert str(cfg) in err and "proces, rep" in err

    def test_config_keys_of_other_subcommands_are_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("process = iid\nstat = i-star\nm = 10\nn = 100\nreps = 10\nalpha = 0.1\nuse-t = no\n")
        code, _, _ = _run(capsys, "simulate", "--config", str(cfg))
        assert code == 0

    def test_malformed_threshold_grid_is_a_configuration_error(self, capsys):
        code, _, err = _run(
            capsys, "simulate", "--process", "iid", "--stat", "i-star", "--m", "10",
            "--n", "100", "--reps", "10", "--x", "2:lots:1",
        )
        assert code == 1
        assert "2:lots:1" in err

    @pytest.mark.parametrize("flags", [
        ["--process", "iid", "--x", "1:nan:1"],
        ["--process", "iid", "--x", "1:inf:1"],
        ["--process", "ar1", "--rho-grid", "0:nan:0.1"],
    ])
    def test_non_finite_grid_part_is_a_configuration_error(self, capsys, flags):
        code, out, err = _run(
            capsys, "simulate", *flags, "--stat", "i-star", "--m", "10", "--n", "100", "--reps", "10",
        )
        assert (code, out) == (1, "")
        assert "configuration error" in err and flags[-1] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ["--process", "iid", "--mu0", "nan"],
        ["--process", "iid", "--mu0", "inf"],
        ["--process", "iid", "--mu0=-inf"],
        ["--process", "arch1", "--b", "0.5", "--a", "inf"],
        ["--process", "arch1", "--b", "0.5", "--a", "nan"],
    ])
    def test_non_finite_simulate_flag_is_a_configuration_error(self, capsys, flags):
        code, out, err = _run(
            capsys, "simulate", *flags, "--stat", "i-star", "--m", "10", "--n", "100", "--reps", "10",
        )
        assert (code, out) == (1, "")
        assert "configuration error" in err and "finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**65 - 1)])
    def test_seed_outside_64_bits_is_a_configuration_error(self, capsys, seed):
        code, out, err = _run(
            capsys, "simulate", "--process", "iid", "--stat", "i-star", "--m", "10",
            "--n", "100", "--reps", "10", "--seed", seed,
        )
        assert (code, out) == (1, "")
        assert "configuration error" in err and "64-bit" in err

    def test_largest_seed_is_accepted(self, capsys):
        code, out, _ = _run(
            capsys, "simulate", "--process", "iid", "--stat", "i-star", "--m", "10",
            "--n", "100", "--reps", "10", "--seed", str(2**64 - 1), "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["manifest"]["master_seed"] == 2**64 - 1

    def test_underflowing_reference_tail_is_a_configuration_error(self, capsys):
        # k = 5 interlaced sums: the t5 tail at 1e70 is about 1e-350, below double range
        code, out, err = _run(
            capsys, "simulate", "--process", "iid", "--stat", "i", "--m", "10",
            "--n", "100", "--reps", "10", "--x", "1e70",
        )
        assert code == 1
        assert out == ""
        assert "t5 upper tail underflows" in err and "1e+70" in err

    def test_config_file_and_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "process = iid\nstat = i-star\nm = 10\nn = 120\nreps = 20\nseed = 4\nx = 1.6:1.8:0.1\n"
        )
        code, out_file, _ = _run(capsys, "simulate", "--config", str(cfg), "--format", "json")
        assert code == 0
        assert json.loads(out_file)["manifest"]["master_seed"] == 4
        # flag overrides the file value
        code, out_flag, _ = _run(
            capsys, "simulate", "--config", str(cfg), "--seed", "5", "--format", "json"
        )
        assert code == 0
        assert json.loads(out_flag)["manifest"]["master_seed"] == 5


class TestCiAndTestCommands:
    @pytest.fixture()
    def panel_csv(self, tmp_path):
        rng = np.random.default_rng(12)
        panel = rng.standard_normal((160, 3))
        path = tmp_path / "panel.csv"
        np.savetxt(path, panel, delimiter=",")
        return path

    def test_ci_json_shape(self, capsys, panel_csv, tmp_path):
        out_path = tmp_path / "ci.json"
        code, out, _ = _run(capsys, "ci", str(panel_csv), "--alpha", "0.05", "--output", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["ci"]["centers"]) == 3
        assert payload["ci"]["m"] == 4  # auto = round(160**0.25)
        assert "coord" in out  # human-readable table on stdout

    def test_ci_explicit_m_and_stdout(self, capsys, panel_csv):
        code, out, err = _run(capsys, "ci", str(panel_csv), "--m", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["ci"]["m"] == 8
        assert "halfwidth" in err  # table moves to stderr when JSON is on stdout

    def test_ci_empty_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, _, err = _run(capsys, "ci", str(empty))
        assert code == 2
        assert "data error" in err

    def test_ci_quantile_beyond_1e14_completes(self, tmp_path):
        # k = 2 gives t1, whose 1 - 1e-15/4 quantile is about 1.3e15; a subprocess, so a hang fails the test
        panel = tmp_path / "panel.csv"
        panel.write_text("".join(f"{2 * i + 1},{2 * i + 2}\n" for i in range(8)))
        src = str(Path(blocknorm.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "blocknorm.cli", "ci", str(panel), "--alpha", "1e-15", "--m", "2"],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert done.returncode == 0, done.stderr
        ci = json.loads(done.stdout)["ci"]
        assert (ci["k"], ci["quantile_source"]) == (2, "t1")
        assert all(1e15 < h < 1e16 for h in ci["halfwidths"])

    def test_test_accepts_centers(self, capsys, panel_csv, tmp_path):
        code, out, _ = _run(capsys, "ci", str(panel_csv), "--m", "8")
        centers = json.loads(out)["ci"]["centers"]
        mu0 = tmp_path / "mu0.csv"
        mu0.write_text(",".join(str(c) for c in centers) + "\n")
        code, out, _ = _run(capsys, "test", str(panel_csv), "--mu0", str(mu0), "--m", "8")
        assert code == 0
        assert json.loads(out)["test"]["reject"] is False

    def test_test_detects_displacement(self, capsys, panel_csv, tmp_path):
        mu0 = tmp_path / "mu0.csv"
        mu0.write_text("50,0,0\n")
        code, out, _ = _run(capsys, "test", str(panel_csv), "--mu0", str(mu0), "--m", "8")
        assert code == 0  # the decision is payload, not exit status
        payload = json.loads(out)["test"]
        assert payload["reject"] is True
        assert 0 in payload["violating_coordinates"]

    def test_test_non_finite_mu0_is_a_data_error(self, capsys, panel_csv, tmp_path):
        mu0 = tmp_path / "mu0.csv"
        mu0.write_text("0,nan,inf\n")
        code, out, err = _run(capsys, "test", str(panel_csv), "--mu0", str(mu0))
        assert code == 2
        assert out == ""
        assert "data error" in err and "coordinates 1, 2" in err

    def test_test_wrong_mu0_length(self, capsys, panel_csv, tmp_path):
        mu0 = tmp_path / "mu0.csv"
        mu0.write_text("1,2\n")
        code, _, err = _run(capsys, "test", str(panel_csv), "--mu0", str(mu0))
        assert code == 2
        assert "data error" in err


class TestTopLevel:
    def test_no_command(self, capsys):
        code, _, _ = _run(capsys)
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        for sub in ("table1", "simulate", "ci", "test"):
            assert main([sub, "--help"]) == 0

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "blocknorm" in capsys.readouterr().out


class TestConfigResolution:
    """Flags, then config-file values, then parser defaults, all through argparse."""

    @pytest.fixture()
    def panel_csv(self, tmp_path):
        path = tmp_path / "panel.csv"
        np.savetxt(path, np.random.default_rng(3).standard_normal((100, 2)), delimiter=",")
        return path

    def test_use_t_from_file_and_flag_override(self, capsys, panel_csv, tmp_path):
        cfg = tmp_path / "ci.cfg"
        cfg.write_text("use-t = no\nalpha = 0.1\n")
        code, out, _ = _run(capsys, "ci", str(panel_csv), "--config", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert payload["ci"]["quantile_source"] == "normal"
        assert payload["manifest"]["config"]["use_t"] is False
        assert payload["manifest"]["config"]["alpha"] == 0.1
        code, out, _ = _run(capsys, "ci", str(panel_csv), "--config", str(cfg), "--use-t")
        assert code == 0
        payload = json.loads(out)
        assert payload["ci"]["quantile_source"].startswith("t")
        assert payload["manifest"]["config"]["use_t"] is True
        assert payload["manifest"]["command"] == f"blocknorm ci {panel_csv} --config {cfg} --use-t"

    def test_bad_yes_no_value_names_the_key(self, capsys, panel_csv, tmp_path):
        cfg = tmp_path / "ci.cfg"
        cfg.write_text("use-t = maybe\n")
        code, out, err = _run(capsys, "ci", str(panel_csv), "--config", str(cfg))
        assert (code, out) == (1, "")
        assert "configuration error" in err and "use-t = 'maybe'" in err

    def test_file_values_with_a_leading_minus(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "process = iid\nstat = i-star\nm = 10\nn = 100\nreps = 10\nmu0 = -0.5\nx = -1:1:0.5\n"
        )
        code, out, err = _run(capsys, "simulate", "--config", str(cfg), "--format", "json")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["rows"]["x"] == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert payload["metadata"]["config"]["mu0"] == -0.5

    @pytest.mark.parametrize("line", ["format = xml", "process = foo", "stat = z"])
    def test_file_values_are_checked_against_choices(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"process = iid\nstat = i-star\nm = 10\nn = 100\nreps = 10\n{line}\n")
        code, out, err = _run(capsys, "simulate", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert "configuration error" in err and "invalid choice" in err
        assert "Traceback" not in err

    def test_unparsable_block_length(self, capsys, panel_csv):
        code, out, err = _run(capsys, "ci", str(panel_csv), "--m", "lots")
        assert (code, out) == (1, "")
        assert "configuration error" in err and "integer or 'auto'" in err

    def test_flag_usage_errors_are_configuration_errors(self, capsys):
        for argv in (["simulate", "--process", "foo"], ["simulate", "--reps", "lots"], ["nonsense"], []):
            code, out, err = _run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err.startswith("blocknorm: configuration error: ")

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["simulate", "--stat", "i-star", "--m", "10"], 1, "simulate needs --process"),
            (["simulate", "--process", "iid", "--m", "10"], 1, "simulate needs --stat"),
            (
                ["simulate", "--process", "ar1", "--rho", "0.5", "--rho-grid", "0:0.5:0.5",
                 "--stat", "i-star", "--m", "10"],
                1,
                "give either --rho or --rho-grid, not both",
            ),
            (["simulate", "--process", "iid", "--stat", "w-star"], 1, "big-small statistics need --m1 and --m2"),
            (["simulate", "--process", "iid", "--stat", "i-star"], 1, "this statistic needs a block length --m"),
            (["simulate", "--config", "{tmp}/run.cfg"], 1, "run.cfg:2: expected 'key = value', got 'stat i-star'"),
            (["simulate", "--config", "{tmp}/missing.cfg"], 1, "cannot read config file"),
            (["test", "{tmp}/panel.csv", "--mu0", "{tmp}/mu0.csv"], 2, "expected one row or one column of 2 values"),
            (["test", "{tmp}/panel.csv", "--mu0", "{tmp}/bytes.csv"], 2, "bytes.csv: not a readable CSV file"),
            (["ci", "{tmp}/wide.csv"], 2, "wide.csv: not a readable CSV file: field larger than field limit"),
            (["simulate", "--config", "{tmp}/bytes.cfg"], 1, "cannot read config file"),
        ],
        ids=["no-process", "no-stat", "rho-and-rho-grid", "no-m1-m2", "no-m", "config-line-without-equals",
             "unreadable-config", "2-d-mu0", "undecodable-mu0", "oversized-cell", "undecodable-config"],
    )
    def test_usage_mistake_ends_in_one_line(self, capsys, panel_csv, tmp_path, argv, code, message):
        (tmp_path / "run.cfg").write_text("process = iid\nstat i-star\n")
        (tmp_path / "mu0.csv").write_text("0,0\n0,0\n")
        (tmp_path / "bytes.csv").write_bytes(b"\xff\xfe\x00bad\n")
        (tmp_path / "wide.csv").write_text("1," + "9" * 131_073 + "\n2,3\n")  # the csv module's field limit is 131,072
        (tmp_path / "bytes.cfg").write_bytes(b"\xff\xfe\x00bad = 1\n")
        kind = {1: "configuration error", 2: "data error"}[code]
        got, out, err = _run(capsys, *(arg.replace("{tmp}", str(tmp_path)) for arg in argv))
        assert (got, out) == (code, "")
        assert err.startswith(f"blocknorm: {kind}: ") and message in err
        assert err.count("\n") == 1

    def test_config_comments_and_blank_lines_are_skipped(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# tail run\n\nprocess = iid  # the null\n   \nstat = i-star\nm = 10\nn = 100\nreps = 10\n"
            "seed = 6  # seed\n"
        )
        code, out, err = _run(capsys, "simulate", "--config", str(cfg), "--format", "json")
        assert code == 0, err
        config = json.loads(out)["metadata"]["config"]
        assert (config["process"], config["stat"], config["m"], config["master_seed"]) == ("iid", "i-star", 10, 6)

    @pytest.mark.parametrize("a", ["1e160", "1e-170", str(2.0**500)], ids=["1e160", "1e-170", "2^500"])
    def test_arch_scale_the_recursion_cannot_hold_is_a_configuration_error(self, capsys, a):
        code, out, err = _run(
            capsys, "simulate", "--process", "arch1", "--b", "0.5", "--a", a, "--n", "100",
            "--stat", "i-star", "--m", "10", "--reps", "10",
        )
        assert (code, out) == (1, "")
        assert err.startswith("blocknorm: configuration error: ARCH(1) needs 2^-511 <= a < 2^500")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("a", ["3e150", "2e-154"])
    def test_arch_scale_just_inside_the_bounds_completes(self, capsys, a):
        code, out, err = _run(
            capsys, "simulate", "--process", "arch1", "--b", "0.9", "--a", a, "--n", "1000",
            "--stat", "i-star", "--m", "50", "--reps", "200", "--format", "json",
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["metadata"]["degenerate_count"] == 0
        assert all(np.isfinite(payload["rows"]["mc_tail"]))

    def test_oversized_grid_is_a_configuration_error(self, capsys):
        code, out, err = _run(
            capsys, "simulate", "--process", "iid", "--stat", "i-star", "--m", "10",
            "--n", "100", "--reps", "10", "--x", "0:1e300:1e-300",
        )
        assert (code, out) == (1, "")
        assert "configuration error" in err and "points" in err
        assert "Traceback" not in err

    def test_zero_workers_is_a_configuration_error(self, capsys):
        code, out, err = _run(
            capsys, "simulate", "--process", "iid", "--stat", "i-star", "--m", "10",
            "--n", "100", "--reps", "10", "--workers", "0",
        )
        assert (code, out) == (1, "")
        assert "configuration error" in err and "workers" in err and ">= 1" in err

    def test_invalid_grid_cell_fails_before_any_draw(self, capsys, monkeypatch):
        def no_draws(process, n, seeds):
            raise AssertionError("paths were drawn before the grid was checked")

        monkeypatch.setattr(mc, "generate_paths", no_draws)
        code, out, err = _run(
            capsys, "simulate", "--process", "ar1", "--rho-grid", "0:1:0.5", "--stat", "i-star",
            "--m", "10", "--n", "100", "--reps", "5000",
        )
        assert (code, out) == (1, "")
        assert "configuration error" in err and "rho=1.0" in err

    def test_unrepresentable_mu0_is_a_configuration_error(self, capsys):
        code, out, err = _run(
            capsys, "simulate", "--process", "iid", "--stat", "i-star", "--m", "10",
            "--n", "100", "--reps", "10", "--mu0", "1e308",
        )
        assert (code, out) == (1, "")
        assert err.startswith("blocknorm: configuration error: mu0 = 1e+308 is out of range")
        assert err.count("\n") == 1

    def test_raw_statistic_takes_a_mu0_whose_square_overflows(self, capsys):
        # (2 * m * mu0 * sqrt(k))**2 overflows, but the block sums are scaled before squaring
        code, out, err = _run(
            capsys, "simulate", "--process", "iid", "--stat", "i", "--m", "10",
            "--n", "100", "--reps", "10", "--mu0", "1e155",
        )
        assert code == 0 and out.startswith("x,ratio")
        assert json.loads(err)["config"]["config"]["mu0"] == 1e155  # the manifest, not an error

    def test_out_of_memory_is_a_configuration_error(self, capsys, monkeypatch):
        def too_large(process, n, seeds):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(mc, "generate_paths", too_large)
        code, out, err = _run(
            capsys, "simulate", "--process", "iid", "--stat", "i-star", "--m", "10",
            "--n", "100", "--reps", "10",
        )
        assert (code, out) == (1, "")
        assert err == "blocknorm: configuration error: Unable to allocate 7.28 TiB for an array\n"
