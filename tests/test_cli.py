import csv
import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import pxlaplace
from pxlaplace.cli import (EXIT_CHECK_FAILED, EXIT_NONCONVERGED, EXIT_OK,
                           EXIT_USAGE, run_command)
from pxlaplace.solver import SolveReport


BASE = {
    "domain": {"kind": "interval", "a": 0.0, "b": 1.0, "n": 48},
    "exponent": {"p": "2", "r": 2.0},
    "problem": {"kind": "problem1", "h": "1", "q": "1.5"},
    "solver": {"grad_tol": 1e-9},
}


def write_config(path, **overrides):
    """The base config with each override block merged into its block."""
    cfg = json.loads(json.dumps(BASE))  # deep copy
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    path.write_text(json.dumps(cfg))
    return path


class TestSolveCommand:
    def test_deterministic_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json",
                           output={"dir": str(tmp_path / "out")})
        assert run_command(["solve", "--config", str(cfg), "--seed", "7",
                            "--quiet"]) == EXIT_OK
        first = {f.name: f.read_bytes()
                 for f in (tmp_path / "out").iterdir()}
        assert run_command(["solve", "--config", str(cfg), "--seed", "7",
                            "--quiet"]) == EXIT_OK
        second = {f.name: f.read_bytes()
                  for f in (tmp_path / "out").iterdir()}
        assert first == second
        assert "solution.csv" in first and "report.json" in first

    def test_solution_table_round_trips(self, tmp_path):
        cfg = write_config(tmp_path / "run.json",
                           output={"dir": str(tmp_path / "out")})
        run_command(["solve", "--config", str(cfg), "--seed", "7", "--quiet"])
        lines = (tmp_path / "out" / "solution.csv").read_text().splitlines()
        assert lines[0] == "x,u"
        for line in lines[1:]:
            x, u = line.split(",")
            assert repr(float(x)) == x and repr(float(u)) == u

    def test_seed_required(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json")
        assert run_command(["solve", "--config", str(cfg)]) == EXIT_USAGE

    def test_resolution_override_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json",
                           output={"dir": str(tmp_path / "out")})
        run_command(["solve", "--config", str(cfg), "--seed", "7", "--n",
                     "16", "--quiet"])
        lines = (tmp_path / "out" / "solution.csv").read_text().splitlines()
        assert len(lines) == 1 + 17  # header + (n+1) nodes

    def test_out_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json")
        run_command(["solve", "--config", str(cfg), "--seed", "7", "--out",
                     str(tmp_path / "elsewhere"), "--quiet"])
        assert (tmp_path / "elsewhere" / "solution.csv").exists()

    def test_report_reparse_reproduces_bytes(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json",
                           output={"dir": str(tmp_path / "out")})
        run_command(["solve", "--config", str(cfg), "--seed", "7", "--quiet"])
        raw = (tmp_path / "out" / "report.json").read_text()
        again = json.dumps(json.loads(raw), sort_keys=True, indent=2) + "\n"
        assert again == raw

    def test_report_holds_every_field_but_the_solution(self, tmp_path,
                                                       capsys):
        cfg = write_config(tmp_path / "run.json", solver={"max_iters": 3},
                           output={"dir": str(tmp_path / "out")})
        assert run_command(["solve", "--config", str(cfg), "--seed", "7",
                            "--quiet"]) == EXIT_NONCONVERGED
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        names = {f.name for f in dataclasses.fields(SolveReport)}
        assert set(report) == names - {"solution"} | {"sup_u"}
        assert len(report["stage_exits"]) == len(report["iterations"])
        assert "max_iters" in report["stage_exits"]
        assert not report["converged"]

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_command(["solve", "--config", str(bad), "--seed", "1"]) \
            == EXIT_USAGE

    def test_missing_config_key(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"domain": {"kind": "interval"}}))
        assert run_command(["solve", "--config", str(bad), "--seed", "1"]) \
            == EXIT_USAGE

    def test_unknown_problem_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json", problem={"h_sacle": 2.0})
        assert run_command(["solve", "--config", str(cfg), "--seed",
                            "7"]) == EXIT_USAGE
        assert "unknown problem key" in capsys.readouterr().err

    def test_removed_solver_option_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json", solver={"armijo": 1e-4})
        assert run_command(["solve", "--config", str(cfg), "--seed",
                            "7"]) == EXIT_USAGE
        assert "unknown solver option" in capsys.readouterr().err

    @pytest.mark.parametrize("block", [
        {"grad_tol": float("inf")},
        {"grad_tol": float("nan")},
        {"grad_tol": 0.0},
        {"grad_tol": True},
        {"max_iters": 2.5},
        {"max_iters": 0},
        {"max_iters": True},
        {"seed": 1.5, "init": "random"},
        {"seed": True},
        {"init": "flat"},
    ], ids=["tol-inf", "tol-nan", "tol-zero", "tol-bool", "iters-float",
            "iters-zero", "iters-bool", "seed-float", "seed-bool",
            "init-unknown"])
    def test_bad_solver_value_rejected(self, tmp_path, capsys, block):
        cfg = write_config(tmp_path / "run.json", solver=block)
        assert run_command(["solve", "--config", str(cfg), "--seed", "7",
                            "--quiet"]) == EXIT_USAGE
        assert "config error: bad solver block" in capsys.readouterr().err

    @pytest.mark.parametrize("override,message", [
        ({"domain": {"N": 16}}, "unknown domain key(s): ['N']"),
        # the interval keys a, b and n are not rectangle keys
        ({"domain": {"kind": "rectangle", "nx": 4, "ny": 4}},
         "unknown domain key(s): ['a', 'b', 'n']"),
        ({"exponent": {"q": "1.2"}}, "unknown exponent key(s): ['q']"),
        ({"output": {"directory": "out"}}, "unknown output key(s)"),
    ], ids=["domain-N", "rectangle-n", "exponent-q", "output-directory"])
    def test_unknown_block_key_rejected(self, tmp_path, capsys, override,
                                        message):
        cfg = write_config(tmp_path / "run.json", **override)
        assert run_command(["solve", "--config", str(cfg), "--seed", "7",
                            "--quiet"]) == EXIT_USAGE
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("override,message", [
        ({"domain": {"a": [0]}}, "domain.a must be a number, got [0]"),
        ({"domain": {"n": 16.9}}, None),
        ({"exponent": {"r": [1.5]}}, "exponent.r must be a number, got [1.5]"),
        ({"output": {"dir": 5}}, None),
        ({"domain": 5}, None),
        # a number given as a JSON string is not a number
        ({"domain": {"a": "0"}}, 'domain.a must be a number, got "0"'),
        ({"domain": {"n": "48"}}, 'domain.n must be a number, got "48"'),
        ({"exponent": {"r": "1.5"}},
         'exponent.r must be a number, got "1.5"'),
        ({"problem": {"h_scale": "2"}},
         'problem.h_scale must be a number, got "2"'),
        ({"problem": {"kind": "kirchhoff", "m0": "1", "m_inf": 2.0}},
         'problem.m0 must be a number, got "1"'),
    ], ids=["domain-a-list", "domain-n-fraction", "exponent-r-list",
            "output-dir-int", "domain-int", "domain-a-string",
            "domain-n-string", "exponent-r-string", "h_scale-string",
            "m0-string"])
    def test_wrong_typed_config_value_exits_2(self, tmp_path, capsys,
                                              override, message):
        cfg = write_config(tmp_path / "run.json", **override)
        assert run_command(["solve", "--config", str(cfg), "--seed", "7",
                            "--quiet"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if message is not None:
            assert err.startswith("config error: ") and message in err

    @pytest.mark.parametrize("command,override", [
        # q = 2.5 > r = 2 fails the hypotheses: only a JSON true may
        # override them
        ("solve", {"override": "false", "problem": {"q": "2.5"}}),
        ("sweep", {"override": 0, "problem": {"q": "2.5"},
                   "sweep": {"parameter": "problem.h_scale",
                             "values": [1.0]}}),
        ("check-convexity", {"exponent": {"r": True}}),
        ("solve", {"exponent": {"r": True}}),
        ("solve", {"exponent": {"p": True}}),
        ("solve", {"domain": {"a": True}}),
        ("solve", {"domain": {"b": True}}),
        ("solve", {"domain": {"n": True}}),
        ("solve", {"problem": {"h": True}}),
        ("solve", {"problem": {"h_scale": True}}),
        ("solve", {"problem": {"kind": "kirchhoff", "m0": True,
                               "m_inf": 2.0}}),
        ("solve", {"problem": {"kind": "kirchhoff", "m0": 1.0,
                               "m_inf": True}}),
    ], ids=["solve-override-string", "sweep-override-int", "convexity-r",
            "r", "p", "a", "b", "n", "h", "h_scale", "m0", "m_inf"])
    def test_boolean_number_confusion_rejected(self, tmp_path, capsys,
                                               command, override):
        cfg = write_config(tmp_path / "run.json", **override)
        argv = [command, "--config", str(cfg), "--seed", "7", "--quiet"]
        if command.startswith("check-"):
            argv += ["--samples", "2"]
        assert run_command(argv) == EXIT_USAGE
        assert "config error: " in capsys.readouterr().err

    @pytest.mark.parametrize("flag,code", [(True, EXIT_OK),
                                           (False, EXIT_USAGE)])
    def test_boolean_override(self, tmp_path, capsys, flag, code):
        cfg = write_config(tmp_path / "run.json", override=flag,
                           problem={"q": "2.5"})
        assert run_command(["solve", "--config", str(cfg), "--seed", "7",
                            "--quiet"]) == code
        if not flag:
            assert "hypotheses fail" in capsys.readouterr().err

    def test_y_on_interval_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json", exponent={"p": "2+y"})
        assert run_command(["solve", "--config", str(cfg), "--seed", "7",
                            "--quiet"]) == EXIT_USAGE
        assert "config error: " in capsys.readouterr().err

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json", solver={"max_iters": 1})
        assert run_command(["solve", "--config", str(cfg), "--seed", "1",
                            "--quiet"]) == EXIT_NONCONVERGED

    def test_floored_solve_is_rerun_and_converges(self, tmp_path, capsys):
        # p = 20 on 32 cells: from the bump no unshifted Newton step
        # passes the Armijo test, and the retries on the shifted metric
        # converge in the one stage a p >= 2 model runs
        cfg = write_config(tmp_path / "run.json",
                           domain={"n": 32}, exponent={"p": "20", "r": 1.5},
                           problem={"q": "1.2"},
                           output={"dir": str(tmp_path / "out")})
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert run_command(["solve", "--config", str(cfg), "--seed", "1",
                                "--quiet"]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["stage_exits"] == ["tol"]
        assert report["converged"] is True

    def test_unknown_subcommand(self, capsys):
        assert run_command(["frobnicate"]) == EXIT_USAGE

    def test_report_written_to_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json")
        assert run_command(["solve", "--config", str(cfg), "--seed", "7"]) \
            == EXIT_OK
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["converged"] is True
        assert report["negative_energy"] is True


class TestCheckCommands:
    def test_convexity_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json")
        rc = run_command(["check-convexity", "--config", str(cfg),
                          "--samples", "20", "--seed", "3"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] and report["failures"] == 0

    def test_diaz_saa_pass_and_gap_floor(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json",
                           exponent={"p": "2+x", "r": 1.5})
        rc = run_command(["check-diaz-saa", "--config", str(cfg),
                          "--samples", "30", "--seed", "4"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["min_relative_gap"] >= -1e-10

    def test_comparison_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json",
                           domain={"kind": "interval", "n": 32},
                           exponent={"p": "2+x", "r": 1.5})
        rc = run_command(["check-comparison", "--config", str(cfg),
                          "--samples", "3", "--seed", "5"])
        assert rc == EXIT_OK

    def test_check_reports_share_one_layout(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.json",
                           domain={"kind": "interval", "n": 16},
                           exponent={"p": "2+x", "r": 1.5},
                           output={"dir": str(out)})
        for command, key in (("check-convexity", "worst_relative_slack"),
                             ("check-diaz-saa", "min_relative_gap"),
                             ("check-comparison", "worst_excess")):
            rc = run_command([command, "--config", str(cfg),
                              "--samples", "2", "--seed", "3"])
            assert rc == EXIT_OK
            text = capsys.readouterr().out
            path = out / (command.replace("-", "_") + ".json")
            assert path.read_text() == text
            report = json.loads(text)
            assert report == {"check": command[len("check-"):],
                              "samples": 2, "seed": 3, key: report[key],
                              "failures": 0, "passed": True}

    def test_seed_required_for_checks(self, tmp_path):
        cfg = write_config(tmp_path / "run.json")
        assert run_command(["check-diaz-saa", "--config", str(cfg)]) \
            == EXIT_USAGE

    def test_weighted_anisotropy_block(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.json",
            exponent={"p": "2+x", "r": 1.5},
            anisotropy={"kind": "weighted-quadratic", "weights": ["1+3*x"]})
        rc = run_command(["check-diaz-saa", "--config", str(cfg),
                          "--samples", "20", "--seed", "9"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["min_relative_gap"] >= -1e-10

    def test_unknown_anisotropy_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json",
                           anisotropy={"kind": "isotropic", "weight": ["1"]})
        assert run_command(["check-convexity", "--config", str(cfg),
                            "--samples", "2", "--seed", "1", "--quiet"]) \
            == EXIT_USAGE
        assert "unknown anisotropy key(s): ['weight']" in \
            capsys.readouterr().err

    def test_bad_anisotropy_kind(self, tmp_path):
        cfg = write_config(tmp_path / "run.json",
                           anisotropy={"kind": "mystery"})
        assert run_command(["check-convexity", "--config", str(cfg),
                            "--samples", "2", "--seed", "1", "--quiet"]) \
            == EXIT_USAGE


class TestValidateCommand:
    def test_passing_instance(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json")
        assert run_command(["validate", "--config", str(cfg)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] and report["regime"]["name"] == "unique-partial-d"

    def test_source_has_no_regime(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(_SOURCE))
        assert run_command(["validate", "--config", str(cfg)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] and "regime" not in report

    def test_forced_check_failure(self, tmp_path, capsys):
        # q = r makes the subhomogeneity hypothesis fail
        cfg = write_config(tmp_path / "run.json",
                           problem={"kind": "problem1", "h": "1", "q": "2"})
        assert run_command(["validate", "--config", str(cfg)]) \
            == EXIT_CHECK_FAILED


class TestEigCommand:
    def test_extrapolated_eigenvalue(self, tmp_path, capsys):
        import numpy as np
        rc = run_command(["eig", "--r", "2", "--levels", "3", "--n", "64"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["extrapolated"] == pytest.approx(np.pi ** 2, rel=5e-4)


@pytest.mark.parametrize("domain", [
    {"kind": "interval", "a": 0.0, "b": 1.0, "n": 24},
    {"kind": "rectangle", "nx": 6, "ny": 6},
], ids=["interval", "rectangle"])
@pytest.mark.parametrize("problem", [
    {"kind": "problem2", "h": "1", "q": "1.2", "ell": "1", "Q": "2"},
    {"kind": "kirchhoff", "h": "1", "q": "1.2", "m0": 1.0, "m_inf": 2.0},
], ids=["problem2", "kirchhoff"])
class TestProblemKinds:
    def config(self, tmp_path, domain, problem):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "domain": domain,
            "exponent": {"p": "2+x", "r": 1.5},
            "problem": problem,
            "output": {"dir": str(tmp_path / "out")},
        }))
        return path

    def test_validate(self, tmp_path, capsys, domain, problem):
        cfg = self.config(tmp_path, domain, problem)
        assert run_command(["validate", "--config", str(cfg),
                            "--quiet"]) == EXIT_OK
        report = json.loads(
            (tmp_path / "out" / "validation.json").read_text())
        assert report["passed"]
        expected = {"g", "corollary_chain"} \
            if problem["kind"] == "problem2" else {"M"}
        assert {"g", "corollary_chain", "M"} & set(report) == expected

    def test_solve(self, tmp_path, capsys, domain, problem):
        cfg = self.config(tmp_path, domain, problem)
        assert run_command(["solve", "--config", str(cfg), "--seed", "1",
                            "--quiet"]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["converged"]
        assert (report["kirchhoff_M0"] is not None) == \
            (problem["kind"] == "kirchhoff")


class TestSweepCommand:
    def test_amplitude_sweep(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.json",
            domain={"kind": "interval", "n": 32},
            sweep={"parameter": "problem.h_scale", "values": [0.5, 1.0, 2.0]},
            problem={"kind": "problem1", "h": "1", "q": "1.5", "h_scale": 1.0},
            output={"dir": str(tmp_path / "out")},
        )
        rc = run_command(["sweep", "--config", str(cfg), "--seed", "2",
                          "--quiet"])
        assert rc == EXIT_OK
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("value,energy")
        assert len(lines) == 4

    def test_unknown_parameter_path(self, tmp_path):
        cfg = write_config(tmp_path / "run.json",
                           sweep={"parameter": "problem.nope", "values": [1]})
        assert run_command(["sweep", "--config", str(cfg), "--seed", "2",
                            "--quiet"]) == EXIT_USAGE

    def test_unknown_swept_domain_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json",
                           sweep={"parameter": "domain.N", "values": [16]})
        assert run_command(["sweep", "--config", str(cfg), "--seed", "2",
                            "--quiet"]) == EXIT_USAGE
        assert "unknown domain key(s): ['N']" in capsys.readouterr().err

    def _sweep_csv(self, tmp_path, cfg, seed):
        out = tmp_path / f"out-{seed}"
        assert run_command(["sweep", "--config", str(cfg), "--seed",
                            str(seed), "--out", str(out), "--quiet"]) == EXIT_OK
        return (out / "sweep.csv").read_bytes()

    def test_seed_reaches_random_init(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.json",
            domain={"kind": "interval", "n": 32},
            solver={"init": "random"},
            sweep={"parameter": "problem.h_scale", "values": [1.0]},
        )
        one = self._sweep_csv(tmp_path, cfg, 1)
        assert self._sweep_csv(tmp_path, cfg, 2) != one
        assert self._sweep_csv(tmp_path, cfg, 1) == one

    def test_readme_parameter_without_key(self, tmp_path):
        # the README config names no h_scale; the sweep sets it
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "domain": {"kind": "interval", "a": 0.0, "b": 1.0, "n": 32},
            "exponent": {"p": "2+x", "r": 1.5},
            "problem": {"kind": "problem1", "h": "1", "q": "1.2"},
            "solver": {"grad_tol": 1e-9},
            "sweep": {"parameter": "problem.h_scale", "values": [0.5, 1, 2]},
        }))
        lines = self._sweep_csv(tmp_path, cfg, 1).decode().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == \
            ["0.5", "1.0", "2.0"]
        energies = [float(line.split(",")[1]) for line in lines[1:]]
        assert energies[0] > energies[1] > energies[2]

    def test_expression_values_written_verbatim(self, tmp_path):
        # a swept expression goes into the value column as given, quoted
        # where it holds a comma, and reads back with the csv module
        values = ["2+x", "max(x,0.5)+2"]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "domain": {"kind": "interval", "a": 0.0, "b": 1.0, "n": 32},
            "exponent": {"p": "2+x", "r": 1.5},
            "problem": {"kind": "problem1", "h": "1", "q": "1.2"},
            "solver": {"grad_tol": 1e-9},
            "sweep": {"parameter": "exponent.p", "values": values},
        }))
        text = self._sweep_csv(tmp_path, cfg, 1).decode()
        assert '"max(x,0.5)+2"' in text
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][0] == "value" and len(rows) == 3
        assert [row[0] for row in rows[1:]] == values
        assert [row[4] for row in rows[1:]] == ["1", "1"]


@pytest.mark.parametrize("argv", [
    ["validate", "--config", "run.json", "--samples", "3"],
    ["validate", "--config", "run.json", "--seed", "1"],
    ["solve", "--config", "run.json", "--seed", "1", "--levels", "2"],
    ["sweep", "--config", "run.json", "--seed", "1", "--samples", "3"],
    ["check-diaz-saa", "--config", "run.json", "--seed", "1", "--r", "2"],
    ["eig", "--seed", "1"],
    ["eig", "--nx", "8"],
    ["eig", "--samples", "3"],
])
def test_unread_flag_rejected(tmp_path, monkeypatch, capsys, argv):
    # each subcommand registers only the flags it reads
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "run.json")
    assert run_command(argv) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eig", "--levels", "0"],
    ["eig", "--levels", "-2"],
    ["check-convexity", "--config", "run.json", "--seed", "1",
     "--samples", "0"],
    ["check-diaz-saa", "--config", "run.json", "--seed", "1",
     "--samples", "-1"],
    ["check-comparison", "--config", "run.json", "--seed", "1",
     "--samples", "0"],
    ["eig", "--n", "0"],
    ["solve", "--config", "run.json", "--seed", "1", "--n", "0"],
    ["solve", "--config", "run.json", "--seed", "1", "--nx", "0"],
    ["validate", "--config", "run.json", "--ny", "0"],
    ["sweep", "--config", "run.json", "--seed", "1", "--ny", "-3"],
])
def test_count_below_one_rejected(tmp_path, monkeypatch, capsys, argv):
    # nothing is computed or written: argparse rejects the count
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "run.json")
    assert run_command(argv + ["--out", "out"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "must be at least 1" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


_RECTANGLE = {"kind": "rectangle", "nx": 4, "ny": 4}
# problem1 with a source reaction: no q, so f(x, s) = h
_SOURCE = {**BASE, "problem": {"kind": "problem1", "h": "1"}}


@pytest.mark.parametrize("argv,config,message", [
    (["solve", "--seed", "1"], None, "cannot read config"),
    (["solve", "--seed", "1"], [BASE], "config root must be an object"),
    (["solve", "--seed", "1"], {**BASE, "domain": {"kind": "disk"}},
     "unknown domain kind 'disk'"),
    (["check-convexity", "--seed", "1", "--samples", "2"],
     {"domain": _RECTANGLE, "exponent": BASE["exponent"],
      "anisotropy": {"kind": "weighted-quadratic", "weights": ["1"]}},
     "bad anisotropy block: need one weight field per space dimension"),
    (["eig"], {"domain": _RECTANGLE}, "eig refinement ladder is 1D only"),
    (["sweep", "--seed", "1"],
     {**BASE, "sweep": {"parameter": "problem.kind.q", "values": [1.2]}},
     "sweep parameter path 'problem.kind.q' not in config"),
    (["sweep", "--seed", "1"],
     {**BASE, "sweep": {"parameter": "problem.h_scale", "values": []}},
     "sweep.values must be a nonempty list"),
    (["solve", "--seed", "1", "--n", "abc"], BASE,
     "invalid int value: 'abc'"),
    # a JSON integer no float can hold
    (["solve", "--seed", "1"],
     {**BASE, "domain": {"kind": "interval", "b": 10 ** 400}},
     "invalid input: int too large to convert to float"),
], ids=["missing-file", "root-list", "domain-kind", "one-weight-on-rectangle",
        "eig-rectangle", "sweep-parent-not-block", "sweep-no-values",
        "n-not-int", "b-beyond-float"])
def test_input_error_exits_2(tmp_path, capsys, argv, config, message):
    # config None: no file at the --config path
    path = tmp_path / "run.json"
    if config is not None:
        path.write_text(json.dumps(config))
    assert run_command(argv + ["--config", str(path), "--quiet"]) \
        == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv,config,expected", [
    (["solve", "--seed", "1"], _SOURCE, '"regime": null'),
    (["validate"], _SOURCE, '"witness": "f/s^(r-1) = h s^(1-r)"'),
    # without --quiet the sweep prints its table
    (["sweep", "--seed", "1"],
     {**BASE, "sweep": {"parameter": "problem.h_scale", "values": [1.0]}},
     "value,energy,sup_u,residual_max,converged\n1.0,"),
], ids=["solve-source", "validate-source", "sweep-stdout"])
def test_command_exits_0(tmp_path, capsys, argv, config, expected):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert run_command(argv + ["--config", str(path)]) == EXIT_OK
    assert expected in capsys.readouterr().out


def test_python_dash_m_entry_point():
    src = str(pathlib.Path(pxlaplace.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-m", "pxlaplace", "eig", "--n", "8", "--levels",
         "1", "--quiet"], env=env, capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr == ""
    proc = subprocess.run(
        [sys.executable, "-m", "pxlaplace", "eig", "--levels", "0",
         "--quiet"], env=env, capture_output=True, text=True)
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
