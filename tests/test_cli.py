import dataclasses
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


def write_config(path, **overrides):
    cfg = {
        "domain": {"kind": "interval", "a": 0.0, "b": 1.0, "n": 48},
        "exponent": {"p": "2", "r": 2.0},
        "problem": {"kind": "problem1", "h": "1", "q": "1.5"},
        "solver": {"grad_tol": 1e-9},
    }
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

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json", solver={"max_iters": 1})
        assert run_command(["solve", "--config", str(cfg), "--seed", "1",
                            "--quiet"]) == EXIT_NONCONVERGED

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
