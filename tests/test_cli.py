"""End-to-end tests for the command line interface."""

import json
import multiprocessing
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from paulidiag import cli, cost, operators, optimize, verify
from paulidiag.cli import main, save_params
from paulidiag.cost import KParams, eval_F
from paulidiag.models import build_xxz
from paulidiag.operators import build_support_sets, save_hamiltonian
from paulidiag.pauli import parse


GOOD_RECORD = json.dumps({"iter": 0, "F_total": 1.0, "f_value": 1.0, "penalty": 0.0,
                          "grad_norm": 2.0, "alpha_estimate": 1.0,
                          "r_norm_pre_normalization": 1.0})


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def run_subprocess(*args):
    """`paulidiag` ARGS in a fresh interpreter on this one's import path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-c", "import sys; from paulidiag.cli import main; "
                               "sys.exit(main(sys.argv[1:]))", *args],
        capture_output=True, text=True, env=env, timeout=120)


def base_config(out_dir, max_iters=40):
    return {
        "model": {"family": "xxz", "n": 3, "j": 1.0, "delta": 1.0},
        "ansatz_source": {
            "kind": "warm_start",
            "reference": {"family": "xxz", "n": 3, "j": 1.0, "delta": 0.9},
        },
        "algorithm": "rcd",
        "opt": {
            "max_iters": max_iters,
            "lr": {"kind": "constant", "a0": 1e-4},
            "block_size": 4,
            "seed": 11,
        },
        "output": {"dir": str(out_dir)},
    }


class TestDiagonalize:
    def test_writes_outputs_and_summary(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", base_config(tmp_path / "out"))
        assert main(["diagonalize", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "initial_error=" in out and "final_error=" in out
        for name in ("trace.jsonl", "params.json", "report.json"):
            assert (tmp_path / "out" / name).exists()
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["n"] == 3
        assert report["frob_error"] >= 0.0
        lines = (tmp_path / "out" / "trace.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["iter"] == 0

    def test_omitted_lr_scales_step_to_start(self, tmp_path, capsys):
        # the fixed base step diverges on this steep warm start, so the
        # resolved default must shrink with 1.2 F0 / ||grad F0||^2
        cfg = {
            "model": {"family": "random_udu", "n": 4, "n_diag": 6,
                      "n_rot": 2, "seed": 3},
            "algorithm": "gd",
            "ansatz_source": {"kind": "udu_support"},
            "init": {"perturb": 0.01, "seed": 17},
            "opt": {"max_iters": 400, "stop_tol": 1e-14},
            "output": {"dir": str(tmp_path / "out")},
        }
        assert main(["diagonalize", "--config",
                     write_json(tmp_path / "run.json", cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["frob_error"] < 0.2 * report["initial_frob_error"]
        lines = (tmp_path / "out" / "trace.jsonl").read_text().splitlines()
        first, second = (json.loads(lines[i])["F_total"] for i in (0, 1))
        assert second < first

    def test_gd_evaluates_its_start_once(self, tmp_path, monkeypatch):
        # the automatic step reads F0 and ||g0|| off iteration 0's evaluation
        calls = []
        real = cost._evaluate_sparse

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cost, "_evaluate_sparse", counted)
        cfg = {
            "model": {"family": "random_udu", "n": 4, "n_diag": 6,
                      "n_rot": 2, "seed": 3},
            "algorithm": "gd",
            "ansatz_source": {"kind": "udu_support"},
            "init": {"perturb": 0.01, "seed": 17},
            "opt": {"max_iters": 3, "stop_tol": 0.0},
        }
        path = write_json(tmp_path / "run.json", cfg)
        assert main(["diagonalize", "--config", path, "--out-dir", str(tmp_path)]) == 0
        assert len(calls) == 4

    def test_start_reported_by_its_frobenius_error_alone(self, tmp_path, monkeypatch):
        # report.json reads only frob_error at the start, so the start gets no
        # full dense report
        reports, starts = [], []

        def report(h, kp, *args):
            reports.append(kp)
            return verify.diag_report(h, kp, *args)

        def start(h, kp):
            starts.append((h, kp))
            return verify.frob_error(h, kp)

        monkeypatch.setattr(cli, "diag_report", report)
        monkeypatch.setattr(cli, "frob_error", start)
        cfg = write_json(tmp_path / "run.json", base_config(tmp_path / "out"))
        assert main(["diagonalize", "--config", cfg]) == 0
        assert len(reports) == 1 and len(starts) == 1
        h, kp0 = starts[0]
        report_json = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report_json["initial_frob_error"] == pytest.approx(
            verify.diag_report(h, kp0).frob_error, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("algorithm", ["gd", "rcd"])
    def test_overflowing_start_gradient_is_exit_5(self, tmp_path, capsys, algorithm):
        # F0 is about 3e159 but ||g0|| overflows to inf, so 1.2 F0 / ||g0||^2
        # is 0.0, which is no step size
        cfg = {
            "model": {"family": "xxz", "n": 3, "j": 1e80, "delta": 1e80},
            "ansatz_source": {
                "kind": "warm_start",
                "reference": {"family": "xxz", "n": 3, "j": 1.0, "delta": 0.9},
            },
            "algorithm": algorithm,
            "opt": {"max_iters": 10},
        }
        path = write_json(tmp_path / "run.json", cfg)
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["diagonalize", "--config", path, "--out-dir", str(out)])
        assert code == 5
        captured = capsys.readouterr()
        assert "stop=non_finite" in captured.out
        assert "Traceback" not in captured.err
        lines = (out / "trace.jsonl").read_text().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["iter"] == 0
        assert json.loads((out / "params.json").read_text())["n"] == 3

    def test_sampled_rcd_start_whose_full_gradient_overflows_is_exit_5(self, tmp_path,
                                                                       capsys):
        # the first sampled block's norm is finite, the full one is not:
        # the run stops before its first step, as GD's does
        cfg = {
            "model": {"family": "xxz", "n": 2, "j": 1e78, "delta": 1.0},
            "algorithm": "rcd",
            "ansatz_source": {"kind": "full_basis"},
            "opt": {"max_iters": 5},
        }
        path = write_json(tmp_path / "run.json", cfg)
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["diagonalize", "--config", path, "--out-dir", str(out)])
        assert code == 5
        assert "iterations=0 stop=non_finite" in capsys.readouterr().out
        lines = (out / "trace.jsonl").read_text().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["iter"] == 0

    def test_overflowing_full_gradient_line_reads_inf_for_gd_and_rcd(self, tmp_path, capsys):
        # sampled RCD's record holds a finite sampled norm; the exit-5 line
        # reports the full gradient norm at the final params for both
        # algorithms, and the run warns nothing on the way
        lines = {}
        for algorithm in ("gd", "rcd"):
            cfg = {
                "model": {"family": "xxz", "n": 2, "j": 1e78, "delta": 1.0},
                "algorithm": algorithm,
                "ansatz_source": {"kind": "full_basis"},
                "opt": {"max_iters": 5},
            }
            path = write_json(tmp_path / f"{algorithm}.json", cfg)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["diagonalize", "--config", path,
                             "--out-dir", str(tmp_path / algorithm)])
            assert code == 5
            lines[algorithm] = capsys.readouterr().out.strip().splitlines()[-1]
        assert "grad_norm=inf " in lines["gd"]
        assert lines["rcd"] == lines["gd"]

    def test_same_seed_byte_identical_traces(self, tmp_path):
        cfg = base_config(tmp_path / "a")
        main(["diagonalize", "--config", write_json(tmp_path / "a.json", cfg)])
        cfg["output"]["dir"] = str(tmp_path / "b")
        main(["diagonalize", "--config", write_json(tmp_path / "b.json", cfg)])
        a = (tmp_path / "a" / "trace.jsonl").read_bytes()
        b = (tmp_path / "b" / "trace.jsonl").read_bytes()
        assert a == b

    def test_seed_override_changes_rcd_path(self, tmp_path):
        cfg = base_config(tmp_path / "a")
        path = write_json(tmp_path / "run.json", cfg)
        main(["diagonalize", "--config", path])
        main(["diagonalize", "--config", path, "--out-dir", str(tmp_path / "b"),
              "--seed-override", "99"])
        a = (tmp_path / "a" / "trace.jsonl").read_bytes()
        b = (tmp_path / "b" / "trace.jsonl").read_bytes()
        assert a != b

    def test_out_dir_flag_overrides_config(self, tmp_path):
        cfg = write_json(tmp_path / "run.json", base_config(tmp_path / "ignored"))
        assert main(["diagonalize", "--config", cfg,
                     "--out-dir", str(tmp_path / "chosen")]) == 0
        assert (tmp_path / "chosen" / "report.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_missing_config_is_exit_1(self, tmp_path, capsys):
        assert main(["diagonalize", "--config", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "model": {,}\n}\n')
        assert main(["diagonalize", "--config", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_unknown_family_is_exit_1(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        cfg["model"]["family"] = "ising"
        path = write_json(tmp_path / "run.json", cfg)
        assert main(["diagonalize", "--config", path]) == 1
        assert "ising" in capsys.readouterr().err

    def test_udu_support_requires_known_unitary(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        cfg["ansatz_source"] = {"kind": "udu_support"}
        path = write_json(tmp_path / "run.json", cfg)
        assert main(["diagonalize", "--config", path]) == 1
        assert "udu_support" in capsys.readouterr().err

    def test_full_basis_size_guard(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        cfg["model"] = {"family": "xxz", "n": 6, "j": 1.0, "delta": 1.0}
        cfg["ansatz_source"] = {"kind": "full_basis"}
        path = write_json(tmp_path / "run.json", cfg)
        assert main(["diagonalize", "--config", path]) == 1
        assert "full_basis" in capsys.readouterr().err

    @pytest.mark.parametrize("n,kind", [(3, "udu_support"), (6, "full_basis")])
    def test_ansatz_source_error_names_the_key(self, tmp_path, capsys, n, kind):
        cfg = base_config(tmp_path / "out")
        cfg["model"]["n"] = n
        cfg["ansatz_source"] = {"kind": kind}
        path = write_json(tmp_path / "run.json", cfg)
        assert main(["diagonalize", "--config", path]) == 1
        assert capsys.readouterr().err.startswith(f"error: ansatz_source: {kind} ")

    def test_udu_support_exact_start_converges_immediately(self, tmp_path, capsys):
        cfg = {
            "model": {"family": "random_udu", "n": 3, "n_diag": 3,
                      "n_rot": 2, "seed": 4},
            "ansatz_source": {"kind": "udu_support"},
            "algorithm": "gd",
            "opt": {"max_iters": 50},
        }
        path = write_json(tmp_path / "run.json", cfg)
        assert main(["diagonalize", "--config", path,
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert "stop=converged" in capsys.readouterr().out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["F_total"] < 1e-10

    def test_radial_collapse_is_exit_2(self, tmp_path, capsys):
        # single-string ansatz makes grad_r parallel to r, so by the scaling
        # identity r*grad_r = 4F the step a = 1/(4F) lands exactly on r = 0
        h = build_xxz(2, 1.0, 1.0)
        kp = KParams((parse("XY", 2),), np.array([1.0]), np.array([0.3]))
        F = eval_F(h, kp, build_support_sets(h, kp.ansatz)).total
        params = write_json(tmp_path / "start.json", {
            "n": 2, "ansatz": ["XY"], "r": [1.0], "theta": [0.3],
        })
        cfg = {
            "model": {"family": "xxz", "n": 2, "j": 1.0, "delta": 1.0},
            "ansatz_source": {"kind": "file", "path": params},
            "algorithm": "gd",
            "opt": {"max_iters": 10, "lr": {"kind": "constant", "a0": 1.0 / (4.0 * F)}},
        }
        path = write_json(tmp_path / "run.json", cfg)
        out = tmp_path / "out"
        assert main(["diagonalize", "--config", path, "--out-dir", str(out)]) == 2
        line = capsys.readouterr().out
        assert line.startswith("aborted: radial collapse at iteration 0: ||r(y)|| = ")
        # the partial trace and last params still land on disk
        assert (out / "trace.jsonl").exists() and (out / "params.json").exists()

    @pytest.mark.parametrize("lr, message", [
        ({"kind": "warmup", "a0": 1e-3}, "opt.lr: unknown kind 'warmup'"),
        ({"kind": "decay", "a0": 1e-3}, "opt.lr: missing required key 'rate'"),
        # with no kind the step is constant, which would drop the rate
        ({"a0": 1e-3, "rate": 5}, 'opt.lr: a rate needs "kind": "decay"'),
        ({"kind": "constant", "a0": 1e-3, "rate": 5}, 'opt.lr: a rate needs "kind": "decay"'),
    ])
    def test_bad_lr_is_exit_1(self, tmp_path, capsys, lr, message):
        cfg = base_config(tmp_path / "out")
        cfg["opt"]["lr"] = lr
        path = write_json(tmp_path / "run.json", cfg)
        assert main(["diagonalize", "--config", path]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_decay_lr_runs_the_decaying_step(self, tmp_path):
        h = build_xxz(2, 1.0, 1.0)
        kp = KParams((parse("XY", 2), parse("ZZ", 2)), np.array([0.6, 0.8]),
                     np.array([0.3, 0.1]))
        params = write_json(tmp_path / "start.json", {
            "n": 2, "ansatz": ["XY", "ZZ"], "r": [0.6, 0.8], "theta": [0.3, 0.1],
        })
        cfg = {
            "model": {"family": "xxz", "n": 2, "j": 1.0, "delta": 1.0},
            "ansatz_source": {"kind": "file", "path": params},
            "algorithm": "gd",
            "opt": {"max_iters": 5, "lr": {"kind": "decay", "a0": 1e-3, "rate": 5}},
        }
        path = write_json(tmp_path / "run.json", cfg)
        out = tmp_path / "out"
        assert main(["diagonalize", "--config", path, "--out-dir", str(out)]) == 0
        got = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]

        def library(lr):
            trace = optimize.run_gd(h, kp, optimize.OptConfig(max_iters=5, lr=lr))
            return [rec.as_dict() for rec in trace.records]

        assert got == library(optimize.LRSchedule.decay(1e-3, 5.0))
        assert got != library(optimize.LRSchedule.constant(1e-3))

    @pytest.mark.parametrize("key", ["r", "theta"])
    def test_non_finite_start_params_is_exit_1(self, tmp_path, capsys, key):
        start = {"n": 2, "ansatz": ["XY", "ZZ"], "r": [0.6, 0.8], "theta": [0.3, 0.1]}
        start[key][1] = float("nan")  # json writes it as NaN, and reads it back
        cfg = {
            "model": {"family": "xxz", "n": 2, "j": 1.0, "delta": 1.0},
            "ansatz_source": {"kind": "file",
                              "path": write_json(tmp_path / "start.json", start)},
            "algorithm": "gd",
            "opt": {"max_iters": 10},
        }
        path = write_json(tmp_path / "run.json", cfg)
        assert main(["diagonalize", "--config", path,
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert f"non-finite value in {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_cost_is_exit_5(self, tmp_path, capsys):
        # a finite coupling of 1e200 overflows F at the first evaluation
        cfg = {
            "model": {"family": "xxz", "n": 2, "j": 1e200, "delta": 1.0},
            "ansatz_source": {"kind": "full_basis"},
            "algorithm": "gd",
            "opt": {"max_iters": 10},
        }
        path = write_json(tmp_path / "run.json", cfg)
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["diagonalize", "--config", path, "--out-dir", str(out)])
        assert code == 5
        assert "stop=non_finite" in capsys.readouterr().out
        lines = (out / "trace.jsonl").read_text().splitlines()
        assert len(lines) == 1

        def strict(name):
            raise ValueError(f"{name} is not JSON")

        # NaN and Infinity are not JSON: the non-finite fields are null
        rec = json.loads(lines[0], parse_constant=strict)
        assert rec["iter"] == 0
        assert rec["F_total"] is None and rec["grad_norm"] is None
        assert json.loads((out / "params.json").read_text())["n"] == 2

    def test_dense_overflow_is_exit_5_without_warnings(self, tmp_path):
        # -1e308 overflows H's dense matrix: the run stops non_finite, and
        # numpy's overflow warnings stay off stderr (a subprocess, so that
        # they would reach it under Python's default filters)
        cfg = {
            "model": {"family": "xxz", "n": 2, "j": -1e308, "delta": 1.0},
            "ansatz_source": {"kind": "full_basis"},
            "algorithm": "gd",
            "opt": {"max_iters": 5},
        }
        path = write_json(tmp_path / "run.json", cfg)
        proc = run_subprocess("diagonalize", "--config", path, "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 5
        assert "stop=non_finite" in proc.stdout
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    def test_dense_infeasible_is_exit_3(self, tmp_path, capsys):
        word = "XX" + "I" * 11
        params = write_json(tmp_path / "start.json", {
            "n": 13, "ansatz": [word], "r": [1.0], "theta": [0.1],
        })
        cfg = {
            "model": {"family": "xxz", "n": 13, "j": 1.0, "delta": 1.0},
            "ansatz_source": {"kind": "file", "path": params},
            "algorithm": "gd",
            "opt": {"max_iters": 1, "lr": {"kind": "constant", "a0": 1e-6}},
        }
        path = write_json(tmp_path / "run.json", cfg)
        out = tmp_path / "out"
        assert main(["diagonalize", "--config", path, "--out-dir", str(out)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert "error" in report
        assert (out / "trace.jsonl").exists()


    @pytest.mark.parametrize("section, key, value, message", [
        ("init", "perturb", "abc", "init.perturb: expected a number, got 'abc'"),
        ("init", "seed", 1.5, "init.seed: expected an integer, got 1.5"),
        ("init", "seed", True, "init.seed: expected a number, got True"),
        ("opt", "seed", "abc", "opt.seed: expected a number, got 'abc'"),
        # negative seeds and spreads used to end in a NumPy traceback
        ("opt", "seed", -1, "opt.seed: expected a non-negative integer, got -1"),
        ("init", "seed", -3, "init.seed: expected a non-negative integer, got -3"),
        ("init", "perturb", -0.1, "init.perturb: expected a non-negative number, got -0.1"),
        # a draw's range, twice the spread, overflowed in rng.uniform
        ("init", "perturb", 1e308,
         "init.perturb: expected at most 8.988465674311579e+307, got 1e+308"),
        ("init", "perturb", 9e307,
         "init.perturb: expected at most 8.988465674311579e+307, got 9e+307"),
        ("opt", "max_iters", 5.7, "opt.max_iters: expected an integer, got 5.7"),
        ("opt", "max_iters", float("inf"), "opt.max_iters: expected a finite number"),
        ("opt", "stop_tol", float("nan"), "opt.stop_tol: expected a finite number, got nan"),
        ("model", "delta", float("nan"), "model.delta: expected a finite number, got nan"),
    ])
    def test_bad_config_number_is_exit_1(self, tmp_path, capsys, section, key, value,
                                         message):
        cfg = base_config(tmp_path / "out")
        cfg.setdefault(section, {})[key] = value  # json writes NaN and Infinity
        path = write_json(tmp_path / "run.json", cfg)
        assert main(["diagonalize", "--config", path]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_override_is_exit_1(self, tmp_path, capsys):
        path = write_json(tmp_path / "run.json", base_config(tmp_path / "out"))
        assert main(["diagonalize", "--config", path, "--seed-override", "-5"]) == 1
        assert ("error: --seed-override: expected a non-negative integer, got -5"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [5, ["a"], None])
    def test_non_string_output_dir_is_exit_1(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.chdir(tmp_path)
        cfg = base_config(tmp_path / "out", max_iters=5)
        cfg["output"]["dir"] = value
        path = write_json(tmp_path / "run.json", cfg)
        assert main(["diagonalize", "--config", path]) == 1
        assert (f"error: output.dir: expected a path string, got {value!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "trace.jsonl").exists()

    @pytest.mark.parametrize("flag", [None, "--out-dir"])
    def test_output_dir_that_names_a_file_is_exit_1(self, tmp_path, capsys, flag):
        # output.dir names a file, or --out-dir a path under one
        afile = tmp_path / "afile"
        afile.write_text("")
        args = ["diagonalize", "--config",
                write_json(tmp_path / "run.json", base_config(afile, max_iters=5))]
        if flag:
            args += [flag, str(afile / "sub")]
        assert main(args) == 1
        key = flag or "output.dir"
        assert capsys.readouterr().err.startswith(f"error: {key}: cannot create directory ")

    @pytest.mark.parametrize("value", [5, None, ["p.json"]])
    def test_non_string_params_path_is_exit_1(self, tmp_path, capsys, value):
        cfg = base_config(tmp_path / "out", max_iters=5)
        cfg["ansatz_source"] = {"kind": "file", "path": value}
        assert main(["diagonalize", "--config", write_json(tmp_path / "run.json", cfg)]) == 1
        assert (f"error: ansatz_source.path: expected a path string, got {value!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_integral_float_is_accepted_and_refresh_every_ignored(self, tmp_path, capsys):
        # a config written for the incremental RCD caches still runs
        cfg = base_config(tmp_path / "out", max_iters=5.0)
        cfg["opt"]["refresh_every"] = 50
        path = write_json(tmp_path / "run.json", cfg)
        assert main(["diagonalize", "--config", path]) == 0
        assert "iterations=5 " in capsys.readouterr().out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "cache_drift_max" not in report

    def test_rcd_block_beyond_2d_is_exit_1(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        cfg["model"] = {"family": "xxz", "n": 2, "j": 1.0, "delta": 1.0}
        cfg["ansatz_source"] = {"kind": "full_basis"}
        cfg["opt"]["block_size"] = 100
        path = write_json(tmp_path / "run.json", cfg)
        assert main(["diagonalize", "--config", path]) == 1
        assert "error: opt.block_size: 100 exceeds 2d = 32" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_warm_start_pruning_every_string_is_exit_1(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        cfg["ansatz_source"]["prune_tol"] = 10
        path = write_json(tmp_path / "run.json", cfg)
        assert main(["diagonalize", "--config", path]) == 1
        assert ("error: ansatz_source.prune_tol: pruning removed every ansatz string"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_warm_start_reference_qubit_mismatch_names_the_key(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        cfg["ansatz_source"]["reference"]["n"] = 4
        path = write_json(tmp_path / "run.json", cfg)
        assert main(["diagonalize", "--config", path]) == 1
        assert ("error: ansatz_source.reference: 4 qubits, the model has 3"
                in capsys.readouterr().err)

    def test_params_file_qubit_mismatch_names_the_key(self, tmp_path, capsys):
        start = tmp_path / "start.json"
        save_params(start, KParams((parse("XX"),), np.ones(1), np.zeros(1)))
        cfg = base_config(tmp_path / "out")
        cfg["ansatz_source"] = {"kind": "file", "path": str(start)}
        path = write_json(tmp_path / "run.json", cfg)
        assert main(["diagonalize", "--config", path]) == 1
        assert (f"error: ansatz_source.path: {start} holds 2 qubits, the model has 3"
                in capsys.readouterr().err)

    def test_example_with_large_d_runs(self, tmp_path, capsys):
        # an unhandled "Hamiltonian is not Hermitian" ValueError escaped main
        cfg = {"model": {"family": "example_hams", "n": 4, "theta": 1.0,
                         "c": [5 ** -0.5] * 5, "d": [1e6, 1.0, 1.0, 1.0]},
               "algorithm": "gd", "ansatz_source": {"kind": "udu_support"},
               "opt": {"max_iters": 0}, "output": {"dir": str(tmp_path / "out")}}
        path = write_json(tmp_path / "run.json", cfg)
        assert main(["diagonalize", "--config", path]) == 0

    def test_full_basis_at_five_qubits_builds_no_product_table(self, tmp_path, monkeypatch):
        # d = 1024 strings span the whole group: the run takes the dense
        # engine, whose 32 x 32 matrices replace a 1024-row product table
        def refuse(*args):
            raise AssertionError("product tables built")

        monkeypatch.setattr(operators, "_product_tables", refuse)
        cfg = {"model": {"family": "xxz", "n": 5, "j": 1.0, "delta": 0.5},
               "algorithm": "gd", "ansatz_source": {"kind": "full_basis"},
               "opt": {"max_iters": 5}, "output": {"dir": str(tmp_path / "out")}}
        path = write_json(tmp_path / "run.json", cfg)
        assert main(["diagonalize", "--config", path]) == 0
        lines = (tmp_path / "out" / "trace.jsonl").read_text().splitlines()
        assert len(lines) == 6

    def test_all_zero_model_is_exit_1(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        cfg["model"].update(j=0, delta=0)
        path = write_json(tmp_path / "run.json", cfg)
        assert main(["diagonalize", "--config", path]) == 1
        assert "error: model: every coefficient is zero" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSweep:
    def test_runs_all_with_distinct_seeds(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "unused", max_iters=15)
        del cfg["output"]
        path = write_json(tmp_path / "sweep.json", [cfg, cfg])
        assert main(["diagonalize", "--config", path, "--sweep",
                     "--out-dir", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        assert "run_000:" in out and "run_001:" in out
        a = (tmp_path / "runs" / "run_000" / "trace.jsonl").read_bytes()
        b = (tmp_path / "runs" / "run_001" / "trace.jsonl").read_bytes()
        assert a != b  # seed 11 vs seed 12

    def test_sweep_needs_a_list(self, tmp_path):
        path = write_json(tmp_path / "sweep.json", base_config(tmp_path / "o"))
        assert main(["diagonalize", "--config", path, "--sweep",
                     "--out-dir", str(tmp_path / "runs")]) == 1

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_bad_thread_count_is_exit_1(self, tmp_path, capsys, monkeypatch, value):
        # rejected before the pool starts, so no worker runs
        monkeypatch.setenv("PAULI_DIAG_THREADS", value)
        cfg = base_config(tmp_path / "unused", max_iters=5)
        del cfg["output"]
        path = write_json(tmp_path / "sweep.json", [cfg])
        assert main(["diagonalize", "--config", path, "--sweep",
                     "--out-dir", str(tmp_path / "runs")]) == 1
        assert "PAULI_DIAG_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_config_error_in_one_run_sets_exit_code(self, tmp_path, capsys):
        good = base_config(tmp_path / "unused", max_iters=5)
        del good["output"]
        bad = json.loads(json.dumps(good))
        bad["algorithm"] = "newton"
        path = write_json(tmp_path / "sweep.json", [good, bad])
        assert main(["diagonalize", "--config", path, "--sweep",
                     "--out-dir", str(tmp_path / "runs")]) == 1
        assert "config error" in capsys.readouterr().out

    def test_non_object_entry_is_a_config_error_for_that_run(self, tmp_path, capsys):
        good = base_config(tmp_path / "unused", max_iters=5)
        del good["output"]
        path = write_json(tmp_path / "sweep.json", [good, "oops"])
        assert main(["diagonalize", "--config", path, "--sweep",
                     "--out-dir", str(tmp_path / "runs")]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("run_000: initial_error=")
        assert lines[1] == "run_001: config error: config: expected an object"

    def test_run_setup_error_is_a_config_error_for_that_run(self, tmp_path, capsys):
        good = base_config(tmp_path / "unused", max_iters=5)
        del good["output"]
        bad = json.loads(json.dumps(good))
        bad["opt"]["block_size"] = 1000
        path = write_json(tmp_path / "sweep.json", [good, bad])
        assert main(["diagonalize", "--config", path, "--sweep",
                     "--out-dir", str(tmp_path / "runs")]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("run_001: config error: opt.block_size: 1000 exceeds")

    def test_negative_seed_or_perturbation_is_a_config_error_for_that_run(self, tmp_path,
                                                                          capsys):
        good = base_config(tmp_path / "unused", max_iters=5)
        del good["output"]
        bad = []
        for section, key, value in (("opt", "seed", -5), ("init", "seed", -3),
                                    ("init", "perturb", -0.1)):
            cfg = json.loads(json.dumps(good))
            cfg["init"] = {"perturb": 0.01}
            cfg[section][key] = value
            bad.append(cfg)
        path = write_json(tmp_path / "sweep.json", [good, *bad])
        assert main(["diagonalize", "--config", path, "--sweep",
                     "--out-dir", str(tmp_path / "runs")]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("run_000: initial_error=")
        assert lines[1:] == [
            "run_001: config error: opt.seed: expected a non-negative integer, got -5",
            "run_002: config error: init.seed: expected a non-negative integer, got -3",
            "run_003: config error: init.perturb: expected a non-negative number, got -0.1",
        ]

    def test_negative_seed_override_is_a_config_error_for_every_run(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "unused", max_iters=5)
        del cfg["output"]
        path = write_json(tmp_path / "sweep.json", [cfg, cfg])
        assert main(["diagonalize", "--config", path, "--sweep", "--seed-override", "-1",
                     "--out-dir", str(tmp_path / "runs")]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"run_{i:03d}: config error: --seed-override: expected a non-negative integer,"
            " got -1" for i in (0, 1)
        ]
        assert not (tmp_path / "runs").exists()

    def test_out_dir_that_names_a_file_is_a_config_error_for_every_run(self, tmp_path,
                                                                        capsys):
        cfg = base_config(tmp_path / "unused", max_iters=5)
        del cfg["output"]
        afile = tmp_path / "afile"
        afile.write_text("")
        path = write_json(tmp_path / "sweep.json", [cfg, cfg])
        assert main(["diagonalize", "--config", path, "--sweep", "--out-dir", str(afile)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        for i, line in enumerate(lines):
            assert line.startswith(
                f"run_{i:03d}: config error: --out-dir: cannot create directory ")

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the workers must inherit the patched run_single")
    def test_unexpected_error_in_one_run_keeps_the_others(self, tmp_path, capsys,
                                                          monkeypatch):
        real_run_single = cli.run_single

        def run_single(cfg, out_dir, seed_override=None):
            if cfg.get("explode"):
                raise RuntimeError("boom")
            return real_run_single(cfg, out_dir, seed_override)

        monkeypatch.setattr(cli, "run_single", run_single)
        good = base_config(tmp_path / "unused", max_iters=5)
        del good["output"]
        bad = dict(good, explode=True)
        path = write_json(tmp_path / "sweep.json", [good, bad, good])
        code = main(["diagonalize", "--config", path, "--sweep",
                     "--out-dir", str(tmp_path / "runs")])
        assert code != 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "run_001: error: RuntimeError: boom"
        for i in (0, 2):
            assert lines[i].startswith(f"run_{i:03d}: initial_error=")
            assert (tmp_path / "runs" / f"run_{i:03d}" / "report.json").exists()


class TestVerify:
    @pytest.fixture()
    def finished_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, max_iters=60)
        main(["diagonalize", "--config",
              write_json(tmp_path / "run.json", cfg)])
        ham = tmp_path / "h.txt"
        save_hamiltonian(ham, build_xxz(3, 1.0, 1.0))
        return out, str(ham)

    def test_round_trip_matches_report(self, finished_run, capsys):
        out, ham = finished_run
        saved = json.loads((out / "report.json").read_text())
        capsys.readouterr()
        code = main(["verify", ham, str(out / "params.json")])
        printed = json.loads(capsys.readouterr().out)
        assert code == 0
        assert printed["frob_error"] == pytest.approx(saved["frob_error"], abs=1e-9)
        assert printed["offdiag_mass"] <= printed["bound_offdiag"] + 1e-10

    def test_renormalizes_corrupted_amplitudes(self, finished_run, capsys):
        out, ham = finished_run
        params = json.loads((out / "params.json").read_text())
        params["r"] = [2.0 * v for v in params["r"]]
        (out / "params.json").write_text(json.dumps(params))
        capsys.readouterr()
        code = main(["verify", ham, str(out / "params.json")])
        captured = capsys.readouterr()
        assert code == 0
        assert "renormalizing" in captured.err

    def test_qubit_mismatch_is_exit_1(self, finished_run, tmp_path, capsys):
        out, _ = finished_run
        ham4 = tmp_path / "h4.txt"
        save_hamiltonian(ham4, build_xxz(4, 1.0, 1.0))
        assert main(["verify", str(ham4), str(out / "params.json")]) == 1
        assert "mismatch" in capsys.readouterr().err

    def test_qubit_mismatch_names_the_params_file(self, finished_run, tmp_path, capsys):
        out, _ = finished_run
        ham4 = tmp_path / "h4.txt"
        save_hamiltonian(ham4, build_xxz(4, 1.0, 1.0))
        assert main(["verify", str(ham4), str(out / "params.json")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {out / 'params.json'}: ")

    def test_missing_hamiltonian_is_exit_1(self, finished_run, tmp_path):
        out, _ = finished_run
        assert main(["verify", str(tmp_path / "gone.txt"),
                     str(out / "params.json")]) == 1


    @pytest.mark.parametrize("coeff", ["nan", "inf"])
    def test_non_finite_hamiltonian_line_is_exit_1(self, finished_run, tmp_path,
                                                   capsys, coeff):
        out, _ = finished_run
        ham = tmp_path / "bad.txt"
        ham.write_text(f"1.0 XXI\n{coeff} XXI\n1.0 ZZI\n")
        assert main(["verify", str(ham), str(out / "params.json")]) == 1
        assert f"line 2: non-finite coefficient '{coeff}'" in capsys.readouterr().err

    def test_cancelling_hamiltonian_is_exit_1(self, tmp_path, capsys):
        ham = tmp_path / "h.txt"
        ham.write_text("1.0 XX\n-1.0 XX\n")
        params = write_json(tmp_path / "p.json", TestParamsFile.START)
        assert main(["verify", str(ham), params]) == 1
        assert f"error: {ham}: every coefficient is zero or cancels" in capsys.readouterr().err


class TestParamsFile:
    """A params file the library cannot use is an exit-1 input error naming
    the file, in both commands that read one."""

    START = {"n": 2, "ansatz": ["XY", "ZZ"], "r": [0.6, 0.8], "theta": [0.3, 0.1]}

    def run(self, command, tmp_path, start):
        params = write_json(tmp_path / "start.json", start)
        if command == "verify":
            ham = tmp_path / "h.txt"
            save_hamiltonian(ham, build_xxz(2, 1.0, 1.0))
            return main(["verify", str(ham), params]), params
        cfg = {
            "model": {"family": "xxz", "n": 2, "j": 1.0, "delta": 1.0},
            "ansatz_source": {"kind": "file", "path": params},
            "algorithm": "gd",
            "opt": {"max_iters": 10},
        }
        path = write_json(tmp_path / "run.json", cfg)
        return main(["diagonalize", "--config", path,
                     "--out-dir", str(tmp_path / "out")]), params

    @pytest.mark.parametrize("command", ["verify", "diagonalize"])
    @pytest.mark.parametrize("key, value, message", [
        ("r", [0.0, 0.0], "'r' is all zeros"),
        ("ansatz", ["XY", 5], "ansatz entry 5"),
        ("ansatz", 5, "ansatz"),
        # every entry is finite, but the norm overflows (or underflows)
        ("r", [1e200, 1e200], "'r' has norm inf, which cannot be normalized"),
        ("r", [1e-200, 1e-200], "'r' has norm 0.0, which cannot be normalized"),
    ])
    def test_unusable_params_are_exit_1(self, tmp_path, capsys, command, key, value,
                                        message):
        code, params = self.run(command, tmp_path, dict(self.START, **{key: value}))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {params}: ")
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["verify", "diagonalize"])
    @pytest.mark.parametrize("key, value, message", [
        ("r", [{"a": 1}, 0.5], "r[0]: expected a number, got {'a': 1}"),
        ("theta", [0.3, "0.1"], "theta[1]: expected a number, got '0.1'"),
        ("theta", [0.3, None], "theta[1]: expected a number, got None"),
        ("r", [0.6, True], "r[1]: expected a number, got True"),
        ("r", [10**400, 0.8], "r[0]: expected a finite number, got 1000"),
        ("theta", 0.3, "theta: expected a list of numbers"),
    ])
    def test_non_numeric_entry_is_named(self, tmp_path, capsys, command, key, value, message):
        code, params = self.run(command, tmp_path, dict(self.START, **{key: value}))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {params}: {message}")
        assert not (tmp_path / "out").exists()


class TestPerturbed:
    """init.perturb moves each amplitude's magnitude and keeps its sign."""

    ANSATZ = tuple(parse(w) for w in ("XI", "IZ", "XY", "ZZ", "YX"))

    def test_negative_amplitudes_keep_their_sign(self):
        kp = KParams(self.ANSATZ, np.array([0.6, -0.0016, 0.7, -0.3, -0.00005]),
                     np.linspace(0.0, 1.0, 5))
        out = cli._perturbed(kp, 1e-4, 17)
        np.testing.assert_array_equal(np.sign(out.r), np.sign(kp.r))
        # the magnitudes are those of the start with every sign dropped
        mirror = cli._perturbed(kp.with_params(np.abs(kp.r), kp.theta), 1e-4, 17)
        np.testing.assert_array_equal(np.abs(out.r), mirror.r)
        np.testing.assert_array_equal(out.theta, mirror.theta)

    def test_non_negative_amplitudes_reflect_at_zero(self):
        # r >= 0 gives |r + noise| normalized, bit for bit; the two entries
        # below the noise width may reflect
        r = np.array([0.0, 1e-5, 0.5, -0.0, 0.7])
        kp = KParams(self.ANSATZ, r, np.zeros(5))
        rng = np.random.default_rng(3)
        want = np.abs(r + rng.uniform(-1e-4, 1e-4, 5))
        theta = rng.uniform(-1e-4, 1e-4, 5)
        out = cli._perturbed(kp, 1e-4, 3)
        assert np.array_equal(out.r, want / np.linalg.norm(want))
        assert np.array_equal(out.theta, theta)

    def test_overflowing_perturbation_is_exit_1(self, tmp_path, capsys):
        # every perturbed entry is finite, but their norm overflows to inf
        cfg = base_config(tmp_path / "out", max_iters=5)
        cfg["init"] = {"perturb": 1e200}
        path = write_json(tmp_path / "run.json", cfg)
        assert main(["diagonalize", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: init.perturb: cannot normalize amplitudes of norm inf")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestLiedim:
    def test_example_with_rotation_prefix_saturates(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        c = rng.uniform(0.3, 1.0, 4)
        c /= np.linalg.norm(c)
        cfg = {
            "model": {
                "family": "example_hams", "n": 3, "theta": 0.7,
                "c": list(c), "d": list(rng.uniform(0.5, 1.5, 3)),
                "prefix": [["rot", 0.4, "XII"]],
            }
        }
        path = write_json(tmp_path / "m.json", cfg)
        assert main(["liedim", "--config", path]) == 0
        assert "63 / 63 (saturated)" in capsys.readouterr().out

    def test_random_udu_with_too_many_rotations_is_exit_1(self, tmp_path, capsys):
        # n_rot = 3 exceeds the 2 non-diagonal strings on one qubit
        cfg = {"model": {"family": "random_udu", "n": 1, "n_diag": 1, "n_rot": 3, "seed": 0}}
        path = write_json(tmp_path / "m.json", cfg)
        assert main(["liedim", "--config", path]) == 1
        assert capsys.readouterr().err == (
            "error: model: only 2 non-diagonal strings exist on 1 qubits\n")

    @pytest.mark.parametrize("n", [64, 1000000000, 437343046872964.0])
    def test_random_udu_qubit_count_is_checked_first(self, tmp_path, capsys, n):
        # 2 ** n came first: a huge integer, then numpy's "high is out of
        # bounds for int64" or a MemoryError traceback
        cfg = {"model": {"family": "random_udu", "n": n, "n_diag": 2, "n_rot": 2, "seed": 0}}
        path = write_json(tmp_path / "m.json", cfg)
        assert main(["liedim", "--config", path]) == 1
        assert capsys.readouterr().err == (
            f"error: model: qubit count {int(n)} outside [1, 24]\n")

    @pytest.mark.parametrize("gate", [["cnot", 0], ["s"], [], ["rot", 0.4]])
    def test_prefix_gate_with_missing_fields_is_exit_1(self, tmp_path, capsys, gate):
        cfg = {"model": {"family": "example_hams", "n": 3, "theta": 0.7,
                         "c": [0.5, 0.5, 0.5, 0.5], "d": [1.0, 1.0, 1.0],
                         "prefix": [gate]}}
        path = write_json(tmp_path / "m.json", cfg)
        assert main(["liedim", "--config", path]) == 1
        assert "error: model: " in capsys.readouterr().err

    def test_cnot_with_control_equal_to_target_is_exit_1(self, tmp_path, capsys):
        # {q: "Z", q: "X"} keeps only X: the gate would become 0.5 (I + Z - X),
        # which is not unitary
        cfg = {"model": {"family": "example_hams", "n": 3, "theta": 0.7,
                         "c": [0.5, 0.5, 0.5, 0.5], "d": [1.0, 1.0, 1.0],
                         "prefix": [["cnot", 1, 1]]}}
        path = write_json(tmp_path / "m.json", cfg)
        assert main(["liedim", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model: ")
        assert "control and target" in err

    @pytest.mark.parametrize("angle", [10**400, float("nan"), float("inf")],
                             ids=["huge_int", "nan", "inf"])
    def test_prefix_rotation_angle_must_be_finite(self, tmp_path, capsys, angle):
        # 10**400 raised OverflowError with a traceback from math.cos; NaN
        # and inf failed on a non-finite coefficient or a math domain error
        gate = ["rot", angle, "XII"]
        cfg = {"model": {"family": "example_hams", "n": 3, "theta": 0.7,
                         "c": [0.5, 0.5, 0.5, 0.5], "d": [1.0, 1.0, 1.0],
                         "prefix": [gate]}}
        path = write_json(tmp_path / "m.json", cfg)
        assert main(["liedim", "--config", path]) == 1
        assert capsys.readouterr().err == (
            f"error: model: gate {gate!r}: angle {angle!r} is not a finite number\n")

    @pytest.mark.parametrize("gate, reason", [
        (["s", True], "qubit True is not an integer"),
        (["h", "0"], "qubit '0' is not an integer"),
        (["cnot", True, 0], "qubit True is not an integer"),
        (["rot", True, "XII"], "angle True is not a number"),
        (["rot", 0.2, 5], "generator 5 is not a Pauli word"),
    ])
    def test_prefix_gate_with_bad_field_is_exit_1(self, tmp_path, capsys, gate, reason):
        # True used to act on qubit 1, or rotate by 1 rad
        cfg = {"model": {"family": "example_hams", "n": 3, "theta": 0.7,
                         "c": [0.5, 0.5, 0.5, 0.5], "d": [1.0, 1.0, 1.0],
                         "prefix": [gate]}}
        path = write_json(tmp_path / "m.json", cfg)
        assert main(["liedim", "--config", path]) == 1
        assert capsys.readouterr().err == f"error: model: gate {gate!r}: {reason}\n"

    @pytest.mark.parametrize("gate, reason", [
        (["s", 7], "qubit 7 outside [0, 3)"),
        (["h", -1], "qubit -1 outside [0, 3)"),
        (["cnot", 0, 5], "qubit 5 outside [0, 3)"),
        (["rot", 0.1, "XY"], "bad Pauli word 'XY' at position 2: expected 3 letters, got 2"),
    ])
    def test_prefix_gate_error_names_the_gate(self, tmp_path, capsys, gate, reason):
        cfg = {"model": {"family": "example_hams", "n": 3, "theta": 0.7,
                         "c": [0.5, 0.5, 0.5, 0.5], "d": [1.0, 1.0, 1.0],
                         "prefix": [gate]}}
        path = write_json(tmp_path / "m.json", cfg)
        assert main(["liedim", "--config", path]) == 1
        assert capsys.readouterr().err == f"error: model: gate {gate!r}: {reason}\n"

    def test_cap_short_circuits(self, tmp_path, capsys):
        cfg = {"model": {"family": "xxz", "n": 3, "j": 1.0, "delta": 0.7}}
        path = write_json(tmp_path / "m.json", cfg)
        assert main(["liedim", "--config", path, "--cap", "5"]) == 0
        assert "cap hit" in capsys.readouterr().out

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_non_positive_cap_is_exit_1(self, tmp_path, capsys, cap):
        cfg = {"model": {"family": "xxz", "n": 3, "j": 1.0, "delta": 0.7}}
        path = write_json(tmp_path / "m.json", cfg)
        assert main(["liedim", "--config", path, "--cap", cap]) == 1
        assert f"--cap: expected at least 1, got {cap}" in capsys.readouterr().err


class TestTraceExport:
    def test_writes_cost_and_alpha_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = base_config(out, max_iters=25)
        main(["diagonalize", "--config", write_json(tmp_path / "r.json", cfg)])
        capsys.readouterr()
        assert main(["trace-export", str(out / "trace.jsonl"),
                     "--out-dir", str(tmp_path / "csv")]) == 0
        cost = (tmp_path / "csv" / "trace_cost.csv").read_text().splitlines()
        alpha = (tmp_path / "csv" / "trace_alpha.csv").read_text().splitlines()
        assert cost[0] == "iter,F_total,f_value,penalty,grad_norm"
        assert alpha[0] == "iter,alpha,alpha_median20"
        assert len(cost) == 27 and len(alpha) == 27  # header + 26 records

    def test_empty_trace_gives_headers_only(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("")
        assert main(["trace-export", str(trace),
                     "--out-dir", str(tmp_path / "csv")]) == 0
        cost = (tmp_path / "csv" / "trace_cost.csv").read_text().splitlines()
        assert cost == ["iter,F_total,f_value,penalty,grad_norm"]

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        good = json.dumps({"iter": 0, "F_total": 1.0, "f_value": 1.0,
                           "penalty": 0.0, "grad_norm": 2.0,
                           "alpha_estimate": 1.0,
                           "r_norm_pre_normalization": 1.0})
        trace.write_text(good + "\nnot json\n")
        assert main(["trace-export", str(trace)]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["[1, 2]", "3.5", '"text"', "null"])
    def test_non_object_line_reports_number(self, tmp_path, capsys, line):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(GOOD_RECORD + "\n" + line + "\n")
        assert main(["trace-export", str(trace)]) == 1
        assert "line 2: expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["fast", [1.0], {"a": 1}])
    def test_non_numeric_alpha_reports_line(self, tmp_path, capsys, alpha):
        trace = tmp_path / "trace.jsonl"
        bad = dict(json.loads(GOOD_RECORD), iter=1, alpha_estimate=alpha)
        trace.write_text(GOOD_RECORD + "\n" + json.dumps(bad) + "\n")
        assert main(["trace-export", str(trace)]) == 1
        assert f"line 2: alpha_estimate: expected a number, got {alpha!r}" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("key, value", [
        ("F_total", "abc"), ("grad_norm", [1.0]), ("iter", True), ("penalty", False),
        ("alpha_estimate", True), ("alpha_estimate", "1.5"),
    ])
    def test_non_numeric_or_boolean_value_writes_no_csv(self, tmp_path, capsys, key, value):
        trace = tmp_path / "trace.jsonl"
        bad = dict(json.loads(GOOD_RECORD), iter=1)
        bad[key] = value
        trace.write_text(GOOD_RECORD + "\n" + json.dumps(bad) + "\n")
        assert main(["trace-export", str(trace), "--out-dir", str(tmp_path / "csv")]) == 1
        assert f"line 2: {key}: expected a number, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "csv").exists()

    @pytest.mark.parametrize("value, message", [
        (None, "expected a number, got None"),
        (-4, "expected a non-negative integer, got -4"),
        (1.5, "expected an integer, got 1.5"),
    ])
    def test_bad_iter_writes_no_csv(self, tmp_path, capsys, value, message):
        # TraceRecord.as_dict writes iter as a non-negative integer; the other
        # cost fields may be null
        trace = tmp_path / "trace.jsonl"
        bad = dict(json.loads(GOOD_RECORD), iter=value)
        trace.write_text(GOOD_RECORD + "\n" + json.dumps(bad) + "\n")
        assert main(["trace-export", str(trace), "--out-dir", str(tmp_path / "csv")]) == 1
        assert f"line 2: iter: {message}" in capsys.readouterr().err
        assert not (tmp_path / "csv").exists()

    @pytest.mark.parametrize("key", ["F_total", "alpha_estimate"])
    def test_integer_beyond_the_float_range_writes_no_csv(self, tmp_path, capsys, key):
        trace = tmp_path / "trace.jsonl"
        rec = json.loads(GOOD_RECORD)
        rec[key] = 10**400
        trace.write_text(json.dumps(rec) + "\n")
        assert main(["trace-export", str(trace), "--out-dir", str(tmp_path / "csv")]) == 1
        assert f"line 1: {key}: expected a finite number, got 1000" in capsys.readouterr().err
        assert not (tmp_path / "csv").exists()

    def test_null_values_are_accepted(self, tmp_path):
        # TraceRecord.as_dict writes non-finite values as null
        trace = tmp_path / "trace.jsonl"
        rec = dict(json.loads(GOOD_RECORD), F_total=None, alpha_estimate=None)
        trace.write_text(json.dumps(rec) + "\n")
        assert main(["trace-export", str(trace), "--out-dir", str(tmp_path / "csv")]) == 0
        cost = (tmp_path / "csv" / "trace_cost.csv").read_text().splitlines()
        assert cost[1] == "0,,1.0,0.0,2.0"

    def test_out_dir_that_names_a_file_is_exit_1(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(GOOD_RECORD + "\n")
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main(["trace-export", str(trace), "--out-dir", str(afile)]) == 1
        assert capsys.readouterr().err.startswith("error: --out-dir: cannot create directory ")

    def test_missing_field_writes_no_csv(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        bad = json.loads(GOOD_RECORD)
        del bad["F_total"]
        trace.write_text(GOOD_RECORD + "\n" + json.dumps(dict(bad, iter=1)) + "\n")
        assert main(["trace-export", str(trace), "--out-dir", str(tmp_path / "csv")]) == 1
        assert "line 2: missing field 'F_total'" in capsys.readouterr().err
        assert not (tmp_path / "csv").exists()
