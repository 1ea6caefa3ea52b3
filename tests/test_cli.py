"""End-to-end tests for the command line interface."""

import json
import multiprocessing

import numpy as np
import pytest

from paulidiag import cli
from paulidiag.cli import main
from paulidiag.cost import KParams, eval_F
from paulidiag.models import build_xxz
from paulidiag.operators import build_support_sets, save_hamiltonian
from paulidiag.pauli import parse


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


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
        assert "aborted" in capsys.readouterr().out
        # the partial trace and last params still land on disk
        assert (out / "trace.jsonl").exists() and (out / "params.json").exists()

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
        assert len(lines) == 1 and json.loads(lines[0])["iter"] == 0
        assert json.loads((out / "params.json").read_text())["n"] == 2

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

    def test_integral_float_is_accepted_and_refresh_every_ignored(self, tmp_path, capsys):
        # a config written for the incremental RCD caches still runs
        cfg = base_config(tmp_path / "out", max_iters=5.0)
        cfg["opt"]["refresh_every"] = 50
        path = write_json(tmp_path / "run.json", cfg)
        assert main(["diagonalize", "--config", path]) == 0
        assert "iterations=5 " in capsys.readouterr().out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "cache_drift_max" not in report


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

    def test_cap_short_circuits(self, tmp_path, capsys):
        cfg = {"model": {"family": "xxz", "n": 3, "j": 1.0, "delta": 0.7}}
        path = write_json(tmp_path / "m.json", cfg)
        assert main(["liedim", "--config", path, "--cap", "5"]) == 0
        assert "cap hit" in capsys.readouterr().out


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
