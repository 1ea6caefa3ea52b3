import math
from dataclasses import replace

import numpy as np
import pytest

from paulidiag import cost, optimize
from paulidiag.cost import KParams, eval_F, eval_grad
from paulidiag.operators import PauliSum, build_support_sets
from paulidiag.optimize import (
    IncrementalState,
    LRSchedule,
    OptConfig,
    RadialCollapseError,
    TraceRecord,
    estimate_alpha,
    lr_schedule_eval,
    rolling_median,
    run_gd,
    run_rcd,
)
from paulidiag.pauli import parse

from conftest import random_instance


def one_qubit_instance(r0=None, theta0=None):
    """h = X with ansatz (X, Z): exact solution K = (X+Z)/sqrt2."""
    h = PauliSum.from_words({"X": 1.0})
    ansatz = (parse("X"), parse("Z"))
    if r0 is None:
        r0 = np.array([0.8, 0.6])
    if theta0 is None:
        theta0 = np.array([0.1, -0.2])
    kp = KParams(ansatz, r0, theta0)
    return h, kp, build_support_sets(h, ansatz)


class TestSchedules:
    def test_constant(self):
        sch = LRSchedule.constant(0.05)
        assert lr_schedule_eval(sch, 0) == 0.05
        assert lr_schedule_eval(sch, 999) == 0.05

    def test_decay(self):
        sch = LRSchedule.decay(0.5, 0.1)
        assert lr_schedule_eval(sch, 0) == 0.5
        assert lr_schedule_eval(sch, 10) == pytest.approx(0.5 / 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LRSchedule.constant(0.0)
        with pytest.raises(ValueError):
            LRSchedule.constant(1.0)
        with pytest.raises(ValueError):
            LRSchedule.decay(0.5, -1.0)
        with pytest.raises(ValueError):
            LRSchedule("warmup", 0.1)

    def test_opt_config_validation(self):
        with pytest.raises(ValueError):
            OptConfig(max_iters=-1)
        with pytest.raises(ValueError):
            OptConfig(max_iters=10, block_size=0)
        with pytest.raises(ValueError):
            OptConfig(max_iters=10, stop_tol=math.nan)


class TestAlpha:
    def test_kl_reference_point(self):
        # ||g||^2 = 4F  <->  alpha = 1
        assert estimate_alpha(0.01, math.sqrt(4 * 0.01)) == pytest.approx(1.0)

    def test_alpha_two(self):
        f = 0.01
        g = math.sqrt(4 * f * f)
        assert estimate_alpha(f, g) == pytest.approx(2.0)

    def test_sentinels(self):
        assert math.isnan(estimate_alpha(0.0, 1.0))
        assert math.isnan(estimate_alpha(1.0, 1.0))
        assert math.isnan(estimate_alpha(0.5, 0.0))
        assert math.isnan(estimate_alpha(-1.0, 1.0))

    def test_rolling_median(self):
        vals = [1.0, math.nan, 3.0, 5.0]
        med = rolling_median(vals, window=2)
        assert med[0] == 1.0
        assert med[1] == 1.0  # NaN skipped, window holds [1.0]
        assert med[2] == 3.0
        assert med[3] == 4.0
        assert math.isnan(rolling_median([math.nan], window=3)[0])


class TestRunGD:
    def test_requires_unit_norm(self):
        h, kp, s = one_qubit_instance(r0=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="unit norm"):
            run_gd(h, kp, OptConfig(max_iters=5), s)

    def test_zero_cost_fixed_point(self):
        # diagonal h with K = I stays put and stops immediately
        h = PauliSum.from_words({"ZZ": 1.0, "IZ": 0.5})
        ansatz = (parse("II"), parse("ZI"))
        kp = KParams(ansatz, np.array([1.0, 0.0]), np.zeros(2))
        trace = run_gd(h, kp, OptConfig(max_iters=50))
        assert trace.stop_reason == "converged"
        assert len(trace.records) == 1
        assert trace.records[0].F_total == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_array_equal(trace.final_params.r, kp.r)

    def test_converges_and_descends(self):
        h, kp, s = one_qubit_instance()
        cfg = OptConfig(max_iters=4000, lr=LRSchedule.constant(0.05), stop_tol=1e-12)
        trace = run_gd(h, kp, cfg, s)
        assert trace.stop_reason == "converged"
        assert trace.records[-1].F_total < 1e-12
        # descent is monotone once F drops below 0.1
        fs = [rec.F_total for rec in trace.records]
        start = next(i for i, v in enumerate(fs) if v < 0.1)
        diffs = np.diff(fs[start:])
        assert np.all(diffs <= 1e-12)

    def test_final_params_diagonalize(self):
        h, kp, s = one_qubit_instance()
        trace = run_gd(h, kp, OptConfig(max_iters=4000, stop_tol=1e-16), s)
        assert eval_F(h, trace.final_params, s).total < 1e-10
        assert trace.final_params.r_norm == pytest.approx(1.0, abs=1e-12)

    def test_trace_shape_on_max_iters(self):
        h, kp, s = one_qubit_instance()
        trace = run_gd(h, kp, OptConfig(max_iters=3, stop_tol=0.0), s)
        assert trace.stop_reason == "max_iters"
        assert [rec.iteration for rec in trace.records] == [0, 1, 2, 3]
        assert all(rec.r_norm_pre_normalization > 0 for rec in trace.records)

    def test_radial_collapse(self):
        # lr tuned so the radial component of the step cancels r exactly
        h = PauliSum.from_words({"X": 1.0})
        ansatz = (parse("I"), parse("X"))
        s = build_support_sets(h, ansatz)
        kp = KParams(ansatz, np.array([1.0, 1.0]) / np.sqrt(2), np.zeros(2))
        rep = eval_grad(h, kp, s)
        a = float(kp.r[0] / rep.grad_r[0])  # gradient is radial here
        assert 0.0 < a < 1.0
        with pytest.raises(RadialCollapseError) as err:
            run_gd(h, kp, OptConfig(max_iters=3, lr=LRSchedule.constant(a), stop_tol=0.0), s)
        assert err.value.iteration == 0
        assert err.value.norm < 1e-14
        assert len(err.value.trace.records) == 1

    def test_deterministic(self, rng):
        h, kp, s = random_instance(rng, 2, 4)
        cfg = OptConfig(max_iters=25, stop_tol=0.0)
        t1 = run_gd(h, kp, cfg, s)
        t2 = run_gd(h, kp, cfg, s)
        for a, b in zip(t1.records, t2.records):
            assert a.as_dict() == b.as_dict()
        np.testing.assert_array_equal(t1.final_params.r, t2.final_params.r)


class TestRunRCD:
    def test_block_size_validation(self):
        h, kp, s = one_qubit_instance()
        with pytest.raises(ValueError, match="block_size"):
            run_rcd(h, kp, OptConfig(max_iters=5, block_size=5), s)

    def test_coincides_with_gd_at_full_block(self, rng):
        h, kp, s = random_instance(rng, 3, 5)
        d = kp.d
        # keep the step stable relative to the cost scale so roundoff noise
        # is not amplified by an oscillating trajectory
        a = 0.04 / max(1.0, eval_F(h, kp, s).total)
        cfg_gd = OptConfig(max_iters=40, lr=LRSchedule.constant(a), stop_tol=0.0)
        cfg_rcd = OptConfig(
            max_iters=40, lr=LRSchedule.constant(a), stop_tol=0.0,
            block_size=2 * d, seed=123,
        )
        tg = run_gd(h, kp, cfg_gd, s)
        tr = run_rcd(h, kp, cfg_rcd, s)
        assert len(tg.records) == len(tr.records)
        for a, b in zip(tg.records, tr.records):
            # summation order differs between the dense and sparse gradient
            # paths, so agreement is at the accumulated-roundoff level
            assert a.F_total == pytest.approx(b.F_total, rel=5e-11, abs=1e-12)
            assert a.grad_norm == pytest.approx(b.grad_norm, rel=1e-10, abs=1e-12)
            assert a.r_norm_pre_normalization == pytest.approx(
                b.r_norm_pre_normalization, rel=5e-11
            )

    def test_caches_equal_a_fresh_evaluation_after_every_step(self, rng):
        h, kp, s = random_instance(rng, 3, 6)
        d = kp.d
        state = IncrementalState(s, kp.r, kp.theta)
        steps = np.random.default_rng(7)
        for _ in range(50):
            coords = steps.choice(2 * d, size=3, replace=False)
            gr, gt, _ = state.sparse_grad(coords)
            y_r, y_theta = state.r - 0.01 * gr, state.theta - 0.01 * gt
            state.apply_update(y_r, y_theta, float(np.linalg.norm(y_r)))
            r, theta = state.r, state.theta
            k = s.k_coeffs(r, theta)
            hk = s.hk_vector(k)
            khk = s.khk_vector(k, hk)
            phi = s.phi_vector(r, theta)
            f, penalty, _, _ = cost._evaluate_sparse(s, r, theta, False)
            assert np.array_equal(state.hk, hk)
            assert np.array_equal(state.khk, khk)
            assert np.array_equal(state.phi, phi)
            assert state.f_value == f and state.penalty == penalty

    @pytest.mark.parametrize("n, d, with_g2", [(1, 1, False), (2, 5, True), (3, 7, True)])
    def test_sparse_grad_matches_full_gradient_for_every_block_width(self, rng, n, d, with_g2):
        h, kp, s = random_instance(rng, n, d)
        assert (len(s.phi_p) > 0) == with_g2
        full = eval_grad(h, kp, s)
        want = np.concatenate([full.grad_r, full.grad_theta])
        state = IncrementalState(s, kp.r, kp.theta)
        for width in range(1, 2 * d + 1):
            coords = rng.choice(2 * d, size=width, replace=False)
            gr, gt, gnorm = state.sparse_grad(coords)
            got = np.concatenate([gr, gt])
            np.testing.assert_allclose(got[coords], want[coords], rtol=1e-10, atol=1e-12)
            others = np.setdiff1d(np.arange(2 * d), coords)
            assert np.all(got[others] == 0.0)
            assert gnorm == pytest.approx(np.linalg.norm(got), rel=1e-14)

    def test_only_sampled_coords_move(self, rng):
        h, kp, s = random_instance(rng, 2, 4)
        d = kp.d
        cfg = OptConfig(max_iters=1, block_size=2, seed=99, stop_tol=0.0)
        trace = run_rcd(h, kp, cfg, s)
        coords = np.random.default_rng(99).choice(2 * d, size=2, replace=False)
        moved_theta = np.flatnonzero(trace.final_params.theta != kp.theta)
        expect_theta = sorted(c - d for c in coords if c >= d)
        assert list(moved_theta) == expect_theta
        # r moves globally through renormalization; unsampled components keep
        # their mutual ratios
        unsampled = [j for j in range(d) if j not in {c for c in coords if c < d}]
        if len(unsampled) >= 2:
            j0, j1 = unsampled[:2]
            before = kp.r[j0] / kp.r[j1]
            after = trace.final_params.r[j0] / trace.final_params.r[j1]
            assert after == pytest.approx(before, rel=1e-12)

    def test_seed_determinism(self, rng):
        h, kp, s = random_instance(rng, 3, 5)
        cfg = OptConfig(max_iters=30, block_size=4, seed=5, stop_tol=0.0)
        t1 = run_rcd(h, kp, cfg, s)
        t2 = run_rcd(h, kp, cfg, s)
        for a, b in zip(t1.records, t2.records):
            assert a.as_dict() == b.as_dict()
        t3 = run_rcd(h, kp, OptConfig(max_iters=30, block_size=4, seed=6, stop_tol=0.0), s)
        assert any(
            a.as_dict() != b.as_dict() for a, b in zip(t1.records, t3.records)
        )

    def test_converges_small_instance(self):
        h, kp, s = one_qubit_instance()
        cfg = OptConfig(max_iters=3000, block_size=2, seed=11, stop_tol=1e-10)
        trace = run_rcd(h, kp, cfg, s)
        assert trace.records[-1].F_total < 1e-6

    def test_incremental_state_matches_fresh(self, rng):
        h, kp, s = random_instance(rng, 3, 6)
        state = IncrementalState(s, kp.r, kp.theta)
        rep = eval_F(h, kp, s)
        assert state.f_value == pytest.approx(rep.f_value, rel=1e-12, abs=1e-14)
        assert state.penalty == pytest.approx(rep.penalty, rel=1e-12, abs=1e-14)
        # sparse gradient over all coordinates equals the full gradient
        gr, gt, gnorm = state.sparse_grad(np.arange(2 * kp.d))
        full = eval_grad(h, kp, s)
        np.testing.assert_allclose(gr, full.grad_r, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(gt, full.grad_theta, rtol=1e-10, atol=1e-12)


class TestTraceSerialization:
    def test_jsonl_round_trip(self, tmp_path, rng):
        import json

        h, kp, s = random_instance(rng, 2, 4)
        trace = run_gd(h, kp, OptConfig(max_iters=10, stop_tol=0.0), s)
        path = tmp_path / "trace.jsonl"
        trace.save_jsonl(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == len(trace.records)
        assert rows[0]["iter"] == 0
        assert set(rows[0]) == {
            "iter", "F_total", "f_value", "penalty",
            "grad_norm", "alpha_estimate", "r_norm_pre_normalization",
        }

    def test_jsonl_byte_identical(self, tmp_path, rng):
        h, kp, s = random_instance(rng, 2, 4)
        cfg = OptConfig(max_iters=10, stop_tol=0.0)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_gd(h, kp, cfg, s).save_jsonl(p1)
        run_gd(h, kp, cfg, s).save_jsonl(p2)
        assert p1.read_bytes() == p2.read_bytes()


def reference_gd(h, kp0, cfg, s):
    """GD as a loop over KParams: eval_grad and with_params at every step."""
    records = []
    x = kp0
    for t in range(cfg.max_iters + 1):
        rep = eval_grad(h, x, s)

        def record(r_norm_pre):
            records.append(TraceRecord(
                t, rep.total, rep.f_value, rep.penalty, rep.grad_norm,
                estimate_alpha(rep.total, rep.grad_norm), r_norm_pre, 0.0,
            ))

        if rep.total < cfg.stop_tol or rep.grad_norm < cfg.grad_tol or t == cfg.max_iters:
            record(x.r_norm)
            break
        a = lr_schedule_eval(cfg.lr, t)
        y_r = x.r - a * rep.grad_r
        y_theta = x.theta - a * rep.grad_theta
        nr = float(np.linalg.norm(y_r))
        record(nr)
        x = x.with_params(y_r / nr, y_theta)
    return records, x


class TestSharedLoop:
    @pytest.mark.parametrize("n, d", [(2, 8), (3, 5)])  # dense path, table path
    def test_trajectory_matches_per_step_loop(self, rng, n, d):
        h, kp, s = random_instance(rng, n, d)
        assert cost._dense_path_applies(n, d) == (n == 2)
        a = 0.04 / max(1.0, eval_F(h, kp, s).total)
        cfg = OptConfig(max_iters=60, lr=LRSchedule.constant(a), stop_tol=0.0)
        want, x = reference_gd(h, kp, cfg, s)
        for trace in (run_gd(h, kp, cfg, s),
                      run_rcd(h, kp, replace(cfg, block_size=2 * d), s)):
            assert len(trace.records) == len(want) == 61
            for got, ref in zip(trace.records, want):
                assert got.as_dict() == ref.as_dict()
            assert np.array_equal(trace.final_params.r, x.r)
            assert np.array_equal(trace.final_params.theta, x.theta)

    @pytest.mark.parametrize("block", [4, None])  # RCD block 4; None: GD
    def test_no_per_step_kparams_and_one_check(self, rng, monkeypatch, block):
        h, kp, s = random_instance(rng, 3, 6)
        counts = {"init": 0, "check": 0}
        real_init, real_check = KParams.__init__, cost._check

        def counting_init(self, *args, **kwargs):
            counts["init"] += 1
            real_init(self, *args, **kwargs)

        def counting_check(*args):
            counts["check"] += 1
            return real_check(*args)

        monkeypatch.setattr(KParams, "__init__", counting_init)
        monkeypatch.setattr(cost, "_check", counting_check)
        monkeypatch.setattr(optimize, "_check", counting_check, raising=False)
        lr = LRSchedule.constant(0.01)
        if block is None:
            trace = run_gd(h, kp, OptConfig(max_iters=50, lr=lr, stop_tol=0.0), s)
        else:
            cfg = OptConfig(max_iters=50, lr=lr, stop_tol=0.0, block_size=block)
            trace = run_rcd(h, kp, cfg, s)
        assert len(trace.records) == 51
        assert counts["init"] <= 2
        assert counts["check"] == 1


class TestNonFinite:
    @pytest.mark.parametrize("run", [run_gd, run_rcd])
    @pytest.mark.parametrize("words", [("I", "X", "Z"), ("II", "XI", "ZZ")])
    def test_overflowing_cost_stops_with_a_record(self, run, words):
        # 1e200 is a finite coefficient, but F ~ 1e400 overflows; the first
        # set of words takes the dense path, the second the table path
        n = len(words[0])
        h = PauliSum.from_words({"X" * n: 1e200, "Z" + "I" * (n - 1): 1.0})
        ansatz = tuple(parse(w) for w in words)
        kp = KParams(ansatz, np.array([0.8, 0.36, 0.48]), np.array([0.0, 0.1, 0.2]))
        s = build_support_sets(h, ansatz)
        with np.errstate(over="ignore", invalid="ignore"):
            trace = run(h, kp, OptConfig(max_iters=20, stop_tol=0.0, block_size=2), s)
        assert trace.stop_reason == "non_finite"
        assert len(trace.records) == 1
        rec = trace.records[0]
        assert not (math.isfinite(rec.F_total) and math.isfinite(rec.grad_norm))
        np.testing.assert_array_equal(trace.final_params.r, kp.r)
        np.testing.assert_array_equal(trace.final_params.theta, kp.theta)
