import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from paulidiag import cli, cost, optimize
from paulidiag.cost import KParams, eval_F, eval_grad
from paulidiag.models import build_xxz
from paulidiag.operators import PauliSum, build_support_sets
from paulidiag.optimize import (
    GD_DEFAULT_LR,
    IncrementalState,
    LRSchedule,
    OptConfig,
    RADIAL_COLLAPSE_TOL,
    TraceRecord,
    estimate_alpha,
    rolling_median,
    run_gd,
    run_rcd,
)
from paulidiag.pauli import parse

from conftest import random_instance, workload_instance


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
        assert sch.at(0) == 0.05
        assert sch.at(999) == 0.05

    def test_decay(self):
        sch = LRSchedule.decay(0.5, 0.1)
        assert sch.at(0) == 0.5
        assert sch.at(10) == pytest.approx(0.5 / 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LRSchedule.constant(0.0)
        with pytest.raises(ValueError):
            LRSchedule.constant(1.0)
        with pytest.raises(ValueError):
            LRSchedule.decay(0.5, -1.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_rate_must_be_finite(self, rate):
        # an infinite rate made the step inf * 0 = NaN at t = 0
        with pytest.raises(ValueError, match="finite"):
            LRSchedule.decay(0.5, rate)

    def test_opt_config_validation(self):
        with pytest.raises(ValueError):
            OptConfig(max_iters=-1)
        with pytest.raises(ValueError):
            OptConfig(max_iters=10, block_size=0)
        with pytest.raises(ValueError):
            OptConfig(max_iters=10, stop_tol=math.nan)

    @pytest.mark.parametrize("field", ["max_iters", "block_size"])
    @pytest.mark.parametrize("bad", [2.5, math.nan, 3.0, True, "3"])
    def test_opt_config_counts_must_be_integers(self, field, bad):
        # 2.5 and NaN passed the sign checks and the run died with TypeError
        # in range or rng.choice; True ran as 1
        with pytest.raises(ValueError, match=rf"{field} must be an integer"):
            OptConfig(**{"max_iters": 10, field: bad})

    def test_opt_config_takes_numpy_integers(self):
        cfg = OptConfig(max_iters=np.int64(3), block_size=np.int32(2))
        assert (cfg.max_iters, cfg.block_size) == (3, 2)


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

    @pytest.mark.parametrize("window", [0, -1])
    def test_rolling_median_needs_a_positive_window(self, window):
        # a window below 1 gave all-NaN without complaint
        with pytest.raises(ValueError, match="window"):
            rolling_median([1.0, 2.0], window=window)


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

    def test_omitted_lr_is_the_automatic_step(self):
        # the steep start of the CLI's test_omitted_lr_scales_step_to_start
        model = {"family": "random_udu", "n": 4, "n_diag": 6, "n_rot": 2, "seed": 3}
        h, u = cli.build_model(model)
        kp = cli.build_initial_params({"ansatz_source": {"kind": "udu_support"}}, h, u)
        kp = cli._perturbed(kp, 0.01, 17)
        s = build_support_sets(h, kp.ansatz)
        g0 = eval_grad(h, kp, s)
        step = 1.2 * g0.total / g0.grad_norm**2
        assert step < GD_DEFAULT_LR.a
        cfg = OptConfig(max_iters=30, stop_tol=0.0)
        got = run_gd(h, kp, cfg, s)
        want = run_gd(h, kp, replace(cfg, lr=LRSchedule.constant(min(GD_DEFAULT_LR.a, step))), s)
        assert [rec.as_dict() for rec in got.records] == [rec.as_dict() for rec in want.records]
        np.testing.assert_array_equal(got.final_params.r, want.final_params.r)
        np.testing.assert_array_equal(got.final_params.theta, want.final_params.theta)

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
        trace = run_gd(h, kp, OptConfig(max_iters=3, lr=LRSchedule.constant(a), stop_tol=0.0), s)
        assert trace.stop_reason == "radial_collapse"
        assert len(trace.records) == 1
        assert trace.records[0].r_norm_pre_normalization < RADIAL_COLLAPSE_TOL
        # the final params are the point the collapsing step started from
        np.testing.assert_array_equal(trace.final_params.r, kp.r)
        np.testing.assert_array_equal(trace.final_params.theta, kp.theta)

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

    def test_sampled_rcd_evaluates_its_start_twice(self, rng, monkeypatch):
        # the automatic step reads F0 and ||g0|| off GD's full evaluation,
        # which builds no caches: the start's tables are evaluated twice, once
        # for it and once for the caches, and each later iterate's once
        h, kp, s = random_instance(rng, 3, 6)
        cfg = OptConfig(max_iters=2, block_size=3, seed=4, stop_tol=0.0)
        start = eval_grad(h, kp, s)
        lr = optimize._auto_lr(optimize.RCD_DEFAULT_LR, start.total, start.grad_norm)
        want = run_rcd(h, kp, replace(cfg, lr=lr), s)
        calls = []
        real = cost._table_values

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cost, "_table_values", counted)
        monkeypatch.setattr(optimize, "_table_values", counted)
        got = run_rcd(h, kp, cfg, s)
        assert len(got.records) == 3 and len(calls) == 4
        # the step equals the one from a separate full evaluation, bit for bit
        assert [rec.as_dict() for rec in got.records] == [rec.as_dict() for rec in want.records]

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
            w, v, f, penalty = cost._table_values(s, r.copy(), theta.copy())
            assert np.array_equal(state.w, w)
            assert np.array_equal(state.u, v * s.slot_scale)
            assert state.f_value == f and state.penalty == penalty

    @pytest.mark.parametrize("n, d, with_g2", [(1, 1, False), (2, 5, True), (3, 7, True)])
    def test_sparse_grad_matches_full_gradient_for_every_block_width(self, rng, n, d, with_g2):
        h, kp, s = random_instance(rng, n, d)
        assert (len(s.g2) > 0) == with_g2
        full = eval_grad(h, kp, s)
        want = np.concatenate([full.grad_r, full.grad_theta])
        state = IncrementalState(s, kp.r, kp.theta)
        blocks = [rng.choice(2 * d, size=width, replace=False) for width in range(1, 2 * d + 1)]
        # both partials of one ansatz index, which then reads its row twice
        blocks += [np.array([j, d + j])[:: 1 - 2 * (j % 2)] for j in range(d)]
        for coords in blocks:
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

    def test_radial_collapse_ends_a_sampled_run(self, monkeypatch):
        # one string: r * dF/dr = 4F, so the step a = 1/(4F) on r lands on
        # r = 0; seed 1 samples r (coordinate 0) first
        h = build_xxz(2, 1.0, 1.0)
        kp = KParams((parse("XY", 2),), np.array([1.0]), np.array([0.3]))
        s = build_support_sets(h, kp.ansatz)
        a = 1.0 / (4.0 * eval_F(h, kp, s).total)
        updates = []
        real = IncrementalState.apply_update

        def counted(self, *args):
            updates.append(args)
            return real(self, *args)

        monkeypatch.setattr(IncrementalState, "apply_update", counted)
        cfg = OptConfig(max_iters=10, lr=LRSchedule.constant(a), block_size=1, seed=1,
                        stop_tol=0.0)
        trace = run_rcd(h, kp, cfg, s)
        assert trace.stop_reason == "radial_collapse"
        assert len(trace.records) == 1
        assert trace.records[0].r_norm_pre_normalization < RADIAL_COLLAPSE_TOL
        assert updates == []
        np.testing.assert_array_equal(trace.final_params.r, kp.r)
        np.testing.assert_array_equal(trace.final_params.theta, kp.theta)

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
        assert gnorm == pytest.approx(full.grad_norm, rel=1e-10)


    @pytest.mark.parametrize("name, path", [
        ("xxz4_dense", "_evaluate_dense"),
        ("udu10_rcd", "_evaluate_algebra"),
        ("udu14_gd", "_evaluate_algebra"),
    ])
    def test_sampled_automatic_step_is_eval_grads_on_every_path(self, name, path):
        # the caches are the table path's, which off it round F0 and ||g0||
        # differently from eval_grad, the start evaluation the bench and the
        # CLI read; the automatic step must be eval_grad's, bit for bit
        h, kp = workload_instance(name)
        s = build_support_sets(h, kp.ansatz)
        assert cost._path(s) is getattr(cost, path)
        start = eval_grad(h, kp, s)
        lr = optimize._auto_lr(optimize.RCD_DEFAULT_LR, start.total, start.grad_norm)
        assert lr.a < optimize.RCD_DEFAULT_LR.a
        cfg = OptConfig(max_iters=3, block_size=4, seed=0, stop_tol=0.0)
        got = run_rcd(h, kp, cfg, s)
        want = run_rcd(h, kp, replace(cfg, lr=lr), s)
        assert [rec.as_dict() for rec in got.records] == [rec.as_dict() for rec in want.records]
        np.testing.assert_array_equal(got.final_params.r, want.final_params.r)


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
        a = cfg.lr.at(t)
        y_r = x.r - a * rep.grad_r
        y_theta = x.theta - a * rep.grad_theta
        nr = float(np.linalg.norm(y_r))
        record(nr)
        x = x.with_params(y_r / nr, y_theta)
    return records, x


def subgroup_instance(rng):
    """A 4-qubit H of 9 random terms, the ansatz every string on qubits
    0..2 (k = 3 < n): the models send it to the algebra engine."""
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=4)]
    hw = rng.choice(len(words), size=9, replace=False)
    h = PauliSum(4, [(parse(words[i]), c) for i, c in zip(hw, rng.uniform(-1, 1, 9))])
    ansatz = tuple(sorted(parse(w) for w in words if w[3] == "I"))
    r = rng.uniform(0.2, 1.0, len(ansatz))
    kp = KParams(ansatz, r / np.linalg.norm(r), rng.uniform(0.0, 2 * np.pi, len(ansatz)))
    return h, kp, build_support_sets(h, ansatz)


class TestSharedLoop:
    @pytest.mark.parametrize("path, instance", [
        ("_evaluate_dense", lambda rng: random_instance(rng, 4, 40)),
        ("_evaluate_algebra", subgroup_instance),
        ("_evaluate_sparse", lambda rng: random_instance(rng, 3, 5)),
    ], ids=["dense", "algebra", "table"])
    def test_trajectory_matches_per_step_loop(self, rng, path, instance):
        h, kp, s = instance(rng)
        assert cost._path(s) is getattr(cost, path)
        a = 0.04 / max(1.0, eval_F(h, kp, s).total)
        cfg = OptConfig(max_iters=60, lr=LRSchedule.constant(a), stop_tol=0.0)
        want, x = reference_gd(h, kp, cfg, s)
        for trace in (run_gd(h, kp, cfg, s),
                      run_rcd(h, kp, replace(cfg, block_size=2 * kp.d), s)):
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

    @pytest.mark.parametrize("lr", [None, LRSchedule.constant(0.01)])
    def test_sampled_start_whose_full_gradient_overflows_stops_at_iteration_0(self, lr):
        # F0 = 3.2e157 is finite, and so is the first sampled block's norm,
        # but the full gradient norm overflows: the loop reads it at
        # iteration 0 and stops before any step
        h = build_xxz(2, 1e78, 1.0)
        kp = cli.build_initial_params({"ansatz_source": {"kind": "full_basis"}}, h, None)
        cfg = OptConfig(max_iters=5, lr=lr, block_size=4, stop_tol=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            assert eval_grad(h, kp, build_support_sets(h, kp.ansatz)).grad_norm == math.inf
            trace = run_rcd(h, kp, cfg)
        assert trace.stop_reason == "non_finite"
        assert [rec.iteration for rec in trace.records] == [0]
        # the record holds the sampled norm, finite here
        assert math.isfinite(trace.records[0].grad_norm)
        np.testing.assert_array_equal(trace.final_params.r, kp.r)


    @pytest.mark.parametrize("run", [run_gd, run_rcd])
    def test_overflowing_gradient_norm_warns_nothing(self, run):
        # F0 = 3.2e157 is finite and the partials are too, but their squared
        # norm overflows: inf is the value the loop stops on, so numpy's
        # overflow warning from the norm's dots would only be noise
        h = build_xxz(2, 1e78, 1.0)
        kp = cli.build_initial_params({"ansatz_source": {"kind": "full_basis"}}, h, None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run(h, kp, OptConfig(max_iters=5, stop_tol=0.0, block_size=4))
        assert trace.stop_reason == "non_finite"
        assert [rec.iteration for rec in trace.records] == [0]


class TestEntryChecks:
    """The start must have unit-norm r and finite theta, NaN included."""

    ANSATZ = (parse("I"), parse("X"))

    @pytest.mark.parametrize("run", [run_gd, run_rcd])
    @pytest.mark.parametrize("r, theta, match", [
        ([math.nan, 0.0], [0.0, 0.0], "unit norm"),
        ([1.0, 0.0], [math.nan, 0.0], r"theta\[0\] = nan"),
    ], ids=["nan_r", "nan_theta"])
    def test_nan_start_is_rejected(self, run, r, theta, match):
        h = PauliSum.from_words({"X": 1.0, "Z": 0.5})
        kp = KParams(self.ANSATZ, np.array(r), np.array(theta))
        cfg = OptConfig(max_iters=5, block_size=1)
        with pytest.raises(ValueError, match=match):
            run(h, kp, cfg, build_support_sets(h, self.ANSATZ))


class TestStationary:
    """K = I under a diagonal H is a zero-cost fixed point, and under
    H = X + 0.5 Z its gradient is all radial: dF/dr_I = 16, every other
    partial 0."""

    ANSATZ = (parse("I"), parse("X"))
    START = KParams(ANSATZ, np.array([1.0, 0.0]), np.zeros(2))

    @pytest.mark.parametrize("run", [run_gd, run_rcd])
    def test_zero_gradient_stops_at_iteration_0(self, run):
        h = PauliSum.from_words({"Z": 1.0})
        s = build_support_sets(h, self.ANSATZ)
        cfg = OptConfig(max_iters=10, block_size=1, stop_tol=0.0)
        trace = run(h, self.START, cfg, s)
        assert trace.stop_reason == "stationary"
        assert [rec.iteration for rec in trace.records] == [0]
        assert trace.records[0].grad_norm == 0.0

    def test_sampled_zero_block_is_confirmed_on_the_full_gradient(self):
        h = PauliSum.from_words({"X": 1.0, "Z": 0.5})
        s = build_support_sets(h, self.ANSATZ)
        assert eval_grad(h, self.START, s).grad_norm == 16.0
        # seed 0 samples theta_1 (coordinate 3) first, whose partial is 0
        assert np.random.default_rng(0).choice(4, size=1, replace=False).tolist() == [3]
        cfg = OptConfig(max_iters=5, block_size=1, seed=0, stop_tol=0.0)
        trace = run_rcd(h, self.START, cfg, s)
        assert trace.records[0].grad_norm == 0.0
        assert trace.stop_reason == "max_iters"
        assert len(trace.records) == 6
