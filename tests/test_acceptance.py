"""End-to-end acceptance battery.

Thirteen checks with explicit numeric bars: gradient exactness, scaling
identities, agreement with a dense matrix oracle, deep convergence of
warm-started descent, spin-chain and fermion-lattice studies with
quantitative error targets, a-posteriori bounds, commutator closure
dimensions, coordinate-descent consistency, and the per-iteration cost
separation between the two optimizers. Each check registers one PASS/FAIL
line; conftest prints the block at the end of the run.

The optimization checks pin seeds, step sizes, and stopping rules; the
trajectories are deterministic, so the asserted bars carry no timing or
sampling slack beyond what each check states.
"""

import itertools
import time

import numpy as np
import pytest

from paulidiag.cost import KParams, eval_F, eval_grad
from paulidiag.models import (
    build_example_hams,
    build_hubbard,
    build_random_udu,
    build_xxz,
    expand_rotation_product,
    warm_start_from_dense,
)
from paulidiag.operators import PauliSum, build_support_sets
from paulidiag.optimize import LRSchedule, OptConfig, run_gd, run_rcd
from paulidiag.pauli import PauliString, parse
from paulidiag.verify import (
    diag_report,
    generating_set_check,
    kparams_to_dense,
    lie_closure_dim,
    projector_distances,
    to_dense,
)

from conftest import (
    dense_terms,
    dense_word,
    fd_gradient,
    random_instance,
    record_acceptance,
)

# Every diagnostic report produced anywhere in this module lands here so the
# bound check can sweep the full set of (hamiltonian, parameters) pairs.
BOUND_REPORTS: list = []


def _note(report):
    BOUND_REPORTS.append(report)
    return report


# --- shared expensive fixtures --------------------------------------------------


@pytest.fixture(scope="module")
def battery():
    """Fifty random instances cycling n in {2,3,4} and d in {2,4,8,16}, each
    with its analytic gradient; shared by checks 1-4 and folded into 9."""
    rng = np.random.default_rng(2024)
    combos = list(itertools.product((2, 3, 4), (2, 4, 8, 16)))
    out = []
    for i in range(50):
        n, d = combos[i % len(combos)]
        h, kp, s = random_instance(rng, n, d)
        rep = eval_grad(h, kp, s)
        _note(diag_report(h, kp, f_value=rep.f_value, penalty=rep.penalty, support=s))
        out.append((h, kp, s, rep))
    return out


@pytest.fixture(scope="module")
def udu_runs():
    """Full-gradient descent on two 6-qubit instances with known spectra,
    started a 1e-2 perturbation away from the exact diagonalizer; shared by
    checks 5, 6, and 9."""

    def start(n_rot, seed_inst, seed_pert=17):
        h, u, _ = build_random_udu(6, 4, n_rot, seed=seed_inst)
        items = sorted(expand_rotation_product(u).items())
        strs = tuple(p for p, _ in items)
        c = np.array([v for _, v in items])
        r0 = np.abs(c)
        kp0 = KParams(strs, r0 / np.linalg.norm(r0), np.angle(c))
        prng = np.random.default_rng(seed_pert)
        r = np.abs(kp0.r + prng.uniform(-1e-2, 1e-2, kp0.d))
        theta = kp0.theta + prng.uniform(-1e-2, 1e-2, kp0.d)
        return h, kp0.with_params(r / np.linalg.norm(r), theta)

    out = {}
    # second instance, with four rotation layers, needs a fixed step: its
    # auto-scaled one sits above the stability edge of the stiffest mode
    for label, n_rot, seed_inst, lr_fixed in (("4+2", 2, 3, None), ("4+4", 4, 21, 4.5e-5)):
        t0 = time.perf_counter()
        h, kp = start(n_rot, seed_inst)
        s = build_support_sets(h, kp.ansatz)
        g0 = eval_grad(h, kp, s)
        a = lr_fixed if lr_fixed is not None else 1.2 * g0.total / g0.grad_norm**2
        rep0 = _note(diag_report(h, kp, f_value=g0.f_value, penalty=g0.penalty, support=s))
        cfg = OptConfig(max_iters=5000, lr=LRSchedule.constant(a), stop_tol=1e-14)
        tr = run_gd(h, kp, cfg, s)
        rec = tr.records[-1]
        repf = _note(
            diag_report(h, tr.final_params, f_value=rec.f_value, penalty=rec.penalty, support=s)
        )
        out[label] = {
            "trace": tr,
            "rep0": rep0,
            "repf": repf,
            "wall": time.perf_counter() - t0,
        }
    return out


XXZ_BARS = {0.1: 0.28, 0.5: 0.10, 0.8: 0.03, 1.2: 0.03}


@pytest.fixture(scope="module")
def xxz_runs():
    """Randomized coordinate descent (full blocks) on the four-qubit spin
    chain, warm-started from nearby anisotropies; shared by checks 7, 9, 10."""
    h = build_xxz(4, 1.0, 1.0)
    hd = to_dense(h)
    out = {"wall": 0.0}
    t_all = time.perf_counter()
    for delta, bar in XXZ_BARS.items():
        kp = warm_start_from_dense(build_xxz(4, 1.0, delta))
        s = build_support_sets(h, kp.ansatz)
        g = eval_grad(h, kp, s)
        a = min(2.9e-5, 1.2 * g.total / g.grad_norm**2)
        rep0 = _note(diag_report(h, kp, f_value=g.f_value, penalty=g.penalty, support=s))
        iters, seg = 0, 0
        proj_trail = []
        frob = rep0.frob_error
        while True:
            cfg = OptConfig(
                max_iters=100,
                lr=LRSchedule.constant(a),
                block_size=2 * kp.d,
                seed=seg,
                stop_tol=0.0,
            )
            tr = run_rcd(h, kp, cfg, s)
            kp = tr.final_params
            rec = tr.records[-1]
            iters += rec.iteration
            seg += 1
            rep = _note(diag_report(h, kp, f_value=rec.f_value, penalty=rec.penalty, support=s))
            frob = rep.frob_error
            if delta == 0.8:
                k = kparams_to_dense(kp)
                dg = np.diag(k.conj().T @ hd @ k).real
                h_tilde = (k * dg) @ k.conj().T
                proj_trail.append(max(dist for _, dist in projector_distances(h, h_tilde)))
            done = frob <= 0.95 * bar and (delta != 0.8 or proj_trail[-1] <= 9.5e-3)
            if done or iters >= 60000:
                break
        out[delta] = {"frob0": rep0.frob_error, "frob": frob, "iters": iters, "proj": proj_trail}
    out["wall"] = time.perf_counter() - t_all
    return out


HUBBARD_STARTS = (2.0, 4.0, 5.0, 7.0)


@pytest.fixture(scope="module")
def hubbard_runs():
    """Coordinate descent (full blocks) on the two-site fermion lattice,
    warm-started from nearby interaction strengths; shared by checks 8, 9."""
    h = build_hubbard(2, 1.0, 6.0)
    out = {"wall": 0.0}
    t_all = time.perf_counter()
    for u0 in HUBBARD_STARTS:
        kp = warm_start_from_dense(build_hubbard(2, 1.0, u0))
        s = build_support_sets(h, kp.ansatz)
        g = eval_grad(h, kp, s)
        a_fast = min(2.9e-5, 1.2 * g.total / g.grad_norm**2)
        rep0 = _note(diag_report(h, kp, f_value=g.f_value, penalty=g.penalty, support=s))
        iters, seg = 0, 0
        frob = rep0.frob_error
        slow_phase = False
        while True:
            # the fast step crushes the off-diagonal cost but leaves the
            # unitarity penalty cycling; a smaller step lets it decay
            a = 1.5e-5 if slow_phase else a_fast
            cfg = OptConfig(
                max_iters=500,
                lr=LRSchedule.constant(a),
                block_size=2 * kp.d,
                seed=seg,
                stop_tol=0.0,
            )
            tr = run_rcd(h, kp, cfg, s)
            kp = tr.final_params
            rec = tr.records[-1]
            iters += rec.iteration
            seg += 1
            rep = _note(diag_report(h, kp, f_value=rec.f_value, penalty=rec.penalty, support=s))
            frob = rep.frob_error
            if frob <= 0.095 or iters >= 120000:
                break
            if not slow_phase and ((rec.f_value < 1e-8 and rec.penalty < 1.5e-3) or iters >= 8000):
                slow_phase = True
        out[u0] = {"frob0": rep0.frob_error, "frob": frob, "iters": iters}
    out["wall"] = time.perf_counter() - t_all
    return out


# --- the thirteen checks ---------------------------------------------------------


def test_check_01_gradients_match_finite_differences(battery):
    t0 = time.perf_counter()
    worst = 0.0
    for h, kp, s, rep in battery:
        fd_r, fd_t = fd_gradient(
            lambda r, th: eval_F(h, kp.with_params(r, th), s).total, kp.r, kp.theta, step=1e-5
        )
        scale = max(1.0, np.abs(fd_r).max(), np.abs(fd_t).max())
        err = max(np.abs(rep.grad_r - fd_r).max(), np.abs(rep.grad_theta - fd_t).max())
        worst = max(worst, err / scale)
    wall = time.perf_counter() - t0
    ok = worst <= 1e-6 and wall < 60.0
    line = record_acceptance(
        1,
        "gradients vs central differences",
        ok,
        f"max rel err {worst:.2e} <= 1e-6 over 50 instances, {wall:.1f}s < 60s",
    )
    assert ok, line


def test_check_02_radial_euler_identity(battery):
    worst = 0.0
    for _, kp, _, rep in battery:
        rhs = 4.0 * rep.total
        worst = max(worst, abs(float(np.dot(kp.r, rep.grad_r)) - rhs) / abs(rhs))
    ok = worst <= 1e-10
    line = record_acceptance(
        2, "r . dF/dr = 4F", ok, f"max rel err {worst:.2e} <= 1e-10 over 50 instances"
    )
    assert ok, line


def test_check_03_quartic_amplitude_scaling(battery):
    worst = 0.0
    for h, kp, s, rep in battery:
        for scale in (-1.0, 0.5, 2.0):
            val = eval_F(h, kp.with_params(scale * kp.r, kp.theta), s).total
            ref = scale**4 * rep.total
            worst = max(worst, abs(val - ref) / abs(ref))
    ok = worst <= 1e-9
    line = record_acceptance(
        3,
        "F(s*r, theta) = s^4 F(r, theta)",
        ok,
        f"max rel err {worst:.2e} <= 1e-9 for s in {{-1, 0.5, 2}}",
    )
    assert ok, line


def test_check_04_dense_matrix_oracle(battery):
    worst = 0.0
    count = 0
    for h, kp, _, rep in battery:
        n = h.n
        if n > 3:
            continue
        count += 1
        dim = 1 << n
        hd = dense_terms([(p.word, c) for p, c in h.items()], n)
        kd = dense_terms(
            [(p.word, c) for p, c in zip(kp.ansatz, kp.r * np.exp(1j * kp.theta))], n
        )
        m = kd.conj().T @ hd @ kd
        gram = kd.conj().T @ kd
        f_ref, pen_ref = 0.0, 0.0
        for word in ("".join(w) for w in itertools.product("IXYZ", repeat=n)):
            pd = dense_word(word)
            if set(word) & {"X", "Y"}:
                f_ref += float(np.trace(m @ pd).real) ** 2
            if word != "I" * n:
                pen_ref += abs(np.trace(gram @ pd) / dim) ** 2
        worst = max(
            worst,
            abs(rep.f_value - f_ref) / max(1.0, abs(f_ref)),
            abs(rep.penalty - pen_ref) / max(1.0, abs(pen_ref)),
        )
    ok = worst <= 1e-8 and count >= 30
    line = record_acceptance(
        4,
        "values equal the string-by-string dense sums",
        ok,
        f"max rel err {worst:.2e} <= 1e-8 on {count} instances with n <= 3",
    )
    assert ok, line


def test_check_05_warm_started_descent_reaches_deep_minima(udu_runs):
    ok = True
    details = []
    for label, run in udu_runs.items():
        rec = run["trace"].records[-1]
        ratio = run["rep0"].frob_error / max(run["repf"].frob_error, 1e-300)
        good = (
            rec.F_total < 1e-8
            and rec.iteration <= 5000
            and ratio >= 100.0
            and run["wall"] < 600.0
        )
        ok = ok and good
        details.append(
            f"{label}: F={rec.F_total:.2e} at iter {rec.iteration}, "
            f"error shrank {ratio:.0f}x, {run['wall']:.1f}s"
        )
    line = record_acceptance(5, "descent from perturbed warm starts", ok, "; ".join(details))
    assert ok, line


def test_check_06_convergence_exponent_near_one(udu_runs):
    ok = True
    details = []
    for label, run in udu_runs.items():
        tr = run["trace"]
        med = tr.alpha_medians(window=max(2, len(tr.records) // 2))[-1]
        ok = ok and 0.7 <= med <= 1.3
        details.append(f"{label}: median exponent {med:.3f}")
    line = record_acceptance(
        6, "gradient-power exponent in [0.7, 1.3]", ok, "; ".join(details)
    )
    assert ok, line


def test_check_07_spin_chain_warm_starts(xxz_runs):
    f0 = {delta: xxz_runs[delta]["frob0"] for delta in XXZ_BARS}
    finals_ok = all(xxz_runs[delta]["frob"] <= bar for delta, bar in XXZ_BARS.items())
    ordering_ok = f0[0.1] > f0[0.5] > f0[0.8] and abs(f0[0.8] - 0.80) <= 0.05
    budget_ok = xxz_runs["wall"] < 900.0
    ok = finals_ok and ordering_ok and budget_ok
    detail = "; ".join(
        f"start {delta}: {f0[delta]:.4f} -> {xxz_runs[delta]['frob']:.4f} (bar {bar})"
        for delta, bar in XXZ_BARS.items()
    )
    line = record_acceptance(
        7, "spin-chain error targets", ok, f"{detail}; total {xxz_runs['wall']:.0f}s < 900s"
    )
    assert ok, line


def test_check_08_fermion_lattice_warm_starts(hubbard_runs):
    f0 = {u0: hubbard_runs[u0]["frob0"] for u0 in HUBBARD_STARTS}
    finals_ok = all(hubbard_runs[u0]["frob"] <= 0.1 for u0 in HUBBARD_STARTS)
    ordering_ok = f0[2.0] > f0[4.0] > f0[5.0] > f0[7.0]
    ok = finals_ok and ordering_ok
    detail = "; ".join(
        f"start {u0}: {f0[u0]:.4f} -> {hubbard_runs[u0]['frob']:.4f}" for u0 in HUBBARD_STARTS
    )
    line = record_acceptance(
        8,
        "fermion-lattice error targets",
        ok,
        f"{detail}; bars 0.1 each; total {hubbard_runs['wall']:.0f}s",
    )
    assert ok, line


def test_check_09_a_posteriori_bounds(battery, udu_runs, xxz_runs, hubbard_runs):
    total = len(BOUND_REPORTS)
    mass_viol = sum(
        1 for r in BOUND_REPORTS if r.offdiag_mass > r.bound_offdiag * (1 + 1e-9) + 1e-12
    )
    applicable = [r for r in BOUND_REPORTS if r.bound_spec_applicable]
    spec_viol = sum(1 for r in applicable if r.spec_error > r.bound_spec * (1 + 1e-9))
    ok = total >= 100 and mass_viol == 0 and len(applicable) >= 10 and spec_viol == 0
    line = record_acceptance(
        9,
        "a-posteriori bounds never violated",
        ok,
        f"{total} reports, {mass_viol} off-diagonal-bound violations; "
        f"{len(applicable)} reports with eps <= 1/4, {spec_viol} spectral-bound violations",
    )
    assert ok, line


def test_check_10_projector_distances_shrink(xxz_runs):
    trail = xxz_runs[0.8]["proj"]
    viol = sum(1 for i in range(1, len(trail)) if trail[i] > trail[i - 1] + 1e-6)
    ok = len(trail) >= 100 and viol == 0 and trail[-1] < 1e-2
    line = record_acceptance(
        10,
        "projector distances non-increasing",
        ok,
        f"{len(trail)} samples every 100 iters, {viol} increases beyond 1e-6, "
        f"final {trail[-1]:.2e} < 1e-2",
    )
    assert ok, line


def test_check_11_commutator_closure_dimensions():
    t0 = time.perf_counter()
    dims = {}
    for n, prefix in (
        (3, [("rot", 0.4, "XII")]),
        (4, [("rot", 0.4, "XIII"), ("s", 1)]),
    ):
        rng = np.random.default_rng(5)
        c = rng.normal(size=n + 1)
        c /= np.linalg.norm(c)
        d = rng.uniform(0.5, 1.5, size=n)
        h, _, _ = build_example_hams(n, 0.7, c, d, clifford_prefix=prefix)
        gens = [p for p, _ in h.items() if p != PauliString.identity(n)]
        dims[n] = lie_closure_dim(gens, cap=4**n).dim
    gen_ok = all(generating_set_check(n) for n in (3, 4, 5))
    wall = time.perf_counter() - t0
    ok = dims[3] == 63 and dims[4] == 255 and gen_ok and wall < 120.0
    line = record_acceptance(
        11,
        "closure dimensions and generating sets",
        ok,
        f"dims {dims[3]}/63 and {dims[4]}/255, generating sets pass for n=3,4,5, "
        f"{wall:.1f}s < 120s",
    )
    assert ok, line


def test_check_12_coordinate_descent_consistency():
    rng = np.random.default_rng(7)
    worst_trace = 0.0
    worst_cache = 0.0
    for n, d in ((2, 3), (2, 4), (3, 5), (3, 8), (3, 11)):
        h, kp, s = random_instance(rng, n, d)
        lr = LRSchedule.constant(1e-4)
        tr_r = run_rcd(
            h, kp, OptConfig(max_iters=40, lr=lr, block_size=2 * d, seed=0, stop_tol=0.0), s
        )
        tr_g = run_gd(h, kp, OptConfig(max_iters=40, lr=lr, stop_tol=0.0), s)
        assert len(tr_r.records) == len(tr_g.records)
        for a, b in zip(tr_r.records, tr_g.records):
            for va, vb in (
                (a.F_total, b.F_total),
                (a.f_value, b.f_value),
                (a.penalty, b.penalty),
                (a.grad_norm, b.grad_norm),
            ):
                worst_trace = max(worst_trace, abs(va - vb) / max(1.0, abs(vb)))
        tr_s = run_rcd(
            h, kp, OptConfig(max_iters=150, lr=lr, block_size=3, seed=1, stop_tol=0.0), s
        )
        # the cached cost after 150 small-block steps against a fresh evaluation
        last, fresh = tr_s.records[-1], eval_F(h, tr_s.final_params, s)
        for va, vb in ((last.f_value, fresh.f_value), (last.penalty, fresh.penalty)):
            worst_cache = max(worst_cache, abs(va - vb) / abs(vb))
    ok = worst_trace <= 1e-10 and worst_cache <= 1e-9
    line = record_acceptance(
        12,
        "full-block runs equal full-gradient runs; caches stay exact",
        ok,
        f"max per-iteration trace diff {worst_trace:.2e} <= 1e-10 on 5 instances; "
        f"small-block cached f and penalty within {worst_cache:.2e} <= 1e-9 (relative) "
        f"of a fresh evaluation",
    )
    assert ok, line


def test_check_13_per_iteration_cost_separation():
    rng = np.random.default_rng(99)
    n, d = 6, 64
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=n)]
    hw = rng.choice(len(words) - 1, size=13, replace=False) + 1
    h = PauliSum(n, [(parse(words[i]), c) for i, c in zip(hw, rng.uniform(-1, 1, 13))])
    aw = rng.choice(len(words), size=d, replace=False)
    ansatz = tuple(sorted(parse(words[i]) for i in aw))
    r = rng.uniform(0.2, 1.0, d)
    r /= np.linalg.norm(r)
    theta = rng.uniform(0.0, 2 * np.pi, d)
    kp = KParams(ansatz, r, theta)
    s = build_support_sets(h, ansatz)

    def median_iter_wall(runner, iters, **kw):
        cfg = OptConfig(
            max_iters=iters, lr=LRSchedule.constant(1e-6), stop_tol=0.0, grad_tol=0.0, **kw
        )
        tr = runner(h, kp, cfg, s)
        return float(np.median([rec.wall_time for rec in tr.records]))

    median_iter_wall(run_gd, 3)
    median_iter_wall(run_rcd, 20, block_size=4, seed=0)
    best = 0.0
    for _ in range(3):  # wall-clock medians; retry absorbs scheduler noise
        gd = median_iter_wall(run_gd, 30)
        rcd = median_iter_wall(run_rcd, 1000, block_size=4, seed=1)
        best = max(best, gd / rcd)
        if best >= 5.0:
            break
    ok = best >= 5.0
    line = record_acceptance(
        13,
        "small-block iterations at least 5x cheaper",
        ok,
        f"median wall ratio {best:.1f}x >= 5x at n=6, d=64, blocks of 4",
    )
    assert ok, line
