"""Large-instance runs, excluded by default (enable with -m slow).

Ten qubits stays entirely in string space for the optimizer; only the final
error report touches dense matrices, as sector blocks. At twelve qubits the
block report is checked against the full 4096 x 4096 reference.
"""

import numpy as np
import pytest

from paulidiag.cost import KParams, eval_grad
from paulidiag.models import build_random_udu, expand_rotation_product
from paulidiag.operators import build_support_sets
from paulidiag.optimize import LRSchedule, OptConfig, run_gd
from paulidiag.verify import DENSE_MAX_QUBITS, diag_report

from test_verify import assert_report_near_reference, report_blocks, udu_instance


@pytest.mark.slow
def test_ten_qubit_warm_start_descent():
    h, u, _ = build_random_udu(10, 12, 5, seed=2)
    items = sorted(expand_rotation_product(u).items())
    strs = tuple(p for p, _ in items)
    c = np.array([v for _, v in items])
    r0 = np.abs(c)
    kp0 = KParams(strs, r0 / np.linalg.norm(r0), np.angle(c))
    rng = np.random.default_rng(17)
    r = np.abs(kp0.r + rng.uniform(-1e-2, 1e-2, kp0.d))
    theta = kp0.theta + rng.uniform(-1e-2, 1e-2, kp0.d)
    kp = kp0.with_params(r / np.linalg.norm(r), theta)

    s = build_support_sets(h, kp.ansatz)
    g0 = eval_grad(h, kp, s)
    a = 1.2 * g0.total / g0.grad_norm**2
    rep0 = diag_report(h, kp, f_value=g0.f_value, penalty=g0.penalty)
    assert rep0.frob_error == pytest.approx(2.5936, abs=1e-3)

    cfg = OptConfig(max_iters=12000, lr=LRSchedule.constant(a), stop_tol=1e-14)
    tr = run_gd(h, kp, cfg, s)
    rec = tr.records[-1]
    rep = diag_report(h, tr.final_params, f_value=rec.f_value, penalty=rec.penalty)

    assert rec.F_total < g0.total * 1e-3
    assert rep.frob_error < 6e-3
    assert rep0.frob_error / rep.frob_error > 300.0
    assert rep.offdiag_mass <= rep.bound_offdiag + 1e-10


@pytest.mark.slow
def test_sector_report_at_dense_limit():
    n = DENSE_MAX_QUBITS
    h, kp = udu_instance(n, 6)
    assert report_blocks(h, kp) == (64, 64)
    assert_report_near_reference(h, kp)
