"""Normalized gradient descent and randomized coordinate descent.

Both optimizers walk x_{t+1} = (r(y_t)/||r(y_t)||, theta(y_t)) with
y_t = x_t - a_t g_t, in one shared loop that owns the stop tests, the trace
records and the final params. Inside it r and theta are plain arrays: the
ansatz/Hamiltonian check runs once at entry and KParams is built once, for
final_params. Only the step differs. GD uses the full exact
gradient recomputed from scratch every iteration (dense, algebra or table
path, chosen once at entry by cost._path). RCD samples S of the 2d
coordinates uniformly without replacement and steps only those, on the path
a full evaluation takes. On the dense and algebra paths (the matrix
engines) a sampled step is one evaluation with the gradient by the routine
cost._path returns, at the loop's params, with the partials outside S
zeroed: GD's cost per step, with no caches and no product tables. On the
table path the sampled partials come from cached tables (the rows W of the
K'[HK | K] grid and the slot-weighted real coefficients of K'HK and K'K)
and the same fused partial rows as a full table evaluation, on the rows of
the sampled ansatz indices only: O(|S| (|hk| + d)) instead of
O(d (|hk| + d)). After every step the caches are rebuilt from scratch at
the new params, so they never drift; OptTrace.refresh_drifts stays empty
and drift_max reads 0.0.

With S = 2d the sampled set is always the full coordinate set, so one RCD
iteration reproduces one GD iteration (same step, seed-independent); run_rcd
takes GD's step in that case.

Both optimizers reject at entry a start whose ||r|| is not within
cost.UNIT_NORM_TOL of 1 (a NaN norm included) or whose theta is not finite.

The step size is OptConfig.lr or, when that is None, the automatic constant
step min(base, 1.2 F0 / ||g0||^2) from the start point's cost F0 and full
gradient norm ||g0||, the base being GD_DEFAULT_LR (0.05) or RCD_DEFAULT_LR
(0.1). The shared loop computes it at iteration 0 and nowhere else. GD and
full-block RCD read F0 and ||g0|| off their own evaluation. Sampled RCD
hands the loop a full hook, GD's full evaluation (_full_grad), so F0 and
||g0|| are cost.eval_grad's on every path; the start is then evaluated
twice, once for the hook and once for the first sampled step (on the table
path, for the caches).

Every run returns its trace, and trace.stop_reason says how it ended:
"converged" (F < stop_tol), "stationary" (gradient norm below grad_tol;
sampled RCD confirms it on the full norm through the same hook),
"max_iters", "non_finite" (F, the gradient norm or the start's full gradient
norm is NaN or infinite, so a sampled run whose start gradient overflows
stops at iteration 0 even when its sampled block is finite) or
"radial_collapse" (||r(y_t)|| below RADIAL_COLLAPSE_TOL, where the
normalized step is undefined). The stopping iteration is recorded, and
final_params are the params it was evaluated at.

Per-iteration trace records: for RCD the recorded grad_norm / alpha_estimate
cover the sampled coordinates only, also in a record that stopped on the
full norm; at S = 2d they equal the full quantities.
alpha_estimate is log(||g||^2/4) / log F, the local Lojasiewicz exponent read
off with mu = 1; it is NaN when F is 0 or 1 or the gradient vanishes.
wall_time is stamped after the evaluation, the stop tests and y_t, before
the update: it leaves out the renormalization and, on the table path,
RCD's cache rebuild.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .cost import (
    UNIT_NORM_TOL, KParams, _check, _evaluate_sparse, _grad_norm, _partial_rows, _path,
    _table_values,
)
from .cost import eval_grad  # noqa: F401  (bench/pipeline.py traces optimize.eval_grad)
from .operators import PauliSum, SupportSets, build_support_sets

RADIAL_COLLAPSE_TOL = 1e-14


@dataclass(frozen=True)
class LRSchedule:
    """Step sizes a_t = a / (1 + rate * t); rate 0 is the constant step a."""

    a: float
    rate: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise ValueError(f"step size {self.a} outside (0, 1)")
        if not (math.isfinite(self.rate) and self.rate >= 0.0):
            raise ValueError(f"decay rate {self.rate} must be a finite nonnegative number")

    @classmethod
    def constant(cls, a: float) -> "LRSchedule":
        return cls(a)

    @classmethod
    def decay(cls, a0: float, rate: float) -> "LRSchedule":
        return cls(a0, rate)

    def at(self, t: int) -> float:
        """The step size a_t; at rate 0 this is a / 1.0, which is a exactly."""
        return self.a / (1.0 + self.rate * t)


@dataclass(frozen=True)
class OptConfig:
    max_iters: int
    # None -> the automatic step min(base, 1.2 F0 / ||g0||^2), base
    # GD_DEFAULT_LR or RCD_DEFAULT_LR
    lr: LRSchedule | None = None
    block_size: int = 4
    seed: int = 0
    stop_tol: float = 1e-10
    grad_tol: float = 1e-12

    def __post_init__(self):
        for name in ("max_iters", "block_size"):
            value = getattr(self, name)
            # bool is an Integral, and True would run as 1
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.block_size < 1:
            raise ValueError("block_size must be positive")
        if not (self.stop_tol >= 0 and self.grad_tol >= 0):
            raise ValueError("tolerances must be nonnegative numbers")


GD_DEFAULT_LR = LRSchedule.constant(0.05)
RCD_DEFAULT_LR = LRSchedule.constant(0.1)


def _auto_lr(base: LRSchedule, total: float, grad_norm: float) -> LRSchedule:
    """Constant step scaled to the start point: min(base, 1.2 F0 / ||g0||^2).

    The quartic cost has no global curvature bound, so the base step is kept
    only when the start gradient is shallow enough for it; steep starts get
    the smaller quadratic-model estimate. A ratio that is not a positive
    finite number (a zero or overflowing gradient norm) keeps the base.
    """
    if grad_norm > 0.0:
        step = 1.2 * total / grad_norm**2
        if 0.0 < step < base.a:
            return LRSchedule.constant(step)
    return base


def estimate_alpha(f_total: float, grad_norm: float) -> float:
    """Local Lojasiewicz exponent with mu = 1: ||grad F||^2 = 4 F^alpha.

    NaN marks the undefined cases (F = 0, F = 1, zero gradient)."""
    if not (f_total > 0.0) or f_total == 1.0 or not (grad_norm > 0.0):
        return math.nan
    return math.log(grad_norm * grad_norm / 4.0) / math.log(f_total)


def rolling_median(values, window: int = 20) -> list[float]:
    """Trailing-window median, NaN-aware; NaN where the window is all-NaN."""
    if window < 1:
        raise ValueError(f"window must be positive, got {window}")
    out = []
    vals = list(values)
    for i in range(len(vals)):
        chunk = [v for v in vals[max(0, i - window + 1) : i + 1] if not math.isnan(v)]
        out.append(float(np.median(chunk)) if chunk else math.nan)
    return out


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


@dataclass
class TraceRecord:
    iteration: int
    F_total: float
    f_value: float
    penalty: float
    grad_norm: float
    alpha_estimate: float
    r_norm_pre_normalization: float
    wall_time: float

    def as_dict(self) -> dict:
        """The record as strict JSON values: NaN and infinities are None."""
        return {
            "iter": self.iteration,
            "F_total": _finite_or_none(self.F_total),
            "f_value": _finite_or_none(self.f_value),
            "penalty": _finite_or_none(self.penalty),
            "grad_norm": _finite_or_none(self.grad_norm),
            "alpha_estimate": _finite_or_none(self.alpha_estimate),
            "r_norm_pre_normalization": _finite_or_none(self.r_norm_pre_normalization),
        }


@dataclass
class OptTrace:
    records: list[TraceRecord] = field(default_factory=list)
    final_params: KParams | None = None
    stop_reason: str = ""
    # the RCD caches are rebuilt every step and never drift, so this stays
    # empty and drift_max reads 0.0; bench/pipeline.py still reads both
    refresh_drifts: list[float] = field(default_factory=list)

    @property
    def drift_max(self) -> float:
        return max(self.refresh_drifts, default=0.0)

    def save_jsonl(self, path) -> None:
        # wall times are not deterministic, so they stay out of the file;
        # identical inputs then give byte-identical traces
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec.as_dict()) + "\n")


def _support_for(h: PauliSum, kp0: KParams, support: SupportSets | None) -> SupportSets:
    """Entry checks shared by both optimizers; returns the support tables."""
    # written so that a NaN norm fails it
    if not abs(kp0.r_norm - 1.0) <= UNIT_NORM_TOL:
        raise ValueError(f"initial amplitudes must be unit norm, got ||r|| = {kp0.r_norm}")
    bad = np.flatnonzero(~np.isfinite(kp0.theta))
    if len(bad):
        raise ValueError(f"initial phases must be finite, got theta[{bad[0]}] = "
                         f"{kp0.theta[bad[0]]}")
    if support is None:
        return build_support_sets(h, kp0.ansatz)
    _check(h, kp0, support)
    return support


def _full_grad(s: SupportSets):
    """GD's step: the exact full gradient at (r, theta), with its norm."""
    evaluate = _path(s)

    def grad(r, theta):
        f, penalty, gr, gt = evaluate(s, r, theta, True)
        return f, penalty, gr, gt, _grad_norm(gr, gt)

    return grad


def _drive(kp0: KParams, cfg: OptConfig, base: LRSchedule, grad,
           full=None, advance=None) -> OptTrace:
    """The loop GD and RCD share, on plain r and theta arrays.

    grad(r, theta) returns (f, penalty, grad_r, grad_theta, grad_norm).
    full(r, theta), given when grad samples, is the full evaluation, with
    grad's signature; without it grad is the full evaluation. The loop calls
    it at iteration 0, for the automatic step from base (cfg.lr None) and
    the start's finiteness, and to confirm a sampled norm below grad_tol before
    a "stationary" stop (a sampled block can have zero partials away from
    stationarity).
    advance(y_r, y_theta, nr), when given, moves the caches across the step
    and returns the new (r, theta), which are otherwise (y_r / nr, y_theta).
    Every way the run ends is a stop reason, a step whose ||r(y)|| falls
    below RADIAL_COLLAPSE_TOL ("radial_collapse") included: the stopping
    iteration is recorded, advance is not called for it, and
    trace.final_params (the one KParams built) is the point it evaluated."""
    trace = OptTrace()
    r, theta = kp0.r, kp0.theta
    t0 = time.perf_counter()
    start = f_value, penalty, gr, gt, gnorm = grad(r, theta)
    f0, p0, _, _, g0 = start if full is None else full(r, theta)
    lr = cfg.lr if cfg.lr is not None else _auto_lr(base, f0 + p0, g0)
    for t in range(cfg.max_iters + 1):
        total = f_value + penalty
        if not (math.isfinite(total) and math.isfinite(gnorm) and math.isfinite(g0)):
            stop = "non_finite"
        elif total < cfg.stop_tol:
            stop = "converged"
        elif gnorm < cfg.grad_tol and (full is None or full(r, theta)[4] < cfg.grad_tol):
            stop = "stationary"
        elif t == cfg.max_iters:
            stop = "max_iters"
        else:
            stop = ""
        # sqrt(x . x) is np.linalg.norm's own formula for a real vector
        if stop:
            nr = math.sqrt(r.dot(r))
        else:
            a = lr.at(t)
            y_r = r - a * gr
            y_theta = theta - a * gt
            nr = math.sqrt(y_r.dot(y_r))
            if nr < RADIAL_COLLAPSE_TOL:
                stop = "radial_collapse"
        trace.records.append(
            TraceRecord(
                iteration=t,
                F_total=total,
                f_value=f_value,
                penalty=penalty,
                grad_norm=gnorm,
                alpha_estimate=estimate_alpha(total, gnorm),
                r_norm_pre_normalization=nr,
                wall_time=time.perf_counter() - t0,
            )
        )
        if stop:
            trace.stop_reason = stop
            break
        if advance is None:
            r, theta = y_r / nr, y_theta
        else:
            r, theta = advance(y_r, y_theta, nr)
        t0 = time.perf_counter()
        f_value, penalty, gr, gt, gnorm = grad(r, theta)

    trace.final_params = kp0.with_params(r, theta)
    return trace


# an overflow anywhere in a run reads inf or NaN, which the loop stops on
# ("non_finite"), so numpy's warnings about it would only be noise
@np.errstate(over="ignore", invalid="ignore")
def run_gd(
    h: PauliSum, kp0: KParams, cfg: OptConfig, support: SupportSets | None = None
) -> OptTrace:
    """Algorithm: full-gradient descent with per-step amplitude renormalization."""
    s = _support_for(h, kp0, support)
    return _drive(kp0, cfg, GD_DEFAULT_LR, _full_grad(s))


# --- sampled steps for RCD ---------------------------------------------------


def _kept(d: int, coords: np.ndarray, part: np.ndarray):
    """(grad_r, grad_theta, norm): the partials part at the distinct
    coordinate indices coords (r_j for coords < d, theta_(j-d) otherwise),
    zeros elsewhere, and the norm of part."""
    out = np.zeros(2 * d)
    out[coords] = part
    return out[:d], out[d:], math.sqrt(part.dot(part))


def _sampled_step(s: SupportSets, evaluate):
    """A sampled step on a matrix engine: step(r, theta, coords) is one
    evaluation with the gradient by evaluate (cost._evaluate_dense or
    _evaluate_algebra) at (r, theta), returning (f, penalty, grad_r,
    grad_theta, norm) with only the partials at coords kept. It needs no
    caches and no product table."""

    def step(r, theta, coords):
        f, penalty, gr, gt = evaluate(s, r, theta, True)
        return (f, penalty, *_kept(s.d, coords, np.concatenate((gr, gt))[coords]))

    return step


# the table path's coefficient caches


class IncrementalState:
    """The table path's values at the current params (r, theta), from
    cost._table_values: the K'[HK | K] grid's rows w, the real coefficients
    over [closure | identity | g2] times slot_scale (u), f_value and penalty.

    sparse_grad reads them to compute a sampled block of partials;
    apply_update adopts a step and refresh rebuilds every table from scratch
    with the routine the table evaluator uses, so the tables always equal a
    fresh evaluation at (r, theta)."""

    def __init__(self, s: SupportSets, r: np.ndarray, theta: np.ndarray):
        self.s = s
        self.r = np.array(r, dtype=float)
        self.theta = np.array(theta, dtype=float)
        self.refresh()

    def refresh(self) -> None:
        """Rebuild every table from scratch at (r, theta)."""
        self.w, v, self.f_value, self.penalty = _table_values(self.s, self.r, self.theta)
        self.u = v * self.s.slot_scale

    def sparse_grad(self, coords: np.ndarray):
        """Exact partials for the distinct sampled coordinate indices (r_j
        for coords < d, theta_{j-d} otherwise), zeros elsewhere. Each sampled
        coordinate reads its own row j of the K'[HK | K] grid, j being its
        ansatz index, so a sampled pair (r_j, theta_j) reads row j twice."""
        d = self.s.d
        coords = np.asarray(coords)
        J = coords % d
        z = _partial_rows(self.s, self.theta, self.w, self.u, J)
        return _kept(d, coords, np.where(coords < d, z.real, self.r[J] * z.imag))

    def apply_update(self, y_r: np.ndarray, y_theta: np.ndarray,
                     nr: float) -> tuple[np.ndarray, np.ndarray]:
        """Adopt the step to (y_r / nr, y_theta), rebuild the tables and
        return the new (r, theta)."""
        # r uses the same division as GD's step
        self.r = y_r / nr
        self.theta = np.array(y_theta, dtype=float)
        self.refresh()
        return self.r, self.theta


@np.errstate(over="ignore", invalid="ignore")
def run_rcd(
    h: PauliSum, kp0: KParams, cfg: OptConfig, support: SupportSets | None = None
) -> OptTrace:
    """Randomized coordinate descent over the 2d coordinates (r, theta).

    Each iteration samples block_size coordinates uniformly without
    replacement, steps them with their exact partials, then renormalizes r.
    Where cost._path(s) is a matrix engine (dense or algebra path), a
    sampled step is one evaluation with the gradient by that routine at the
    loop's (r, theta), its partials outside the sample zeroed
    (_sampled_step). On the table path the partials come from the
    coefficient caches (IncrementalState.sparse_grad), and each step is
    adopted through IncrementalState.apply_update. The loop reads F and the
    full gradient norm for the automatic step, the start's finiteness and
    the stationary test off GD's full evaluation, so they equal eval_grad's.
    block_size = 2d always samples every coordinate, so that case takes
    GD's full-gradient step outright (bit-identical trajectory, no
    sampling, no caches)."""
    s = _support_for(h, kp0, support)
    d = s.d
    if cfg.block_size > 2 * d:
        raise ValueError(f"block_size {cfg.block_size} exceeds 2d = {2 * d}")
    full = _full_grad(s)
    if cfg.block_size == 2 * d:
        return _drive(kp0, cfg, RCD_DEFAULT_LR, full)
    evaluate = _path(s)
    if evaluate is _evaluate_sparse:
        state = IncrementalState(s, kp0.r, kp0.theta)

        def step(r, theta, coords):
            # the caches hold the loop's (r, theta); the arguments are not read
            return (state.f_value, state.penalty, *state.sparse_grad(coords))

        advance = state.apply_update
    else:
        step, advance = _sampled_step(s, evaluate), None
    rng = np.random.default_rng(cfg.seed)

    def sampled_grad(r, theta):
        return step(r, theta, rng.choice(2 * d, size=cfg.block_size, replace=False))

    return _drive(kp0, cfg, RCD_DEFAULT_LR, sampled_grad, full, advance)
