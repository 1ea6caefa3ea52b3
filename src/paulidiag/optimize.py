"""Normalized gradient descent and randomized coordinate descent.

Both optimizers walk x_{t+1} = (r(y_t)/||r(y_t)||, theta(y_t)) with
y_t = x_t - a_t g_t, in one shared loop that owns the stop tests, the trace
records, radial collapse and the final params. Inside it r and theta are
plain arrays: the ansatz/Hamiltonian check runs once at entry and KParams is
built once, for final_params. Only the step differs. GD uses the full exact
gradient recomputed from scratch every iteration (dense or table path, chosen
once at entry). RCD samples S of the 2d coordinates uniformly without
replacement and computes only those partials, from cached coefficient tables
(K'HK over the closure, H*K over its support, phi over g2): the off-diagonal
part costs |g1| S instead of |g1| d. After every step the caches are rebuilt
from scratch at the new params, so they never drift; OptTrace.refresh_drifts
stays empty and drift_max reads 0.0.

With S = 2d the sampled set is always the full coordinate set, so one RCD
iteration reproduces one GD iteration (same step, seed-independent); run_rcd
takes GD's step in that case.

Stop reasons: "converged" (F < stop_tol), "stationary" (gradient norm below
grad_tol; RCD confirms it on the full gradient), "max_iters" and
"non_finite" (F or the gradient norm is NaN or infinite; that iteration is
recorded and final_params are the params it was evaluated at). A radial
collapse raises RadialCollapseError carrying the trace so far.

Per-iteration trace records: for RCD the recorded grad_norm / alpha_estimate
cover the sampled coordinates only; at S = 2d they equal the full quantities.
alpha_estimate is log(||g||^2/4) / log F, the local Lojasiewicz exponent read
off with mu = 1; it is NaN when F is 0 or 1 or the gradient vanishes.
wall_time is stamped after the evaluation, the stop tests and y_t, before
the update: it leaves out the renormalization and RCD's cache rebuild.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cost import KParams, _add_penalty_grad, _check, _evaluator
from .cost import eval_grad  # noqa: F401  (bench/pipeline.py traces optimize.eval_grad)
from .operators import PauliSum, SupportSets, build_support_sets

RADIAL_COLLAPSE_TOL = 1e-14


class RadialCollapseError(RuntimeError):
    """The pre-normalization amplitude norm fell below 1e-14; the normalized
    iteration is undefined from here."""

    def __init__(self, iteration: int, norm: float, trace: "OptTrace"):
        self.iteration = iteration
        self.norm = norm
        self.trace = trace
        super().__init__(
            f"radial collapse at iteration {iteration}: ||r(y)|| = {norm:.3e}"
        )


@dataclass(frozen=True)
class LRSchedule:
    """Step sizes a_t: constant a, or decaying a0 / (1 + rate * t)."""

    kind: str
    a: float
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "decay"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not 0.0 < self.a < 1.0:
            raise ValueError(f"step size {self.a} outside (0, 1)")
        if self.rate < 0.0:
            raise ValueError(f"decay rate {self.rate} must be nonnegative")

    @classmethod
    def constant(cls, a: float) -> "LRSchedule":
        return cls("constant", a)

    @classmethod
    def decay(cls, a0: float, rate: float) -> "LRSchedule":
        return cls("decay", a0, rate)


def lr_schedule_eval(schedule: LRSchedule, t: int) -> float:
    if schedule.kind == "constant":
        return schedule.a
    return schedule.a / (1.0 + schedule.rate * t)


@dataclass(frozen=True)
class OptConfig:
    max_iters: int
    lr: LRSchedule | None = None  # None -> 0.05 constant for GD, 0.1 for RCD
    block_size: int = 4
    seed: int = 0
    stop_tol: float = 1e-10
    grad_tol: float = 1e-12

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.block_size < 1:
            raise ValueError("block_size must be positive")
        if not (self.stop_tol >= 0 and self.grad_tol >= 0):
            raise ValueError("tolerances must be nonnegative numbers")


GD_DEFAULT_LR = LRSchedule.constant(0.05)
RCD_DEFAULT_LR = LRSchedule.constant(0.1)


def estimate_alpha(f_total: float, grad_norm: float) -> float:
    """Local Lojasiewicz exponent with mu = 1: ||grad F||^2 = 4 F^alpha.

    NaN marks the undefined cases (F = 0, F = 1, zero gradient)."""
    if not (f_total > 0.0) or f_total == 1.0 or not (grad_norm > 0.0):
        return math.nan
    return math.log(grad_norm * grad_norm / 4.0) / math.log(f_total)


def rolling_median(values, window: int = 20) -> list[float]:
    """Trailing-window median, NaN-aware; NaN where the window is all-NaN."""
    out = []
    vals = list(values)
    for i in range(len(vals)):
        chunk = [v for v in vals[max(0, i - window + 1) : i + 1] if not math.isnan(v)]
        out.append(float(np.median(chunk)) if chunk else math.nan)
    return out


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

    def as_dict(self, include_wall_time: bool = False) -> dict:
        out = {
            "iter": self.iteration,
            "F_total": self.F_total,
            "f_value": self.f_value,
            "penalty": self.penalty,
            "grad_norm": self.grad_norm,
            "alpha_estimate": None
            if math.isnan(self.alpha_estimate)
            else self.alpha_estimate,
            "r_norm_pre_normalization": self.r_norm_pre_normalization,
        }
        if include_wall_time:
            out["wall_time"] = self.wall_time
        return out


@dataclass
class OptTrace:
    records: list[TraceRecord] = field(default_factory=list)
    final_params: KParams | None = None
    stop_reason: str = ""
    # the RCD caches are rebuilt every step and never drift, so this stays
    # empty and drift_max reads 0.0; bench/pipeline.py still reads both
    refresh_drifts: list[float] = field(default_factory=list)

    @property
    def final_cost(self) -> float:
        return self.records[-1].F_total if self.records else math.nan

    @property
    def drift_max(self) -> float:
        return max(self.refresh_drifts, default=0.0)

    def alpha_medians(self, window: int = 20) -> list[float]:
        return rolling_median((rec.alpha_estimate for rec in self.records), window)

    def save_jsonl(self, path) -> None:
        # wall times are not deterministic, so they stay out of the file;
        # identical inputs then give byte-identical traces
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec.as_dict()) + "\n")


def _support_for(h: PauliSum, kp0: KParams, support: SupportSets | None) -> SupportSets:
    """Entry checks shared by both optimizers; returns the support tables."""
    if abs(kp0.r_norm - 1.0) > 1e-8:
        raise ValueError(f"initial amplitudes must be unit norm, got ||r|| = {kp0.r_norm}")
    if support is None:
        return build_support_sets(h, kp0.ansatz)
    _check(h, kp0, support)
    return support


def _full_grad(s: SupportSets):
    """GD's step: the exact full gradient at (r, theta), with its norm."""
    evaluate = _evaluator(s)

    def grad(r, theta):
        f, penalty, gr, gt = evaluate(r, theta, True)
        return f, penalty, gr, gt, float(np.sqrt(np.dot(gr, gr) + np.dot(gt, gt)))

    return grad


def _drive(kp0: KParams, cfg: OptConfig, lr: LRSchedule, grad,
           stationary=None, advance=None) -> OptTrace:
    """The loop GD and RCD share, on plain r and theta arrays.

    grad(r, theta) returns (f, penalty, grad_r, grad_theta, grad_norm);
    stationary() confirms a gradient norm below grad_tol before the run stops
    on it; advance(y_r, y_theta, nr), when given, moves the caches across
    the step and returns the new (r, theta), which are otherwise
    (y_r / nr, y_theta).
    KParams is built once, for trace.final_params."""
    trace = OptTrace()
    r, theta = kp0.r, kp0.theta
    for t in range(cfg.max_iters + 1):
        t0 = time.perf_counter()
        f_value, penalty, gr, gt, gnorm = grad(r, theta)
        total = f_value + penalty
        if not (math.isfinite(total) and math.isfinite(gnorm)):
            stop = "non_finite"
        elif total < cfg.stop_tol:
            stop = "converged"
        elif gnorm < cfg.grad_tol and (stationary is None or stationary()):
            stop = "stationary"
        elif t == cfg.max_iters:
            stop = "max_iters"
        else:
            stop = ""
        if stop:
            nr = float(np.linalg.norm(r))
        else:
            a = lr_schedule_eval(lr, t)
            y_r = r - a * gr
            y_theta = theta - a * gt
            nr = float(np.linalg.norm(y_r))
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
        if nr < RADIAL_COLLAPSE_TOL:
            trace.stop_reason = "radial_collapse"
            trace.final_params = kp0.with_params(r, theta)
            raise RadialCollapseError(t, nr, trace)
        if advance is None:
            r, theta = y_r / nr, y_theta
        else:
            r, theta = advance(y_r, y_theta, nr)

    trace.final_params = kp0.with_params(r, theta)
    return trace


def run_gd(
    h: PauliSum, kp0: KParams, cfg: OptConfig, support: SupportSets | None = None
) -> OptTrace:
    """Algorithm: full-gradient descent with per-step amplitude renormalization."""
    s = _support_for(h, kp0, support)
    lr = cfg.lr if cfg.lr is not None else GD_DEFAULT_LR
    return _drive(kp0, cfg, lr, _full_grad(s))


# --- coefficient caches for RCD ---------------------------------------------


class IncrementalState:
    """Coefficient tables of K'HK, H*K and phi at the current params.

    sparse_grad reads them to compute a sampled block of partials;
    apply_update adopts a step and refresh rebuilds every table from scratch
    with the SupportSets routines the table evaluator uses, so the tables
    always equal a fresh evaluation at (r, theta)."""

    def __init__(self, s: SupportSets, r: np.ndarray, theta: np.ndarray):
        self.s = s
        self.two_n = float(2**s.n)
        # ansatz-major copies of the gradient tables: a sampled block reads a
        # few contiguous rows instead of gathering strided columns
        self._grad_phase_by_j = np.ascontiguousarray(s.grad_phase.T)
        self._grad_tgt_by_j = np.ascontiguousarray(s.grad_tgt.T)
        self.r = np.array(r, dtype=float)
        self.theta = np.array(theta, dtype=float)
        self.refresh()

    def refresh(self) -> None:
        """Rebuild every table from scratch at (r, theta)."""
        s = self.s
        k = s.k_coeffs(self.r, self.theta)
        self.hk = s.hk_vector(k)
        self.khk = s.khk_vector(k, self.hk)
        self.phi = s.phi_vector(self.r, self.theta)
        t = self.two_n * self.khk[s.g1_closure_idx].real
        self.f_value = float(np.sum(t * t))
        self.penalty = float(np.sum(self.phi.real**2 + self.phi.imag**2))

    def sparse_grad(self, coords: np.ndarray):
        """Exact partials for the sampled coordinate indices (r_j for
        coords < d, theta_{j-d} otherwise), zeros elsewhere."""
        s = self.s
        d = s.d
        r, theta = self.r, self.theta
        coords = np.asarray(coords)
        J = np.unique(coords % d)

        t = self.two_n * self.khk[s.g1_closure_idx].real
        # the transpose has the memory order of a column gather s.grad_phase[:, J],
        # which keeps the matmul below summing in the same order
        W = (self._grad_phase_by_j[J] * self.hk[self._grad_tgt_by_j[J]]).T
        W = W * (self.two_n * np.exp(-1j * theta[J]))[None, :]
        tw = np.zeros(d, dtype=complex)
        tw[J] = t.astype(complex) @ W
        gr = 4.0 * tw.real
        gt = 4.0 * r * tw.imag
        if len(s.phi_p):
            # only the phi entries with an end in J reach the sampled partials
            in_j = np.zeros(d, dtype=bool)
            in_j[J] = True
            _add_penalty_grad(s, r, theta, self.phi, gr, gt, in_j[s.phi_j] | in_j[s.phi_jp])

        out = np.zeros(2 * d)
        out[coords] = np.concatenate([gr, gt])[coords]
        gr, gt = out[:d], out[d:]
        return gr, gt, float(np.sqrt(np.dot(gr, gr) + np.dot(gt, gt)))

    def apply_update(self, y_r: np.ndarray, y_theta: np.ndarray, nr: float) -> None:
        """Adopt the step to (y_r / nr, y_theta) and rebuild the tables."""
        # r uses the same division as GD's step
        self.r = y_r / nr
        self.theta = np.array(y_theta, dtype=float)
        self.refresh()


def run_rcd(
    h: PauliSum, kp0: KParams, cfg: OptConfig, support: SupportSets | None = None
) -> OptTrace:
    """Randomized coordinate descent over the 2d coordinates (r, theta).

    Each iteration samples block_size coordinates uniformly without
    replacement, steps them with exact partials from the coefficient caches,
    then renormalizes r. block_size = 2d always samples every coordinate, so
    that case takes GD's full-gradient step outright (bit-identical
    trajectory, no sampling, no caches)."""
    s = _support_for(h, kp0, support)
    d = s.d
    if cfg.block_size > 2 * d:
        raise ValueError(f"block_size {cfg.block_size} exceeds 2d = {2 * d}")
    lr = cfg.lr if cfg.lr is not None else RCD_DEFAULT_LR
    if cfg.block_size == 2 * d:
        return _drive(kp0, cfg, lr, _full_grad(s))
    rng = np.random.default_rng(cfg.seed)
    state = IncrementalState(s, kp0.r, kp0.theta)

    def sampled_grad(r, theta):
        # the caches hold the loop's (r, theta); the arguments are not read
        coords = rng.choice(2 * d, size=cfg.block_size, replace=False)
        gr, gt, gnorm = state.sparse_grad(coords)
        return state.f_value, state.penalty, gr, gt, gnorm

    def stationary():
        # a sampled block can have zero partials away from stationarity,
        # so confirm against the full gradient before stopping
        return state.sparse_grad(np.arange(2 * d))[2] < cfg.grad_tol

    def advance(y_r, y_theta, nr):
        state.apply_update(y_r, y_theta, nr)
        return state.r, state.theta

    return _drive(kp0, cfg, lr, sampled_grad, stationary, advance)
