"""Half-scale map on normal-form states, iteration, and classification.

One step: compute the moments of the current normal form, project the
indicator's correction to scale 1/2, add it (and an optional perturbation
modeling the neglected lower-order terms) to the scaled form, and bring
the sum back to normal form.  All three terms are diagonal in the state's
frame, so that is a sort of the new diagonal and a permutation of the
frame's columns, with no eigendecomposition.  Iteration classifies
trajectories into converged / escaped / exhausted; the escape criterion is
leaving the small-delta ball.
"""

import csv
import io
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import InitVar, asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .correction import from_fourier_block, scale_projection
from .errors import DegeneracyError, DomainError, EscapeError
from .moments import compute_moments, fourier_block2
from .quadratic import DEFAULT_KAPPA0, DeltaState, normal_form, normal_form_diagonal
# Its only reader is perfbench/layertrace.py, which wraps this name; nothing calls it.
from .quadratic import diagonalize

NOISE_MODES = ("off", "random", "adversarial")


@dataclass
class MapConfig:
    """Configuration of the half-scale map."""

    n: int
    gamma: float = 0.1
    alpha: float = 0.2
    c_noise: float = 0.0
    noise: str = "off"
    seed: int = 0
    C_gamma: float = None
    kappa0: float = DEFAULT_KAPPA0
    tol_conv: float = 1e-9
    # accepted and ignored for perfbench/, the only caller that passes it;
    # an InitVar is not a field, so to_dict() and equality never see it
    order: InitVar[int] = None

    def __post_init__(self, order):
        if self.n < 2:
            raise DomainError("n must be >= 2")
        if not (0.0 < self.gamma < 0.125):
            raise DomainError("gamma must lie in (0, 1/8)")
        if not (0.0 < self.alpha < 0.25):
            raise DomainError("alpha must lie in (0, 1/4)")
        if self.c_noise < 0.0:
            raise DomainError("noise amplitude must be >= 0")
        if self.noise not in NOISE_MODES:
            raise DomainError(f"noise mode must be one of {NOISE_MODES}")

    def effective_C_gamma(self):
        if self.C_gamma is not None:
            return self.C_gamma
        return calibrate_threshold_constant(self.n, self.gamma)

    def to_dict(self):
        return asdict(self)


def _noise_diagonal(state, cfg, rng):
    """Trace-free diagonal perturbation with sup-norm c_noise * tau^-alpha."""
    n = cfg.n
    if cfg.noise == "off" or cfg.c_noise == 0.0:
        return np.zeros(n)
    bound = cfg.c_noise * state.tau ** (-cfg.alpha)
    if cfg.noise == "adversarial":
        # push the largest delta up and the x_{n-1} coefficient down
        xi = np.zeros(n)
        if n == 2:
            xi[0], xi[1] = bound, -bound
        else:
            j = int(np.argmax(state.delta))
            xi[j] = bound
            xi[n - 2] = -bound
        return xi
    raw = rng.standard_normal(n)
    raw -= raw.mean()
    peak = np.abs(raw).max()
    if peak == 0.0:
        return np.zeros(n)
    return bound * raw / peak


def _step_detail(state, cfg, rng=None):
    """One half-scale step, returning the new state and its ingredients.

    The new state is returned whether or not it is inside the kappa0 ball;
    callers decide what leaving it means from `new_state.in_small_ball`.
    """
    if state.n != cfg.n:
        raise DomainError("state and config dimensions differ")
    if not state.in_small_ball:
        raise DomainError("half_step requires the state inside the kappa0 ball")
    if state.tau <= 1.0:
        raise DomainError("half_step requires tau > 1")

    m = compute_moments(state.delta, cfg.n)
    z_half = scale_projection(from_fourier_block(fourier_block2(m)), 0.5)
    if rng is None and cfg.noise == "random":
        rng = np.random.Generator(np.random.Philox(key=np.uint64(cfg.seed)))
    xi = _noise_diagonal(state, cfg, rng)

    diag_new = (
        state.tau * normal_form_diagonal(state.delta) + np.diag(z_half.coeff) + xi
    )
    diag_new -= diag_new.mean()  # the rounding-level trace of the sum
    order = np.argsort(diag_new, kind="stable")
    new_state = normal_form(diag_new[order], state.Q[:, order], cfg.kappa0)
    return new_state, m, z_half, xi


def half_step(state, cfg, rng=None):
    """Apply the half-scale map once.

    Raises EscapeError, carrying the new state, when the step leaves the
    kappa0 ball; DomainError when `state` is outside the ball or tau <= 1.
    """
    new_state, _, _, _ = _step_detail(state, cfg, rng)
    if not new_state.in_small_ball:
        raise EscapeError(
            f"|delta| = {np.linalg.norm(new_state.delta):.6f} left the "
            f"kappa0 = {cfg.kappa0} ball",
            state=new_state,
        )
    return new_state


@dataclass(frozen=True)
class MonotonicityReport:
    """Predicate evaluation for one step of the dynamics."""

    sum_ci: float
    regime: str  # "negative", "positive", or "zero"
    threshold: float
    exceeds_threshold: bool
    ratio_before: float
    ratio_after: float
    deltajclaim_holds: bool
    negdelta_holds: bool = None  # None when no negative minimum applies


def check_monotonicity(state, next_state, cfg, moments_at_state=None):
    """Evaluate the ratio-growth predicates between consecutive states.

    In the sum(C_i) < 0 regime the claim is that max(delta)/(1-delta_tilde)
    strictly increases once max(delta) exceeds C_gamma tau^-gamma, and that
    a negative minimal entry's ratio strictly decreases; the mirrored
    regime reverses the inequalities.
    """
    m = moments_at_state or compute_moments(state.delta, cfg.n)
    sum_ci = m.C
    threshold = cfg.effective_C_gamma() * state.tau ** (-cfg.gamma)
    d0, d1 = state.delta, next_state.delta
    dt0, dt1 = 1.0 - state.delta_tilde, 1.0 - next_state.delta_tilde
    if cfg.n == 2:
        return MonotonicityReport(sum_ci, "zero", threshold, False, 0.0, 0.0, True)

    if sum_ci < 0.0:
        regime = "negative"
        exceeds = d0.max() > threshold
        before, after = d0.max() / dt0, d1.max() / dt1
        claim = after > before
        neg = None
        if d0.min() < 0.0:
            neg = (d1.min() / dt1) < (d0.min() / dt0)
    elif sum_ci > 0.0:
        regime = "positive"
        exceeds = -d0.min() > threshold
        before, after = d0.min() / dt0, d1.min() / dt1
        claim = after < before
        neg = None
        if d0.max() > 0.0:
            neg = (d1.max() / dt1) > (d0.max() / dt0)
    else:
        regime = "zero"
        exceeds = False
        before = after = d0.max() / dt0
        claim = True
        neg = None
    return MonotonicityReport(
        sum_ci, regime, threshold, exceeds, float(before), float(after), claim, neg
    )


@lru_cache(maxsize=32)
def calibrate_threshold_constant(n, gamma, tau=10.0):
    """Smallest constant making the threshold implication pass on a canned sweep.

    Evaluates the regime-appropriate ratio claim for one half-step at
    tau = 10 over a log-spaced sweep of single-direction and mixed
    perturbations; returns max over failures of |extreme delta| * tau^gamma
    (0.0 when the claim holds everywhere, as it does for the clean map).
    """
    if n == 2:
        return 0.0
    # C_gamma pinned to 0 here: the threshold is only read by the report,
    # not by the claims the calibration scans for.
    cfg = MapConfig(n=n, gamma=gamma, C_gamma=0.0)
    worst = 0.0
    magnitudes = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 5e-2, 1e-1, 1.5e-1)
    patterns = [1.0, -1.0, 0.5]
    for s in magnitudes:
        for pat in patterns:
            delta = np.zeros(n - 2)
            delta[0] = s * (1.0 if pat > 0 else -1.0)
            if pat == 0.5 and n > 3:
                delta[1] = -0.5 * s
            state = DeltaState(n=n, tau=tau, delta=delta, kappa0=cfg.kappa0)
            if not state.in_small_ball:
                continue
            try:
                new_state, m, _, _ = _step_detail(state, cfg)
            except DegeneracyError:
                continue
            if not new_state.in_small_ball:
                continue
            report = check_monotonicity(state, new_state, cfg, moments_at_state=m)
            if report.regime == "negative" and not report.deltajclaim_holds:
                worst = max(worst, state.delta.max() * tau**gamma)
            if report.regime == "positive" and not report.deltajclaim_holds:
                worst = max(worst, -state.delta.min() * tau**gamma)
    return worst


@dataclass(frozen=True)
class StepRow:
    k: int
    tau: float
    delta: np.ndarray
    ratio: float
    cum_abs_ddelta: float
    defect: float


@dataclass(frozen=True)
class Classification:
    kind: str  # "converged", "escaped", "exhausted"
    step: int = None
    delta_inf: np.ndarray = None
    fitted_C: float = None


@dataclass
class TrajectoryRecord:
    """Recorded trajectory of the iterated half-scale map."""

    config: MapConfig
    steps: list = field(default_factory=list)
    classification: Classification = None
    error: str = None
    tau_monotone: bool = True
    monotonicity: list = None

    def taus(self):
        return np.array([r.tau for r in self.steps])

    def deltas(self):
        return np.array([r.delta for r in self.steps])

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        n = self.config.n
        writer.writerow(
            ["k", "tau"]
            + [f"delta_{i+1}" for i in range(n - 2)]
            + ["ratio", "sum_abs_ddelta", "defect"]
        )
        for row in self.steps:
            writer.writerow(
                [row.k, f"{row.tau:.17g}"]
                + [f"{d:.17g}" for d in row.delta]
                + [
                    f"{row.ratio:.17g}",
                    f"{row.cum_abs_ddelta:.17g}",
                    f"{row.defect:.17g}",
                ]
            )
        return buf.getvalue()

    def manifest(self):
        cls = self.classification
        return {
            "config": self.config.to_dict(),
            "steps_recorded": len(self.steps),
            "classification": None
            if cls is None
            else {
                "kind": cls.kind,
                "step": cls.step,
                "delta_inf": None if cls.delta_inf is None else list(cls.delta_inf),
                "fitted_C": cls.fitted_C,
            },
            "error": self.error,
            "tau_monotone": self.tau_monotone,
        }


def iterate(state0, cfg, max_steps, record_monotonicity=False):
    """Iterate the half-scale map, recording and classifying the trajectory.

    Classification: "escaped" when a step leaves the kappa0 ball;
    "converged" when the per-step delta movement summed over the last
    quarter of the run stays below tol_conv (with the partial sums'
    domination constant against sum tau_k^(-1-gamma) fitted and recorded);
    "exhausted" otherwise.

    The step that leaves the ball is recorded like every other step, with
    its row and, when asked for, its monotonicity report from the moments
    the step computed; the run then ends as "escaped".  Two errors from a
    step are absorbed into the record: DegeneracyError or DomainError end
    the run as "exhausted" with the message in `rec.error`.  Any other
    exception, such as EvaluationError, numpy's LinAlgError or an
    EscapeError raised inside a step, propagates to the caller.
    """
    if max_steps < 1:
        raise DomainError("max_steps must be >= 1")
    rng = (
        np.random.Generator(np.random.Philox(key=np.uint64(cfg.seed)))
        if cfg.noise == "random"
        else None
    )
    rec = TrajectoryRecord(config=cfg, monotonicity=[] if record_monotonicity else None)

    def push(k, state, cum):
        rec.steps.append(
            StepRow(
                k=k,
                tau=state.tau,
                delta=state.delta.copy(),
                ratio=state.ratio(),
                cum_abs_ddelta=cum,
                defect=state.consistency_defect,
            )
        )

    state = state0
    cum = 0.0
    push(0, state, cum)
    if not state0.in_small_ball:
        rec.classification = Classification(kind="escaped", step=0)
        return rec

    increments = []
    for k in range(1, max_steps + 1):
        try:
            new_state, m, _, _ = _step_detail(state, cfg, rng)
        except (DegeneracyError, DomainError) as exc:
            rec.error = str(exc)
            rec.classification = Classification(kind="exhausted", step=k)
            return rec
        if record_monotonicity:
            rec.monotonicity.append(
                check_monotonicity(state, new_state, cfg, moments_at_state=m)
            )
        if new_state.tau <= state.tau:
            rec.tau_monotone = False
        inc = float(np.linalg.norm(new_state.delta - state.delta))
        increments.append(inc)
        cum += inc
        push(k, new_state, cum)
        if not new_state.in_small_ball:
            rec.classification = Classification(kind="escaped", step=k)
            return rec
        state = new_state

    taus = rec.taus()[:-1]
    bounds = np.cumsum(taus ** (-1.0 - cfg.gamma))
    partials = np.cumsum(increments)
    with np.errstate(divide="ignore", invalid="ignore"):
        fitted = float(np.max(partials / bounds)) if len(partials) else 0.0
    tail_start = max(len(increments) - max(len(increments) // 4, 1), 0)
    tail = float(np.sum(increments[tail_start:]))
    if tail < cfg.tol_conv:
        rec.classification = Classification(
            kind="converged",
            step=len(rec.steps) - 1,
            delta_inf=state.delta.copy(),
            fitted_C=fitted,
        )
    else:
        rec.classification = Classification(
            kind="exhausted", step=len(rec.steps) - 1, fitted_C=fitted
        )
    return rec


def _sweep_cell(args):
    idx, tau0, delta0, cfg, max_steps = args
    state = DeltaState(
        n=cfg.n, tau=tau0, delta=np.asarray(delta0), kappa0=cfg.kappa0
    )
    rec = iterate(state, cfg, max_steps)
    last = rec.steps[-1]
    cls = rec.classification
    return (
        idx,
        {
            "tau0": tau0,
            "delta0": list(np.atleast_1d(delta0)),
            "classification": cls.kind,
            "step": cls.step,
            "final_tau": last.tau,
            "final_ratio": last.ratio,
        },
    )


def default_workers():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep(tau0_values, delta0_values, cfg, max_steps, workers=None):
    """Classify a grid of initial conditions; rows ordered by cell index.

    Cells run in parallel across processes; results are keyed by index so
    the table is independent of the worker count.
    `workers` defaults to `default_workers()`; below 1 is a ValueError.
    """
    workers = default_workers() if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = []
    idx = 0
    for tau0 in tau0_values:
        for d0 in delta0_values:
            tasks.append((idx, float(tau0), np.atleast_1d(d0), cfg, max_steps))
            idx += 1
    results = [None] * len(tasks)
    if workers == 1 or len(tasks) == 1:
        for t in tasks:
            i, row = _sweep_cell(t)
            results[i] = row
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, row in pool.map(_sweep_cell, tasks, chunksize=4):
                results[i] = row
    return results


def sweep_to_csv(rows, n):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["tau0"]
        + [f"delta0_{i+1}" for i in range(n - 2)]
        + ["classification", "step", "final_tau", "final_ratio"]
    )
    for row in rows:
        writer.writerow(
            [f"{row['tau0']:.17g}"]
            + [f"{d:.17g}" for d in row["delta0"]]
            + [
                row["classification"],
                "" if row["step"] is None else row["step"],
                f"{row['final_tau']:.17g}",
                f"{row['final_ratio']:.17g}",
            ]
        )
    return buf.getvalue()
