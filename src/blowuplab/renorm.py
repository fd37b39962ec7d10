"""Half-scale map on normal-form states, iteration, and classification.

One step: compute the moments of the current normal form, project the
indicator's correction to scale 1/2, add it (and an optional perturbation
modeling the neglected lower-order terms) to the scaled form, and bring
the sum back to normal form.  All three terms are diagonal in the state's
frame, so that is a sort of the new diagonal and a permutation of the
frame's columns, with no eigendecomposition.

Cells advance in lock-step: `_advance` takes one step for a whole block of
states held as arrays, tau (B,) and delta (B, n-2), with one kernel call
for all their moments, and `_Block` runs a block step by step and
classifies each cell as converged / escaped / exhausted, the escape
criterion being leaving the small-delta ball of `MapConfig.in_ball`.  No
frame rides in the block: a step reports each cell's column order, and only
`_step_detail`, behind `half_step` and the `map` command, turns it into a
new frame, `DeltaState` and `MomentSet`.  `iterate` is a block of one
that builds its rows and reports in one pass after the run, `sweep` one
block per worker (this process runs the first), and `_step_detail` one
step of a block of one.  Each cell's numbers are bit for bit the same
whatever cells share its block.  Every state a step takes is in the
frozen config's ball, so inside |delta| < 1/2 where moments are defined.
"""

import math
import os
import traceback
from dataclasses import InitVar, asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DegeneracyError, DomainError, EscapeError
from .moments import MomentSet, compute_moments, csv_table, fourier_diagonal, moment_block
from .quadratic import (
    DeltaState,
    check_start,
    delta_norms,
    delta_ratios,
    normal_form_diagonal,
    normal_forms,
    normal_frame,
)
# Its only reader is perfbench/layertrace.py, which wraps this name; nothing calls it.
from .quadratic import diagonalize
from .sphere import philox, seed_key

NOISE_MODES = ("off", "random", "adversarial")


@dataclass(frozen=True)
class MapConfig:
    """Configuration of the half-scale map; a field out of its domain is a DomainError.

    c_noise, tol_conv and a C_gamma other than None must be finite, the seed
    an integer in [0, 2^64).  Frozen, so a config checked once stays valid:
    its kappa0 ball lies inside |delta| < 1/2 for the object's whole life."""

    n: int
    gamma: float = 0.1
    alpha: float = 0.2
    c_noise: float = 0.0
    noise: str = "off"
    seed: int = 0
    C_gamma: float = None
    kappa0: float = 0.2
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
        if not (0.0 <= self.c_noise < math.inf):
            raise DomainError("noise amplitude must be >= 0 and finite")
        if self.noise not in NOISE_MODES:
            raise DomainError(f"noise mode must be one of {NOISE_MODES}")
        seed_key(self.seed)  # philox's test, with no stream built
        # the moments the step takes are defined for |delta| < 1/2
        if not (0.0 < self.kappa0 <= 0.5):
            raise DomainError("kappa0 must lie in (0, 1/2]")
        if not math.isfinite(self.tol_conv):
            raise DomainError("tol_conv must be finite")
        if self.C_gamma is not None and not math.isfinite(self.C_gamma):
            raise DomainError("C_gamma must be finite or None")

    def in_ball(self, delta):
        """Whether |delta| < kappa0, for one delta (n-2,) or each row of a stack (B, n-2).

        The one test of the small-delta ball: a state outside it is an
        escape, whichever entry point meets it.
        """
        return delta_norms(delta) < self.kappa0

    def effective_C_gamma(self):
        if self.C_gamma is not None:
            return self.C_gamma
        return calibrate_threshold_constant(self.n, self.gamma, self.kappa0)

    def to_dict(self):
        return asdict(self)


def _noise_diagonal(tau, delta, cfg, rng):
    """Trace-free diagonal perturbations, one row per cell, of sup-norm c_noise * tau^-alpha.

    Random noise draws one vector from `rng` for the whole block: the cells
    of one configuration share its seed and draw once a step, so the row of
    every cell is what a generator of its own would give it.
    """
    n = cfg.n
    xi = np.zeros((tau.shape[0], n))
    if cfg.noise == "off" or cfg.c_noise == 0.0:
        return xi
    # Python's float power, cell by cell: numpy's SIMD power differs from it
    # in the last bit
    bound = np.array([cfg.c_noise * t ** (-cfg.alpha) for t in tau.tolist()])
    if cfg.noise == "adversarial":
        # push the largest delta up and the x_{n-1} coefficient down
        if n == 2:
            xi[:, 0], xi[:, 1] = bound, -bound
        else:
            xi[np.arange(tau.shape[0]), np.argmax(delta, axis=1)] = bound
            xi[:, n - 2] = -bound
        return xi
    raw = rng.standard_normal(n)
    raw -= raw.mean()
    peak = np.abs(raw).max()
    if peak == 0.0:
        return xi
    return bound[:, None] * raw / peak


@dataclass
class _Step:
    """One half-scale step of a block of cells; row j belongs to cell j.

    `tau`, `delta` and `defect` are the new normal forms, and `order` (B, n)
    the old frame's columns in the order of the new values, ascending; `b`,
    `b_i`, `c` and `c_i` the moments at the old ones; `z` the correction's
    projection at scale 1/2 and `xi` the noise, both as diagonals in the old
    frames.  `failed` maps each cell the step cannot take to the error that
    says why; that cell's rows are meaningless.
    """

    tau: np.ndarray
    delta: np.ndarray
    order: np.ndarray
    defect: np.ndarray
    b: np.ndarray
    b_i: np.ndarray
    c: np.ndarray
    c_i: np.ndarray
    z: np.ndarray
    xi: np.ndarray
    failed: dict

    def take(self, rows):
        """The step of the cells `rows` selects (of cell j alone for an int)."""
        return _Step(
            **{
                name: value if name == "failed" else value[rows]
                for name, value in vars(self).items()
            }
        )


def _advance(tau, delta, cfg, rng=None):
    """One half-scale step for a block of cells: tau (B,), delta (B, n-2).

    Precondition, which the step does not test: `cfg.in_ball(delta)` on
    every row, so |delta| < 1/2 where the moments are defined.  One kernel
    call gives all cells' moments and the rest is array arithmetic on the
    block, from one normal-form diagonal.  The step reports two errors per
    cell, each in `failed` for its cell alone and in this order of
    precedence: tau <= 1, a DomainError, and a new diagonal with no
    negative value, a DegeneracyError.  Kernel columns that fail
    `moment_block`'s check raise AssertionError for the block.  `rng` is
    the block's random-noise generator, drawn once.
    """
    n = cfg.n
    p = normal_form_diagonal(delta)
    b, b_i, c, c_i = moment_block(p)
    # the correction q = block / (n+2) (`correction.from_fourier_block`) at
    # scale 1/2 is q ln(1/2) (`correction.scale_projection`)
    z = fourier_diagonal(b, b_i, n) * (1.0 / (n + 2)) * math.log(0.5)
    xi = _noise_diagonal(tau, delta, cfg, rng)

    diag = tau[:, None] * p + z + xi
    diag -= diag.sum(axis=1, keepdims=True) / n  # the rounding-level trace of the sum
    order = np.argsort(diag, axis=1, kind="stable")
    tau_new, delta_new, defect, failed = normal_forms(diag[np.arange(tau.shape[0])[:, None], order])
    for j in np.flatnonzero(tau <= 1.0).tolist():
        failed[j] = DomainError("half_step requires tau > 1")
    return _Step(tau_new, delta_new, order, defect, b, b_i, c, c_i, z, xi, failed)


def _step_detail(state, cfg):
    """One half-scale step of one state (`_advance` on a block of one).

    Returns the new state, the moment set at `state`, the correction's
    projection at scale 1/2 as its diagonal in `state`'s frame and the noise
    diagonal.  The new state is returned whether or not it is inside the
    kappa0 ball; callers decide what leaving it means from `cfg.in_ball`.
    Raises DomainError when `state` is outside the ball, and the error
    `_advance` reports for the state (tau <= 1 or no negative value).
    """
    if state.n != cfg.n:
        raise DomainError("state and config dimensions differ")
    if not cfg.in_ball(state.delta):
        raise DomainError("half_step requires the state inside the kappa0 ball")
    rng = philox(cfg.seed) if cfg.noise == "random" else None
    step = _advance(np.array([float(state.tau)]), state.delta[None], cfg, rng).take(0)
    if step.failed:
        raise step.failed[0]
    frame = normal_frame(state.Q[:, step.order])
    new_state = DeltaState(cfg.n, float(step.tau), step.delta, frame, float(step.defect))
    m = MomentSet(cfg.n, state.delta, float(step.b), step.b_i, float(step.c), step.c_i)
    return new_state, m, step.z, step.xi


def half_step(state, cfg):
    """Apply the half-scale map once.

    Raises EscapeError, carrying the new state, when the step leaves the
    kappa0 ball; DomainError when `state` is outside the ball or tau <= 1.
    """
    new_state, _, _, _ = _step_detail(state, cfg)
    if not cfg.in_ball(new_state.delta):
        raise EscapeError(
            f"|delta| = {np.linalg.norm(new_state.delta):.6f} left the "
            f"kappa0 = {cfg.kappa0} ball",
            state=new_state,
        )
    return new_state


class _Block:
    """Cells of one configuration run in lock-step, one `_advance` a step.

    Built from copies of the cells' starts, tau (B,) and delta (B, n-2),
    which the entry points have checked; the block holds no frame, which no
    step reads.  A start outside `cfg`'s ball is an escape at step 0.
    The block's arrays, one row per cell, are the only home of its cells'
    runs.  After `run`, `tau` and `delta` hold each cell's last recorded
    state (its start, or the state after its last step, the one that left
    the ball included), `cum` and `tail` its delta movements summed over the
    run and listed over its last quarter, and `tau_monotone` whether its tau
    rose on every step; `kind`, `step` and `error` say how its run ended.
    """

    def __init__(self, tau, delta, cfg):
        self.cfg = cfg
        self.tau = np.array(tau, dtype=np.float64)
        self.delta = np.array(delta, dtype=np.float64).reshape(self.tau.size, cfg.n - 2)
        self.kind = [None if inside else "escaped" for inside in cfg.in_ball(self.delta).tolist()]
        self.step = [0] * self.tau.size
        self.error = [None] * self.tau.size
        self.tau_monotone = np.ones(self.tau.size, dtype=bool)
        self.cum = np.zeros(self.tau.size)

    def run(self, max_steps, on_step=None):
        """Step every live cell until it leaves the ball, fails a step or has taken max_steps.

        The classification rule: leaving the ball is "escaped" at that step;
        a step error (see `_advance`) is "exhausted" at that step, with its
        message in `error`; a cell that takes every step is "converged" when
        its delta movement summed over the last quarter of the run stays
        below tol_conv, "exhausted" otherwise.  Each step gathers the rows
        of the live cells, a sorted index, and writes the step's rows back.
        `on_step(k, cells, step)` is called after each step with the cells
        that took it and the `_Step` whose rows are theirs, once the
        block's rows (`cum` included) hold it.
        """
        if max_steps < 1:
            raise DomainError("max_steps must be >= 1")
        cfg = self.cfg
        rng = philox(cfg.seed) if cfg.noise == "random" else None
        width = max(max_steps // 4, 1)  # the last quarter of the run
        self.tail = np.zeros((self.tau.size, width))
        live = np.array([i for i, kind in enumerate(self.kind) if kind is None], dtype=np.intp)
        for k in range(1, max_steps + 1):
            if not live.size:
                return
            tau, delta = self.tau[live], self.delta[live]
            step = _advance(tau, delta, cfg, rng)
            if step.failed:
                ok = np.ones(live.size, dtype=bool)
                for j, exc in step.failed.items():
                    ok[j] = False
                    self.kind[live[j]], self.step[live[j]] = "exhausted", k
                    self.error[live[j]] = str(exc)
                live, tau, delta, step = live[ok], tau[ok], delta[ok], step.take(ok)
            inc = delta_norms(step.delta - delta)
            self.tau_monotone[live] &= ~(step.tau <= tau)
            self.cum[live] += inc
            if k > max_steps - width:
                self.tail[live, k - 1 - max_steps] = inc  # column -1 is step max_steps
            self.tau[live], self.delta[live] = step.tau, step.delta
            if on_step is not None and live.size:
                on_step(k, live, step)
            inside = cfg.in_ball(step.delta)
            for cell in live[~inside].tolist():
                self.kind[cell], self.step[cell] = "escaped", k
            live = live[inside]
        converged = self.tail[live].sum(axis=1) < cfg.tol_conv
        for cell, conv in zip(live.tolist(), converged.tolist()):
            self.kind[cell] = "converged" if conv else "exhausted"
            self.step[cell] = max_steps


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


def _predicates(tau, d0, d1, sum_ci, cfg):
    """The ratio-growth predicates of a block of steps, one entry a cell.

    tau (B,) and d0 (B, n-2) are the states before the steps, d1 (B, n-2)
    the deltas after them and sum_ci (B,) the sum(C_i) before them.  The
    mirrored regime, sum(C_i) > 0, is the negative one applied to -delta
    with each ratio's sign restored; negation and division are exact, so
    every value is bit for bit that of a branch of its own.  Returns the
    fields of `MonotonicityReport` after sum_ci; negdelta_holds is None in
    the zero regime and where the negative regime's d0 has no entry < 0.
    """
    c_gamma = cfg.effective_C_gamma()
    threshold = np.array([c_gamma * t ** (-cfg.gamma) for t in tau.tolist()])
    mirrored, negative = sum_ci > 0.0, sum_ci < 0.0
    if cfg.n == 2:  # no delta: every cell is in the zero regime, with ratios 0
        mirrored = negative = np.zeros(tau.size, dtype=bool)
        d0 = d1 = np.zeros((tau.size, 1))
    sign = 1.0 - 2.0 * mirrored
    d = np.array((d0, d1))  # (2, B, n-2): before and after
    e = sign[:, None] * d  # the negative regime's deltas
    dt = 1.0 - d.sum(axis=2)
    top, low = e.max(axis=2), e.min(axis=2)
    (before, after), (low_before, low_after) = top / dt, low / dt
    regime = np.array(["zero", "positive", "negative"])[mirrored + 2 * negative]
    moving = mirrored | negative
    exceeds = moving & (top[0] > threshold)
    after = np.where(moving, after, before)
    claim = ~moving | (after > before)
    neg = np.where(moving & (low[0] < 0.0), low_after < low_before, None)
    return regime, threshold, exceeds, sign * before, sign * after, claim, neg


def check_monotonicity(state, next_state, cfg, moments_at_state=None):
    """Evaluate the ratio-growth predicates between consecutive states.

    In the sum(C_i) < 0 regime the claim is that max(delta)/(1-delta_tilde)
    strictly increases once max(delta) exceeds C_gamma tau^-gamma, and that
    a negative minimal entry's ratio strictly decreases; the mirrored
    regime reverses the inequalities.  It reads the states' tau and delta
    only: `_predicates` on one row, bit for bit the row `iterate` records
    for the step; the moments at `state` are computed when not given.
    """
    m = moments_at_state or compute_moments(state.delta, cfg.n)
    fields = _predicates(
        np.array([float(state.tau)]), state.delta[None], next_state.delta[None], np.array([m.C]), cfg
    )
    return MonotonicityReport(float(m.C), *(value.tolist()[0] for value in fields))


def calibrate_threshold_constant(n, gamma, kappa0=MapConfig.kappa0):
    """Smallest constant making the threshold implication pass on a canned sweep.

    Evaluates the regime-appropriate ratio claim for one half-step at
    tau = 10 over a log-spaced sweep of single-direction and mixed
    perturbations inside the map's kappa0 ball, all stepped as one block;
    returns max over failures of |extreme delta| * tau^gamma (0.0 when the
    claim holds everywhere, as it does for the clean map).  Steps that have
    no normal form or leave the ball are skipped.  The result is cached
    once per (n, gamma, kappa0), however the arguments are passed;
    `cache_info` and `cache_clear` are that cache's.
    """
    return _calibrated(n, gamma, kappa0)


@lru_cache(maxsize=32)
def _calibrated(n, gamma, kappa0):
    if n == 2:
        return 0.0
    tau = 10.0
    # C_gamma pinned to 0 here: the threshold is only read by the report,
    # not by the claims the calibration scans for.
    cfg = MapConfig(n=n, gamma=gamma, C_gamma=0.0, kappa0=kappa0)
    magnitudes = np.array([1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 5e-2, 1e-1, 1.5e-1])
    # each magnitude on the first axis with either sign, then mixed with
    # half its opposite on the second (the first alone at n = 3)
    delta = np.zeros((magnitudes.size, 3, n - 2))
    delta[:, :, 0] = magnitudes[:, None] * [1.0, -1.0, 1.0]
    if n > 3:
        delta[:, 2, 1] = -0.5 * magnitudes
    delta = delta.reshape(-1, n - 2)
    delta = delta[cfg.in_ball(delta)]
    taus = np.full(len(delta), tau)
    step = _advance(taus, delta, cfg)
    for exc in step.failed.values():
        if not isinstance(exc, DegeneracyError):
            raise exc
    kept = cfg.in_ball(step.delta)
    kept[list(step.failed)] = False
    regime, _, _, _, _, claim, _ = _predicates(taus, delta, step.delta, step.c, cfg)
    extreme = np.where(regime == "positive", -delta.min(axis=1), delta.max(axis=1))
    failing = kept & (regime != "zero") & ~claim
    return float(np.max(extreme[failing] * tau**gamma, initial=0.0))


calibrate_threshold_constant.cache_info = _calibrated.cache_info
calibrate_threshold_constant.cache_clear = _calibrated.cache_clear


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
        deltas = [f"delta_{i+1}" for i in range(self.config.n - 2)]
        rows = ([r.k, r.tau, *r.delta, r.ratio, r.cum_abs_ddelta, r.defect] for r in self.steps)
        return csv_table(["k", "tau", *deltas, "ratio", "sum_abs_ddelta", "defect"], rows)

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

    The run is a block of one (see `_Block.run` for the classification
    rule).  Classification: "escaped" at step 0 when `state0` is outside the
    kappa0 ball of `cfg.in_ball`, and at the step that leaves it otherwise;
    "converged" when the per-step delta movement summed over the last
    quarter of the run stays below tol_conv (with the partial sums'
    domination constant against sum tau_k^(-1-gamma) fitted and recorded);
    "exhausted" otherwise.

    Each step keeps its tau, delta, defect, sum(C_i) and the block's `cum`;
    after the run the rows (row 0 the start), their ratios (one
    `delta_ratios` call), the monotonicity reports when asked for (one
    `_predicates` call, each bit for bit `check_monotonicity`) and the fit
    come from those lists.  The step that leaves the ball is recorded like
    every other step; the run then ends as "escaped".  The two errors a
    step reports for its cell (tau <= 1 and no negative value) end the run
    as "exhausted" with the message in `rec.error`.  Exceptions, such as
    EvaluationError, numpy's LinAlgError or the AssertionError of moments
    that fail their checks, propagate to the caller, and so does the
    DomainError of a state whose dimension is not cfg.n.
    """
    if state0.n != cfg.n:
        raise DomainError("state and config dimensions differ")
    block = _Block([state0.tau], state0.delta[None], cfg)
    # one entry a recorded state, the start first; sum_ci one a step
    taus, deltas, cums, defects = [state0.tau], [state0.delta], [0.0], [state0.consistency_defect]
    sum_ci = []

    def record(k, cells, step):
        taus.append(float(step.tau[0]))
        deltas.append(step.delta[0])
        cums.append(float(block.cum[0]))
        defects.append(float(step.defect[0]))
        sum_ci.append(float(step.c[0]))

    block.run(max_steps, record)
    tau, deltas = np.array(taus), np.array(deltas)
    rows = zip(taus, deltas, delta_ratios(deltas).tolist(), cums, defects)
    rec = TrajectoryRecord(cfg, error=block.error[0], tau_monotone=bool(block.tau_monotone[0]))
    rec.steps = [StepRow(k, *row) for k, row in enumerate(rows)]
    rec.monotonicity = [] if record_monotonicity else None
    if record_monotonicity and sum_ci:  # a run with no step calibrates nothing
        fields = _predicates(tau[:-1], deltas[:-1], deltas[1:], np.array(sum_ci), cfg)
        rows = zip(sum_ci, *(value.tolist() for value in fields))
        rec.monotonicity = [MonotonicityReport(*row) for row in rows]
    kind, step = block.kind[0], block.step[0]
    if kind == "escaped" or rec.error is not None:
        rec.classification = Classification(kind=kind, step=step)
        return rec

    bounds = np.cumsum(tau[:-1] ** (-1.0 - cfg.gamma))
    with np.errstate(divide="ignore", invalid="ignore"):
        fitted = float(np.max(np.array(cums[1:]) / bounds))
    delta_inf = block.delta[0].copy() if kind == "converged" else None
    rec.classification = Classification(kind=kind, step=step, delta_inf=delta_inf, fitted_C=fitted)
    return rec


def _sweep_block(args):
    """Sweep rows of a block of cells, run in lock-step."""
    cells, cfg, max_steps = args
    block = _Block([tau0 for tau0, _ in cells], [delta0 for _, delta0 in cells], cfg)
    block.run(max_steps)
    return [
        {
            "tau0": tau0,
            "delta0": list(delta0),
            "classification": kind,
            "step": step,
            "final_tau": tau,
            "final_ratio": ratio,
        }
        for (tau0, delta0), kind, step, tau, ratio in zip(
            cells, block.kind, block.step, block.tau.tolist(), delta_ratios(block.delta).tolist()
        )
    ]


class _WorkerTraceback(Exception):
    """A sweep worker's traceback as text (a pickled exception loses its own), raised as the
    cause of the worker's exception, as `concurrent.futures` raises its `_RemoteTraceback`."""


def _sweep_child(send, task):
    """A worker process's body: send (True, rows) of its block, or (False, (exc, its traceback))."""
    try:
        result = True, _sweep_block(task)
    except Exception as exc:  # the caller re-raises it
        result = False, (exc, traceback.format_exc())
    send.send(result)


def default_workers():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep(tau0_values, delta0_values, cfg, max_steps, workers=None):
    """Classify a grid of initial conditions; rows ordered by cell index.

    The cells are cut into `workers` contiguous blocks, each run in
    lock-step (`_Block`): this process runs the first, and a forked worker
    process each other one, sending its rows back through a pipe.  Every
    row is bit for bit the cell's own `iterate`, so the table is independent
    of the worker count.  `workers` defaults to `default_workers()`; below 1
    is a ValueError.  A start that `quadratic.check_start` refuses is its
    DomainError, raised before any block runs.  A worker's exception is
    raised here, caused by a `_WorkerTraceback` with the worker's traceback
    as text; a worker that dies without sending is a RuntimeError naming
    its exit code, and no worker outlives the call.
    """
    workers = default_workers() if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cells = [(float(tau0), np.atleast_1d(d0)) for tau0 in tau0_values for d0 in delta0_values]
    for tau0, d0 in cells:
        check_start(cfg.n, tau0, d0)
    parts = min(workers, len(cells))
    if parts <= 1:
        return _sweep_block((cells, cfg, max_steps))
    cuts = [len(cells) * i // parts for i in range(parts + 1)]
    tasks = [(cells[lo:hi], cfg, max_steps) for lo, hi in zip(cuts, cuts[1:])]
    # imported here: loading the process machinery costs every import of the
    # package, and only a sweep on more than one worker uses it
    import multiprocessing

    children = []
    try:
        for task in tasks[1:]:
            recv, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_sweep_child, args=(send, task), daemon=True)
            child.start()
            children.append((child, recv))
            # only the child holds the write end now: no later child inherits
            # it, and a child that dies without sending is EOFError below
            send.close()
        rows = _sweep_block(tasks[0])
        for child, recv in children:
            try:
                ok, result = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"sweep worker died with exit code {child.exitcode}") from None
            if not ok:
                exc, text = result
                raise exc from _WorkerTraceback(text)
            rows += result
        return rows
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()


def sweep_to_csv(rows, n):
    tail = ("classification", "step", "final_tau", "final_ratio")
    deltas = [f"delta0_{i+1}" for i in range(n - 2)]
    table = ([r["tau0"], *r["delta0"], *(r[k] for k in tail)] for r in rows)
    return csv_table(["tau0", *deltas, *tail], table)
