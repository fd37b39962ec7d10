import contextlib
import dataclasses
import math
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from blowuplab import moments, renorm
from blowuplab.errors import DegeneracyError, DomainError, EscapeError, EvaluationError
from blowuplab.quadratic import (
    DeltaState,
    HarmonicQuadratic,
    diagonalize,
    make_p_delta,
    normal_form_diagonal,
)

from helpers import random_rotation

ETA = math.log(2.0) / (2.0 * math.pi)


def cfg4(**kw):
    base = dict(n=4, C_gamma=0.0)
    base.update(kw)
    return renorm.MapConfig(**base)


class TestMapConfig:
    def test_validates_exponents(self):
        with pytest.raises(DomainError):
            renorm.MapConfig(n=3, gamma=0.2)
        with pytest.raises(DomainError):
            renorm.MapConfig(n=3, alpha=0.3)
        with pytest.raises(DomainError):
            renorm.MapConfig(n=3, c_noise=-1.0)
        with pytest.raises(DomainError):
            renorm.MapConfig(n=3, noise="sometimes")

    @pytest.mark.parametrize("order", [0, 1])
    def test_validates_order(self, order):
        # since 0.10.0 `order` is only accepted, for the benchmark's call
        # form, and ignored: the config equals one without it
        cfg = renorm.MapConfig(n=4, order=order)
        assert cfg == renorm.MapConfig(n=4)
        assert "order" not in cfg.to_dict()

    @pytest.mark.parametrize("kappa0", [0.9, 0.5000001, 0.0, -1.0])
    def test_validates_kappa0(self, kappa0):
        # the step's moments need |delta| < 1/2, so a wider ball would end
        # runs in a DomainError, and kappa0 <= 0 holds no state at all
        with pytest.raises(DomainError, match="kappa0"):
            renorm.MapConfig(n=4, kappa0=kappa0)

    def test_accepts_half_ball(self):
        assert renorm.MapConfig(n=4, kappa0=0.5).kappa0 == 0.5

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_refuses_seed_philox_refuses(self, seed):
        # refused whatever the noise mode, so no run records a seed its
        # stream could not take
        with pytest.raises(DomainError, match="seed must be an integer in \\[0, 2\\^64\\)"):
            renorm.MapConfig(n=4, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.int64(3)])
    def test_accepts_every_philox_key(self, seed):
        assert renorm.MapConfig(n=4, noise="random", seed=seed).seed == seed

    @pytest.mark.parametrize("field", ["c_noise", "tol_conv", "C_gamma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_refuses_non_finite_amplitude_and_tolerance(self, field, value):
        # a NaN c_noise used to make every random-noise run "escaped", and a
        # NaN C_gamma every monotonicity threshold NaN
        with pytest.raises(DomainError, match="finite"):
            renorm.MapConfig(n=4, **{field: value})

    def test_calibrated_constant_is_zero_for_clean_map(self):
        # the clean map amplifies every nonzero delta, so the smallest
        # constant making the threshold implication pass is zero
        assert renorm.calibrate_threshold_constant(4, 0.1) == 0.0
        assert renorm.calibrate_threshold_constant(3, 0.1) == 0.0

    def test_one_calibration_per_constant(self):
        # every way of asking for the default ball's constant is one cache entry
        renorm.calibrate_threshold_constant.cache_clear()
        try:
            renorm.calibrate_threshold_constant(4, 0.1)
            renorm.calibrate_threshold_constant(4, 0.1, 0.2)
            renorm.calibrate_threshold_constant(4, 0.1, kappa0=0.2)
            renorm.MapConfig(n=4, gamma=0.1).effective_C_gamma()
            info = renorm.calibrate_threshold_constant.cache_info()
            assert (info.misses, info.hits) == (1, 3)
        finally:
            renorm.calibrate_threshold_constant.cache_clear()


class TestHalfStep:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_fixed_point(self, n):
        cfg = renorm.MapConfig(n=n, C_gamma=0.0)
        state = DeltaState(n=n, tau=10.0, delta=np.zeros(n - 2))
        new = renorm.half_step(state, cfg)
        assert new.tau - 10.0 == pytest.approx(ETA, abs=1e-10)
        if n > 2:
            assert np.abs(new.delta).max() < 1e-12

    def test_equal_entries_stay_equal(self):
        state = DeltaState(n=4, tau=10.0, delta=np.array([0.02, 0.02]))
        new = renorm.half_step(state, cfg4())
        assert abs(new.delta[0] - new.delta[1]) < 1e-12

    def test_permutation_equivariance(self):
        a = renorm.half_step(DeltaState(n=4, tau=10.0, delta=np.array([0.03, -0.01])), cfg4())
        b = renorm.half_step(DeltaState(n=4, tau=10.0, delta=np.array([-0.01, 0.03])), cfg4())
        assert a.tau == pytest.approx(b.tau, rel=1e-14)
        assert np.allclose(a.delta, b.delta, atol=1e-14)

    def test_requires_small_state(self):
        state = DeltaState(n=4, tau=10.0, delta=np.array([0.25, 0.0]))
        with pytest.raises(DomainError):
            renorm.half_step(state, cfg4())

    def test_requires_tau_above_one(self):
        state = DeltaState(n=4, tau=0.5, delta=np.zeros(2))
        with pytest.raises(DomainError):
            renorm.half_step(state, cfg4())

    def test_escape_error(self):
        state = DeltaState(n=4, tau=10.0, delta=np.array([0.1995, 0.0]))
        with pytest.raises(EscapeError):
            renorm.half_step(state, cfg4())

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DomainError, match="dimensions differ"):
            renorm.half_step(DeltaState(n=3, tau=10.0, delta=np.zeros(1)), cfg4())

    def test_step_against_monte_carlo_moments(self):
        # recompute the same step with Monte Carlo moments; the correction
        # coefficients are linear in (B, B_i) so 3 sigma propagates directly
        n, delta, tau = 4, np.array([0.05, -0.03]), 10.0
        cfg = cfg4()
        state = DeltaState(n=n, tau=tau, delta=delta)
        _, m, z_quad, _ = renorm._step_detail(state, cfg)

        b_est, bi_est = moments.mc_moment_check(delta, n, 10**7, 55555)
        bi = np.array([e.value for e in bi_est])
        se = np.array([e.std_error for e in bi_est])
        omega = 2 * math.pi**2
        z_mc = -math.log(2.0) / (2 * omega) * (n * bi - b_est.value)
        tol = math.log(2.0) / (2 * omega) * 3.0 * (n * se.max() + b_est.std_error)
        assert np.abs(z_quad - z_mc).max() <= tol

    def test_adversarial_noise_pushes_ratio(self):
        state = DeltaState(n=4, tau=10.0, delta=np.array([0.02, 0.0]))
        clean = renorm.half_step(state, cfg4())
        pushed = renorm.half_step(state, cfg4(noise="adversarial", c_noise=1.0))
        assert pushed.ratio() > clean.ratio()

    def test_random_noise_bounded_and_seeded(self):
        cfg_a = cfg4(noise="random", c_noise=1.0, seed=3, alpha=0.2)
        state = DeltaState(n=4, tau=10.0, delta=np.array([0.01, 0.0]))
        one = renorm.half_step(state, cfg_a)
        two = renorm.half_step(state, cfg_a)
        other = renorm.half_step(state, cfg4(noise="random", c_noise=1.0, seed=4))
        assert np.array_equal(one.delta, two.delta)
        assert not np.array_equal(one.delta, other.delta)
        _, _, _, xi = renorm._step_detail(state, cfg_a)
        assert np.abs(xi).max() <= 1.0 * 10.0 ** (-0.2) + 1e-15
        assert abs(xi.sum()) < 1e-15


def _ambient_state(state, z, xi):
    """Reference normal form: rotate the step's new diagonal out to the
    ambient matrix Q diag Q^T, symmetrize it and re-diagonalize it from
    scratch."""
    diag_new = state.tau * normal_form_diagonal(state.delta) + z + xi
    return diagonalize(HarmonicQuadratic.from_matrix(state.Q @ np.diag(diag_new) @ state.Q.T))


def _ambient_advance(advance, q):
    """`advance` for a block of one whose new normal forms come from
    `_ambient_state`; the frame starts at `q` and follows the reference."""
    frame = [q]

    def ambient(tau, delta, cfg, rng=None):
        step = advance(tau, delta, cfg, rng)
        before = DeltaState(n=cfg.n, tau=float(tau[0]), delta=delta[0], Q=frame[0])
        state = _ambient_state(before, step.z[0], step.xi[0])
        frame[0] = state.Q
        return dataclasses.replace(
            step,
            tau=np.array([state.tau]),
            delta=state.delta[None],
            defect=np.array([state.consistency_defect]),
        )

    return ambient


def _frame_states(n, seed):
    """States with delta = 0 (ties at n >= 5), equal components, mixed signs
    and one near the ball's edge, each in the axes' frame and in a general
    rotated frame."""
    rng = np.random.default_rng(seed)
    edge = np.zeros(n - 2)
    edge[:1] = 0.19
    deltas = [
        np.zeros(n - 2),
        np.full(n - 2, 0.02),
        rng.uniform(-0.05, 0.05, n - 2),
        edge,
    ]
    for delta in deltas:
        yield "axes", DeltaState(n=n, tau=10.0, delta=delta)
        q = (10.0 * make_p_delta(n, delta)).rotated(random_rotation(n, rng))
        yield "rotated", diagonalize(q)


def _noisy_cfg(n, noise):
    return renorm.MapConfig(
        n=n, C_gamma=0.0, noise=noise, c_noise=0.0 if noise == "off" else 0.05, seed=7
    )


class TestNormalFrameStep:
    """The step sorts the diagonal in the state's frame; it must agree with
    the ambient round trip through `diagonalize`."""

    @pytest.mark.parametrize("noise", renorm.NOISE_MODES)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_ambient_round_trip(self, n, noise):
        cfg = _noisy_cfg(n, noise)
        for frame, state in _frame_states(n, seed=n):
            new, _, z, xi = renorm._step_detail(state, cfg)
            ref = _ambient_state(state, z, xi)
            # eigh of a rotated ambient matrix is itself only good to about
            # n ulps of tau; in the axes' frame the two agree to 1e-15 tau
            tol = 1e-15 * state.tau * (1 if frame == "axes" else n)
            assert abs(new.tau - ref.tau) <= tol
            assert np.abs(new.delta - ref.delta).max(initial=0.0) <= tol
            assert np.abs(new.polynomial().coeff - ref.polynomial().coeff).max() <= 1e-12
            assert cfg.in_ball(new.delta) == cfg.in_ball(ref.delta)

    @pytest.mark.parametrize("noise", renorm.NOISE_MODES)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_classification_matches_ambient_round_trip(self, n, noise, monkeypatch):
        cfg = _noisy_cfg(n, noise)
        for _, state in _frame_states(n, seed=n):
            rec = renorm.iterate(state, cfg, 30)
            with monkeypatch.context() as patch:
                patch.setattr(renorm, "_advance", _ambient_advance(renorm._advance, state.Q))
                ref = renorm.iterate(state, cfg, 30)
            assert rec.classification.kind == ref.classification.kind
            assert rec.classification.step == ref.classification.step
            assert rec.steps[-1].tau == pytest.approx(ref.steps[-1].tau, rel=1e-13)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_no_eigendecomposition(self, n, monkeypatch):
        _, state = list(_frame_states(n, seed=1))[5]  # rotated, mixed signs

        def eigh(*args, **kwargs):
            raise AssertionError("the step called np.linalg.eigh")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        new = renorm.half_step(state, _noisy_cfg(n, "random"))
        assert new.tau > state.tau

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_no_frame_in_sweep_or_iterate(self, n, monkeypatch):
        # the block holds no frame, and the monotonicity reports and the
        # calibration read its arrays, so a sweep, an iterate with or
        # without reports and a calibration never compose one
        _, state = list(_frame_states(n, seed=1))[5]  # rotated, mixed signs

        def det(*args, **kwargs):
            raise AssertionError("the step called np.linalg.det")

        monkeypatch.setattr(np.linalg, "det", det)
        cfg = _noisy_cfg(n, "random")
        rec = renorm.iterate(state, cfg, 10)
        reported = renorm.iterate(state, cfg, 10, record_monotonicity=True)
        rows = renorm.sweep([10.0, 20.0], [state.delta, np.zeros(n - 2)], cfg, 10, workers=1)
        renorm.calibrate_threshold_constant.cache_clear()
        assert renorm.calibrate_threshold_constant(n, 0.1) == 0.0
        assert len(rec.steps) > 1
        assert len(reported.monotonicity) == len(reported.steps) - 1 > 0
        assert [row["step"] for row in rows] == [10] * 4


class TestCheckMonotonicity:
    def test_zero_delta_vacuous(self):
        cfg = cfg4()
        state = DeltaState(n=4, tau=10.0, delta=np.zeros(2))
        new = renorm.half_step(state, cfg)
        rep = renorm.check_monotonicity(state, new, cfg)
        assert not rep.exceeds_threshold
        assert rep.deltajclaim_holds

    def test_negative_regime_growth(self):
        cfg = cfg4()
        state = DeltaState(n=4, tau=10.0, delta=np.array([0.05, 0.0]))
        new = renorm.half_step(state, cfg)
        rep = renorm.check_monotonicity(state, new, cfg)
        assert rep.regime == "negative"
        assert rep.sum_ci < 0
        assert rep.deltajclaim_holds
        assert rep.ratio_after > rep.ratio_before

    def test_negative_regime_negdelta(self):
        cfg = cfg4()
        state = DeltaState(n=4, tau=10.0, delta=np.array([0.05, -0.02]))
        new = renorm.half_step(state, cfg)
        rep = renorm.check_monotonicity(state, new, cfg)
        assert rep.regime == "negative"
        assert rep.negdelta_holds

    def test_mirrored_regime(self):
        cfg = cfg4()
        state = DeltaState(n=4, tau=10.0, delta=np.array([-0.05, 0.0]))
        new = renorm.half_step(state, cfg)
        rep = renorm.check_monotonicity(state, new, cfg)
        assert rep.regime == "positive"
        assert rep.sum_ci > 0
        assert rep.deltajclaim_holds  # min-ratio strictly decreases

    def test_n2_zero_regime(self):
        # n = 2 has no delta: every step is in the zero regime, with ratios 0
        cfg = renorm.MapConfig(n=2)
        state = DeltaState(n=2, tau=10.0, delta=np.zeros(0))
        rec = renorm.iterate(state, cfg, 3, record_monotonicity=True)
        reports = [renorm.check_monotonicity(state, renorm.half_step(state, cfg), cfg)]
        reports += rec.monotonicity
        assert len(reports) == len(rec.steps) == 4
        for rep in reports:
            assert (rep.regime, rep.ratio_before, rep.ratio_after) == ("zero", 0.0, 0.0)
            assert rep.deltajclaim_holds and not rep.exceeds_threshold
            assert rep.negdelta_holds is None


class TestOneBall:
    """The kappa0 ball is the map's: every entry point asks `MapConfig.in_ball`."""

    # |delta| = 0.15 lies outside a kappa0 = 0.1 ball, inside the default one
    START = dict(n=4, tau=10.0, delta=np.array([0.15, 0.0]))

    def test_iterate_and_sweep_escape_at_start(self):
        cfg = cfg4(kappa0=0.1)
        rec = renorm.iterate(DeltaState(**self.START), cfg, 10)
        assert (rec.classification.kind, rec.classification.step) == ("escaped", 0)
        assert len(rec.steps) == 1
        (row,) = renorm.sweep([self.START["tau"]], [self.START["delta"]], cfg, 10, workers=1)
        assert (row["classification"], row["step"]) == ("escaped", 0)

    @pytest.mark.parametrize("step", [renorm.half_step, renorm._step_detail])
    def test_step_requires_state_in_ball(self, step):
        with pytest.raises(DomainError, match="kappa0 ball"):
            step(DeltaState(**self.START), cfg4(kappa0=0.1))

    def test_calibration_steps_only_states_in_the_maps_ball(self, monkeypatch):
        # the canned deltas reach |delta| = 0.15; a kappa0 = 0.1 map calls
        # those escaped at step 0, so its calibration must not step them
        cfg = cfg4(C_gamma=None, kappa0=0.1)
        stepped = []
        advance = renorm._advance

        def record(tau, delta, cfg, rng=None):
            stepped.extend(delta)
            return advance(tau, delta, cfg, rng)

        monkeypatch.setattr(renorm, "_advance", record)
        renorm.calibrate_threshold_constant.cache_clear()
        assert cfg.effective_C_gamma() == 0.0
        assert stepped and all(cfg.in_ball(delta) for delta in stepped)
        renorm.calibrate_threshold_constant.cache_clear()

    def test_in_ball_of_one_delta_and_of_a_stack(self):
        cfg = cfg4(kappa0=0.1)
        deltas = np.array([[0.15, 0.0], [0.05, -0.05], [0.1, 0.0]])
        assert cfg.in_ball(deltas).tolist() == [False, True, False]
        assert [bool(cfg.in_ball(d)) for d in deltas] == [False, True, False]


class TestIterate:
    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_refuses_non_finite_start(self, tau):
        # a NaN or infinite tau0 used to be a run "escaped" at step 1
        with pytest.raises(DomainError, match="tau must be positive and finite"):
            renorm.iterate(DeltaState(n=4, tau=tau, delta=np.zeros(2)), cfg4(), 5)

    def test_fixed_point_converges(self):
        cfg = renorm.MapConfig(n=3, C_gamma=0.0)
        rec = renorm.iterate(DeltaState(n=3, tau=10.0, delta=np.zeros(1)), cfg, 100)
        assert rec.classification.kind == "converged"
        assert np.abs(rec.classification.delta_inf).max() < 1e-12
        drift = rec.steps[-1].tau - 10.0 - 100 * ETA
        assert abs(drift) < 0.01 * 100 * ETA
        assert rec.tau_monotone

    def test_escape_with_increasing_ratio(self):
        cfg = cfg4(gamma=0.1)
        rec = renorm.iterate(
            DeltaState(n=4, tau=10.0, delta=np.array([0.05, 0.0])),
            cfg,
            250,
            record_monotonicity=True,
        )
        assert rec.classification.kind == "escaped"
        assert rec.classification.step <= 250
        ratios = [r.ratio for r in rec.steps]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert all(m.deltajclaim_holds for m in rec.monotonicity)

    def test_escape_step_reuses_its_moments(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return moments.moment_block(*args, **kwargs)

        monkeypatch.setattr(renorm, "moment_block", counted)
        rec = renorm.iterate(
            DeltaState(n=4, tau=10.0, delta=np.array([0.05, 0.0])),
            cfg4(),
            250,
            record_monotonicity=True,
        )
        assert rec.classification.kind == "escaped"
        assert rec.classification.step == 196
        assert len(rec.monotonicity) == 196
        assert len(calls) == 196  # one moment set per step, the escaping one too

    def test_out_of_ball_start(self):
        cfg = cfg4()
        rec = renorm.iterate(DeltaState(n=4, tau=10.0, delta=np.array([0.5, 0.0])), cfg, 10)
        assert rec.classification.kind == "escaped"
        assert rec.classification.step == 0

    def test_noise_off_bitwise_deterministic(self):
        cfg = cfg4()
        runs = [
            renorm.iterate(DeltaState(n=4, tau=10.0, delta=np.array([1e-3, 0.0])), cfg, 15)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].deltas(), runs[1].deltas())
        assert np.array_equal(runs[0].taus(), runs[1].taus())
        assert runs[0].to_csv() == runs[1].to_csv()

    def test_random_noise_deterministic_per_seed(self):
        cfg = cfg4(noise="random", c_noise=1.0, seed=9)
        a = renorm.iterate(DeltaState(n=4, tau=10.0, delta=np.array([1e-3, 0.0])), cfg, 10)
        b = renorm.iterate(DeltaState(n=4, tau=10.0, delta=np.array([1e-3, 0.0])), cfg, 10)
        assert np.array_equal(a.deltas(), b.deltas())

    def test_csv_columns(self):
        cfg = cfg4()
        rec = renorm.iterate(DeltaState(n=4, tau=10.0, delta=np.zeros(2)), cfg, 3)
        lines = rec.to_csv().splitlines()
        assert lines[0] == "k,tau,delta_1,delta_2,ratio,sum_abs_ddelta,defect"
        assert len(lines) == 5

    def test_manifest_shape(self):
        cfg = cfg4()
        rec = renorm.iterate(DeltaState(n=4, tau=10.0, delta=np.zeros(2)), cfg, 3)
        man = rec.manifest()
        assert man["config"]["n"] == 4
        assert man["classification"]["kind"] == "converged"
        assert man["tau_monotone"] is True


# the failure-path tests patch the package in this process and rely on the
# sweep's workers inheriting the patch, which only a forked worker does
_FORKED = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="sweep workers are not forked, so they would not see the test's monkeypatch",
)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the body once it has run `seconds`, so that a hang fails the test."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestSweep:
    def test_single_cell(self):
        cfg = cfg4()
        rows = renorm.sweep([10.0], [np.zeros(2)], cfg, 20, workers=1)
        assert rows[0]["classification"] == "converged"

    def test_parallel_matches_serial(self):
        cfg = cfg4()
        taus = [10.0, 20.0]
        deltas = [np.zeros(2), np.array([0.05, 0.0]), np.array([0.0, 0.05])]
        serial = renorm.sweep(taus, deltas, cfg, 15, workers=1)
        parallel = renorm.sweep(taus, deltas, cfg, 15, workers=3)
        assert serial == parallel

    def test_pool_forks_from_warm_caches(self):
        # workers forked from a parent with cold caches fill their own
        # zero-delta columns, and the rows match a serial run; the caller's
        # own block fills the one entry of the parent's cache
        cfg = cfg4()
        moments._zero_columns.cache_clear()
        taus = [10.0, 20.0]
        deltas = [np.array([0.05, 0.0]), np.array([0.02, -0.01])]
        parallel = renorm.sweep(taus, deltas, cfg, 10, workers=2)
        assert moments._zero_columns.cache_info().currsize == 1
        assert parallel == renorm.sweep(taus, deltas, cfg, 10, workers=1)

    def test_permutation_symmetric_classifications(self):
        cfg = cfg4()
        rows = renorm.sweep(
            [10.0], [np.array([0.05, 0.0]), np.array([0.0, 0.05])], cfg, 15, workers=1
        )
        assert rows[0]["classification"] == rows[1]["classification"]
        assert rows[0]["final_tau"] == pytest.approx(rows[1]["final_tau"], rel=1e-13)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_input_checks(self, workers):
        # the block is built from arrays, so `sweep` itself rejects what a
        # DeltaState would: a start with tau0 <= 0 or a delta0 of the wrong length
        cfg = cfg4()
        for tau0 in (0.0, -1.0):
            with pytest.raises(DomainError, match="tau must be positive"):
                renorm.sweep([10.0, tau0], [np.zeros(2)], cfg, 5, workers=workers)
        for delta0 in (np.zeros(1), np.zeros(3), np.zeros((2, 2))):
            with pytest.raises(DomainError, match="length n-2 = 2"):
                renorm.sweep([10.0], [np.zeros(2), delta0], cfg, 5, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_refuses_non_finite_start(self, workers, monkeypatch):
        # such cells used to end "escaped" at step 1 with NaN rows; they are
        # refused before any pool starts
        monkeypatch.setattr(renorm, "_sweep_block", None)
        cfg = cfg4()
        for tau0 in (math.nan, math.inf):
            with pytest.raises(DomainError, match="tau must be positive and finite"):
                renorm.sweep([10.0, tau0], [np.zeros(2)], cfg, 5, workers=workers)
        with pytest.raises(DomainError, match="length n-2 = 2 and finite entries"):
            renorm.sweep([10.0], [np.zeros(2), np.array([math.nan, 0.0])], cfg, 5, workers=workers)

    # a grid of three cells, one block each: the caller runs tau0 = 30 and
    # the workers tau0 = 7 and 8, values the caller's tau never takes
    TAUS = [30.0, 7.0, 8.0]

    @_FORKED
    def test_worker_error_reaches_caller(self, monkeypatch):
        advance = renorm._advance

        def failing(tau, delta, cfg, rng=None):
            if (tau == 7.0).any():
                raise EvaluationError("non-finite columns in block 1")
            return advance(tau, delta, cfg, rng)

        monkeypatch.setattr(renorm, "_advance", failing)
        with _deadline(60), pytest.raises(EvaluationError, match="non-finite columns in block 1"):
            renorm.sweep(self.TAUS, [np.zeros(2)], cfg4(), 5, workers=3)
        assert multiprocessing.active_children() == []

    @_FORKED
    def test_caller_error_terminates_workers(self, monkeypatch):
        advance = renorm._advance

        def failing(tau, delta, cfg, rng=None):
            if (tau < 10.0).any():
                time.sleep(600)  # the workers would outlast the deadline
            if (tau == 30.0).any():
                raise EvaluationError("non-finite columns in block 0")
            return advance(tau, delta, cfg, rng)

        monkeypatch.setattr(renorm, "_advance", failing)
        with _deadline(60), pytest.raises(EvaluationError, match="non-finite columns in block 0"):
            renorm.sweep(self.TAUS, [np.zeros(2)], cfg4(), 5, workers=3)
        assert multiprocessing.active_children() == []

    @_FORKED
    def test_dead_worker_names_exit_code(self, monkeypatch):
        block, caller = renorm._sweep_block, os.getpid()

        def dying(task):
            if os.getpid() != caller:
                os._exit(3)
            return block(task)

        monkeypatch.setattr(renorm, "_sweep_block", dying)
        with _deadline(60), pytest.raises(RuntimeError, match="exit code 3"):
            renorm.sweep(self.TAUS, [np.zeros(2)], cfg4(), 5, workers=3)
        assert multiprocessing.active_children() == []

    def test_csv(self):
        cfg = cfg4()
        rows = renorm.sweep([10.0], [np.zeros(2)], cfg, 5, workers=1)
        text = renorm.sweep_to_csv(rows, 4)
        header = text.splitlines()[0]
        assert header == "tau0,delta0_1,delta0_2,classification,step,final_tau,final_ratio"


def _lockstep_grid(n):
    """tau0s and delta0s of a block with every way a cell's run can end:
    tau0 = 0.5 fails its first step, |delta0| = 0.25 starts outside the
    ball, 0.12 and 0.185 leave it mid-run, and delta0 = 0 stays in."""
    deltas = []
    for mag in (0.0, 0.12, 0.185, 0.25) if n > 2 else (0.0,):
        delta = np.zeros(n - 2)
        delta[:1] = mag
        deltas.append(delta)
    return [0.5, 2.0, 10.0], deltas


class TestLockstep:
    """A sweep block advances its cells together; each row is the cell's own
    `iterate` bit for bit, whatever else shares the block."""

    @pytest.mark.parametrize("noise", renorm.NOISE_MODES)
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_rows_equal_per_cell_iterate(self, n, noise):
        cfg = renorm.MapConfig(
            n=n, gamma=0.1, noise=noise, c_noise=0.0 if noise == "off" else 0.5, seed=7
        )
        taus, deltas = _lockstep_grid(n)
        rows = renorm.sweep(taus, deltas, cfg, 40, workers=1)
        ends, recs = set(), []
        for row in rows:
            state = DeltaState(n=n, tau=row["tau0"], delta=np.array(row["delta0"]))
            rec = renorm.iterate(state, cfg, 40)
            assert row["classification"] == rec.classification.kind
            assert row["step"] == rec.classification.step
            assert row["final_tau"] == rec.steps[-1].tau
            assert row["final_ratio"] == rec.steps[-1].ratio
            ends.add((row["classification"], min(row["step"], 2)))
            recs.append(rec)
        assert ("exhausted", 1) in ends  # tau0 = 0.5
        if n > 2:
            assert {("escaped", 0), ("escaped", 2)} <= ends  # at the start and mid-run
        # the block's own rows keep each cell's run, however it ended
        block = renorm._Block([t for t in taus for _ in deltas], [d for _ in taus for d in deltas], cfg)
        block.run(40)
        for i, rec in enumerate(recs):
            assert block.tau_monotone[i] == rec.tau_monotone
            assert block.error[i] == rec.error
            assert block.cum[i] == rec.steps[-1].cum_abs_ddelta

    @pytest.mark.parametrize("noise", renorm.NOISE_MODES)
    def test_rows_independent_of_workers(self, noise):
        # 12 cells in 1, 2 or 3 contiguous blocks, each with its own noise
        # generator, give the same rows in the same order
        cfg = renorm.MapConfig(n=4, gamma=0.1, noise=noise, c_noise=0.3, seed=11)
        taus, deltas = _lockstep_grid(4)
        rows = [renorm.sweep(taus, deltas, cfg, 30, workers=w) for w in (1, 2, 3)]
        assert rows[0] == rows[1] == rows[2]

    @pytest.mark.parametrize("gamma", [0.05, 0.1])
    def test_calibration_block_equals_one_cell_steps(self, gamma):
        # the calibration steps its canned states as one block; stepping
        # them one by one gives the same constant
        for n in range(2, 9):
            renorm.calibrate_threshold_constant.cache_clear()
            got = renorm.calibrate_threshold_constant(n, gamma)
            assert got == _calibrate_one_by_one(n, gamma)


def _calibrate_one_by_one(n, gamma, tau=10.0):
    """`calibrate_threshold_constant` with one `_step_detail` per canned state."""
    if n == 2:
        return 0.0
    cfg = renorm.MapConfig(n=n, gamma=gamma, C_gamma=0.0)
    worst = 0.0
    for s in (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 5e-2, 1e-1, 1.5e-1):
        for pat in (1.0, -1.0, 0.5):
            delta = np.zeros(n - 2)
            delta[0] = s * (1.0 if pat > 0 else -1.0)
            if pat == 0.5 and n > 3:
                delta[1] = -0.5 * s
            state = DeltaState(n=n, tau=tau, delta=delta)
            if not cfg.in_ball(state.delta):
                continue
            try:
                new_state, m, _, _ = renorm._step_detail(state, cfg)
            except DegeneracyError:
                continue
            if not cfg.in_ball(new_state.delta):
                continue
            report = renorm.check_monotonicity(state, new_state, cfg, moments_at_state=m)
            if report.regime == "negative" and not report.deltajclaim_holds:
                worst = max(worst, state.delta.max() * tau**gamma)
            if report.regime == "positive" and not report.deltajclaim_holds:
                worst = max(worst, -state.delta.min() * tau**gamma)
    return worst


class TestDefaultWorkers:
    def test_respects_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert renorm.default_workers() == 1


class TestIterateErrors:
    """Which step errors `iterate` absorbs into the record and which propagate:
    an error the step reports for its cell is absorbed, an exception it
    raises propagates."""

    def _run(self, monkeypatch, exc):
        advance = renorm._advance

        def boom(tau, delta, cfg, rng=None):
            if isinstance(exc, (DegeneracyError, DomainError)):
                return dataclasses.replace(advance(tau, delta, cfg, rng), failed={0: exc})
            raise exc

        monkeypatch.setattr(renorm, "_advance", boom)
        return renorm.iterate(DeltaState(n=4, tau=10.0, delta=np.zeros(2)), cfg4(), 5)

    def test_escape_is_classified(self, monkeypatch):
        outside = DeltaState(n=4, tau=10.5, delta=np.array([0.3, 0.0]))
        advance = renorm._advance

        def leave(tau, delta, cfg, rng=None):
            step = advance(tau, delta, cfg, rng)
            return dataclasses.replace(step, tau=np.array([outside.tau]), delta=outside.delta[None])

        monkeypatch.setattr(renorm, "_advance", leave)
        rec = renorm.iterate(DeltaState(n=4, tau=10.0, delta=np.zeros(2)), cfg4(), 5)
        assert rec.classification.kind == "escaped"
        assert rec.classification.step == 1
        assert len(rec.steps) == 2
        assert rec.steps[1].tau == outside.tau
        assert np.array_equal(rec.steps[1].delta, outside.delta)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DomainError, match="dimensions differ"):
            renorm.iterate(DeltaState(n=3, tau=10.0, delta=np.zeros(1)), cfg4(), 5)

    def test_no_steps_raises(self):
        with pytest.raises(DomainError, match="max_steps must be >= 1"):
            renorm.iterate(DeltaState(n=4, tau=10.0, delta=np.zeros(2)), cfg4(), 0)

    @pytest.mark.parametrize("exc", [DegeneracyError("tie"), DomainError("bad state")])
    def test_degeneracy_and_domain_exhaust(self, monkeypatch, exc):
        rec = self._run(monkeypatch, exc)
        assert rec.classification.kind == "exhausted"
        assert rec.classification.step == 1
        assert rec.error == str(exc)

    @pytest.mark.parametrize(
        "exc", [EvaluationError("nan moment"), np.linalg.LinAlgError("no eig")]
    )
    def test_other_errors_propagate(self, monkeypatch, exc):
        with pytest.raises(type(exc)):
            self._run(monkeypatch, exc)


class TestResultTables:
    """The bytes of the three result tables, which `moments.csv_table` writes:
    numbers at .17g, strings as they are, None as an empty field."""

    def test_trajectory(self):
        rec = renorm.TrajectoryRecord(
            config=cfg4(),
            steps=[
                # an int tau, as a DeltaState built from one carries to step 0
                renorm.StepRow(0, 10, np.array([-0.0, 1e-300]), 0.0, 0.0, 0.0),
                renorm.StepRow(
                    1,
                    10.110381511481002,
                    np.array([-0.003971793911360732, 0.0098048923374095837]),
                    0.0098624208087058768,
                    0.019641437766849113,
                    1.7347234759768071e-18,
                ),
            ],
        )
        assert rec.to_csv() == (
            "k,tau,delta_1,delta_2,ratio,sum_abs_ddelta,defect\n"
            "0,10,-0,1e-300,0,0,0\n"
            "1,10.110381511481002,-0.003971793911360732,0.0098048923374095837,"
            "0.0098624208087058768,0.019641437766849113,1.7347234759768071e-18\n"
        )
        rec = renorm.TrajectoryRecord(
            config=renorm.MapConfig(n=2, C_gamma=0.0),
            steps=[renorm.StepRow(0, 10.0, np.zeros(0), 0.0, 0.0, 0.0),
                   renorm.StepRow(1, 10.1, np.zeros(0), 0.0, 0.1, 0.0)],
        )
        assert rec.to_csv() == "k,tau,ratio,sum_abs_ddelta,defect\n0,10,0,0,0\n1,10.1,0,0.10000000000000001,0\n"

    def test_sweep(self):
        rows = [
            {"tau0": 5.0, "delta0": [-0.0, 1e-300], "classification": "escaped", "step": 0,
             "final_tau": 5.0, "final_ratio": 1e-300},
            {"tau0": 0.1, "delta0": [0.050000000000000003, 0.0], "classification": "exhausted",
             "step": None, "final_tau": 7.4582565589891283, "final_ratio": -0.0},
        ]
        assert renorm.sweep_to_csv(rows, 4) == (
            "tau0,delta0_1,delta0_2,classification,step,final_tau,final_ratio\n"
            "5,-0,1e-300,escaped,0,5,1e-300\n"
            "0.10000000000000001,0.050000000000000003,0,exhausted,,7.4582565589891283,-0\n"
        )
        row = {"tau0": 10, "delta0": [], "classification": "converged", "step": 8,
               "final_tau": 10.693147180559945, "final_ratio": 0.0}
        assert renorm.sweep_to_csv([row], 2) == (
            "tau0,classification,step,final_tau,final_ratio\n10,converged,8,10.693147180559945,0\n"
        )

    def test_moment_sets(self):
        half = -1.5707963267948966
        m2 = moments.MomentSet(2, np.zeros(0), -3.1415926535897931, np.array([half, half]),
                               -0.0, np.array([0.0, -0.0]))
        assert moments.momentsets_to_csv([m2]) == (
            "n,B,B_1,B_2,C,C_1,C_2\n2,-3.1415926535897931,-1.5707963267948966,"
            "-1.5707963267948966,-0,0,-0\n"
        )
        b_i = np.array([-2.0943951023931953, -3.4275145760290995, -0.76127019552304287])
        c_i = np.array([-0.094075152905479964, 0.00021385969742615529, -0.0])
        m3 = moments.MomentSet(3, np.array([1e-300]), -6.2831853071795862, b_i, 1e-300, c_i)
        assert moments.momentsets_to_csv([m3]) == (
            "n,delta_1,B,B_1,B_2,B_3,C,C_1,C_2,C_3\n3,1e-300,-6.2831853071795862,"
            "-2.0943951023931953,-3.4275145760290995,-0.76127019552304287,1e-300,"
            "-0.094075152905479964,0.00021385969742615529,-0\n"
        )
