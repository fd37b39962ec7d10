import math
import os

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
    random_rotation,
)

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

    def test_calibrated_constant_is_zero_for_clean_map(self):
        # the clean map amplifies every nonzero delta, so the smallest
        # constant making the threshold implication pass is zero
        assert renorm.calibrate_threshold_constant(4, 0.1) == 0.0
        assert renorm.calibrate_threshold_constant(3, 0.1) == 0.0


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

    def test_step_against_monte_carlo_moments(self):
        # recompute the same step with Monte Carlo moments; the correction
        # coefficients are linear in (B, B_i) so 3 sigma propagates directly
        n, delta, tau = 4, np.array([0.05, -0.03]), 10.0
        cfg = cfg4()
        state = DeltaState(n=n, tau=tau, delta=delta)
        _, m, z_half, _ = renorm._step_detail(state, cfg)
        z_quad = np.diag(z_half.coeff)

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


def _ambient_step_detail(step):
    """Reference step: rotate the new diagonal out to the ambient matrix
    Q diag Q^T, symmetrize it and re-diagonalize it from scratch."""

    def detail(state, cfg, rng=None):
        _, m, z_half, xi = step(state, cfg, rng)
        diag_new = (
            state.tau * normal_form_diagonal(state.delta) + np.diag(z_half.coeff) + xi
        )
        ambient = HarmonicQuadratic.from_matrix(state.Q @ np.diag(diag_new) @ state.Q.T)
        return diagonalize(ambient, kappa0=cfg.kappa0), m, z_half, xi

    return detail


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
        reference = _ambient_step_detail(renorm._step_detail)
        for frame, state in _frame_states(n, seed=n):
            new, _, _, _ = renorm._step_detail(state, cfg)
            ref, _, _, _ = reference(state, cfg)
            # eigh of a rotated ambient matrix is itself only good to about
            # n ulps of tau; in the axes' frame the two agree to 1e-15 tau
            tol = 1e-15 * state.tau * (1 if frame == "axes" else n)
            assert abs(new.tau - ref.tau) <= tol
            assert np.abs(new.delta - ref.delta).max(initial=0.0) <= tol
            assert np.abs(new.polynomial().coeff - ref.polynomial().coeff).max() <= 1e-12
            assert new.in_small_ball == ref.in_small_ball

    @pytest.mark.parametrize("noise", renorm.NOISE_MODES)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_classification_matches_ambient_round_trip(self, n, noise, monkeypatch):
        cfg = _noisy_cfg(n, noise)
        for _, state in _frame_states(n, seed=n):
            rec = renorm.iterate(state, cfg, 30)
            with monkeypatch.context() as patch:
                patch.setattr(
                    renorm, "_step_detail", _ambient_step_detail(renorm._step_detail)
                )
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


class TestIterate:
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
            return moments.compute_moments(*args, **kwargs)

        monkeypatch.setattr(renorm, "compute_moments", counted)
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
        # zero-delta columns, and the rows match a serial run
        cfg = cfg4()
        moments._zero_columns.cache_clear()
        taus = [10.0, 20.0]
        deltas = [np.array([0.05, 0.0]), np.array([0.02, -0.01])]
        parallel = renorm.sweep(taus, deltas, cfg, 10, workers=2)
        assert moments._zero_columns.cache_info().currsize == 0
        assert parallel == renorm.sweep(taus, deltas, cfg, 10, workers=1)

    def test_permutation_symmetric_classifications(self):
        cfg = cfg4()
        rows = renorm.sweep(
            [10.0], [np.array([0.05, 0.0]), np.array([0.0, 0.05])], cfg, 15, workers=1
        )
        assert rows[0]["classification"] == rows[1]["classification"]
        assert rows[0]["final_tau"] == pytest.approx(rows[1]["final_tau"], rel=1e-13)

    def test_csv(self):
        cfg = cfg4()
        rows = renorm.sweep([10.0], [np.zeros(2)], cfg, 5, workers=1)
        text = renorm.sweep_to_csv(rows, 4)
        header = text.splitlines()[0]
        assert header == "tau0,delta0_1,delta0_2,classification,step,final_tau,final_ratio"


class TestDefaultWorkers:
    def test_respects_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert renorm.default_workers() == 1


class TestIterateErrors:
    """Which step errors `iterate` absorbs into the record and which propagate."""

    def _run(self, monkeypatch, exc):
        def boom(state, cfg, rng=None):
            raise exc

        monkeypatch.setattr(renorm, "_step_detail", boom)
        return renorm.iterate(DeltaState(n=4, tau=10.0, delta=np.zeros(2)), cfg4(), 5)

    def test_escape_is_classified(self, monkeypatch):
        outside = DeltaState(n=4, tau=10.5, delta=np.array([0.3, 0.0]))
        monkeypatch.setattr(
            renorm, "_step_detail", lambda state, cfg, rng=None: (outside, None, None, None)
        )
        rec = renorm.iterate(DeltaState(n=4, tau=10.0, delta=np.zeros(2)), cfg4(), 5)
        assert rec.classification.kind == "escaped"
        assert rec.classification.step == 1
        assert len(rec.steps) == 2
        assert rec.steps[1].tau == outside.tau
        assert np.array_equal(rec.steps[1].delta, outside.delta)

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
