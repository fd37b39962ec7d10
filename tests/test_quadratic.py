import json
import math

import numpy as np
import pytest

from blowuplab.errors import DegeneracyError, DomainError
from blowuplab.quadratic import (
    DeltaState,
    HarmonicQuadratic,
    diagonalize,
    make_p_delta,
    normal_form,
    normal_forms,
    random_rotation,
    sup_norm_ball,
)
from blowuplab.renorm import MapConfig


class TestMakePDelta:
    def test_p0_in_3d(self):
        p = make_p_delta(3, np.zeros(1))
        assert np.allclose(p.coeff, np.diag([0.0, 1.0, -1.0]))

    def test_trace_free_4d(self):
        p = make_p_delta(4, np.array([0.01, 0.02]))
        assert np.allclose(np.diag(p.coeff), [0.01, 0.02, 0.97, -1.0])
        assert abs(np.trace(p.coeff)) < 1e-15

    def test_degenerate_2d(self):
        p = make_p_delta(2, np.zeros(0))
        assert np.allclose(p.coeff, np.diag([1.0, -1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            make_p_delta(4, np.array([0.01]))


class TestHarmonicQuadratic:
    def test_rejects_trace(self):
        with pytest.raises(DomainError):
            HarmonicQuadratic(2, np.diag([1.0, -0.5]))

    def test_rejects_asymmetry(self):
        with pytest.raises(DomainError):
            HarmonicQuadratic(2, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_from_matrix_projects(self):
        q = HarmonicQuadratic.from_matrix(np.array([[1.0, 2.0], [0.0, 2.0]]))
        assert abs(np.trace(q.coeff)) < 1e-15
        assert q.coeff[0, 1] == q.coeff[1, 0] == 1.0

    def test_evaluation(self):
        p = make_p_delta(3, np.zeros(1))
        assert p(np.array([0.0, 1.0, 0.0])) == pytest.approx(1.0)
        vals = p(np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        assert np.allclose(vals, [-1.0, 0.0])

    def test_json_round_trip(self):
        p = make_p_delta(4, np.array([0.03, -0.01]))
        q = HarmonicQuadratic.from_json(p.to_json())
        assert np.array_equal(p.coeff, q.coeff)


class TestSupNorm:
    def test_examples(self):
        p0 = make_p_delta(3, np.zeros(1))
        assert sup_norm_ball(p0) == pytest.approx(1.0)
        assert sup_norm_ball(5.0 * p0) == pytest.approx(5.0)
        q = HarmonicQuadratic(3, np.diag([0.2, 0.8, -1.0]))
        assert sup_norm_ball(q) == pytest.approx(1.0)

    def test_rotation_invariance(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        q = make_p_delta(4, np.array([0.05, -0.02]))
        for _ in range(20):
            rot = random_rotation(4, rng)
            assert sup_norm_ball(q.rotated(rot)) == pytest.approx(
                sup_norm_ball(q), rel=1e-12
            )


class TestDiagonalize:
    def test_scaled_round_trip(self):
        q = 5.0 * make_p_delta(4, np.array([0.01, 0.02]))
        state = diagonalize(q)
        assert state.tau == pytest.approx(5.0, rel=1e-14)
        assert np.allclose(state.delta, [0.01, 0.02], atol=1e-14)
        assert np.allclose(state.Q @ state.Q.T, np.eye(4), atol=1e-13)
        assert np.linalg.det(state.Q) == pytest.approx(1.0)

    def test_rotated_round_trip(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        rot = random_rotation(3, rng)
        q = (3.0 * make_p_delta(3, np.zeros(1))).rotated(rot)
        state = diagonalize(q)
        assert state.tau == pytest.approx(3.0, rel=1e-13)
        assert np.allclose(state.delta, [0.0], atol=1e-13)
        assert np.allclose(state.polynomial().coeff, q.coeff, atol=1e-12)

    def test_random_round_trips(self):
        rng = np.random.Generator(np.random.Philox(key=2718))
        for _ in range(250):
            n = int(rng.integers(3, 6))
            tau = float(rng.uniform(1.0, 50.0))
            delta = rng.uniform(-1.0, 1.0, n - 2)
            delta *= rng.uniform(0.0, 0.19) / max(np.linalg.norm(delta), 1e-12)
            rot = random_rotation(n, rng)
            q = (tau * make_p_delta(n, delta)).rotated(rot)
            state = diagonalize(q)
            assert state.tau == pytest.approx(tau, rel=1e-11)
            assert np.allclose(np.sort(state.delta), np.sort(delta), atol=1e-11)
            assert np.allclose(state.polynomial().coeff, q.coeff, atol=1e-10 * tau)
            assert MapConfig(n=n).in_ball(state.delta)
            assert state.consistency_defect < 1e-9

    def test_delta_sorted_ascending(self):
        state = diagonalize(make_p_delta(5, np.array([0.05, -0.02, 0.01])))
        assert np.all(np.diff(state.delta) >= 0)

    def test_out_of_ball_flagged(self):
        q = HarmonicQuadratic(3, np.diag([0.3, 0.3, -0.6]))
        state = diagonalize(q)
        assert state.tau == pytest.approx(0.6)
        assert np.allclose(state.delta, [0.5])
        assert not MapConfig(n=3).in_ball(state.delta)

    def test_degenerate_zero_form(self):
        with pytest.raises(DegeneracyError):
            diagonalize(HarmonicQuadratic.zero(3))

    def test_no_negative_value_is_degenerate(self):
        # a row whose least value is not negative has nothing to scale to -1;
        # the other rows of the stack are normalized as usual
        values = np.array([[-2.0, 0.5, 1.5], [0.0, 0.5, 1.0], [-1.0, 0.25, 0.75]])
        tau, delta, defect, failed = normal_forms(values)
        assert list(failed) == [1] and isinstance(failed[1], DegeneracyError)
        assert tau[[0, 2]].tolist() == [2.0, 1.0]
        assert delta[[0, 2], 0].tolist() == [0.25, 0.25]
        assert defect[[0, 2]].tolist() == [0.0, 0.0]
        with pytest.raises(DegeneracyError, match="no strictly negative eigenvalue"):
            normal_form(values[1], np.eye(3))

    def test_n2_state(self):
        state = diagonalize(4.0 * make_p_delta(2, np.zeros(0)))
        assert state.tau == pytest.approx(4.0)
        assert state.delta.shape == (0,)
        assert state.delta_tilde == 0.0


class TestDeltaState:
    def test_delta_tilde_recomputed(self):
        state = DeltaState(n=4, tau=2.0, delta=np.array([0.01, 0.03]))
        assert state.delta_tilde == pytest.approx(0.04)
        state.delta[0] = 0.05
        assert state.delta_tilde == pytest.approx(0.08)

    def test_polynomial_reconstruction(self):
        state = DeltaState(n=4, tau=3.0, delta=np.array([0.01, 0.02]))
        expected = 3.0 * make_p_delta(4, np.array([0.01, 0.02]))
        assert np.allclose(state.polynomial().coeff, expected.coeff)

    def test_json_round_trip(self):
        state = DeltaState(n=3, tau=2.5, delta=np.array([0.1]))
        loaded = DeltaState.from_json(state.to_json())
        assert loaded.n == 3 and loaded.tau == 2.5
        assert np.array_equal(loaded.delta, state.delta)
        assert np.array_equal(loaded.Q, np.eye(3))

    def test_requires_positive_tau(self):
        with pytest.raises(DomainError):
            DeltaState(n=3, tau=0.0, delta=np.array([0.0]))

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_refuses_non_finite_tau(self, tau):
        # a run from such a start used to end "escaped" at step 1 with NaN rows
        with pytest.raises(DomainError, match="tau must be positive and finite"):
            DeltaState(n=4, tau=tau, delta=np.zeros(2))

    @pytest.mark.parametrize("delta", [[math.nan, 0.0], [0.0, math.inf]])
    def test_refuses_non_finite_delta(self, delta):
        with pytest.raises(DomainError, match="delta must have length n-2 = 2 and finite entries"):
            DeltaState(n=4, tau=10.0, delta=np.array(delta))

    @pytest.mark.parametrize(
        "q_mat",
        [
            np.eye(3),
            (1.0 + 1e-9) * np.eye(4),
            np.eye(4) + 1e-6 * np.eye(4, k=1),
            np.full((4, 4), np.nan),
        ],
        ids=["shape", "scaled", "sheared", "nan"],
    )
    def test_rejects_frame_that_is_not_orthogonal(self, q_mat):
        # the step reads Q's columns as an orthonormal frame
        with pytest.raises(DomainError):
            DeltaState(n=4, tau=2.0, delta=np.zeros(2), Q=q_mat)
        text = json.dumps(
            {"n": 4, "tau": 2.0, "delta": [0.0, 0.0], "Q": q_mat.ravel().tolist()}
        )
        with pytest.raises(DomainError):
            DeltaState.from_json(text)

    def test_accepts_rotation_frame(self):
        q_mat = random_rotation(4, np.random.default_rng(5))
        state = DeltaState(n=4, tau=2.0, delta=np.zeros(2), Q=q_mat)
        assert np.array_equal(DeltaState.from_json(state.to_json()).Q, q_mat)

    def test_ratio(self):
        state = DeltaState(n=4, tau=2.0, delta=np.array([0.0, 0.05]))
        assert state.ratio() == pytest.approx(0.05 / 0.95)
