import itertools
import math
import tracemalloc

import numpy as np
import pytest

from attswitch.quat import IDENTITY, from_axis_angle, renorm_if_drifted, rotate_vector, yaw_of
from attswitch.rigid_body import (
    CHUNK,
    DEFAULT_INERTIA,
    SimulationError,
    _all_finite,
    _bind_derivative,
    bind_rk4,
    simulate,
    validate_inertia,
)

from conftest import law_torque, reference_error_state

TUMBLE_J = np.diag([1.66e-5, 1.86e-5, 2.93e-5])
TUMBLE_W = np.array([1.0, 0.6, -0.8])


def zero_controller(t, y):
    return np.zeros(3), ()


def derivative(y, tau, J):
    """(q_dot, w_dot) of a packed state under torque tau, from the bound derivative."""
    J = np.asarray(J, dtype=float)
    d = _bind_derivative(J.tolist(), np.linalg.inv(J).tolist())(*y, *tau)
    return np.array(d[:4]), np.array(d[4:])


def rk4_steps(y, J, dt, n):
    """Packed state after n torque-free steps of the bound RK4 step."""
    step = bind_rk4(J, dt)
    for _ in range(n):
        y = step(y, (0.0, 0.0, 0.0))
    return np.array(y)


class TestValidateInertia:
    def test_accepts_spd(self):
        J = validate_inertia(np.diag([1.0, 2.0, 3.0]))
        assert J.shape == (3, 3)

    def test_rejects_asymmetric(self):
        J = np.diag([1.0, 2.0, 3.0])
        J[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            validate_inertia(J)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            validate_inertia(np.diag([1.0, -2.0, 3.0]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            validate_inertia(np.eye(2))


class TestOpenLoopDerivative:
    def test_equilibrium(self):
        s = (*IDENTITY, 0.0, 0.0, 0.0)
        qdot, wdot = derivative(s, np.zeros(3), np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(qdot, 0.0)
        assert np.allclose(wdot, 0.0)

    def test_diagonal_scaling(self):
        s = (*IDENTITY, 0.0, 0.0, 0.0)
        _, wdot = derivative(s, np.array([0.0, 0.0, 1.0]), np.diag([2.0, 2.0, 2.0]))
        assert np.allclose(wdot, [0.0, 0.0, 0.5])

    def test_gyroscopic_term(self):
        # hand cross-product oracle: w x Jw = (1,1,0) x (1,2,0) = (0,0,1)
        J = np.diag([1.0, 2.0, 3.0])
        s = (*IDENTITY, 1.0, 1.0, 0.0)
        _, wdot = derivative(s, np.zeros(3), J)
        assert np.allclose(wdot, [0.0, 0.0, -1.0 / 3.0])


class TestAllFinite:
    @pytest.mark.parametrize(
        "y",
        [
            (1e308, 1e308, 0.0, 0.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, 0.0, -1e308, -1e308, -1e308),
            (1.7e308, 1.7e308, -1.7e308, -1.7e308, 1.7e308, 1.7e308, 1.7e308),
        ],
    )
    def test_finite_entries_that_sum_to_inf(self, y):
        assert math.isinf(sum(y))
        assert _all_finite(y)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("i", range(7))
    def test_a_nonfinite_entry(self, i, bad):
        y = [0.5, -0.25, 1e308, 1e308, 0.0, -0.0, 2.0]
        y[i] = bad
        assert not _all_finite(tuple(y))

    def test_infinities_that_sum_to_nan(self):
        assert not _all_finite((math.inf, -math.inf, 0.0, 0.0, 0.0, 0.0, 0.0))


class TestRk4Step:
    def test_zero_derivative_keeps_state(self):
        y = rk4_steps((1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), np.diag([1.0, 2.0, 3.0]), 1e-3, 1)
        assert np.allclose(y, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    def test_principal_axis_spin_keeps_rate(self):
        y = rk4_steps((1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0), np.diag([1.0, 2.0, 3.0]), 1e-3, 100)
        assert np.allclose(y[4:], [0.0, 0.0, 3.0], atol=1e-12)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            bind_rk4(np.eye(3), 0.0)

    def test_yaw_after_785_steps(self):
        # exact rotation angle: 785 steps x 1e-3 s x 2 rad/s = 1.57 rad
        y = rk4_steps((1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0), np.diag([1.0, 1.0, 2.0]), 1e-3, 785)
        assert yaw_of(y[:4]) == pytest.approx(1.5700, abs=1e-6)


def general_rk4(J, dt):
    """bind_rk4's body, in its operation order, on the bound derivative:
    the reference it must match bit for bit, yaw-plane inputs included."""
    J = np.asarray(J, dtype=float)
    f = _bind_derivative(J.tolist(), np.linalg.inv(J).tolist())
    h, s = 0.5 * dt, dt / 6.0

    def step(y, tau):
        a = f(*y, *tau)
        b = f(*(v + h * k for v, k in zip(y, a)), *tau)
        c = f(*(v + h * k for v, k in zip(y, b)), *tau)
        d = f(*(v + dt * k for v, k in zip(y, c)), *tau)
        out = [v + s * (p + 2.0 * q + 2.0 * r + u) for v, p, q, r, u in zip(y, a, b, c, d)]
        return (*renorm_if_drifted(*out[:4]), *out[4:])

    return step


def _outcome(step, y, tau):
    """The step's result as bytes, signed zeros told apart, or the type of
    the exception it raised.  A NaN's sign and payload are not compared: the
    interpreter's float addition returns either NaN operand, depending on
    whether the instruction has been specialised."""
    try:
        out = step(y, tau)
    except ArithmeticError as exc:
        return type(exc)
    assert len(out) == 7 and all(type(v) is float for v in out)
    out = np.array(out)
    return np.where(np.isnan(out), math.nan, out).tobytes()


SIGNED_ZEROS = list(itertools.product((0.0, -0.0), repeat=6))
# tiny (subnormal, or whose products underflow), ordinary and non-finite
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 0.6, -0.8, 150.0, math.inf,
               -math.inf, math.nan)


class TestYawPlaneStep:
    """The step on yaw-plane inputs and their signed-zero and non-finite
    neighbours against the reference body.  ``harness.run_on_plane``, which
    writes the plane rows itself, is checked against ``simulate`` in
    tests/test_closed_loop.py with these cases."""

    def _assert_matches_general(self, J, dt, patterns, values):
        step, ref = bind_rk4(J, dt), general_rk4(J, dt)
        for qx, qy, wx, wy, tx, ty in patterns:
            for qw, qz, wz, tz in itertools.product(values, repeat=4):
                y, tau = (qw, qx, qy, qz, wx, wy, wz), (tx, ty, tz)
                assert _outcome(step, y, tau) == _outcome(ref, y, tau), (y, tau)

    def test_every_zero_sign_pattern(self):
        # a -0.0 in the state: the stage sums turn it into +0.0
        values = (0.0, -0.0, 1e-300, -0.8, math.nan)
        self._assert_matches_general(DEFAULT_INERTIA, 1e-3, SIGNED_ZEROS, values)

    @pytest.mark.parametrize("dt", [1e-3, 0.019])
    def test_every_edge_value_on_the_plane(self, dt):
        # +0.0 state zeros and torque zeros of either sign
        patterns = [(0.0, 0.0, 0.0, 0.0, 0.0, -0.0), (0.0, 0.0, 0.0, 0.0, -0.0, 0.0)]
        self._assert_matches_general(DEFAULT_INERTIA, dt, patterns, EDGE_VALUES)

    def test_yaw_inertia_above_one_takes_the_general_body(self):
        # J_22 wz overflows, so x and y turn NaN, while qw, qz and wz alone
        # would stay finite; at J_22 <= 1 it cannot overflow
        J, y, tau = np.diag([1.0, 1.0, 1e300]), (0.6, 0.0, 0.0, 0.8, 0.0, 0.0, 1e10), (0.0,) * 3
        assert math.isnan(bind_rk4(J, 1e-3)(y, tau)[4])
        assert _outcome(bind_rk4(J, 1e-3), y, tau) == _outcome(general_rk4(J, 1e-3), y, tau)

    def test_negative_principal_inertia_takes_the_general_body(self):
        # bind_rk4 takes J unchecked: a negative J_11 turns the z entry of
        # w x Jw into -0.0, which turns a -0.0 yaw torque into +0.0
        patterns = [(0.0,) * 6]
        self._assert_matches_general(np.diag([1.0, -1.0, 0.5]), 1e-3, patterns, (-0.0, 0.6))

    def test_run_leaving_and_off_the_plane(self):
        # tx turns on at step 40 and off again at step 90: the run leaves
        # the plane and stays off it
        def controller(t, y):
            k = round(t / 1e-3)
            return (2e-7 if 40 <= k < 90 else 0.0, 0.0, -1e-4 * y[6]), ()

        y0 = (math.cos(1.2), 0.0, 0.0, math.sin(1.2), 0.0, 0.0, 2.0)
        traj = simulate(y0, controller, DEFAULT_INERTIA, 1e-3, 0.2)
        ref, y, rows = general_rk4(DEFAULT_INERTIA, 1e-3), y0, []
        for k in range(200):
            rows.append(y)
            y = ref(y, controller(k * 1e-3, y)[0])
        got = np.column_stack([traj.q, traj.w])
        assert got.tobytes() == np.array([*rows, y]).tobytes()
        assert not got[:41, [1, 2, 4, 5]].any() and got[41:, 4].all()


class TestSimulate:
    def test_zero_duration_single_sample(self):
        s = (*from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.4), 0.1, 0.0, 0.0)
        traj = simulate(s, zero_controller, np.eye(3), 1e-3, 0.0)
        assert len(traj) == 1
        assert traj.t[0] == 0.0
        assert np.allclose(traj.q[0], s[:4])
        assert np.allclose(traj.w[0], s[4:])
        assert np.allclose(traj.tau[0], 0.0)

    @pytest.mark.parametrize("k_bad", [1, CHUNK + 1])
    def test_row_width_change_raises(self, k_bad):
        # rows of 2, 3, 2, 2, ... floats: the conversion took the chunk's
        # first 2 n floats and shifted every row after the wide one
        def controller(t, y):
            return (0.0, 0.0, 0.0), (t, t, t)[: 3 if round(t / 1e-3) == k_bad else 2]

        s = (*IDENTITY, *TUMBLE_W)
        with pytest.raises(SimulationError, match="a telemetry row of 3 floats, not 2"):
            simulate(s, controller, TUMBLE_J, 1e-3, 2 * CHUNK * 1e-3)

    def test_empty_rows_give_zero_width_telemetry(self):
        s = (*IDENTITY, *TUMBLE_W)
        traj = simulate(s, zero_controller, TUMBLE_J, 1e-3, (CHUNK + 1) * 1e-3)
        assert traj.telemetry.shape == (CHUNK + 2, 0)

    def test_telemetry_rows_fill_a_float_array(self):
        def controller(t, y):
            return np.zeros(3), (t, y[6])

        s = (*IDENTITY, *TUMBLE_W)
        traj = simulate(s, controller, TUMBLE_J, 1e-3, 2 * CHUNK * 1e-3)
        assert traj.telemetry.shape == (2 * CHUNK + 1, 2)
        assert traj.telemetry.dtype == float
        assert np.array_equal(traj.telemetry[:, 0], traj.t)
        assert np.array_equal(traj.telemetry[:, 1], traj.w[:, 2])

    def test_memory_peak_bounded_by_the_arrays(self):
        # per-step tuples live for one chunk only: holding them for the
        # whole run costs several times the bytes of the returned arrays
        # (about 4.5x here).  16 chunks rather than a longer run because
        # tracemalloc slows the loop about 40-fold.
        def controller(t, y):
            qw, qx, qy, qz, wx, wy, wz = y
            tau = (-1e-4 * qx - 1e-5 * wx, -1e-4 * qy - 1e-5 * wy, -1e-4 * qz - 1e-5 * wz)
            return tau, (*tau, qw * qw, t, 0.5 * t, -t, 1.0, 2.0)

        s = (*from_axis_angle(np.array([0.6, 0.0, 0.8]), 2.5), *TUMBLE_W)
        tracemalloc.start()
        try:
            traj = simulate(s, controller, TUMBLE_J, 1e-3, 16 * CHUNK * 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = sum(a.nbytes for a in (traj.t, traj.q, traj.w, traj.tau, traj.telemetry))
        assert arrays == (16 * CHUNK + 1) * (1 + 7 + 3 + 9) * 8
        assert peak < 2 * arrays

    def test_torque_free_principal_spin_constant_rate(self):
        s = (*IDENTITY, 0.0, 0.0, 1.5)
        rates = simulate(s, zero_controller, np.diag([1.0, 2.0, 3.0]), 1e-3, 0.5).w
        assert np.allclose(rates, rates[0], atol=1e-12)

    @pytest.mark.parametrize(
        "dt,duration", [(math.inf, 1.0), (math.nan, 1.0), (1e-3, math.inf), (1e-3, math.nan)]
    )
    def test_rejects_nonfinite_step_or_duration(self, dt, duration):
        s = (*IDENTITY, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            simulate(s, zero_controller, np.eye(3), dt, duration)

    def test_rejects_runs_past_step_limit(self, monkeypatch):
        from attswitch import rigid_body

        calls = []

        def counting_controller(t, y):
            calls.append(t)
            return np.zeros(3), ()

        monkeypatch.setattr(rigid_body, "MAX_STEPS", 5)
        s = (*IDENTITY, 0.0, 0.0, 0.0)
        assert len(simulate(s, counting_controller, np.eye(3), 0.25, 1.25)) == 6
        calls.clear()
        with pytest.raises(ValueError, match="more than the 5 a run may take"):
            simulate(s, counting_controller, np.eye(3), 0.25, 1.5)
        assert calls == []

    def _refused(self, y0, match):
        calls = []

        def counting_controller(t, y):
            calls.append(t)
            return np.zeros(3), ()

        with pytest.raises(ValueError, match=match):
            simulate(y0, counting_controller, np.eye(3), 1e-3, 1.0)
        assert calls == []

    def test_rejects_six_entry_state(self):
        # unpacking a 6-tuple failed after the first controller call
        self._refused((*IDENTITY, 0.0, 0.0), "7 finite numbers")

    def test_rejects_nonfinite_rate(self):
        # a NaN rate was integrated and failed as SimulationError at t = 0.001
        self._refused((*IDENTITY, math.nan, 0.0, 0.0), "7 finite numbers")

    def test_rejects_unnormalised_quaternion(self):
        # q = (2, 0, 0, 0) was accepted and recorded unnormalised in row 0
        self._refused((2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), "not a unit quaternion")

    def test_controller_error_carries_timestamp(self):
        def bad_controller(t, y):
            if t > 0.01:
                raise ValueError("boom")
            return np.zeros(3), ()

        s = (*IDENTITY, 0.0, 0.0, 0.0)
        with pytest.raises(SimulationError, match=r"controller failed at t=0\.011"):
            simulate(s, bad_controller, np.eye(3), 1e-3, 1.0)

    def test_nonfinite_state_is_named(self):
        def nan_controller(t, y):
            return np.array([math.nan, 0.0, 0.0]), ()

        s = (*IDENTITY, 0.0, 0.0, 0.0)
        with pytest.raises(SimulationError, match="non-finite state"):
            simulate(s, nan_controller, np.eye(3), 1e-3, 0.1)

    def test_small_error_regulation_decays_monotonically(self):
        # proportional-derivative law from a small tilt: after the rate
        # transient both error norms shrink monotonically
        from attswitch.controllers import GainSet

        # critically damped for the error kinematics n_dot ~ w_e/2:
        # lam^2 + kw*lam + kq/2 = 0 with kw^2 = 2*kq gives a -10 double root
        g = GainSet(kq=200.0, kw=20.0, kn=10.0, c=2.0, delta=0.1)
        J = np.diag([1.66e-5, 1.66e-5, 2.93e-5])
        q_d = IDENTITY

        def controller(t, y):
            q, w = np.array(y[:4]), np.array(y[4:])
            err = reference_error_state(q, q_d, w, np.zeros(3))
            tau = law_torque("continuous", err, w, g, J)
            return tau, (*err.n_e, *err.w_err)

        axis = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        s = (*from_axis_angle(axis, 0.1), 0.0, 0.0, 0.0)
        errs = simulate(s, controller, J, 1e-3, 1.2).telemetry
        n_norm = np.linalg.norm(errs[:, :3], axis=1)
        w_norm = np.linalg.norm(errs[:, 3:], axis=1)
        settle = 150  # past the angular-rate build-up
        assert np.all(np.diff(n_norm[settle:]) <= 1e-12)
        assert np.all(np.diff(w_norm[settle:]) <= 1e-12)
        assert n_norm[-1] < 1e-3 * n_norm[0]


    def test_ndarray_and_tuple_torques_integrate_identically(self):
        # simulate converts whatever 3-sequence the controller returns to
        # floats once; float32 entries would otherwise make the RK4
        # arithmetic run in float32
        def torque(y):
            qw, qx, qy, qz, wx, wy, wz = y
            return np.array([-2e-5 * qx - 1e-5 * wx, 3e-6 * wy * wz, -2e-5 * qz - 1e-6 * wz], np.float32)

        def tuple_controller(t, y):
            return tuple(torque(y).tolist()), ()

        def ndarray_controller(t, y):
            return torque(y), ()

        s = (*from_axis_angle(np.array([0.6, 0.0, 0.8]), 2.5), *TUMBLE_W)
        a, b = (simulate(s, c, TUMBLE_J, 1e-3, 0.5) for c in (tuple_controller, ndarray_controller))
        for name in ("q", "w", "tau"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


class TestConservation:
    def test_torque_free_invariants_over_10k_steps(self):
        s = (*IDENTITY, *TUMBLE_W)
        traj = simulate(s, zero_controller, TUMBLE_J, 1e-3, 10.0)
        h0 = rotate_vector(traj.q[0], TUMBLE_J @ traj.w[0])
        e0 = 0.5 * traj.w[0] @ (TUMBLE_J @ traj.w[0])
        h_drift = e_drift = n_drift = 0.0
        for q, w in zip(traj.q[::50], traj.w[::50]):
            h = rotate_vector(q, TUMBLE_J @ w)
            h_drift = max(h_drift, np.linalg.norm(h - h0) / np.linalg.norm(h0))
            e = 0.5 * w @ (TUMBLE_J @ w)
            e_drift = max(e_drift, abs(e - e0) / e0)
            n_drift = max(n_drift, abs(q @ q - 1.0))
        assert h_drift <= 1e-6
        assert e_drift <= 1e-8
        assert n_drift <= 1e-9

    def test_fourth_order_convergence(self):
        def terminal(dt):
            y0 = (1.0, 0.0, 0.0, 0.0, 4.0, 2.4, -3.2)
            return rk4_steps(y0, TUMBLE_J, dt, int(round(1.0 / dt)))

        ref = terminal(1e-5)
        errs = [np.linalg.norm(terminal(dt) - ref) for dt in (8e-3, 4e-3, 2e-3)]
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        for r in ratios:
            assert 12.0 < r < 20.0
