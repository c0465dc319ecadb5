import dataclasses
import math
import warnings

import numpy as np
import pytest

from attswitch import stability
from attswitch.controllers import (
    BenchmarkController,
    ContinuousController,
    ErrorState,
    GainSet,
    SwitchingController,
    _bind_law,
    switch_function,
    update_sigma,
)
from attswitch.quat import IDENTITY, from_axis_angle, quat_inverse, quat_mul
from attswitch.reference import MODE_STAGE3, ManeuverSpec, ManeuverTracker, stage3_initial_state
from attswitch.rigid_body import _bind_derivative

from conftest import (
    half_rate_left,
    integrate_feedback,
    law_torque,
    rand_unit_quat,
    reference_error_state,
    reference_nu,
)

B3 = np.array([0.0, 0.0, 1.0])
PAPER_GAINS = GainSet(kq=10.0, kw=100.0, kn=10.0, c=2.0, delta=0.1)
GENTLE_GAINS = GainSet(kq=2.0, kw=1.5, kn=0.8, c=1.0, delta=0.1)


def err_for(psi_deg, wz, gains=None):
    q = from_axis_angle(B3, math.radians(psi_deg))
    return reference_error_state(q, IDENTITY, np.array([0.0, 0.0, wz]), np.zeros(3))


class TestGainSet:
    @pytest.mark.parametrize("field", ["kq", "kw", "kn", "c", "delta"])
    def test_rejects_nonpositive(self, field):
        kwargs = dict(kq=10.0, kw=100.0, kn=10.0, c=2.0, delta=0.1)
        kwargs[field] = -1.0
        with pytest.raises(ValueError):
            GainSet(**kwargs)

    def test_warns_when_c_too_large(self):
        with pytest.warns(UserWarning, match="4\\*kn\\*kw/kq"):
            GainSet(kq=10.0, kw=100.0, kn=10.0, c=400.0, delta=0.1)

    def test_c_max(self):
        assert PAPER_GAINS.c_max() == pytest.approx(400.0)

    def test_warning_names_the_callers_line(self):
        with pytest.warns(UserWarning) as record:
            GainSet(kq=10.0, kw=100.0, kn=10.0, c=400.0, delta=0.1)
        assert record[0].filename == __file__

    def test_fields_are_frozen(self):
        gains = GainSet(kq=10.0, kw=100.0, kn=10.0, c=2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            gains.c = 3.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            gains.roa_radius = 12.0
        assert gains.c == 2.0 and gains.roa_radius == 8.0

    def test_replace_recomputes_the_constants(self):
        gains = dataclasses.replace(PAPER_GAINS, kq=4.0, c=3.0)
        assert (gains.lam_slope, gains.roa_radius) == (-5.0, 12.0)
        assert (gains.c_kn, gains.kw_kq, gains.p_minor_2) == (30.0, 25.0, 747.75)
        assert PAPER_GAINS.roa_radius == 8.0

    def test_constants_of_the_paper_gains(self):
        g = PAPER_GAINS
        assert (g.lam_slope, g.roa_radius, g.c_kn, g.kw_kq, g.p_minor_2) == (
            -2.0, 8.0, 20.0, 10.0, 199.0
        )

    @pytest.mark.parametrize(
        "gains, name",
        [
            (dict(c=1e308), "roa_radius = inf"),
            (dict(kn=1e308, kq=0.1), "lam_slope = -inf"),
            (dict(kn=1e200, c=1e200), "c_kn = inf"),
            (dict(kw=1e300, kq=1e-300), "kw_kq = inf"),
            (dict(c=1e200), "p_minor_2 = -inf"),
            (dict(kn=1e200, kw=1e200, kq=1e10, c=1e-100), "c_max = inf"),
        ],
    )
    def test_non_finite_constant_raises_naming_it(self, gains, name):
        kwargs = dict(kq=10.0, kw=100.0, kn=10.0, c=2.0, delta=0.1) | gains
        with pytest.raises(ValueError, match=f"non-finite {name}$"):
            GainSet(**kwargs)


class TestAttitudeError:
    def test_zero_error(self):
        q = rand_unit_quat(np.random.default_rng(1))
        w = np.array([0.4, -0.8, 0.1])
        err = reference_error_state(q, q, w, w)
        assert np.allclose(err.q_err, IDENTITY, atol=1e-12) or np.allclose(
            err.q_err, -IDENTITY, atol=1e-12
        )
        assert np.allclose(err.w_err, 0.0)

    def test_100_degree_yaw(self):
        # quaternion product oracle: q_err = q^-1 for identity reference
        err = err_for(100.0, 0.0)
        assert err.m_e == pytest.approx(0.64279, abs=1e-5)
        assert np.allclose(err.n_e, [0.0, 0.0, -0.76604], atol=1e-5)

    def test_210_degree_yaw_keeps_negative_scalar(self):
        err = err_for(210.0, 0.0)
        assert err.m_e == pytest.approx(-0.25882, abs=1e-5)
        assert err.m_e == pytest.approx(math.cos(math.radians(105.0)), abs=1e-12)

    @pytest.mark.parametrize("drift,rescaled", [(1e-13, False), (1e-9, True)])
    def test_error_quaternion_renormalized_only_past_drift_tolerance(self, drift, rescaled):
        q = from_axis_angle(B3, math.radians(210.0)) * math.sqrt(1.0 + drift)
        err = reference_error_state(q, IDENTITY, np.zeros(3), np.zeros(3))
        raw = np.array([q[0], -q[1], -q[2], -q[3]])
        assert np.array_equal(err.q_err, raw) is not rescaled
        assert abs(err.q_err @ err.q_err - 1.0) <= (1e-15 if rescaled else 2e-13)
        assert err.m_e < 0.0

    def test_law_row_holds_the_reference_error_state(self, rng):
        # the error that every law writes into its telemetry row, bit for bit
        law = _bind_law(PAPER_GAINS, np.eye(3).tolist(), "continuous")
        for _ in range(200):
            q, q_d = rand_unit_quat(rng), rand_unit_quat(rng)
            w, w_d = rng.normal(size=3) * 3.0, rng.normal(size=3)
            _, row = law(+1, (*q.tolist(), *w.tolist()), (q_d.tolist(), w_d.tolist(), (0.0,) * 3))
            err = reference_error_state(q, q_d, w, w_d)
            assert np.array(row[:7]).tobytes() == np.concatenate([err.q_err, err.w_err]).tobytes()


def certificates(err, gains):
    """Every per-state certificate of ``err`` for both signs, as one repr, so
    that equal strings mean bit-identical results (the sign of zero included)."""
    per_sign = [
        (
            stability.lyapunov_value(err, sigma, gains),
            stability.lyapunov_rate(err, sigma, gains),
            stability.lyapunov_decay_bound(err, sigma, gains),
            stability.roa_contains(err, sigma, gains),
            reference_nu(err, sigma, gains).tolist(),
            stability.error_jacobian(err, sigma, gains).tolist(),
        )
        for sigma in (+1, -1)
    ]
    return repr((per_sign, switch_function(err, gains)))


class TestErrorState:
    @pytest.mark.parametrize(
        "q_shape,w_shape",
        [((3,), (3,)), ((5,), (3,)), ((4,), (2,)), ((4,), (4,)), ((4, 1), (3,)), ((4,), (1, 3))],
    )
    def test_wrong_shapes_raise(self, q_shape, w_shape):
        with pytest.raises(ValueError) as info:
            ErrorState(q_err=np.zeros(q_shape), w_err=np.zeros(w_shape))
        assert str(q_shape) in str(info.value) and str(w_shape) in str(info.value)

    def test_lists_tuples_and_arrays_give_identical_certificates(self, rng):
        for _ in range(50):
            q, w = rand_unit_quat(rng), rng.normal(size=3) * 3.0
            states = [
                ErrorState(q_err=q, w_err=w),
                ErrorState(q_err=q.tolist(), w_err=w.tolist()),
                ErrorState(q_err=tuple(q.tolist()), w_err=tuple(w.tolist())),
            ]
            expected = certificates(states[0], PAPER_GAINS)
            for err in states:
                assert certificates(err, PAPER_GAINS) == expected
                assert type(err.m_e) is float and err.m_e == q[0]
                assert err.q_err.dtype == err.w_err.dtype == err.n_e.dtype == np.float64

    def test_state_is_a_snapshot(self, rng):
        q, w = rand_unit_quat(rng), rng.normal(size=3)
        err = ErrorState(q_err=q, w_err=w)
        m_e, expected = err.m_e, certificates(err, PAPER_GAINS)
        q[0], w[:] = -1.0, 9.0
        for view in (err.q_err, err.w_err, err.n_e):
            view[0] = 7.0
        assert err.m_e == m_e
        assert certificates(err, PAPER_GAINS) == expected

    def test_equality_compares_the_seven_floats(self):
        err = ErrorState(q_err=np.array([0.5, 0.5, -0.5, 0.5]), w_err=np.array([1.0, -2.0, 3.0]))
        assert err == ErrorState(q_err=(0.5, 0.5, -0.5, 0.5), w_err=[1, -2, 3])
        assert err != ErrorState(q_err=(0.5, 0.5, -0.5, 0.5), w_err=[1.0, -2.0, 3.5])
        assert err != ErrorState(q_err=(-0.5, 0.5, -0.5, 0.5), w_err=[1.0, -2.0, 3.0])
        assert err != (0.5, 0.5, -0.5, 0.5, 1.0, -2.0, 3.0)

    def test_repr_shows_the_seven_floats(self, rng):
        err = ErrorState(q_err=[1, 0, 0, 0], w_err=np.array([0.25, -0.5, 3.0]))
        assert repr(err) == "ErrorState(q_err=(1.0, 0.0, 0.0, 0.0), w_err=(0.25, -0.5, 3.0))"
        err = ErrorState(q_err=rand_unit_quat(rng), w_err=rng.normal(size=3))
        assert eval(repr(err), {"ErrorState": ErrorState}) == err


def test_unknown_law_name_raises():
    # the name fixes the sign rule; an unknown one must not bind some law
    with pytest.raises(KeyError, match="shorter"):
        _bind_law(PAPER_GAINS, np.eye(3).tolist(), "shorter")


class TestContinuousTorque:
    def test_fixed_point_zero_torque(self):
        err = ErrorState(q_err=IDENTITY.copy(), w_err=np.zeros(3))
        tau = law_torque("continuous", err, np.zeros(3), PAPER_GAINS, np.eye(3))
        assert np.allclose(tau, 0.0)

    def test_arithmetic_example(self):
        # arithmetic oracle: 10*(-sin 50 deg) + 100*(-2), spherical J kills the gyro term
        err = err_for(100.0, 2.0)
        tau = law_torque("continuous", err, np.array([0.0, 0.0, 2.0]), PAPER_GAINS, np.eye(3))
        expected = 10.0 * (-math.sin(math.radians(50.0))) + 100.0 * (-2.0)
        assert tau[2] == pytest.approx(expected, abs=1e-12)
        assert tau[2] == pytest.approx(-207.66044, abs=1e-4)
        assert np.allclose(tau[:2], 0.0)

    def test_linear_in_inertia_at_rest(self):
        err = err_for(60.0, 0.5)
        J = np.diag([1.0, 2.0, 3.0])
        t1 = law_torque("continuous", err, np.zeros(3), PAPER_GAINS, J)
        t2 = law_torque("continuous", err, np.zeros(3), PAPER_GAINS, 2.0 * J)
        assert np.allclose(t2, 2.0 * t1)


class TestBenchmarkTorque:
    def test_matches_continuous_for_positive_scalar(self):
        err = err_for(100.0, 2.0)
        w = np.array([0.0, 0.0, 2.0])
        tb = law_torque("benchmark", err, w, PAPER_GAINS, np.eye(3))
        tc = law_torque("continuous", err, w, PAPER_GAINS, np.eye(3))
        assert np.allclose(tb, tc)

    def test_flips_proportional_term_for_negative_scalar(self):
        err = err_for(210.0, 2.0)
        w = np.array([0.0, 0.0, 2.0])
        J = np.eye(3)
        tb = law_torque("benchmark", err, w, PAPER_GAINS, J)
        tc = law_torque("continuous", err, w, PAPER_GAINS, J)
        assert np.allclose(tb - tc, -2.0 * PAPER_GAINS.kq * err.n_e)

    def test_sign_of_zero_is_plus(self):
        err = ErrorState(
            q_err=np.array([0.0, 0.0, 0.0, 1.0]), w_err=np.array([0.0, 0.0, -1.0])
        )
        tb = law_torque("benchmark", err, np.zeros(3), PAPER_GAINS, np.eye(3))
        tc = law_torque("continuous", err, np.zeros(3), PAPER_GAINS, np.eye(3))
        assert np.allclose(tb, tc)

    def test_zero_error_zero_torque(self):
        err = ErrorState(q_err=IDENTITY.copy(), w_err=np.zeros(3))
        assert np.allclose(
            law_torque("benchmark", err, np.zeros(3), PAPER_GAINS, np.eye(3)), 0.0
        )


def _error_vector_rate(err):
    # vector part of 0.5 [0, w_err] q_err, the rate of n_e for a constant reference
    m, n, w = err.m_e, err.n_e, err.w_err
    return 0.5 * (m * w + np.cross(w, n))


class TestSwitchingTorque:
    def test_fixed_point_zero_torque(self):
        err = ErrorState(q_err=IDENTITY.copy(), w_err=np.zeros(3))
        for s in (+1, -1):
            tau = law_torque("switching", err, np.zeros(3), PAPER_GAINS, np.eye(3), s)
            assert np.allclose(tau, 0.0)

    def test_closed_loop_substitution_identity(self, rng):
        # algebraic substitution oracle: plugging each law's commanded torque
        # into the open-loop dynamics must produce nu_dot = -(s*kq*n_e + kw*nu)
        # exactly, nu = w_e + s*kn*n_e with the torque's kn, for any SPD
        # inertia (certifies the J and gyro cancellation).  The continuous
        # (s = +1) and benchmark (s = sgn m_e) laws are the kn = 0 case:
        # w_e_dot = -(s*kq*n_e + kw*w_e).
        g = PAPER_GAINS
        laws = [("continuous", None), ("benchmark", None), ("switching", +1), ("switching", -1)]
        for law, sigma in laws:
            kn = g.kn if law == "switching" else 0.0
            for _ in range(50):
                q = rand_unit_quat(rng)
                q_d = rand_unit_quat(rng)
                w = rng.normal(size=3) * 3.0
                M = rng.normal(size=(3, 3))
                J = M @ M.T + 0.5 * np.eye(3)
                assert np.count_nonzero(J - np.diag(np.diag(J))) == 6
                err = reference_error_state(q, q_d, w, np.zeros(3))
                s = {"continuous": +1, "benchmark": 1 if err.m_e >= 0.0 else -1}.get(law, sigma)
                tau = law_torque(law, err, w, g, J, sigma)
                f = _bind_derivative(J.tolist(), np.linalg.inv(J).tolist())
                wdot = np.array(f(*q, *w, *tau)[4:])
                nu = err.w_err + s * kn * err.n_e
                nudot = -wdot + s * kn * _error_vector_rate(err)
                rhs = -(s * g.kq * err.n_e + g.kw * nu)
                assert np.max(np.abs(nudot - rhs)) <= 1e-9, (law, sigma)

    def test_reduces_to_continuous_as_kn_vanishes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # tiny kn trips the c_max advisory
            g = GainSet(kq=10.0, kw=100.0, kn=1e-9, c=2.0, delta=0.1)
        err = err_for(100.0, 2.0)
        w = np.array([0.0, 0.0, 2.0])
        ts = law_torque("switching", err, w, g, np.eye(3), +1)
        tc = law_torque("continuous", err, w, g, np.eye(3))
        assert np.max(np.abs(ts - tc)) <= 1e-6

    @pytest.mark.parametrize("psi_deg,sigma", [(100.0, +1), (210.0, -1)])
    def test_agrees_with_benchmark_when_signs_match(self, psi_deg, sigma):
        # with sgn(m_e) = sigma and kn -> 0 the two laws coincide term-for-term
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = GainSet(kq=10.0, kw=100.0, kn=1e-9, c=2.0, delta=0.1)
        err = err_for(psi_deg, 2.0)
        assert (1 if err.m_e >= 0 else -1) == sigma
        w = np.array([0.0, 0.0, 2.0])
        ts = law_torque("switching", err, w, g, np.eye(3), sigma)
        tb = law_torque("benchmark", err, w, g, np.eye(3))
        assert np.max(np.abs(ts - tb)) <= 1e-6


class TestSwitchFunction:
    def test_zero_error_gives_4c(self):
        err = ErrorState(q_err=IDENTITY.copy(), w_err=np.zeros(3))
        assert switch_function(err, PAPER_GAINS) == pytest.approx(8.0)

    def test_fast_spin_value(self):
        # arithmetic oracle: -2*(kn/kq)*(4 sin 50) + 8 cos 50
        err = err_for(100.0, 4.0)
        expected = -8.0 * math.sin(math.radians(50.0)) + 8.0 * math.cos(math.radians(50.0))
        assert switch_function(err, PAPER_GAINS) == pytest.approx(expected, abs=1e-12)
        assert switch_function(err, PAPER_GAINS) == pytest.approx(-0.986, abs=1e-3)

    def test_slow_spin_value(self):
        err = err_for(100.0, 2.0)
        assert switch_function(err, PAPER_GAINS) == pytest.approx(2.078, abs=1e-3)


class TestUpdateSigma:
    def test_holds_inside_dead_band(self):
        assert update_sigma(+1, 0.05, 0.1) == +1
        assert update_sigma(-1, -0.05, 0.1) == -1
        assert update_sigma(-1, 0.05, 0.1) == -1

    def test_switches_down(self):
        assert update_sigma(+1, -0.986, 0.1) == -1

    def test_switches_up(self):
        assert update_sigma(-1, 2.078, 0.1) == +1

    def test_boundary_is_inclusive(self):
        assert update_sigma(-1, 0.1, 0.1) == +1
        assert update_sigma(+1, -0.1, 0.1) == -1

    def test_no_count_without_change(self):
        # past the band on the sign's own side: the sign it was given
        assert update_sigma(+1, 5.0, 0.1) == +1
        assert update_sigma(-1, -5.0, 0.1) == -1

    @pytest.mark.parametrize("sigma", [+1, -1])
    def test_nan_lambda_holds(self, sigma):
        assert update_sigma(sigma, math.nan, 0.1) == sigma

    def test_rejects_bad_delta(self):
        for delta in (0.0, -0.1, -math.inf):
            with pytest.raises(ValueError, match="delta must be positive"):
                update_sigma(+1, 0.0, delta)

    @pytest.mark.parametrize("lam", [5.0, -5.0])
    def test_rejects_nan_delta(self, lam):
        # NaN fails every comparison, so it would hold sigma forever
        with pytest.raises(ValueError, match="delta must be positive, got nan"):
            update_sigma(+1, lam, math.nan)

    def test_hysteresis_property(self, rng):
        # the sign can only change when |lam| reaches delta with opposing sign
        sigma = +1
        delta = 0.3
        for lam in rng.uniform(-1.5, 1.5, size=500):
            before = sigma
            sigma = update_sigma(sigma, lam, delta)
            if sigma != before:
                assert abs(lam) >= delta
                assert np.sign(lam) == sigma


class TestClosedLoopEquivalence:
    """Finite-difference checks that the commanded torques reproduce the
    reduced error dynamics when driven through the full rigid-body model.

    Run at gentle gains against a continuous-feedback integrator; the
    production integrator's torque hold would dominate the 1e-6 tolerance.
    """

    J = np.diag([1.0, 2.0, 3.0])
    DT = 1e-4
    STEPS = 400

    def _fd_columns(self, series):
        return (series[2:] - series[:-2]) / (2.0 * self.DT)

    def test_continuous_law_matches_reduced_dynamics(self):
        g = GENTLE_GAINS
        q_d = from_axis_angle(np.array([1.0, 2.0, -1.0]) / math.sqrt(6.0), 0.8)

        def torque_of(q, w):
            err = reference_error_state(q, q_d, w, np.zeros(3))
            return law_torque("continuous", err, w, g, self.J)

        q0 = from_axis_angle(np.array([0.0, 1.0, 0.0]), 0.5)
        _, q, w = integrate_feedback(q0, np.array([0.2, -0.1, 0.3]), torque_of, self.J, self.DT, self.STEPS)
        q_e = np.array([quat_mul(quat_inverse(qi), q_d) for qi in q])
        w_e = -w
        fd_q = self._fd_columns(q_e)
        fd_w = self._fd_columns(w_e)
        for i in range(1, self.STEPS):
            we = w_e[i]
            rhs_q = half_rate_left(we, q_e[i])
            rhs_w = -(g.kq * q_e[i, 1:] + g.kw * we)
            assert np.max(np.abs(fd_q[i - 1] - rhs_q)) <= 1e-6
            assert np.max(np.abs(fd_w[i - 1] - rhs_w)) <= 1e-6

    @pytest.mark.parametrize("sigma", [+1, -1])
    def test_switching_law_matches_reduced_dynamics(self, sigma):
        g = GENTLE_GAINS
        q_d = from_axis_angle(np.array([0.0, 0.0, 1.0]), 1.2)

        def torque_of(q, w):
            err = reference_error_state(q, q_d, w, np.zeros(3))
            return law_torque("switching", err, w, g, self.J, sigma)

        q0 = from_axis_angle(np.array([1.0, 0.0, 0.0]), 0.4)
        _, q, w = integrate_feedback(q0, np.array([0.1, 0.2, -0.3]), torque_of, self.J, self.DT, self.STEPS)
        q_e = np.array([quat_mul(quat_inverse(qi), q_d) for qi in q])
        w_e = -w
        nu = w_e + sigma * g.kn * q_e[:, 1:]
        fd_q = self._fd_columns(q_e)
        fd_nu = self._fd_columns(nu)
        for i in range(1, self.STEPS):
            we = w_e[i]
            rhs_q = half_rate_left(we, q_e[i])
            rhs_nu = -(sigma * g.kq * q_e[i, 1:] + g.kw * nu[i])
            assert np.max(np.abs(fd_q[i - 1] - rhs_q)) <= 1e-6
            assert np.max(np.abs(fd_nu[i - 1] - rhs_nu)) <= 1e-6


class TestControllers:
    def _tracker(self, wz, psi_deg):
        spec = ManeuverSpec(
            w0=np.array([0.0, 0.0, wz]), psi0=math.radians(psi_deg), mode=MODE_STAGE3
        )
        return spec, ManeuverTracker(spec)

    def test_switching_controller_switches_on_first_call(self):
        spec, tracker = self._tracker(4.0, 100.0)
        ctrl = SwitchingController(PAPER_GAINS, np.eye(3), tracker)
        state = stage3_initial_state(spec)
        _, (*_, sigma, _) = ctrl(0.0, state)
        assert sigma == -1
        assert ctrl.sigma == -1

    def test_switching_controller_holds_for_slow_spin(self):
        spec, tracker = self._tracker(2.0, 100.0)
        ctrl = SwitchingController(PAPER_GAINS, np.eye(3), tracker)
        _, (*_, sigma, _) = ctrl(0.0, stage3_initial_state(spec))
        assert sigma == +1
        assert ctrl.sigma == +1

    def test_benchmark_controller_reports_shorter_path_sign(self):
        spec, tracker = self._tracker(2.0, 210.0)
        ctrl = BenchmarkController(PAPER_GAINS, np.eye(3), tracker)
        _, (*_, sigma, _) = ctrl(0.0, stage3_initial_state(spec))
        assert sigma == -1

    def test_continuous_controller_sigma_constant(self):
        spec, tracker = self._tracker(2.0, 210.0)
        ctrl = ContinuousController(PAPER_GAINS, np.eye(3), tracker)
        _, (*_, sigma, _) = ctrl(0.0, stage3_initial_state(spec))
        assert sigma == +1

    @pytest.mark.parametrize(
        "axis,w", [((0.0, 0.0, 1.0), (0.3, -0.2, 0.01)), ((0.6, 0.0, 0.8), (0.246, 0.5, -0.172))]
    )
    def test_tie_at_zero_scalar_part(self, axis, w):
        # a half turn against the stage-3 identity reference gives m_e = 0
        # exactly; w . axis = 0.01 keeps |Lambda| = 2 kn/kq |w . axis| inside
        # the dead band
        _, tracker = self._tracker(2.0, 180.0)
        y = (0.0, *axis, *w)
        tau_c, row_c = ContinuousController(PAPER_GAINS, np.eye(3), tracker)(0.0, y)
        tau_b, row_b = BenchmarkController(PAPER_GAINS, np.eye(3), tracker)(0.0, y)
        m_e, *_, sigma_b, lam = row_b
        assert m_e == 0.0
        assert abs(lam) < PAPER_GAINS.delta
        assert sigma_b == +1
        assert tau_b == tau_c
        for sigma in (+1, -1):
            ctrl = SwitchingController(PAPER_GAINS, np.eye(3), tracker)
            ctrl.sigma = sigma
            _, row = ctrl(0.0, y)
            assert row[7] == sigma
            assert ctrl.sigma == sigma

    @pytest.mark.parametrize("cls", [ContinuousController, BenchmarkController, SwitchingController])
    @pytest.mark.parametrize("mode,t", [(MODE_STAGE3, 0.0), ("full", 1.3)])
    def test_ndarray_and_float_tuple_states_agree(self, cls, mode, t):
        # simulate hands controllers the packed state as a float tuple;
        # callers may pass a packed ndarray
        spec = ManeuverSpec(w0=np.array([0.3, -0.2, 2.0]), psi0=math.radians(210.0), mode=mode)
        J = np.array([[2.0, 0.1, -0.05], [0.1, 1.5, 0.02], [-0.05, 0.02, 3.0]]) * 1e-5
        q = from_axis_angle(np.array([0.6, 0.0, 0.8]), 2.5)
        w = np.array([0.4, -1.1, 2.2])
        y = np.concatenate([q, w])
        got = [
            cls(PAPER_GAINS, J, ManeuverTracker(spec))(t, state)
            for state in (y.copy(), tuple(y.tolist()))
        ]
        (tau_nd, tel_nd), (tau_fl, tel_fl) = got
        assert tuple(map(float, tau_nd)) == tau_fl
        assert all(type(v) is float for v in tau_fl)
        assert tuple(tel_nd) == tuple(tel_fl)
