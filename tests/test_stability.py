import math
import warnings
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from attswitch.controllers import ErrorState, GainSet, switch_function
from attswitch.harness import (
    SWITCHING_GAINS,
    make_ic_scenario,
    run_scenario,
)
from attswitch.quat import IDENTITY, from_axis_angle
from attswitch.reference import MODE_STAGE3, ManeuverSpec, stage3_initial_state
from attswitch.stability import (
    closed_loop_field,
    error_jacobian,
    exponential_rate_check,
    format_stability_report,
    inter_switch_decrease_check,
    lyapunov_decay_bound,
    lyapunov_rate,
    lyapunov_series,
    lyapunov_value,
    p_matrix_certificate,
    roa_contains,
    saddle_eigenvalues,
    saddle_jacobian,
)

from conftest import (
    integrate_feedback,
    law_torque,
    rand_unit_quat,
    reference_error_jacobian,
    reference_error_state,
    reference_lyapunov_decay_bound,
    reference_lyapunov_rate,
    reference_lyapunov_value,
    reference_nu,
)

B3 = np.array([0.0, 0.0, 1.0])
GENTLE_GAINS = GainSet(kq=2.0, kw=1.5, kn=0.8, c=1.0, delta=0.1)

# closed-form oracle for the five benchmark ICs: with the identity reference,
# m_e = cos(psi0/2), n_e = (0,0,-sin(psi0/2)), w_e = (0,0,-wz)
TABLE_EXPECTED = {
    (2.0, 150.0): 7.97,
    (3.0, 120.0): 7.60,
    (4.0, 100.0): 7.24,
    (2.0, 100.0): 6.10,
    (2.0, 210.0): 5.90,
}
TABLE_SIGMA = {
    (2.0, 150.0): -1,
    (3.0, 120.0): -1,
    (4.0, 100.0): -1,
    (2.0, 100.0): +1,
    (2.0, 210.0): -1,
}


def table_oracle_V(wz, psi0_deg, sigma, g=SWITCHING_GAINS):
    half = math.radians(psi0_deg) / 2.0
    nu_z = -wz - sigma * g.kn * math.sin(half)
    return 0.5 / g.kq * nu_z**2 + 2.0 * g.c * (1.0 - sigma * math.cos(half))


def ic_error_state(wz, psi0_deg):
    """Reference error state at the stage-3 start of an IC {wz rad/s, psi0 deg}."""
    y0 = stage3_initial_state(
        ManeuverSpec(w0=np.array([0.0, 0.0, wz]), psi0=math.radians(psi0_deg), mode=MODE_STAGE3)
    )
    return reference_error_state(y0[:4], IDENTITY, y0[4:], np.zeros(3))


def rand_error_state(rng, rate_scale=3.0):
    return ErrorState(q_err=rand_unit_quat(rng), w_err=rng.normal(size=3) * rate_scale)


class TestLyapunovValue:
    def test_fixed_points_are_zero(self):
        err = ErrorState(q_err=IDENTITY.copy(), w_err=np.zeros(3))
        assert lyapunov_value(err, +1, SWITCHING_GAINS) == 0.0
        anti = ErrorState(q_err=-IDENTITY, w_err=np.zeros(3))
        assert lyapunov_value(anti, -1, SWITCHING_GAINS) == 0.0

    @pytest.mark.parametrize("ic,expected", sorted(TABLE_EXPECTED.items()))
    def test_benchmark_ic_values(self, ic, expected):
        sigma = TABLE_SIGMA[ic]
        err = ic_error_state(*ic)
        v = lyapunov_value(err, sigma, SWITCHING_GAINS)
        assert v == pytest.approx(expected, abs=0.005)
        assert v == pytest.approx(table_oracle_V(*ic, sigma), abs=1e-12)

    def test_strictly_positive_off_fixed_points(self, rng):
        for _ in range(2000):
            err = rand_error_state(rng)
            for s in (+1, -1):
                assert lyapunov_value(err, s, SWITCHING_GAINS) > 0.0

    def test_antipodal_symmetry(self, rng):
        # V is invariant under (q_err, sigma) -> (-q_err, -sigma)
        for _ in range(1000):
            err = rand_error_state(rng)
            mirrored = ErrorState(q_err=-err.q_err, w_err=err.w_err)
            for s in (+1, -1):
                assert lyapunov_value(err, s, SWITCHING_GAINS) == pytest.approx(
                    lyapunov_value(mirrored, -s, SWITCHING_GAINS), abs=1e-12
                )

    def test_series_matches_scalar(self, rng):
        errs = [rand_error_state(rng) for _ in range(50)]
        sig = np.array([(-1) ** i for i in range(50)])
        m = np.array([e.m_e for e in errs])
        n = np.array([e.n_e for e in errs])
        w = np.array([e.w_err for e in errs])
        vs = lyapunov_series(m, n, w, sig, SWITCHING_GAINS)
        for i, e in enumerate(errs):
            assert vs[i] == pytest.approx(lyapunov_value(e, int(sig[i]), SWITCHING_GAINS), rel=1e-14)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.fixture(scope="module", params=["stage3", "full"])
def certified_run(request):
    """A switching run of the (2, 150) IC: the stage-3 start, or the full maneuver."""
    scenario = make_ic_scenario(2.0, 150.0, "switching")
    if request.param == "full":
        scenario.maneuver = ManeuverSpec(
            w0=np.array([0.0, 0.0, 2.0]), psi0=math.radians(150.0), stage1_duration=0.2
        )
    return run_scenario(scenario)


class TestColumnForm:
    """The certificates on ``ErrorState.of_columns`` are the per-state ones, row by row."""

    CERTIFICATES = (lyapunov_value, lyapunov_rate, roa_contains)

    def test_matches_per_state_and_the_V_column(self, certified_run):
        run, gains = certified_run, certified_run.scenario.gains
        assert len(run.switch_times) > 0
        cols = ErrorState.of_columns(run.m_e, run.n_e, run.w_e)
        states = [
            ErrorState(q_err=(m, *n), w_err=w) for m, n, w in zip(run.m_e, run.n_e, run.w_e)
        ]
        sigmas = run.sigma.tolist()
        for fn in self.CERTIFICATES:
            per_state = [fn(err, s, gains) for err, s in zip(states, sigmas)]
            assert _bits(fn(cols, run.sigma, gains)) == _bits(per_state), fn.__name__
        assert _bits(lyapunov_value(cols, run.sigma, gains)) == _bits(run.V)
        assert _bits(lyapunov_series(run.m_e, run.n_e, run.w_e, run.sigma, gains)) == _bits(run.V)
        assert _bits(switch_function(cols, gains)) == _bits(run.lam)

    def test_columns_are_views(self, certified_run):
        run = certified_run
        m, *n, ex, ey, ez = ErrorState.of_columns(run.m_e, run.n_e, run.w_e)._f
        assert np.shares_memory(m, run.m_e)
        assert all(np.shares_memory(c, run.n_e) for c in n)
        assert all(np.shares_memory(c, run.w_e) for c in (ex, ey, ez))

    def test_one_row_gives_the_per_state_floats(self, certified_run):
        run, gains = certified_run, certified_run.scenario.gains
        for i in (0, len(run.t) // 2, len(run.t) - 1):
            row = ErrorState.of_columns(run.m_e[i], run.n_e[i], run.w_e[i])
            err = ErrorState(q_err=(run.m_e[i], *run.n_e[i]), w_err=run.w_e[i])
            assert row == err
            s = int(run.sigma[i])
            for fn in self.CERTIFICATES + (lyapunov_decay_bound,):
                assert _bits(fn(row, s, gains)) == _bits(fn(err, s, gains)), fn.__name__
            assert _bits(switch_function(row, gains)) == _bits(switch_function(err, gains))
            assert np.array_equal(error_jacobian(row, s, gains), error_jacobian(err, s, gains))


class TestFloatCertificates:
    """The float certificates against the ndarray forms kept in conftest."""

    PAIRS = (
        (lyapunov_value, reference_lyapunov_value),
        (lyapunov_rate, reference_lyapunov_rate),
        (lyapunov_decay_bound, reference_lyapunov_decay_bound),
    )

    @pytest.mark.parametrize("unit", [True, False])
    def test_match_ndarray_reference(self, rng, unit):
        for _ in range(40):
            kq, kw, kn = np.exp(rng.uniform(-2.0, 5.0, size=3))
            gains = GainSet(kq=kq, kw=kw, kn=kn, c=rng.uniform(0.05, 0.95) * 4.0 * kn * kw / kq)
            c = gains.c
            for _ in range(25):
                q = rand_unit_quat(rng) * (1.0 if unit else rng.uniform(0.2, 3.0))
                err = ErrorState(q_err=q, w_err=rng.normal(size=3) * 3.0)
                nn = float(err.n_e @ err.n_e)
                for sigma in (+1, -1):
                    nu = reference_nu(err, sigma, gains)
                    vv, nv = float(nu @ nu), abs(float(nu @ err.n_e))
                    # 1e-12 times the sum of the absolute values of each result's terms
                    scales = (
                        0.5 / kq * vv + 2.0 * c * abs(1.0 - sigma * err.m_e),
                        abs(c - 1.0) * nv + kw / kq * vv + c * kn * nn,
                        c * math.sqrt(nn * vv) + kw / kq * vv + c * kn * nn,
                    )
                    for (fn, ref), scale in zip(self.PAIRS, scales):
                        assert abs(fn(err, sigma, gains) - ref(err, sigma, gains)) <= 1e-12 * scale
                    in_roa = reference_lyapunov_value(err, sigma, gains) < 4.0 * c
                    assert roa_contains(err, sigma, gains) == in_roa
                    assert np.array_equal(
                        error_jacobian(err, sigma, gains),
                        reference_error_jacobian(err, sigma, gains),
                    )


class TestDecayBound:
    def test_fixed_point_zero(self):
        err = ErrorState(q_err=IDENTITY.copy(), w_err=np.zeros(3))
        assert lyapunov_decay_bound(err, +1, SWITCHING_GAINS) == 0.0

    def test_pure_attitude_error_value(self):
        # x = (1, 0): bound = -c*kn = -20 for c=2, kn=10
        n = np.array([0.0, 1.0, 0.0])
        err = ErrorState(
            q_err=np.array([0.0, n[0], n[1], n[2]]), w_err=-SWITCHING_GAINS.kn * n
        )
        assert np.allclose(reference_nu(err, +1, SWITCHING_GAINS), 0.0)
        assert lyapunov_decay_bound(err, +1, SWITCHING_GAINS) == pytest.approx(-20.0)

    def test_strictly_negative_for_positive_definite_P(self, rng):
        for _ in range(2000):
            err = rand_error_state(rng)
            for s in (+1, -1):
                assert lyapunov_decay_bound(err, s, SWITCHING_GAINS) < 0.0


class TestExactRate:
    def test_fixed_point_zero(self):
        err = ErrorState(q_err=IDENTITY.copy(), w_err=np.zeros(3))
        assert lyapunov_rate(err, +1, SWITCHING_GAINS) == 0.0

    def test_directional_derivative_oracle(self, rng):
        # V is polynomial in (m, n, nu), so the central difference along the
        # closed-loop field direction is exact up to roundoff
        g = SWITCHING_GAINS
        h = 1e-6
        for _ in range(300):
            err = rand_error_state(rng)
            for s in (+1, -1):
                nu = reference_nu(err, s, g)
                m, n = err.m_e, err.n_e
                md, nd, nud = closed_loop_field(m, n, nu, s, g)

                def v_free(mm, nunu):
                    return 0.5 / g.kq * float(nunu @ nunu) + 2.0 * g.c * (1.0 - s * mm)

                fd = (
                    v_free(m + h * md, nu + h * nud) - v_free(m - h * md, nu - h * nud)
                ) / (2.0 * h)
                assert fd == pytest.approx(lyapunov_rate(err, s, g), abs=1e-8, rel=1e-8)

    def test_trajectory_finite_difference(self):
        # FD of V along a gently-gained closed-loop trajectory, dt = 1e-4
        g = GENTLE_GAINS
        J = np.diag([1.0, 2.0, 3.0])
        sigma = +1

        def torque_of(q, w):
            err = reference_error_state(q, IDENTITY, w, np.zeros(3))
            return law_torque("switching", err, w, g, J, sigma)

        q0 = from_axis_angle(np.array([0.0, 1.0, 0.0]), 0.8)
        dt, n_steps = 1e-4, 400
        _, q, w = integrate_feedback(q0, np.array([0.2, -0.3, 0.1]), torque_of, J, dt, n_steps)
        errs = [
            reference_error_state(q[i], IDENTITY, w[i], np.zeros(3)) for i in range(n_steps + 1)
        ]
        V = np.array([lyapunov_value(e, sigma, g) for e in errs])
        fd = (V[2:] - V[:-2]) / (2.0 * dt)
        for i in range(1, n_steps):
            assert fd[i - 1] == pytest.approx(lyapunov_rate(errs[i], sigma, g), abs=1e-5)

    @pytest.mark.parametrize("c", [1.0, 2.0])
    def test_bounded_by_quadratic_form(self, rng, c):
        # requires c >= 1/2 for the norm bound step
        g = GainSet(kq=10.0, kw=100.0, kn=10.0, c=c, delta=0.1)
        for _ in range(10000):
            err = rand_error_state(rng)
            for s in (+1, -1):
                assert lyapunov_rate(err, s, g) <= lyapunov_decay_bound(err, s, g) + 1e-12

    def test_negative_off_fixed_points(self, rng):
        for _ in range(5000):
            err = rand_error_state(rng)
            for s in (+1, -1):
                assert lyapunov_rate(err, s, SWITCHING_GAINS) < 0.0


class TestSwitchFunctionIdentity:
    def test_equals_lyapunov_difference(self, rng):
        for _ in range(10000):
            err = rand_error_state(rng)
            diff = lyapunov_value(err, -1, SWITCHING_GAINS) - lyapunov_value(
                err, +1, SWITCHING_GAINS
            )
            assert switch_function(err, SWITCHING_GAINS) == pytest.approx(diff, abs=1e-12)


class TestRegions:
    def test_all_benchmark_ics_inside_roa(self):
        for ic, sigma in TABLE_SIGMA.items():
            err = ic_error_state(*ic)
            assert roa_contains(err, sigma, SWITCHING_GAINS)

    def test_antipodal_point_excluded(self):
        anti = ErrorState(q_err=-IDENTITY, w_err=np.zeros(3))
        # nu = 0 requires w_err = -sigma*kn*n_e = 0 here; V = 4c exactly
        assert lyapunov_value(anti, +1, SWITCHING_GAINS) == pytest.approx(8.0)
        assert not roa_contains(anti, +1, SWITCHING_GAINS)

    def test_identity_inside(self):
        err = ErrorState(q_err=IDENTITY.copy(), w_err=np.zeros(3))
        assert roa_contains(err, +1, SWITCHING_GAINS)


class TestPMatrix:
    def test_paper_gain_certificate(self):
        P, pd, c_max = p_matrix_certificate(SWITCHING_GAINS)
        assert c_max == pytest.approx(400.0)
        assert pd
        # det = c*kn*kw/kq - c^2/4 = 200 - 1 = 199
        assert P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0] == pytest.approx(199.0)

    def test_minor_2_is_that_of_P(self):
        for gains in (SWITCHING_GAINS, GENTLE_GAINS, GainSet(kq=3.0, kw=7.0, kn=2.0, c=1.3)):
            P, _, _ = p_matrix_certificate(gains)
            assert gains.p_minor_2 == P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]

    def test_boundary_not_definite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = GainSet(kq=10.0, kw=100.0, kn=10.0, c=400.0, delta=0.1)
            _, pd, _ = p_matrix_certificate(g)
            assert not pd
            g2 = GainSet(kq=10.0, kw=100.0, kn=10.0, c=800.0, delta=0.1)
            _, pd2, _ = p_matrix_certificate(g2)
            assert not pd2


class TestJacobians:
    def test_saddle_structure(self):
        A = saddle_jacobian(SWITCHING_GAINS)
        assert np.allclose(A[0, :], 0.0)
        assert np.allclose(A[:, 0], 0.0)
        assert np.allclose(A[1:4, 1:4], 0.5 * SWITCHING_GAINS.kn * np.eye(3))
        assert np.allclose(A[1:4, 4:7], -0.5 * np.eye(3))
        assert np.allclose(A[4:7, 1:4], -SWITCHING_GAINS.kq * np.eye(3))
        assert np.allclose(A[4:7, 4:7], -SWITCHING_GAINS.kw * np.eye(3))
        # block trace arithmetic
        assert np.trace(A) == pytest.approx(3.0 * (0.5 * SWITCHING_GAINS.kn - SWITCHING_GAINS.kw))

    def test_specializes_at_antipodal_point(self):
        anti = ErrorState(q_err=-IDENTITY, w_err=np.zeros(3))
        A = error_jacobian(anti, +1, SWITCHING_GAINS)
        assert np.max(np.abs(A - saddle_jacobian(SWITCHING_GAINS))) <= 1e-15

    def test_stable_point_attitude_block(self):
        err = ErrorState(q_err=IDENTITY.copy(), w_err=np.zeros(3))
        A = error_jacobian(err, +1, SWITCHING_GAINS)
        assert np.allclose(A[1:4, 1:4], -0.5 * SWITCHING_GAINS.kn * np.eye(3))

    @pytest.mark.parametrize("sigma", [+1, -1])
    def test_matches_central_finite_differences(self, rng, sigma):
        g = SWITCHING_GAINS
        h = 1e-6

        def field_vec(x):
            md, nd, nud = closed_loop_field(x[0], x[1:4], x[4:7], sigma, g)
            return np.concatenate([[md], nd, nud])

        for _ in range(100):
            err = rand_error_state(rng, rate_scale=2.0)
            nu = reference_nu(err, sigma, g)
            x = np.concatenate([[err.m_e], err.n_e, nu])
            A = error_jacobian(err, sigma, g)
            for j in range(7):
                e = np.zeros(7)
                e[j] = h
                col = (field_vec(x + e) - field_vec(x - e)) / (2.0 * h)
                assert np.max(np.abs(A[:, j] - col)) <= 1e-5


class TestSaddleEigenvalues:
    def test_paper_gain_values(self):
        s = saddle_eigenvalues(SWITCHING_GAINS)
        assert s.lam_unstable == pytest.approx(5.0476, abs=1e-4)
        assert s.lam_stable == pytest.approx(-100.0476, abs=1e-4)
        assert s.lam_zero == 0.0

    def test_matches_numeric_eigensolve_on_grid(self):
        # independent 2x2 eigendecomposition over a gain grid
        vals = (0.1, 1.0, 10.0, 100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for kq, kw, kn in product(vals, vals, vals):
                g = GainSet(kq=kq, kw=kw, kn=kn, c=1e-6, delta=0.1)
                s = saddle_eigenvalues(g)
                M = np.array([[0.5 * kn, -0.5], [-kq, -kw]])
                lams = np.sort(np.linalg.eigvals(M).real)
                scale = max(abs(s.lam_unstable), abs(s.lam_stable))
                assert abs(lams[1] - s.lam_unstable) <= 1e-12 * scale
                assert abs(lams[0] - s.lam_stable) <= 1e-12 * scale

    def test_root_identities_on_grid(self):
        vals = (0.1, 1.0, 10.0, 100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for kq, kw, kn in product(vals, vals, vals):
                g = GainSet(kq=kq, kw=kw, kn=kn, c=1e-6, delta=0.1)
                s = saddle_eigenvalues(g)
                prod_expected = -0.5 * (kq + kn * kw)
                sum_expected = 0.5 * kn - kw
                assert s.lam_unstable * s.lam_stable == pytest.approx(prod_expected, rel=1e-12)
                assert s.lam_unstable + s.lam_stable == pytest.approx(
                    sum_expected, rel=1e-12, abs=1e-12
                )
                assert s.lam_unstable > 0.0 > s.lam_stable

    def test_jacobian_block_eigenvalues_agree(self):
        # the 6x6 block must carry each closed-form eigenvalue three times
        A = saddle_jacobian(SWITCHING_GAINS)[1:, 1:]
        lams = np.sort(np.linalg.eigvals(A).real)
        s = saddle_eigenvalues(SWITCHING_GAINS)
        assert np.allclose(lams[:3], s.lam_stable, rtol=1e-12)
        assert np.allclose(lams[3:], s.lam_unstable, rtol=1e-12)


class TestExponentialRateCheck:
    def test_zero_series_passes(self):
        t = np.linspace(0.0, 1.0, 100)
        ok, viol = exponential_rate_check(t, np.zeros(100), 5.0)
        assert ok and viol is None

    def test_half_rate_series_fails(self):
        t = np.linspace(0.0, 2.0, 200)
        v = np.exp(-5.0 * t)  # decays at kw, bound needs 2*kw
        ok, viol = exponential_rate_check(t, v, 5.0)
        assert not ok
        assert viol is not None and viol[0] < viol[1]

    def test_simulated_trajectory_passes(self):
        g = GainSet(kq=10.0, kw=5.0, kn=20.0, c=1.0, delta=0.1)
        run = run_scenario(make_ic_scenario(0.2, 10.0, "switching", g, horizon=1.5))
        assert run.V[0] < 2.0  # keeps m_e > 0 along the whole trajectory
        ok, viol = exponential_rate_check(run.t, run.V, g.kw)
        assert ok, f"violation at {viol}"


class TestInterSwitchDecrease:
    def _fake(self, sigma, V, delta=0.1):
        n = len(sigma)
        return SimpleNamespace(
            sigma=np.array(sigma),
            V=np.array(V, dtype=float),
            t=np.arange(n, dtype=float),
            scenario=SimpleNamespace(gains=SimpleNamespace(delta=delta)),
        )

    def test_vacuous_without_switches(self):
        run = self._fake([1] * 10, np.linspace(5.0, 1.0, 10))
        ok, off = inter_switch_decrease_check(run)
        assert ok and off is None

    def test_vacuous_with_single_switch(self):
        run = self._fake([1] * 5 + [-1] * 5, np.linspace(5.0, 1.0, 10))
        ok, _ = inter_switch_decrease_check(run)
        assert ok

    def test_detects_violation(self):
        # returns to +1 with V higher than when it left: must fail
        sigma = [1] * 5 + [-1] * 5 + [1] * 5
        V = [5, 4.8, 4.6, 4.4, 4.2] + [4.0, 3.8, 3.6, 3.4, 3.2] + [4.3, 4.2, 4.1, 4.0, 3.9]
        ok, off = inter_switch_decrease_check(self._fake(sigma, V))
        assert not ok
        assert off[0] == 4.0 and off[1] == 10.0

    def test_accepts_proper_decrease(self):
        sigma = [1] * 5 + [-1] * 5 + [1] * 5
        V = [5, 4.8, 4.6, 4.4, 4.2] + [3.0, 2.8, 2.6, 2.4, 2.2] + [2.0, 1.9, 1.8, 1.7, 1.6]
        ok, off = inter_switch_decrease_check(self._fake(sigma, V))
        assert ok, off

    def test_real_run_passes(self):
        run = run_scenario(make_ic_scenario(4.0, 100.0, "switching"))
        ok, off = inter_switch_decrease_check(run)
        assert ok, off


class TestSwitchInstantDecrease:
    def test_full_mode_switch_jump_meets_margin(self):
        # mid-run reference step triggers the switch; the switched-to LF must
        # sit at least delta below the switched-from LF at that instant
        from attswitch.harness import Scenario

        sc = Scenario(
            name="full4",
            maneuver=ManeuverSpec(w0=np.array([0.0, 0.0, 4.0]), psi0=math.radians(100.0)),
            controller="switching",
            gains=SWITCHING_GAINS,
        )
        run = run_scenario(sc)
        changes = np.flatnonzero(run.sigma[1:] != run.sigma[:-1]) + 1
        assert len(changes) == 1
        k = changes[0]
        assert run.lam[k] * run.sigma[k] >= SWITCHING_GAINS.delta - 1e-9


class TestReportFormat:
    def test_contains_certificates(self):
        from attswitch.harness import lyapunov_ic_table

        text = format_stability_report(SWITCHING_GAINS, lyapunov_ic_table())
        assert "c_max = 400" in text
        assert "lambda_unstable = 5.04759" in text
        assert "lambda_stable = -100.04759" in text
        assert "c_min_for_norm_bound = 0.5" in text
        assert text.count("true") >= 5  # all five ICs inside the region
