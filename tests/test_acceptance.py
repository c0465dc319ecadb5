"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line
(visible with ``pytest tests/test_acceptance.py -v -s``).  Tolerances are
pinned here and nowhere else.
"""

import math
import time
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest

from attswitch.controllers import ErrorState, GainSet
from attswitch.harness import (
    REFERENCE_ICS,
    SWITCHING_GAINS,
    effort_comparison,
    lyapunov_ic_table,
    make_ic_scenario,
    run_scenario,
)
from attswitch.quat import IDENTITY, rotate_vector
from attswitch.rigid_body import bind_rk4, simulate
from attswitch.stability import (
    closed_loop_field,
    error_jacobian,
    exponential_rate_check,
    inter_switch_decrease_check,
    lyapunov_decay_bound,
    lyapunov_rate,
    saddle_eigenvalues,
    saddle_jacobian,
)

from conftest import rand_unit_quat

TABLE_TARGETS = {
    (2.0, 150.0): (-1, 7.97),
    (3.0, 120.0): (-1, 7.60),
    (4.0, 100.0): (-1, 7.24),
    (2.0, 100.0): (+1, 6.10),
    (2.0, 210.0): (-1, 5.90),
}


@contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"criterion {num} FAIL: {label}")
        raise
    print(f"criterion {num} PASS: {label}")


def test_criterion_1_lyapunov_table_reproduction():
    with criterion(1, "closed-form Lyapunov values at the five benchmark ICs (+/- 0.01)"):
        start = time.perf_counter()
        rows = lyapunov_ic_table()
        elapsed = time.perf_counter() - start
        assert len(rows) == 5
        for row in rows:
            sigma, value = TABLE_TARGETS[(row["wz"], row["psi0_deg"])]
            assert row["sigma"] == sigma, row
            assert abs(row["V"] - value) <= 0.01, row
        assert elapsed < 0.05  # closed form, no simulation


def test_criterion_2_saddle_spectrum():
    with criterion(2, "saddle eigenvalues: closed form vs independent 2x2 eigensolve"):
        s = saddle_eigenvalues(SWITCHING_GAINS)
        assert abs(s.lam_unstable - 5.0476) <= 1e-4
        assert abs(s.lam_stable - (-100.0476)) <= 1e-4
        vals = (0.1, 1.0, 10.0, 100.0)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for kq, kw, kn in product(vals, vals, vals):
                g = GainSet(kq=kq, kw=kw, kn=kn, c=1e-6, delta=0.1)
                spec = saddle_eigenvalues(g)
                lams = np.sort(np.linalg.eigvals(np.array([[0.5 * kn, -0.5], [-kq, -kw]])).real)
                scale = max(abs(spec.lam_unstable), abs(spec.lam_stable))
                assert abs(lams[1] - spec.lam_unstable) <= 1e-12 * scale
                assert abs(lams[0] - spec.lam_stable) <= 1e-12 * scale
                assert spec.lam_unstable * spec.lam_stable == pytest.approx(
                    -0.5 * (kq + kn * kw), rel=1e-12
                )


def test_criterion_3_jacobian_consistency():
    with criterion(3, "closed-loop Jacobian vs central differences and saddle form"):
        g = SWITCHING_GAINS
        rng = np.random.default_rng(42)
        h = 1e-6

        for sigma in (+1, -1):

            def field_vec(x):
                md, nd, nud = closed_loop_field(x[0], x[1:4], x[4:7], sigma, g)
                return np.concatenate([[md], nd, nud])

            for _ in range(100):
                q = rand_unit_quat(rng)
                err = ErrorState(q_err=q, w_err=rng.normal(size=3) * 2.0)
                nu = err.w_err + sigma * g.kn * err.n_e
                x = np.concatenate([[err.m_e], err.n_e, nu])
                A = error_jacobian(err, sigma, g)
                for j in range(7):
                    e = np.zeros(7)
                    e[j] = h
                    col = (field_vec(x + e) - field_vec(x - e)) / (2.0 * h)
                    assert np.max(np.abs(A[:, j] - col)) <= 1e-5

        anti = ErrorState(q_err=-IDENTITY, w_err=np.zeros(3))
        assert np.max(np.abs(error_jacobian(anti, +1, g) - saddle_jacobian(g))) <= 1e-15


def test_criterion_4_lyapunov_decrease():
    with criterion(4, "rate bound on 1e5 random states and monotone V along the five runs"):
        g = SWITCHING_GAINS
        rng = np.random.default_rng(7)
        for _ in range(100000):
            err = ErrorState(q_err=rand_unit_quat(rng), w_err=rng.normal(size=3) * 3.0)
            for sigma in (+1, -1):
                rate = lyapunov_rate(err, sigma, g)
                assert rate <= lyapunov_decay_bound(err, sigma, g) + 1e-12
                assert rate < 0.0

        for wz, psi in REFERENCE_ICS:
            run = run_scenario(make_ic_scenario(wz, psi, "switching"))
            dv = np.diff(run.V)
            same_sign = run.sigma[1:] == run.sigma[:-1]
            assert np.all(dv[same_sign] <= 1e-6)
            ok, off = inter_switch_decrease_check(run)
            assert ok, off


def test_criterion_5_exponential_rate():
    with criterion(5, "V(t) <= V(0) exp(-2 kw t) with c=1, kn=4kw, m_e > 0"):
        g = GainSet(kq=10.0, kw=5.0, kn=20.0, c=1.0, delta=0.1)
        run = run_scenario(make_ic_scenario(0.2, 10.0, "switching", g, horizon=1.5))
        assert run.V[0] < 2.0  # guarantees m_e > 0 for all later times
        assert np.all(run.m_e > 0.0)
        bound = run.V[0] * np.exp(-2.0 * g.kw * run.t) * (1.0 + 1e-6)
        assert np.all(run.V <= bound)
        ok, viol = exponential_rate_check(run.t, run.V, g.kw)  # all sample pairs
        assert ok, viol


def test_criterion_6_switching_behavior():
    with criterion(6, "slow spin holds sigma, fast spin switches once; yaw regulated"):
        slow = run_scenario(make_ic_scenario(2.0, 100.0, "switching"))
        assert len(slow.switch_times) == 0
        assert np.all(slow.sigma == +1)
        fast = run_scenario(make_ic_scenario(4.0, 100.0, "switching"))
        assert len(fast.switch_times) == 1
        assert fast.switch_times[0] == 0.0
        assert np.all(fast.sigma == -1)
        for run in (slow, fast):
            assert abs(math.degrees(run.final_yaw_error)) < 0.5


def test_criterion_7_energy_comparison():
    with criterion(7, "switching beats the shorter-path law on every mismatch repeat"):
        report = effort_comparison(repeats=10, seed=0)
        flags = [r.direction_agreement for r in report.rows]
        assert flags == [False, False, False, True, True]
        for row in report.rows:
            if not row.direction_agreement:
                assert np.all(row.gamma_switching < row.gamma_benchmark)
        mean_reduction = report.mean_mismatch_reduction
        agree = [abs(r.percent_reduction) for r in report.rows if r.direction_agreement]
        assert all(a < mean_reduction / 2.0 for a in agree)
        print(
            f"  mean mismatch reduction = {mean_reduction:.1f} %, "
            f"agreement-case |reduction| = {max(agree):.2f} %"
        )


def test_criterion_8_numerical_hygiene():
    with criterion(8, "norm drift, momentum conservation, and 4th-order convergence"):
        J = np.diag([1.66e-5, 1.86e-5, 2.93e-5])
        state = (*IDENTITY, 1.0, 0.6, -0.8)
        traj = simulate(state, lambda t, s: (np.zeros(3), ()), J, 1e-3, 10.0)
        h0 = rotate_vector(traj.q[0], J @ traj.w[0])
        for q, w in zip(traj.q[::25], traj.w[::25]):
            assert abs(q @ q - 1.0) <= 1e-9
            h = rotate_vector(q, J @ w)
            assert np.linalg.norm(h - h0) / np.linalg.norm(h0) <= 1e-6

        def terminal(dt):
            step, y = bind_rk4(J, dt), (1.0, 0.0, 0.0, 0.0, 4.0, 2.4, -3.2)
            for _ in range(int(round(1.0 / dt))):
                y = step(y, (0.0, 0.0, 0.0))
            return np.array(y)

        ref = terminal(1e-5)
        errs = [np.linalg.norm(terminal(dt) - ref) for dt in (8e-3, 4e-3, 2e-3)]
        for i in range(2):
            assert 12.0 < errs[i] / errs[i + 1] < 20.0
