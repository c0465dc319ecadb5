import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest
from conftest import reference_export
from hypothesis import given, settings, strategies as st

from attswitch import harness
from attswitch.harness import (
    EXPORT_ROWS,
    REFERENCE_ICS,
    SWITCHING_GAINS,
    PerturbationSpec,
    RunResult,
    Scenario,
    control_effort,
    effort_comparison,
    export_run,
    format_comparison_report,
    format_run_report,
    lyapunov_ic_table,
    make_ic_scenario,
    run_scenario,
    scenario_to_text,
)
from attswitch.controllers import _bind_law
from attswitch.reference import HOLD, ManeuverSpec
from attswitch.rigid_body import DEFAULT_INERTIA, bind_rk4

TABLE_TARGETS = {
    (2.0, 150.0): (-1, 7.97),
    (3.0, 120.0): (-1, 7.60),
    (4.0, 100.0): (-1, 7.24),
    (2.0, 100.0): (+1, 6.10),
    (2.0, 210.0): (-1, 5.90),
}


def fake_run(t, tau):
    n = len(t)
    sc = make_ic_scenario(2.0, 100.0)
    return RunResult(
        scenario=sc,
        t=np.asarray(t, dtype=float),
        q=np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
        w=np.zeros((n, 3)),
        m_e=np.ones(n),
        n_e=np.zeros((n, 3)),
        w_e=np.zeros((n, 3)),
        tau=np.asarray(tau, dtype=float),
        sigma=np.ones(n, dtype=int),
        lam=np.zeros(n),
        V=np.zeros(n),
        t0=float(t[0]) if n else 0.0,
        tf=float(t[-1]) if n else 0.0,
        gamma_tau=0.0,
        switch_times=(),
        final_yaw_error=0.0,
    )


class TestControlEffort:
    def test_zero_torque(self):
        t = np.arange(0.0, 3.001, 1e-3)
        run = fake_run(t, np.zeros((len(t), 3)))
        assert control_effort(run, 0.0, 3.0) == 0.0

    def test_constant_torque_rms(self):
        t = np.arange(0.0, 3.001, 1e-3)
        tau = np.tile([0.0, 0.0, 2.0], (len(t), 1))
        assert control_effort(fake_run(t, tau), 0.0, 3.0) == pytest.approx(2.0, rel=1e-12)

    def test_sinusoid_rms(self):
        # analytic oracle: RMS of sin(2 pi t) over one period is 1/sqrt(2)
        t = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        tau = np.zeros((len(t), 3))
        tau[:, 2] = np.sin(2.0 * math.pi * t)
        assert control_effort(fake_run(t, tau), 0.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-6
        )

    def test_window_outside_run_rejected(self):
        t = np.arange(0.0, 1.001, 1e-3)
        run = fake_run(t, np.zeros((len(t), 3)))
        with pytest.raises(ValueError):
            control_effort(run, 0.0, 2.0)
        with pytest.raises(ValueError):
            control_effort(run, -1.0, 0.5)

    @pytest.mark.parametrize("where", ["on_grid", "off_grid", "to_last_row"])
    def test_slice_is_the_mask_form(self, where):
        # the rows t0 - 1e-12 <= t <= tf + 1e-12 of a sorted t, taken as a
        # slice, give the bits of the boolean mask that selects them
        run = run_scenario(make_ic_scenario(2.0, 150.0, "switching", horizon=1.0))
        t = run.t
        t0, tf = {
            "on_grid": (t[137], t[137] + 0.5),
            "off_grid": (t[137] + 0.37e-3, t[137] + 0.5 + 0.61e-3),
            "to_last_row": (t[137], t[-1]),
        }[where]
        mask = (t >= t0 - 1e-12) & (t <= tf + 1e-12)
        if where == "to_last_row":
            assert mask[-1]
        sq = np.einsum("ij,ij->i", run.tau[mask], run.tau[mask])
        want = math.sqrt(float(np.trapezoid(sq, t[mask])) / (tf - t0))
        assert control_effort(run, t0, tf).hex() == want.hex()

    def test_quadrature_is_second_order(self):
        # non-periodic smooth torque t^2: trapezoid error scales as dt^2
        def gamma_at(dt):
            t = np.arange(0.0, 1.0 + dt / 2, dt)
            tau = np.zeros((len(t), 3))
            tau[:, 2] = t**2
            return control_effort(fake_run(t, tau), 0.0, 1.0)

        exact = math.sqrt(0.2)
        e1 = abs(gamma_at(1e-2) - exact)
        e2 = abs(gamma_at(5e-3) - exact)
        assert 3.5 < e1 / e2 < 4.5


class TestRunScenario:
    def test_slow_spin_never_switches(self):
        run = run_scenario(make_ic_scenario(2.0, 100.0, "switching"))
        assert run.switch_times == ()
        assert np.all(run.sigma == 1)

    def test_fast_spin_switches_once_at_start(self):
        run = run_scenario(make_ic_scenario(4.0, 100.0, "switching"))
        assert run.switch_times == (0.0,)
        assert np.all(run.sigma == -1)

    def test_regulation_achieved(self):
        for wz, psi in REFERENCE_ICS:
            run = run_scenario(make_ic_scenario(wz, psi, "switching"))
            assert np.linalg.norm(run.n_e[-1]) < 1e-3
            assert np.linalg.norm(run.w_e[-1]) < 1e-2
            assert abs(math.degrees(run.final_yaw_error)) < 0.5

    def test_roa_membership_at_t0(self):
        for wz, psi in REFERENCE_ICS:
            run = run_scenario(make_ic_scenario(wz, psi, "switching"))
            assert run.V[0] < 4.0 * SWITCHING_GAINS.c

    def test_consecutive_switches_separated(self):
        # empirical dwell: any two switches sit further apart than 10 dt
        for wz, psi in REFERENCE_ICS:
            run = run_scenario(make_ic_scenario(wz, psi, "switching"))
            times = np.array(run.switch_times)
            if len(times) > 1:
                assert np.min(np.diff(times)) > 10 * run.scenario.dt

    def test_full_mode_reaches_target_then_regulates(self):
        sc = Scenario(
            name="full",
            maneuver=ManeuverSpec(w0=np.array([0.0, 0.0, 2.0]), psi0=math.radians(100.0)),
            controller="switching",
            gains=SWITCHING_GAINS,
        )
        run = run_scenario(sc)
        # trigger a bit after stage1 + psi0/rate (tracking lag)
        nominal = 1.0 + math.radians(100.0) / 2.0
        assert nominal <= run.t0 < nominal + 0.2
        assert abs(math.degrees(run.final_yaw_error)) < 0.5

    @pytest.mark.parametrize("wz,psi0_deg,switches", [(2.0, 150.0, 1), (4.0, 100.0, 1), (2.0, 100.0, 0)])
    def test_full_mode_switches_at_the_stage3_step(self, wz, psi0_deg, switches):
        # stage 2 tracks closely, so sigma holds +1 until the reference
        # snaps back at t0; a fast spin then switches there and only there
        sc = Scenario(
            name="full",
            maneuver=ManeuverSpec(w0=np.array([0.0, 0.0, wz]), psi0=math.radians(psi0_deg)),
            controller="switching",
            gains=SWITCHING_GAINS,
        )
        run = run_scenario(sc)
        assert run.t0 > 1.0
        assert run.switch_times == (run.t0,) * switches
        i0 = int(np.searchsorted(run.t, run.t0))
        assert np.all(run.sigma[:i0] == +1)
        assert np.all(run.sigma[i0:] == (-1 if switches else +1))

    def test_benchmark_sign_flip_is_no_switch(self):
        # the shorter-path sign follows m_e each step, so its flips are not
        # the hysteretic law's switches and the report counts none
        run = run_scenario(make_ic_scenario(30.0, 175.0, "benchmark", horizon=1.0))
        assert np.count_nonzero(np.diff(run.sigma)) == 1
        assert run.switch_times == ()
        report = format_run_report(run)
        assert "\nswitch_count = 0\n" in report
        assert "\nswitch_times = \n" in report

    def test_full_mode_needs_nonzero_rate(self):
        with pytest.raises(ValueError, match="positive yaw rate"):
            ManeuverSpec(w0=np.zeros(3), psi0=1.0)

    def test_full_mode_needs_a_rate_whose_square_does_not_underflow(self):
        with pytest.raises(ValueError, match="wz = 1e-200, whose square underflows"):
            ManeuverSpec(w0=np.array([0.0, 0.0, 1e-200]), psi0=1.0)
        # stage3 mode never plans a stage 2, so it keeps such a rate
        assert ManeuverSpec(w0=np.array([0.0, 0.0, 1e-200]), psi0=1.0, mode="stage3").rate == 0.0

    def test_full_mode_allowance_past_the_step_limit_names_wz(self, monkeypatch):
        # 1e-160 squares to a subnormal, not to 0, and the stage-2 allowance
        # makes the run 3.9e160 s long: refused before either loop takes a step
        steps = []
        monkeypatch.setattr(harness, "run_on_plane", lambda *args: steps.append(args))
        monkeypatch.setattr(harness, "simulate", lambda *args: steps.append(args))
        sc = harness.scenario_from_text("", {"mode": "full", "wz": "1e-160", "psi0_deg": "150"})
        with pytest.raises(ValueError) as refused:
            run_scenario(sc)
        assert str(refused.value) == (
            "full mode runs stage 1 (1 s) + stage 2 at wz = 1e-160 rad/s (1.5 psi0/|w0| + 0.5 s ="
            " 3.93e+160 s) + the horizon (3 s) = 3.93e+160 s, so the run takes 3.93e+163 steps,"
            " more than the 10000000 a run may take"
        )
        assert steps == []

    def test_full_mode_run_memory_peak(self):
        # the plane driver gathers its rows CHUNK at a time, as simulate does:
        # 12329 rows, 2.8 MB traced at its peak; holding every row's tuples
        # until the end would need about 8 MB
        sc = harness.scenario_from_text("", {"mode": "full", "wz": "1", "psi0_deg": "299"})
        tracemalloc.start()
        try:
            run = run_scenario(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(run.t) == 12329
        assert peak <= 4e6

    @pytest.mark.parametrize("law", ["continuous", "benchmark", "switching"])
    @pytest.mark.parametrize("case, built", [("stage3", 0), ("full", 0), ("general", 1), ("blows_up", 1)])
    def test_controllers_built(self, monkeypatch, law, case, built):
        # a run on the yaw plane builds no controller; one that the plane
        # driver refuses (J_22 > 1) or hands back (a state that blows up in
        # the first step) builds one, for simulate
        made = []
        make = harness.make_controller
        monkeypatch.setattr(harness, "make_controller", lambda sc: made.append(sc) or make(sc))
        if case == "full":
            sc = harness.scenario_from_text(
                "", {"mode": "full", "wz": "2", "psi0_deg": "150", "controller": law, "horizon": "0.5"}
            )
        else:
            wz = 1e150 if case == "blows_up" else 2.0
            inertia = np.diag([1e-5, 1e-5, 2.0]) if case == "general" else None
            sc = make_ic_scenario(wz, 150.0, law, inertia=inertia, horizon=0.5)
        if case == "blows_up":
            with pytest.raises(harness.SimulationError):
                run_scenario(sc)
        else:
            run_scenario(sc)
        assert made == [sc] * built

    @pytest.mark.parametrize("controller", ["continuous", "benchmark", "switching"])
    def test_step_limit_is_where_one_closed_loop_step_turns_unstable(self, controller):
        # one control step (the law, then the RK4 step) linearised by central
        # differences in the six tangent coordinates (q's vector part, w) at
        # the sigma-matched equilibrium: its spectral radius crosses 1 at
        # dt (kw + kn/2) = 2, with kn = 0 but for the switching law
        gains = harness.DEFAULT_GAINS[controller]
        kn = gains.kn if controller == "switching" else 0.0
        limit = 2.0 / (gains.kw + 0.5 * kn)
        law = _bind_law(gains, DEFAULT_INERTIA.tolist(), controller)

        def spectral_radius(dt):
            step = bind_rk4(DEFAULT_INERTIA, dt)

            def one_step(x):
                y = (math.sqrt(1.0 - x[:3] @ x[:3]), *x.tolist())
                tau, _ = law(+1, y, HOLD)
                return np.array(step(y, tau)[1:])

            h = 1e-7
            cols = [(one_step(h * e) - one_step(-h * e)) / (2.0 * h) for e in np.eye(6)]
            return max(abs(np.linalg.eigvals(np.array(cols).T)))

        assert spectral_radius(0.98 * limit) < 1.0 < spectral_radius(1.02 * limit)
        make_ic_scenario(2.0, 150.0, controller, dt=0.98 * limit)
        with pytest.raises(ValueError, match="must be below 2"):
            make_ic_scenario(2.0, 150.0, controller, dt=1.02 * limit)

    def test_step_just_inside_rate_loop_limit_accepted(self):
        # the limit is dt (kw + kn/2) = 2 with the kn the law binds, 0 but
        # for the switching law, whose limit is 2/105 at its default gains
        for controller, kn in (("benchmark", 0.0), ("continuous", 0.0), ("switching", 10.0)):
            sc = make_ic_scenario(2.0, 150.0, controller, dt=1.99 / (100.0 + 0.5 * kn))
            assert sc.dt * (sc.gains.kw + 0.5 * kn) == pytest.approx(1.99)
        assert make_ic_scenario(2.0, 150.0, "benchmark", dt=0.0199).dt == 0.0199

    @pytest.mark.parametrize("controller", ["continuous", "benchmark", "switching"])
    def test_step_at_rate_loop_limit_rejected(self, controller):
        # kw = 100 for both default gain sets, so dt * kw = 2
        with pytest.raises(ValueError, match="must be below 2"):
            make_ic_scenario(2.0, 150.0, controller, dt=0.02)

    def test_determinism_bit_identical(self):
        r1 = run_scenario(make_ic_scenario(3.0, 120.0, "switching"))
        r2 = run_scenario(make_ic_scenario(3.0, 120.0, "switching"))
        for field in ("t", "q", "w", "tau", "V", "lam"):
            assert np.array_equal(getattr(r1, field), getattr(r2, field))
        assert r1.gamma_tau == r2.gamma_tau

    def test_whole_step_horizon_keeps_its_step_count(self):
        run = run_scenario(make_ic_scenario(2.0, 150.0, "switching", horizon=3.0))
        assert len(run.t) == 3001
        assert run.t[-1] == run.tf == 3.0

    @pytest.mark.parametrize(
        "horizon,dt,steps", [(1.0004, 1e-3, 1001), (0.0025, 1e-3, 3), (3.0, 1.1e-3, 2728)]
    )
    def test_horizon_between_steps_takes_one_more_step(self, horizon, dt, steps):
        # round(h/dt) steps would end short of h: 1000, 2 (half to even), 2727
        run = run_scenario(make_ic_scenario(2.0, 150.0, "switching", dt=dt, horizon=horizon))
        assert len(run.t) == steps + 1
        assert run.tf == horizon <= run.t[-1]

    def test_gamma_nonnegative_and_sampling_monotone(self):
        run = run_scenario(make_ic_scenario(2.0, 150.0, "benchmark"))
        assert run.gamma_tau >= 0.0
        assert np.all(np.diff(run.t) > 0.0)


class TestIcTable:
    def test_reproduces_reference_values(self):
        rows = lyapunov_ic_table()
        assert len(rows) == 5
        for row in rows:
            sigma, v = TABLE_TARGETS[(row["wz"], row["psi0_deg"])]
            assert row["sigma"] == sigma
            assert row["V"] == pytest.approx(v, abs=0.005)
            assert row["in_roa"]

    def test_rows_are_row_0_of_a_switching_run_bit_for_bit(self):
        # the reference ICs, yaw targets next to 0 and 360 deg, both zero
        # rates, a half turn whose Lambda starts inside the dead band (so
        # sigma keeps its start value) and seeded random ones
        rng = np.random.default_rng(20241019)
        edges = [(2.0, 1e-7), (2.0, 359.9999999), (0.0, 150.0), (-0.0, 150.0), (-0.0, 1e-7),
                 (0.0, 359.9999999), (0.01, 180.0), (-0.01, 180.0)]
        drawn = [(rng.uniform(-50.0, 50.0), rng.uniform(1.0, 359.0)) for _ in range(6)]
        ics = (*REFERENCE_ICS, *edges, *drawn)
        for ic, row in zip(ics, lyapunov_ic_table(ics=ics), strict=True):
            run = run_scenario(make_ic_scenario(*ic, horizon=0.002))
            got = np.array([row["m_e"], row["sigma"], row["lam"], row["V"]])
            want = np.array([run.m_e[0], run.sigma[0], run.lam[0], run.V[0]])
            assert got.tobytes() == want.tobytes(), ic
            assert (row["sigma"], row["lam"], row["V"], row["in_roa"]) == harness.values_at_t0(run)

    def test_runs_under_a_millisecond_scale(self):
        # one law call per IC; generous wall-clock bound to catch accidental simulation
        import time

        t0 = time.perf_counter()
        lyapunov_ic_table()
        assert time.perf_counter() - t0 < 0.05


class TestEffortComparison:
    def test_direction_flags_and_strict_ordering(self):
        report = effort_comparison(repeats=2, seed=3)
        flags = [r.direction_agreement for r in report.rows]
        assert flags == [False, False, False, True, True]
        for row in report.rows:
            if not row.direction_agreement:
                assert np.all(row.gamma_switching < row.gamma_benchmark)
        # agreement rows stay close relative to the mismatch reduction
        mismatch = report.mean_mismatch_reduction
        assert mismatch > 10.0
        for row in report.rows:
            if row.direction_agreement:
                assert abs(row.percent_reduction) < mismatch / 2.0

    def test_direction_agreement_reads_the_ic_table(self):
        table = lyapunov_ic_table()
        report = effort_comparison(repeats=1, horizon=0.01)
        assert len(report.rows) == len(table) == 5
        for row, ic in zip(report.rows, table):
            assert (row.wz, row.psi0_deg) == (ic["wz"], ic["psi0_deg"])
            assert row.direction_agreement == ((ic["m_e"] >= 0.0) == (ic["sigma"] == +1))
            # the table's sigma is the one the switching law starts with
            run = run_scenario(make_ic_scenario(ic["wz"], ic["psi0_deg"], horizon=0.01))
            assert run.sigma[0] == ic["sigma"]
            assert run.m_e[0] == ic["m_e"]

    def test_zero_perturbation_zero_esd(self):
        report = effort_comparison(
            repeats=3, perturbation=PerturbationSpec(psi0_deg=0.0, wz=0.0), ics=REFERENCE_ICS[:1]
        )
        row = report.rows[0]
        assert row.esd_benchmark == 0.0
        assert row.esd_switching == 0.0
        assert np.all(row.gamma_switching == row.gamma_switching[0])

    @pytest.mark.parametrize("ic", [(2.0, 30.0), (2.0, 340.0)])
    def test_yaw_spread_leaving_range_rejected_before_any_run(self, monkeypatch, ic):
        def run_scenario(scenario):
            raise AssertionError("ran before the spread was checked")

        monkeypatch.setattr(harness, "run_scenario", run_scenario)
        # the first IC is fine; the second leaves (0, 360) deg at one end
        with pytest.raises(ValueError, match=rf"IC \(2, {ic[1]:g} deg\) \+-30 deg leaves"):
            effort_comparison(
                repeats=1, perturbation=PerturbationSpec(psi0_deg=30.0), ics=((2.0, 150.0), ic)
            )

    def test_yaw_spread_inside_range_accepted(self):
        report = effort_comparison(
            repeats=1, perturbation=PerturbationSpec(psi0_deg=29.0), ics=((2.0, 30.0),), horizon=0.1
        )
        assert len(report.rows) == 1

    def test_seeded_determinism(self):
        r1 = effort_comparison(repeats=2, seed=11, ics=REFERENCE_ICS[:2])
        r2 = effort_comparison(repeats=2, seed=11, ics=REFERENCE_ICS[:2])
        for a, b in zip(r1.rows, r2.rows):
            assert np.array_equal(a.gamma_benchmark, b.gamma_benchmark)
            assert np.array_equal(a.gamma_switching, b.gamma_switching)

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            effort_comparison(repeats=0)

    def test_run_count_past_max_steps_rejected_before_any_run(self, monkeypatch):
        def run_scenario(scenario):
            raise AssertionError("ran before the run count was checked")

        monkeypatch.setattr(harness, "run_scenario", run_scenario)
        monkeypatch.setattr(harness, "MAX_STEPS", 9)
        harness.check_run_count(9)
        # two runs a repeat at each IC
        with pytest.raises(ValueError, match="10 runs are more than the 9 a command may make"):
            effort_comparison(repeats=5, ics=REFERENCE_ICS[:1])


def _plus_zero(run, i):
    run.n_e[:, 0] = 0.0
    run.tau[:, 1] = 0.0
    return b",0,"


def _minus_zero(run, i):
    run.w_e[:, 0] = -0.0
    run.q[:, 2] = -0.0
    return b",-0,"


def _mixed_zero(run, i):
    # equal as floats, different in bits and in the CSV
    run.n_e[:, 1] = np.where(i % 2 == 0, 0.0, -0.0)
    run.w[:, 0] = np.where(i == 0, -0.0, 0.0)
    return b",-0,"


def _constant(value, text):
    def case(run, i):
        run.tau[:, 0] = value
        run.lam = np.full(len(i), value)
        return text

    return case


def _block_change(run, i):
    # constant in the first block and varying after it, and the reverse
    run.q[:, 3] = np.where(i < EXPORT_ROWS, 7.25, i * 0.1)
    run.w[:, 2] = np.where(i < EXPORT_ROWS, i * 0.1, -7.25)
    return b",7.25,"


def _sigma_minus(run, i):
    run.sigma = np.full(len(i), -1)
    return b",-1,"


# case -> function that makes some columns of a random run constant within
# a block and returns a CSV fragment the constant values produce
CONSTANT_COLUMNS = {
    "plus_zero": _plus_zero,
    "minus_zero": _minus_zero,
    "mixed_zero": _mixed_zero,
    "denormal": _constant(5e-324, b",4.9406564584124654e-324,"),
    "huge": _constant(1e300, b",1.0000000000000001e+300,"),
    "third": _constant(1.0 / 3.0, b",0.33333333333333331,"),
    "nan": _constant(math.nan, b",nan,"),
    "block_change": _block_change,
    "sigma_minus": _sigma_minus,
}


class TestExport:
    def test_empty_run_header_only(self, tmp_path):
        run = fake_run(np.array([]), np.zeros((0, 3)))
        path = tmp_path / "empty.csv"
        export_run(run, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("t,qw,qx,qy,qz,")

    def test_single_sample_two_lines(self, tmp_path):
        run = fake_run(np.array([0.0]), np.zeros((1, 3)))
        path = tmp_path / "one.csv"
        export_run(run, path)
        assert len(path.read_text().splitlines()) == 2

    def test_round_trip(self, tmp_path):
        run = run_scenario(make_ic_scenario(4.0, 100.0, "switching", horizon=0.25))
        path = tmp_path / "run.csv"
        export_run(run, path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert np.max(np.abs(data["t"] - run.t)) <= 1e-12
        assert np.max(np.abs(data["qw"] - run.q[:, 0])) <= 1e-12
        assert np.max(np.abs(data["wz"] - run.w[:, 2])) <= 1e-12
        assert np.max(np.abs(data["tauz"] - run.tau[:, 2])) <= 1e-12
        assert np.max(np.abs(data["V"] - run.V)) <= 1e-12
        assert np.max(np.abs(data["sigma"] - run.sigma)) == 0.0

    def test_byte_stable(self, tmp_path):
        run1 = run_scenario(make_ic_scenario(2.0, 100.0, "switching", horizon=0.1))
        run2 = run_scenario(make_ic_scenario(2.0, 100.0, "switching", horizon=0.1))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_run(run1, p1)
        export_run(run2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("n", [EXPORT_ROWS - 1, EXPORT_ROWS, EXPORT_ROWS + 1])
    def test_block_boundaries_match_row_export(self, tmp_path, n):
        rng = np.random.default_rng(n)
        special = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.0 / 3.0])

        def data(*shape):
            a = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
            hit = rng.random(size=shape) < 0.2
            a[hit] = rng.choice(special, size=int(hit.sum()))
            return a

        run = fake_run(data(n), data(n, 3))
        for name in ("q", "w", "n_e", "w_e"):
            setattr(run, name, data(*getattr(run, name).shape))
        for name in ("m_e", "lam", "V"):
            setattr(run, name, data(n))
        run.sigma = rng.choice([-1, 1], size=n)
        got, want = tmp_path / "block.csv", tmp_path / "row.csv"
        export_run(run, got)
        reference_export(run, want)
        text = got.read_bytes()
        assert text == want.read_bytes()
        assert b",-0," in text and b"e-324" in text and b"e-310" in text and b"e+300" in text

    @pytest.mark.parametrize(
        "n", [EXPORT_ROWS - 1, EXPORT_ROWS, EXPORT_ROWS + 1, 2 * EXPORT_ROWS + 1]
    )
    @pytest.mark.parametrize("case", sorted(CONSTANT_COLUMNS))
    def test_constant_columns_match_row_export(self, tmp_path, case, n):
        # every other column varies in every block of two rows or more
        rng = np.random.default_rng(n)
        run = fake_run(rng.normal(size=n), rng.normal(size=(n, 3)))
        for name in ("q", "w", "n_e", "w_e"):
            setattr(run, name, rng.normal(size=(n, getattr(run, name).shape[1])))
        for name in ("m_e", "lam", "V"):
            setattr(run, name, rng.normal(size=n))
        run.sigma = rng.choice([-1, 1], size=n)
        text = CONSTANT_COLUMNS[case](run, np.arange(n))
        got, want = tmp_path / "block.csv", tmp_path / "row.csv"
        export_run(run, got)
        reference_export(run, want)
        assert got.read_bytes() == want.read_bytes()
        assert text in got.read_bytes()

    def test_full_mode_run_matches_row_export(self, tmp_path):
        sc = Scenario(
            name="full",
            maneuver=ManeuverSpec(w0=np.array([0.0, 0.0, 2.0]), psi0=math.radians(150.0)),
            controller="switching",
            gains=SWITCHING_GAINS,
            horizon_after_t0=0.5,
        )
        run = run_scenario(sc)
        # stage 1 holds the body at rest: only t varies in its first block
        cols = (run.t, run.q, run.w, run.m_e, run.n_e, run.w_e, run.tau, run.sigma, run.lam, run.V)
        block = np.column_stack([c[:EXPORT_ROWS] for c in cols])
        varies = [np.unique(block[:, j]).size > 1 for j in range(block.shape[1])]
        assert varies == [True] + [False] * (block.shape[1] - 1)
        got, want = tmp_path / "block.csv", tmp_path / "row.csv"
        export_run(run, got)
        reference_export(run, want)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize(
        "law, ic",
        [("continuous", (2.0, 150.0)), ("benchmark", (2.0, 150.0)), ("switching", (2.0, 150.0)),
         ("continuous", (4.0, 359.0))],
    )
    def test_default_horizon_full_mode_run_matches_row_export(self, tmp_path, law, ic):
        # the command line's full-mode runs at their default 3 s horizon, and
        # at (4, 359) a spin past pi, whose nx and ny turn to -0.0
        sc = harness.scenario_from_text(
            "", {"mode": "full", "wz": ic[0], "psi0_deg": ic[1], "controller": law}
        )
        run = run_scenario(sc)
        got, want = tmp_path / "block.csv", tmp_path / "row.csv"
        export_run(run, got)
        reference_export(run, want)
        text = got.read_bytes()
        assert text == want.read_bytes()
        # the settled tail writes exponent-form text
        assert b"e-0" in text

    def test_full_mode_export_memory_peak(self):
        # the block's cells are formatted at once, so the peak grows with the
        # block: 1.0 MB traced at 256 rows, where the whole run at once took 48 MB
        sc = harness.scenario_from_text("", {"mode": "full", "wz": "1", "psi0_deg": "299"})
        run = run_scenario(sc)
        assert len(run.t) == 12329
        tracemalloc.start()
        try:
            export_run(run, os.devnull)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6

    def test_unwritable_path_raises_oserror(self, tmp_path):
        run = fake_run(np.array([0.0]), np.zeros((1, 3)))
        with pytest.raises(OSError):
            export_run(run, tmp_path / "missing_dir" / "x.csv")


def _powers_of_ten():
    """Every 10^k for k in -300..16, both neighbours of each, and their negatives."""
    p = 10.0 ** np.arange(-300, 17)
    p = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    return np.concatenate([p, -p])


# exact 17th-digit ties, rounded half to even: 18 significant digits ending in 5
TIES = [1234567890123456.75, 1000000000000000.25, 1000000000000000.75, 123456789012345.125,
        -987654321098765.375, (2**18 - 1) / 2**18, 100001 / 2**18]
# the numpy path's edges, and the cells it leaves to "%.17g"
EDGES = [1e16, np.nextafter(1e16, 0.0), 1e-280, np.nextafter(1e-280, 0.0),
         np.nextafter(1e-280, 1.0), 9999999999999998.0, 0.0, -0.0, 5e-324, -2.5e-310,
         2.2250738585072014e-308, math.nan, math.inf, -math.inf, 1e300, -1e17]


class TestFormat17:
    """``harness._format17`` against the "%.17g" it replaces, byte for byte."""

    @staticmethod
    def check(values):
        v = np.array(values, dtype=float)
        assert harness._format17(v) == [b"%.17g" % x for x in v.tolist()]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
    def test_raw_bit_patterns(self, bits):
        self.check(np.array(bits, dtype=np.uint64).view(np.float64))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=50))
    def test_floats(self, values):
        self.check(values)

    def test_powers_of_ten_and_neighbours(self):
        self.check(_powers_of_ten())

    def test_edges_and_specials(self):
        self.check(EDGES)

    def test_exact_ties(self):
        self.check(TIES + [-x for x in TIES])

    def test_numpy_path_takes_the_range_and_leaves_the_rest(self):
        # byte equality alone would pass a formatter that left every cell to
        # "%.17g"; ties, zeros, subnormals and |x| >= 1e16 are left to it
        rng = np.random.default_rng(0)
        # above about 1e9 a double's short decimal expansion ties often
        inside = rng.normal(size=1000) * 10.0 ** rng.integers(-270, 9, size=1000)
        assert harness._digits17(inside)[2].all()
        outside = TIES + [0.0, -0.0, 5e-324, -2.5e-310, math.nan, math.inf, 1e16, -1e17, 1e300]
        assert not harness._digits17(np.array(outside))[2].any()


class TestReports:
    def test_run_report_fields(self):
        run = run_scenario(make_ic_scenario(4.0, 100.0, "switching", horizon=0.5))
        text = format_run_report(run)
        assert "gamma_tau = " in text
        assert "switch_count = 1" in text
        assert "sigma_t0 = -1" in text
        assert "in_roa_at_t0 = true" in text

    def test_comparison_report_columns(self):
        report = effort_comparison(repeats=1, ics=REFERENCE_ICS[:1])
        text = format_comparison_report(report)
        assert "scenario,controller,mean_gamma,esd_gamma,percent_reduction,switches" in text
        assert "ic_2_150,benchmark," in text
        assert "ic_2_150,switching," in text

    def test_scenario_echo_round_trips_keys(self):
        sc = make_ic_scenario(3.0, 120.0, "benchmark", dt=5e-4, horizon=1.5)
        text = scenario_to_text(sc)
        assert "controller = benchmark" in text
        assert "wz = 3" in text
        assert "psi0_deg = 120" in text
        assert "dt = 0.0005" in text

    def test_scenario_echo_rejects_nondiagonal_inertia(self):
        J = np.diag([2e-5, 1.5e-5, 3e-5])
        J[0, 1] = J[1, 0] = 1e-6
        with pytest.raises(ValueError, match="off-diagonal"):
            scenario_to_text(make_ic_scenario(2, 150, inertia=J))

    @pytest.mark.parametrize("wx,wy", [(0.3, -0.0), (0.0, 0.3), (-0.0, 0.0), (0.0, -0.0)])
    def test_scenario_echo_rejects_w0_off_the_yaw_axis(self, wx, wy):
        # a w0 of (0.3, -0.0, 2) was echoed as wz = 2, and the run from that
        # file flew another initial condition
        sc = make_ic_scenario(2, 150)
        sc.maneuver = dataclasses.replace(sc.maneuver, w0=np.array([wx, wy, 2.0]))
        with pytest.raises(ValueError, match="holds only wz"):
            scenario_to_text(sc)
