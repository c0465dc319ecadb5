import math
from collections import namedtuple

import numpy as np
import pytest

from attswitch.quat import IDENTITY, from_axis_angle, quat_kinematics, yaw_of
from attswitch.reference import (
    MODE_FULL,
    MODE_STAGE3,
    ManeuverSpec,
    ManeuverTracker,
    stage3_initial_state,
)

B3 = np.array([0.0, 0.0, 1.0])

# a sample's three fields, named for the tests that read them
Sample = namedtuple("Sample", "q_d w_d wdot_d")


def yaw_state(yaw_deg):
    """Packed state at rest with yaw ``yaw_deg`` about the body z axis."""
    h = 0.5 * math.radians(yaw_deg)
    return (math.cos(h), 0.0, 0.0, math.sin(h), 0.0, 0.0, 0.0)


def sample(spec, t, t0):
    """The reference of ``spec`` at time t with the stage-3 start t0 (None:
    not yet armed), its fields as ndarrays.  The tracker is shown the state
    at rest at yaw 0, which never arms t0 (psi0 > 0)."""
    tracker = ManeuverTracker(spec)
    tracker.t0 = t0
    return Sample(*map(np.array, tracker.sample(t, yaw_state(0.0))))


def yaw_spec(wz, psi0_deg, mode=MODE_FULL, stage1=1.0):
    return ManeuverSpec(
        w0=np.array([0.0, 0.0, wz]),
        psi0=math.radians(psi0_deg),
        stage1_duration=stage1,
        mode=mode,
    )


class TestManeuverSpec:
    def test_rejects_psi0_out_of_range(self):
        with pytest.raises(ValueError):
            yaw_spec(2.0, 0.0)
        with pytest.raises(ValueError):
            yaw_spec(2.0, 360.0)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            ManeuverSpec(w0=B3, psi0=1.0, mode="warp")

    @pytest.mark.parametrize("wz", [0.0, -0.0, -2.0])
    def test_full_mode_rejects_yaw_rate_not_positive(self, wz):
        with pytest.raises(ValueError):
            yaw_spec(wz, 150.0)


class TestReferenceAt:
    def test_stage1_identity(self):
        spec = yaw_spec(2.0, 100.0)
        ref = sample(spec, 0.5, None)
        assert np.allclose(ref.q_d, IDENTITY)
        assert np.allclose(ref.w_d, 0.0)
        assert np.allclose(ref.wdot_d, 0.0)

    def test_stage2_integrates_rate(self):
        # angle oracle: |w0| * elapsed = 2 * (radians(100)/2) = 100 deg
        spec = yaw_spec(2.0, 150.0)
        elapsed = math.radians(100.0) / 2.0
        ref = sample(spec, spec.stage1_duration + elapsed, None)
        expected = from_axis_angle(B3, math.radians(100.0))
        assert np.allclose(ref.q_d, expected, atol=1e-12)
        assert np.allclose(ref.w_d, [0.0, 0.0, 2.0])

    def test_stage3_steps_back_to_identity(self):
        spec = yaw_spec(2.0, 100.0)
        ref = sample(spec, 5.0, 2.0)
        assert np.allclose(ref.q_d, IDENTITY)
        assert np.allclose(ref.w_d, 0.0)
        assert np.allclose(ref.wdot_d, 0.0)

    def test_stage2_kinematic_consistency(self):
        # finite-difference d/dt q_d vs 0.5 * q_d x [0, w_d] inside the stage
        spec = yaw_spec(3.0, 200.0)
        h = 1e-5
        for t in (1.2, 1.7, 2.0):
            qp = sample(spec, t + h, None).q_d
            qm = sample(spec, t - h, None).q_d
            fd = (qp - qm) / (2.0 * h)
            ref = sample(spec, t, None)
            analytic = quat_kinematics(ref.q_d, ref.w_d)
            assert np.max(np.abs(fd - analytic)) <= 1e-6

    def test_continuous_except_at_t0(self):
        spec = yaw_spec(2.0, 100.0)
        t0 = spec.stage1_duration + math.radians(100.0) / 2.0
        h = 1e-9
        # continuous across the stage-1/2 boundary
        q_before = sample(spec, spec.stage1_duration - h, t0).q_d
        q_after = sample(spec, spec.stage1_duration + h, t0).q_d
        assert np.max(np.abs(q_after - q_before)) <= 1e-8
        # discontinuous at t0
        q_before = sample(spec, t0 - h, t0).q_d
        q_after = sample(spec, t0 + h, t0).q_d
        assert np.max(np.abs(q_after - q_before)) > 0.1


class TestStage3InitialState:
    def test_100_degrees(self):
        s = stage3_initial_state(yaw_spec(2.0, 100.0, MODE_STAGE3))
        assert s[0] == pytest.approx(math.cos(math.radians(50.0)), abs=1e-12)
        assert s[0] == pytest.approx(0.64279, abs=1e-5)
        assert np.allclose(s[4:], [0.0, 0.0, 2.0])

    def test_210_degrees_scalar_part_negative(self):
        # continuity: for psi0 > pi the scalar part must stay negative
        s = stage3_initial_state(yaw_spec(2.0, 210.0, MODE_STAGE3))
        assert s[0] == pytest.approx(-0.25882, abs=1e-5)
        assert s[0] == pytest.approx(math.cos(math.radians(105.0)), abs=1e-12)

    def test_tiny_maneuver_is_near_identity(self):
        s = stage3_initial_state(yaw_spec(0.0, 1e-7, MODE_STAGE3))
        assert np.allclose(s[:4], IDENTITY, atol=1e-8)
        assert np.allclose(s[4:], 0.0)


class TestManeuverTracker:
    def test_stage3_mode_starts_transitioned(self):
        spec = yaw_spec(2.0, 100.0, MODE_STAGE3)
        tracker = ManeuverTracker(spec)
        assert tracker.t0 == 0.0
        q_d, _, _ = tracker.sample(0.0, stage3_initial_state(spec))
        assert np.allclose(q_d, IDENTITY)

    def test_stage3_mode_never_reads_the_state(self):
        tracker = ManeuverTracker(yaw_spec(2.0, 100.0, MODE_STAGE3))
        assert tracker.sample(0.5, None)[0] == tuple(IDENTITY.tolist())

    def test_full_mode_triggers_on_measured_yaw(self):
        tracker = ManeuverTracker(yaw_spec(2.0, 100.0))
        assert tracker.t0 is None
        tracker.sample(1.5, yaw_state(90.0))
        assert tracker.t0 is None
        tracker.sample(1.9, yaw_state(100.5))
        assert tracker.t0 == 1.9
        # armed once: a later yaw below psi0 leaves t0 where it is
        tracker.sample(2.0, yaw_state(10.0))
        assert tracker.t0 == 1.9

    def test_no_trigger_during_stage1(self):
        tracker = ManeuverTracker(yaw_spec(2.0, 100.0))
        tracker.sample(0.5, yaw_state(170.0))
        assert tracker.t0 is None

    def test_yaw_unwrapped_across_pi(self):
        # the measured yaw lies in (-pi, pi]: 181 deg reads -179 deg, which
        # only the unwrapped sum 179 + 2 = 181 deg carries past psi0
        tracker = ManeuverTracker(yaw_spec(2.0, 180.5))
        tracker.sample(1.5, yaw_state(179.0))
        assert tracker.t0 is None
        assert yaw_of(yaw_state(181.0)[:4]) == pytest.approx(math.radians(-179.0))
        tracker.sample(1.6, yaw_state(181.0))
        assert tracker.t0 == 1.6
