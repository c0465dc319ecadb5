"""Desired-attitude references for the three-stage yaw maneuver.

Stage 1 holds an identity (hover) reference, stage 2 spins the desired frame
about the body yaw axis at a constant rate until the measured yaw reaches the
target angle, and stage 3 snaps the reference back to identity as an ideal
step.  The stage-2 quaternion is obtained by integrating the constant rate
from identity, which keeps it kinematically consistent and lets its scalar
part go negative for targets beyond pi (no shortest-path flip).

The stage-2 spin has one form, ``_bind_reference(spec)``, a closure over
the maneuver's constants.  ``ManeuverTracker`` binds it once per run, and
its ``sample(t, y)`` owns the stage test and the stage-3 trigger: it
unwraps the yaw of the measured packed state y until the trigger fires, and
returns the hold sample of stages 1 and 3 itself, so a stage-3 sample is
one Python frame.  ``stage3_initial_state`` gives the stage-3 start as the
packed state tuple that ``rigid_body.simulate`` takes, so this module needs
nothing from ``rigid_body``.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .quat import yaw_of

MODE_FULL = "full"
MODE_STAGE3 = "stage3"


@dataclass
class ManeuverSpec:
    """Yaw-maneuver definition.

    w0 is the stage-2 angular-velocity reference (rad/s, nominally along the
    yaw axis), psi0 the stage-2 terminal yaw in rad, and mode selects either
    the full three-stage profile or a direct start at the stage-3 initial
    condition.  Full mode needs w0[2] > 0, or the yaw never grows to psi0,
    and a rate ``rate`` = |w0| whose square w0 . w0 does not underflow to 0.
    """

    w0: np.ndarray
    psi0: float
    stage1_duration: float = 1.0
    mode: str = MODE_FULL

    def __post_init__(self):
        self.w0 = np.asarray(self.w0, dtype=float)
        # the rate |w0| is formed from w0 . w0, which must not overflow
        if self.w0.shape != (3,) or not math.isfinite(sum(x * x for x in self.w0.tolist())):
            raise ValueError(f"w0 must be a 3-vector with a finite squared norm, got {self.w0}")
        if not 0.0 < self.psi0 < 2.0 * math.pi:
            raise ValueError(f"psi0 must lie in (0, 2*pi), got {self.psi0}")
        if not (math.isfinite(self.stage1_duration) and self.stage1_duration >= 0.0):
            raise ValueError(
                f"stage1_duration must be finite and non-negative, got {self.stage1_duration}"
            )
        if self.mode not in (MODE_FULL, MODE_STAGE3):
            raise ValueError(f"unknown maneuver mode {self.mode!r}")
        if self.mode == MODE_FULL and not self.w0[2] > 0.0:
            raise ValueError(f"full mode needs a positive yaw rate w0[2], got {self.w0[2]}")
        # a positive wz whose square underflows: no run length can be planned
        if self.mode == MODE_FULL and not self.rate > 0.0:
            raise ValueError(
                f"full mode needs a stage-2 rate |w0| > 0, got wz = {float(self.w0[2])!r},"
                " whose square underflows to 0"
            )

    @property
    def rate(self) -> float:
        """The stage-2 rate |w0| in rad/s: the spin's rate, and what a
        full-mode run's stage-2 time allowance is planned from."""
        return math.sqrt(float(self.w0 @ self.w0))


class ReferenceSample(NamedTuple):
    """One reference sample, float tuples from ``ManeuverTracker.sample``."""

    q_d: tuple     # (4,) desired attitude
    w_d: tuple     # (3,) rad/s, desired body rate
    wdot_d: tuple  # (3,) rad/s^2, feedforward


# the identity hold of stages 1 and 3, a stage-3 run's reference from t0 on
HOLD = ReferenceSample((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def _bind_reference(spec: ManeuverSpec):
    """Stage-2 reference ``spin(t) -> ReferenceSample`` of float tuples,
    bound to the maneuver: the desired frame turned about the w0 axis at
    the rate |w0| since the end of stage 1 (held at identity if w0 is
    zero).  Which stage a time lies in is ``ManeuverTracker.sample``'s test.
    """
    rate = spec.rate
    if rate < 1e-15:
        return lambda t: HOLD
    t1 = spec.stage1_duration
    w0 = tuple(spec.w0.tolist())
    ax, ay, az = (spec.w0 / rate).tolist()

    def spin(t: float) -> ReferenceSample:
        h = 0.5 * (rate * (t - t1))
        s = math.sin(h)
        return ReferenceSample((math.cos(h), ax * s, ay * s, az * s), w0, HOLD.wdot_d)

    return spin


def stage3_initial_state(spec: ManeuverSpec) -> tuple:
    """Packed body state (qw, qx, qy, qz, wx, wy, wz) at the stage-3 step,
    for a direct (stage3-mode) start.

    The attitude is the continuously accumulated yaw rotation, so for
    psi0 > pi the quaternion scalar part is negative by construction.
    """
    h = 0.5 * spec.psi0
    return (math.cos(h), 0.0, 0.0, math.sin(h), *spec.w0.tolist())


@dataclass
class ManeuverTracker:
    """Stateful wrapper that pins the stage-3 transition during a run.

    ``sample(t, y)`` takes the measured packed state y and returns the
    identity hold in stage 1 and from t0 on (a zero feedforward at the step:
    an ideal discontinuity), else the stage-2 spin.  Full mode: while t0 is
    pending, each sample unwraps the measured yaw across +-pi and arms the
    transition the first time that yaw reaches psi0 in stage 2.  Stage3 mode
    starts with t0 = 0, so the yaw is never read.
    """

    spec: ManeuverSpec
    t0: float | None = field(init=False)

    def __post_init__(self):
        self.t0 = 0.0 if self.spec.mode == MODE_STAGE3 else None
        self._spin = _bind_reference(self.spec)
        # the last measured yaw, in [-pi, pi], and its unwrapped sum; from 0,
        # the first yaw is its own sum (up to the sign of a zero)
        self._prev_yaw = self._yaw = 0.0

    def sample(self, t: float, y) -> ReferenceSample:
        t0 = self.t0
        if t0 is None:
            yaw = yaw_of(y[:4])
            d = yaw - self._prev_yaw
            if d > math.pi:
                d -= 2.0 * math.pi
            elif d < -math.pi:
                d += 2.0 * math.pi
            self._yaw += d
            self._prev_yaw = yaw
            if t >= self.spec.stage1_duration and self._yaw >= self.spec.psi0:
                self.t0 = t0 = t
        if (t0 is not None and t >= t0) or t < self.spec.stage1_duration:
            return HOLD
        return self._spin(t)
