"""Desired-attitude references for the three-stage yaw maneuver.

Stage 1 holds an identity (hover) reference, stage 2 spins the desired frame
about the body yaw axis at a constant rate until the measured yaw reaches the
target angle, and stage 3 snaps the reference back to identity as an ideal
step.  The stage-2 quaternion is obtained by integrating the constant rate
from identity, which keeps it kinematically consistent and lets its scalar
part go negative for targets beyond pi (no shortest-path flip).

``ManeuverTracker`` owns the stage schedule.  Its ``sample(t, y)``
unwraps the yaw of the measured packed state y until the stage-3 trigger
fires, and returns the hold sample ``HOLD`` or forms the stage-2 spin in its
own body: one Python frame, and ``quat.yaw_of`` while t0 is pending.  A run
on the yaw plane, in ``harness.run_on_plane``, mirrors that read bit for bit
in its own loop, from the rate, axis and w0 of a tracker it builds and from
a yaw sum, last yaw and t0 of its own, and returns t0 without writing to
the tracker.
``stage3_initial_state`` gives the stage-3 start as the packed state tuple
that ``rigid_body.simulate`` takes, so this module needs nothing from
``rigid_body``.
"""

import math
from dataclasses import dataclass, field

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


# A reference sample is three float tuples (q_d, w_d, wdot_d): the desired
# attitude (4,), the desired body rate (3,) in rad/s and its feedforward (3,)
# in rad/s^2.  HOLD is the identity hold of stages 1 and 3, a stage-3 run's
# reference from t0 on.
HOLD = ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


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
    """Stateful wrapper that owns the stage schedule of a run.

    ``sample(t, y)`` takes the measured packed state y and returns the
    identity hold in stage 1 and from t0 on (a zero feedforward at the step:
    an ideal discontinuity), else the stage-2 spin: the frame turned about w0
    at |w0| since stage 1 ended, w_d = w0 (the hold if |w0| < 1e-15).  Full
    mode: while t0 is pending, each sample unwraps the measured yaw across
    +-pi and arms the transition the first time that yaw reaches psi0 in
    stage 2.  Stage3 mode starts with t0 = 0, so the yaw is never read.
    """

    spec: ManeuverSpec
    t0: float | None = field(init=False)

    def __post_init__(self):
        spec = self.spec
        self.t0 = 0.0 if spec.mode == MODE_STAGE3 else None
        # the spin's rate, w_d and unit axis, bound once
        self._rate = rate = spec.rate
        self._w0 = tuple(spec.w0.tolist())
        self._axis = None if rate < 1e-15 else tuple((spec.w0 / rate).tolist())
        # the last measured yaw, in [-pi, pi], and its unwrapped sum; from 0,
        # the first yaw is its own sum (up to the sign of a zero)
        self._prev_yaw = self._yaw = 0.0

    def sample(self, t: float, y) -> tuple:
        t0, t1 = self.t0, self.spec.stage1_duration
        if t0 is None:
            yaw = yaw_of(y[:4])
            d = yaw - self._prev_yaw
            if d > math.pi:
                d -= 2.0 * math.pi
            elif d < -math.pi:
                d += 2.0 * math.pi
            self._yaw += d
            self._prev_yaw = yaw
            if t >= t1 and self._yaw >= self.spec.psi0:
                self.t0 = t0 = t
        axis = self._axis
        if (t0 is not None and t >= t0) or t < t1 or axis is None:
            return HOLD
        h = 0.5 * (self._rate * (t - t1))
        s = math.sin(h)
        ax, ay, az = axis
        return (math.cos(h), ax * s, ay * s, az * s), self._w0, HOLD[2]
