"""Torque-driven rigid-body attitude dynamics and fixed-step integration.

The open-loop model is the standard one: quaternion kinematics driven by the
body angular velocity, and Euler's equation for the angular acceleration,

    q_dot = 0.5 * q * [0, w]
    w_dot = Jinv (tau - w x J w)

integrated with classical fixed-step RK4 while holding the commanded torque
constant over each step.  The quaternion is renormalized (sign-preserving)
after each step only when its norm has drifted.

Everything that stays constant over a run is bound once, when the run is
set up: ``bind_rk4(J, dt)`` returns the RK4 step ``step(y, tau) -> y`` as a
closure over the inertia rows, their inverse and the step size, and every
step after that passes only float tuples: the packed state
y = (qw, qx, qy, qz, wx, wy, wz) and the held torque tau.
``_bind_derivative`` is the only form of the state derivative, with the
gyroscopic term w x Jw written in its body and J w and Jinv r as full sums
of all nine products, whatever the form of J.
The packed state is also the only form of a state: ``simulate`` starts
from a packed y0, hands its controller the packed state y itself, so
nothing is built per step, and refuses a bad y0 or a run longer than
``MAX_STEPS`` steps before it allocates the run (``checked_run``, which
``harness.run_on_plane`` shares).  Besides the controller's, a step opens
six Python frames: the RK4 step, four derivatives, one renorm.  A run on
the yaw plane is integrated in ``harness.run_on_plane`` instead.
"""

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .quat import renorm_if_drifted

DEFAULT_INERTIA = np.diag([1.66e-5, 1.66e-5, 2.93e-5])  # kg m^2, 31-g quadrotor scale
DEFAULT_DT = 1e-3
# seconds a run goes on past its stage-3 start t0
DEFAULT_HORIZON = 3.0
# rows per chunk of a run, in simulate and in the CSV export
CHUNK = 256
# longest run simulate allocates: about 1.5 GB of trajectory arrays, some
# 800 times the longest run the paper needs
MAX_STEPS = 10**7


class SimulationError(RuntimeError):
    """Raised when integration or a controller fails mid-run."""


def validate_inertia(J: np.ndarray) -> np.ndarray:
    """Check that J is a finite, symmetric, positive-definite 3x3 matrix
    whose inverse is finite.

    Positive definiteness is established through the leading principal
    minors (Sylvester's criterion); a minor that overflows is +inf, and
    counts as positive.  Returns J as a float array.
    """
    J = np.asarray(J, dtype=float)
    if J.shape != (3, 3):
        raise ValueError(f"inertia matrix must be 3x3, got shape {J.shape}")
    if not np.all(np.isfinite(J)):
        raise ValueError("inertia matrix must be finite")
    if not np.allclose(J, J.T, rtol=0.0, atol=1e-12):
        raise ValueError("inertia matrix must be symmetric (tol 1e-12)")
    with np.errstate(over="ignore"):
        m1 = J[0, 0]
        m2 = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        m3 = np.linalg.det(J)
    if not (m1 > 0.0 and m2 > 0.0 and m3 > 0.0):
        raise ValueError(f"inertia matrix must be positive definite, minors = ({m1}, {m2}, {m3})")
    Jinv = np.linalg.inv(J)
    if not np.all(np.isfinite(Jinv)):
        raise ValueError(f"inertia matrix must have a finite inverse, got {Jinv.tolist()}")
    return J


def _check_step(dt: float) -> None:
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt}")


def _bind_derivative(J, Jinv):
    """Derivative ``f(qw, qx, qy, qz, wx, wy, wz, tx, ty, tz)`` of the packed
    state for a held torque, bound to the inertia rows J and their inverse."""
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = J
    (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = Jinv

    def derivative(qw, qx, qy, qz, wx, wy, wz, tx, ty, tz):
        jx = j00 * wx + j01 * wy + j02 * wz
        jy = j10 * wx + j11 * wy + j12 * wz
        jz = j20 * wx + j21 * wy + j22 * wz
        rx = tx - (wy * jz - wz * jy)
        ry = ty - (wz * jx - wx * jz)
        rz = tz - (wx * jy - wy * jx)
        return (
            0.5 * (-qx * wx - qy * wy - qz * wz),
            0.5 * (qw * wx + qy * wz - qz * wy),
            0.5 * (qw * wy - qx * wz + qz * wx),
            0.5 * (qw * wz + qx * wy - qy * wx),
            i00 * rx + i01 * ry + i02 * rz,
            i10 * rx + i11 * ry + i12 * rz,
            i20 * rx + i21 * ry + i22 * rz,
        )

    return derivative


def _inertia_rows(J) -> tuple:
    Jm = np.asarray(J, dtype=float)
    return Jm.tolist(), np.linalg.inv(Jm).tolist()


def bind_rk4(J, dt: float):
    """RK4 step ``step(y, tau) -> y`` bound to the inertia J and step dt.

    y is the packed state (qw, qx, qy, qz, wx, wy, wz) and tau the torque
    held over the step, both float sequences; the result is a 7-tuple with
    the quaternion lazily renormalized.

    Besides the controller's, a step opens six Python frames: the step,
    four derivatives and one renorm.
    """
    _check_step(dt)
    J, Jinv = _inertia_rows(J)
    f = _bind_derivative(J, Jinv)
    h = 0.5 * dt
    s = dt / 6.0

    def step(y, tau):
        y0, y1, y2, y3, y4, y5, y6 = y
        tx, ty, tz = tau
        a0, a1, a2, a3, a4, a5, a6 = f(y0, y1, y2, y3, y4, y5, y6, tx, ty, tz)
        b0, b1, b2, b3, b4, b5, b6 = f(
            y0 + h * a0, y1 + h * a1, y2 + h * a2, y3 + h * a3, y4 + h * a4, y5 + h * a5,
            y6 + h * a6, tx, ty, tz,
        )
        c0, c1, c2, c3, c4, c5, c6 = f(
            y0 + h * b0, y1 + h * b1, y2 + h * b2, y3 + h * b3, y4 + h * b4, y5 + h * b5,
            y6 + h * b6, tx, ty, tz,
        )
        d0, d1, d2, d3, d4, d5, d6 = f(
            y0 + dt * c0, y1 + dt * c1, y2 + dt * c2, y3 + dt * c3, y4 + dt * c4, y5 + dt * c5,
            y6 + dt * c6, tx, ty, tz,
        )
        return (
            *renorm_if_drifted(
                y0 + s * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
                y1 + s * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
                y2 + s * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
                y3 + s * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
            ),
            y4 + s * (a4 + 2.0 * b4 + 2.0 * c4 + d4),
            y5 + s * (a5 + 2.0 * b5 + 2.0 * c5 + d5),
            y6 + s * (a6 + 2.0 * b6 + 2.0 * c6 + d6),
        )

    return step


def _all_finite(y) -> bool:
    """Whether every entry of y is finite.  A sum of finite floats is finite
    or +-inf, never NaN, so a finite sum clears every entry at once; only a
    sum that overflows, or meets an inf or NaN entry, needs the entry test."""
    return math.isfinite(sum(y)) or all(map(math.isfinite, y))


def checked_run(y0, J, dt: float, duration: float) -> tuple:
    """``(y, J, n_steps)`` of a run: y0 as a 7-tuple of floats, the
    validated inertia and round(duration / dt).  A bad duration, inertia or
    dt, a run of more than MAX_STEPS steps, or a y0 that is not 7 finite
    numbers with a unit quaternion (|q|^2 within 1e-9 of 1) raises
    ValueError, before anything is allocated."""
    if not (math.isfinite(duration) and duration >= 0.0):
        raise ValueError(f"duration must be non-negative and finite, got {duration}")
    J = validate_inertia(J)
    _check_step(dt)
    steps = duration / dt
    if steps >= MAX_STEPS + 0.5:
        raise ValueError(
            f"a run of {duration:g} s at dt = {dt:g} s takes {steps:.3g} steps,"
            f" more than the {MAX_STEPS} a run may take"
        )
    y = tuple(map(float, y0))
    if len(y) != 7 or not _all_finite(y):
        raise ValueError(f"the initial state must be 7 finite numbers (q, w), got {y}")
    qq = y[0] * y[0] + y[1] * y[1] + y[2] * y[2] + y[3] * y[3]
    if abs(qq - 1.0) > 1e-9:
        raise ValueError(f"the initial quaternion {y[:4]} is not a unit quaternion: |q|^2 = {qq!r}")
    return y, J, int(round(steps))


@dataclass
class Trajectory:
    """Sampled closed-loop run: one row per physics step plus the final state.

    Row k holds the state at t[k] and the torque and telemetry row that the
    controller returned for it (held over the step that starts there).
    """

    t: np.ndarray          # (N,)
    q: np.ndarray          # (N, 4)
    w: np.ndarray          # (N, 3)
    tau: np.ndarray        # (N, 3)
    telemetry: np.ndarray  # (N, W) controller telemetry rows, W floats each

    def __len__(self) -> int:
        return len(self.t)


def float_rows(rows, width: int) -> np.ndarray:
    """(len(rows), width) float array from a list of rows of ``width`` floats."""
    n = len(rows)
    return np.fromiter(chain.from_iterable(rows), float, n * width).reshape(n, width)


def simulate(
    y0,
    controller,
    J: np.ndarray,
    dt: float,
    duration: float,
) -> Trajectory:
    """Integrate the closed loop from the packed state y0 and record the
    sampled trajectory.

    y0 = (qw, qx, qy, qz, wx, wy, wz) is the scalar-first attitude
    quaternion (body w.r.t. inertial) and the body rate in rad/s.
    ``controller`` is a callable ``(t, y) -> (tau, row)`` invoked once per
    physics step with the packed state y = (qw, qx, qy, qz, wx, wy, wz), a
    tuple of floats; the returned torque (any 3-sequence) is converted to
    floats once and held over the step.  ``row`` is the step's telemetry, a
    sequence of floats whose width W is fixed by the first row (W may be 0,
    and another width raises SimulationError).  The rows are gathered CHUNK
    steps at a time, each chunk converted into its slice of the preallocated
    arrays, so at most one chunk of per-step tuples is alive at any time.
    Returns a Trajectory with one row per physics step plus the final state.
    ``checked_run`` refuses bad input before anything is allocated.
    Controller and integration failures are re-raised as SimulationError
    tagged with the failure time.
    """
    y, J, n_steps = checked_run(y0, J, dt, duration)
    step = bind_rk4(J, dt)
    n = n_steps + 1
    ys_out, taus_out, tel, width = np.empty((n, 7)), np.empty((n, 3)), None, -1
    # filled by index: a store costs less than an append call per step
    ys, taus, rows = [None] * CHUNK, [None] * CHUNK, [None] * CHUNK
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        for k in range(start, stop):
            t = k * dt
            try:
                tau, row = controller(t, y)
                tx, ty, tz = tau
                tau = (float(tx), float(ty), float(tz))
                if len(row) != width:
                    if k:
                        raise ValueError(f"a telemetry row of {len(row)} floats, not {width}")
                    width = len(row)
            except SimulationError:
                raise
            except Exception as exc:
                raise SimulationError(f"controller failed at t={t:.6f}: {exc}") from exc
            i = k - start
            ys[i] = y
            taus[i] = tau
            rows[i] = row
            if k == n_steps:
                break
            try:
                y = step(y, tau)
            except (FloatingPointError, ZeroDivisionError, OverflowError) as exc:
                raise SimulationError(f"integration failed at t={t:.6f}: {exc}") from exc
            # the sum test of _all_finite inlined: it clears a finite state
            if not (math.isfinite(sum(y)) or _all_finite(y)):
                raise SimulationError(
                    f"non-finite state at t={(k + 1) * dt:.6f}: q={y[:4]}, w={y[4:]}"
                )
        m = stop - start
        if tel is None:
            tel = np.empty((n, width))
        ys_out[start:stop] = float_rows(ys[:m], 7)
        taus_out[start:stop] = float_rows(taus[:m], 3)
        tel[start:stop] = float_rows(rows[:m], width)
    return Trajectory(
        t=np.arange(n) * dt, q=ys_out[:, :4], w=ys_out[:, 4:], tau=taus_out, telemetry=tel
    )
