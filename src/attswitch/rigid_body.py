"""Torque-driven rigid-body attitude dynamics and fixed-step integration.

The open-loop model is the standard one: quaternion kinematics driven by the
body angular velocity, and Euler's equation for the angular acceleration,

    q_dot = 0.5 * q * [0, w]
    w_dot = Jinv (tau - w x J w)

integrated with classical fixed-step RK4 while holding the commanded torque
constant over each step.  The quaternion is renormalized (sign-preserving)
after each step only when its norm has drifted.

The closed-loop hot path runs on plain Python floats: the state is a
7-tuple (qw, qx, qy, qz, wx, wy, wz), the torque a 3-tuple and the inertia
and its inverse nested row sequences.  ``gyroscopic``, ``_derivative`` and
``_rk4`` are the only implementations of the gyroscopic term, the state
derivative and the RK4 step; ``open_loop_derivative`` and ``rk4_step`` are
ndarray wrappers over them, and ``simulate`` calls them directly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .quat import renorm_if_drifted

DEFAULT_INERTIA = np.diag([1.66e-5, 1.66e-5, 2.93e-5])  # kg m^2, 31-g quadrotor scale
DEFAULT_DT = 1e-3


class SimulationError(RuntimeError):
    """Raised when integration or a controller fails mid-run."""


def validate_inertia(J: np.ndarray) -> np.ndarray:
    """Check that J is a finite, symmetric, positive-definite 3x3 matrix.

    Positive definiteness is established through the leading principal
    minors (Sylvester's criterion).  Returns J as a float array.
    """
    J = np.asarray(J, dtype=float)
    if J.shape != (3, 3):
        raise ValueError(f"inertia matrix must be 3x3, got shape {J.shape}")
    if not np.all(np.isfinite(J)):
        raise ValueError("inertia matrix must be finite")
    if not np.allclose(J, J.T, rtol=0.0, atol=1e-12):
        raise ValueError("inertia matrix must be symmetric (tol 1e-12)")
    m1 = J[0, 0]
    m2 = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    m3 = np.linalg.det(J)
    if not (m1 > 0.0 and m2 > 0.0 and m3 > 0.0):
        raise ValueError(f"inertia matrix must be positive definite, minors = ({m1}, {m2}, {m3})")
    return J


def _check_step(dt: float) -> None:
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt}")


@dataclass
class BodyState:
    """Attitude quaternion (body w.r.t. inertial) and body-frame angular velocity."""

    q: np.ndarray  # (4,) scalar-first unit quaternion
    w: np.ndarray  # (3,) rad/s


def gyroscopic(w, J) -> tuple:
    """Gyroscopic term w x Jw as floats, for body rates w and inertia rows J."""
    wx, wy, wz = w
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = J
    jx = j00 * wx + j01 * wy + j02 * wz
    jy = j10 * wx + j11 * wy + j12 * wz
    jz = j20 * wx + j21 * wy + j22 * wz
    return wy * jz - wz * jy, wz * jx - wx * jz, wx * jy - wy * jx


def _derivative(y, tau, J, Jinv) -> tuple:
    """Derivative of the packed state y = (q, w) for a held torque tau."""
    qw, qx, qy, qz, wx, wy, wz = y
    gx, gy, gz = gyroscopic((wx, wy, wz), J)
    rx = tau[0] - gx
    ry = tau[1] - gy
    rz = tau[2] - gz
    (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = Jinv
    return (
        0.5 * (-qx * wx - qy * wy - qz * wz),
        0.5 * (qw * wx + qy * wz - qz * wy),
        0.5 * (qw * wy - qx * wz + qz * wx),
        0.5 * (qw * wz + qx * wy - qy * wx),
        i00 * rx + i01 * ry + i02 * rz,
        i10 * rx + i11 * ry + i12 * rz,
        i20 * rx + i21 * ry + i22 * rz,
    )


def _rk4(y, tau, J, Jinv, dt: float) -> tuple:
    """One RK4 step of the packed state with tau held, quaternion lazily renormalized."""
    h = 0.5 * dt
    y0, y1, y2, y3, y4, y5, y6 = y
    a0, a1, a2, a3, a4, a5, a6 = _derivative(y, tau, J, Jinv)
    b0, b1, b2, b3, b4, b5, b6 = _derivative(
        (y0 + h * a0, y1 + h * a1, y2 + h * a2, y3 + h * a3, y4 + h * a4, y5 + h * a5, y6 + h * a6),
        tau, J, Jinv,
    )
    c0, c1, c2, c3, c4, c5, c6 = _derivative(
        (y0 + h * b0, y1 + h * b1, y2 + h * b2, y3 + h * b3, y4 + h * b4, y5 + h * b5, y6 + h * b6),
        tau, J, Jinv,
    )
    d0, d1, d2, d3, d4, d5, d6 = _derivative(
        (y0 + dt * c0, y1 + dt * c1, y2 + dt * c2, y3 + dt * c3,
         y4 + dt * c4, y5 + dt * c5, y6 + dt * c6),
        tau, J, Jinv,
    )
    s = dt / 6.0
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


def _all_finite(y) -> bool:
    return all(map(math.isfinite, y))


def _packed(state: BodyState) -> tuple:
    q, w = np.asarray(state.q, dtype=float), np.asarray(state.w, dtype=float)
    return (*q.tolist(), *w.tolist())


def open_loop_derivative(state: BodyState, tau: np.ndarray, J: np.ndarray):
    """State derivative (q_dot, w_dot) for torque tau."""
    Jm = np.asarray(J, dtype=float)
    d = _derivative(_packed(state), [float(v) for v in tau], Jm.tolist(), np.linalg.inv(Jm).tolist())
    return np.array(d[:4]), np.array(d[4:])


def rk4_step(state: BodyState, tau: np.ndarray, J: np.ndarray, dt: float) -> BodyState:
    """One RK4 step of the open-loop dynamics with tau held constant."""
    _check_step(dt)
    Jm = np.asarray(J, dtype=float)
    y = _rk4(_packed(state), [float(v) for v in tau], Jm.tolist(), np.linalg.inv(Jm).tolist(), dt)
    if not _all_finite(y):
        raise SimulationError(f"non-finite state after step: q={y[:4]}, w={y[4:]}")
    return BodyState(q=np.array(y[:4]), w=np.array(y[4:]))


@dataclass
class Trajectory:
    """Sampled closed-loop run: one row per physics step plus the final state.

    Row k holds the state at t[k] and the torque and telemetry that the
    controller returned for it (held over the step that starts there).
    """

    t: np.ndarray    # (N,)
    q: np.ndarray    # (N, 4)
    w: np.ndarray    # (N, 3)
    tau: np.ndarray  # (N, 3)
    telemetry: list  # (N,) controller telemetry objects, as returned

    def __len__(self) -> int:
        return len(self.t)


def simulate(
    state: BodyState,
    controller,
    J: np.ndarray,
    dt: float,
    duration: float,
    control_decimation: int = 1,
    torque_limit: float | None = None,
) -> Trajectory:
    """Integrate the closed loop and record the sampled trajectory.

    ``controller`` is a callable ``(t, BodyState) -> (tau, telemetry)`` invoked
    at t = 0 and then every ``control_decimation`` physics steps; the returned
    torque (any 3-sequence) is converted to floats once and held constant in
    between (and clamped per axis to ``torque_limit`` when one is
    configured).  The telemetry object is recorded as returned.  Returns a
    Trajectory with one row per physics step plus the final state.
    Controller and integration failures are re-raised as SimulationError
    tagged with the failure time.
    """
    if not (math.isfinite(duration) and duration >= 0.0):
        raise ValueError(f"duration must be non-negative and finite, got {duration}")
    _check_step(dt)
    if control_decimation < 1:
        raise ValueError("control_decimation must be a positive integer")
    Jm = validate_inertia(J)
    Jl = Jm.tolist()
    Jinv = np.linalg.inv(Jm).tolist()

    def call_controller(t, y):
        try:
            tau, telemetry = controller(t, BodyState(q=np.array(y[:4]), w=np.array(y[4:])))
            tx, ty, tz = tau
            tau = (float(tx), float(ty), float(tz))
        except SimulationError:
            raise
        except Exception as exc:
            raise SimulationError(f"controller failed at t={t:.6f}: {exc}") from exc
        if torque_limit is not None:
            tau = tuple(min(max(v, -torque_limit), torque_limit) for v in tau)
        return tau, telemetry

    n_steps = int(round(duration / dt))
    y = _packed(state)
    tau, telemetry = call_controller(0.0, y)
    ys, taus, telemetries = [y], [tau], [telemetry]
    for k in range(n_steps):
        try:
            y = _rk4(y, tau, Jl, Jinv, dt)
        except (FloatingPointError, ZeroDivisionError, OverflowError) as exc:
            raise SimulationError(f"integration failed at t={k * dt:.6f}: {exc}") from exc
        if not _all_finite(y):
            raise SimulationError(
                f"non-finite state at t={(k + 1) * dt:.6f}: q={y[:4]}, w={y[4:]}"
            )
        if (k + 1) % control_decimation == 0:
            tau, telemetry = call_controller((k + 1) * dt, y)
        ys.append(y)
        taus.append(tau)
        telemetries.append(telemetry)
    y = np.array(ys)
    return Trajectory(
        t=np.arange(n_steps + 1) * dt, q=y[:, :4], w=y[:, 4:], tau=np.array(taus),
        telemetry=telemetries,
    )
