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
gyroscopic term w x Jw written in its body.  It forms the products with the
off-diagonal entries of J and of its inverse only when one of them is
nonzero, so a diagonal inertia (``DEFAULT_INERTIA``, and every inertia a
scenario.txt can hold) skips 24 float operations of each derivative call,
96 per RK4 step, with the same bits (the argument is in its docstring).
The packed state is also the only form of a state: ``simulate`` starts
from a packed y0, hands its controller the packed state y itself, so
nothing is built per step, and refuses a bad y0 or a run longer than
``MAX_STEPS`` steps before it allocates the run.  Besides the controller's,
a step opens six Python frames: the RK4 step, four derivatives, one renorm.
A step on the yaw plane (qx, qy, wx, wy and the torque's x and y zero, as
in every manoeuvre the paper flies) opens two: the RK4 step integrates qw,
qz and wz in its own body, with the general body's bits (the argument is in
``bind_rk4``'s docstring), and calls the renorm.
"""

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .quat import renorm_if_drifted

DEFAULT_INERTIA = np.diag([1.66e-5, 1.66e-5, 2.93e-5])  # kg m^2, 31-g quadrotor scale
DEFAULT_DT = 1e-3
# rows per chunk of a run, in simulate and in the CSV export
CHUNK = 256
# longest run simulate allocates: about 1.5 GB of trajectory arrays, some
# 800 times the longest run the paper needs
MAX_STEPS = 10**7


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


def _off_diagonal(J, Jinv) -> bool:
    """Whether an off-diagonal entry of the inertia rows J or of their
    inverse is nonzero (or NaN)."""
    (_, j01, j02), (j10, _, j12), (j20, j21, _) = J
    (_, i01, i02), (i10, _, i12), (i20, i21, _) = Jinv
    return any((j01, j02, j10, j12, j20, j21, i01, i02, i10, i12, i20, i21))


def _bind_derivative(J, Jinv):
    """Derivative ``f(qw, qx, qy, qz, wx, wy, wz, tx, ty, tz)`` of the packed
    state for a held torque, bound to the inertia rows J and their inverse.

    The products with the off-diagonal entries of J and Jinv are formed only
    when one of them is nonzero (``off``), and then added in the order of the
    full sums J w and Jinv r, so a non-diagonal inertia keeps its bits.  A
    diagonal one keeps them too, for finite states and a torque with no -0.0
    entry: each dropped product is +-0.0, and x + (+-0.0) = x unless
    x = -0.0, while a diagonal product Jinv_ii r_i is -0.0 only if r_i is
    (or the product underflows to zero), and r = tau - w x Jw is -0.0 only if
    tau is.  A sign change of a zero J w entry changes w x Jw only in the
    sign of a zero, which r does not keep.
    """
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = J
    (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = Jinv
    off = _off_diagonal(J, Jinv)

    def derivative(qw, qx, qy, qz, wx, wy, wz, tx, ty, tz):
        jx, jy, jz = j00 * wx, j11 * wy, j22 * wz
        if off:
            jx, jy, jz = (
                jx + j01 * wy + j02 * wz, j10 * wx + jy + j12 * wz, j20 * wx + j21 * wy + jz
            )
        rx = tx - (wy * jz - wz * jy)
        ry = ty - (wz * jx - wx * jz)
        rz = tz - (wx * jy - wy * jx)
        ax, ay, az = i00 * rx, i11 * ry, i22 * rz
        if off:
            ax, ay, az = (
                ax + i01 * ry + i02 * rz, i10 * rx + ay + i12 * rz, i20 * rx + i21 * ry + az
            )
        return (
            0.5 * (-qx * wx - qy * wy - qz * wz),
            0.5 * (qw * wx + qy * wz - qz * wy),
            0.5 * (qw * wy - qx * wz + qz * wx),
            0.5 * (qw * wz + qx * wy - qy * wx),
            ax,
            ay,
            az,
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

    A manoeuvre about a principal yaw axis never leaves the yaw plane: with
    qx, qy, wx and wy at +0.0 and a torque whose x and y are zero, only qw,
    qz and wz move.  Such a step takes the plane branch, which integrates
    those three through the same four stages and returns x and y as +0.0,
    with the bits of the general body.  The argument: the stage sums
    y + h k of a +0.0 entry and a zero derivative stay +0.0, so every stage
    is on the plane, where the general derivative reduces term by term to

        qw_dot = 0.5 (-0.0 - qz wz)         (-qx wx - qy wy is -0.0)
        qz_dot = 0.5 (qw wz + 0.0)          (v + 0.0 - 0.0 is v + 0.0)
        wz_dot = Jinv_22 tz                 (rz = tz - (+0.0) = tz)

    the last the same at all four stages.  That needs every entry of the
    general body finite, so the branch binds only for a diagonal inertia
    (``off`` false) whose J_00 and J_11 are positive and finite, whose
    Jinv_00 and Jinv_11 are finite and whose J_22 lies in (0, 1] kg m^2, so
    that J_22 wz cannot overflow; a step whose qw + qz + wz comes out
    non-finite is redone by the general body, whose x and y then carry the
    NaN; and a state with a -0.0 in x or y takes the general body, whose
    stage sums turn it into +0.0.  The renorm's squared norm is qw^2 + qz^2
    plus two +0.0 terms, the same sum.  Besides the controller's, a general
    step opens six Python frames (the step, four derivatives, one renorm)
    and a plane step two (the step, one renorm).
    """
    _check_step(dt)
    J, Jinv = _inertia_rows(J)
    f = _bind_derivative(J, Jinv)
    (j00, _, _), (_, j11, _), (_, _, j22) = J
    (i00, _, _), (_, i11, _), (_, _, i22) = Jinv
    planar = (
        not _off_diagonal(J, Jinv)
        and 0.0 < j00 < math.inf
        and 0.0 < j11 < math.inf
        and 0.0 < j22 <= 1.0
        and math.isfinite(i00)
        and math.isfinite(i11)
    )
    copysign, isfinite = math.copysign, math.isfinite
    h = 0.5 * dt
    s = dt / 6.0

    def step(y, tau):
        y0, y1, y2, y3, y4, y5, y6 = y
        tx, ty, tz = tau
        # on the plane: x and y zeros, and -y1 - y2 - y4 - y5 is -0.0 only
        # when all four are +0.0
        if (
            planar
            and not (y1 or y2 or y4 or y5 or tx or ty)
            and copysign(1.0, -y1 - y2 - y4 - y5) < 0.0
        ):
            a6 = i22 * tz
            w = y6 + h * a6
            a0, a3 = 0.5 * (-0.0 - y3 * y6), 0.5 * (y0 * y6 + 0.0)
            qw, qz = y0 + h * a0, y3 + h * a3
            b0, b3 = 0.5 * (-0.0 - qz * w), 0.5 * (qw * w + 0.0)
            qw, qz = y0 + h * b0, y3 + h * b3
            c0, c3 = 0.5 * (-0.0 - qz * w), 0.5 * (qw * w + 0.0)
            qw, qz, w = y0 + dt * c0, y3 + dt * c3, y6 + dt * a6
            d0, d3 = 0.5 * (-0.0 - qz * w), 0.5 * (qw * w + 0.0)
            qw = y0 + s * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
            qz = y3 + s * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
            w = y6 + s * (a6 + 2.0 * a6 + 2.0 * a6 + a6)
            if isfinite(qw + qz + w):
                return (*renorm_if_drifted(qw, 0.0, 0.0, qz), 0.0, 0.0, w)
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


def _initial_state(y0) -> tuple:
    """y0 as a 7-tuple of floats, or ValueError unless it is 7 finite numbers
    with a unit quaternion (|q|^2 within 1e-9 of 1)."""
    y = tuple(map(float, y0))
    if len(y) != 7 or not _all_finite(y):
        raise ValueError(f"the initial state must be 7 finite numbers (q, w), got {y}")
    qq = y[0] * y[0] + y[1] * y[1] + y[2] * y[2] + y[3] * y[3]
    if abs(qq - 1.0) > 1e-9:
        raise ValueError(f"the initial quaternion {y[:4]} is not a unit quaternion: |q|^2 = {qq!r}")
    return y


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

    y0 = (qw, qx, qy, qz, wx, wy, wz) is any 7-sequence of finite numbers:
    the scalar-first attitude quaternion (body w.r.t. inertial), whose
    squared norm must lie within 1e-9 of 1, and the body rate in rad/s.
    ``controller`` is a callable ``(t, y) -> (tau, row)`` invoked once per
    physics step with the packed state y = (qw, qx, qy, qz, wx, wy, wz), a
    tuple of floats; the returned torque (any 3-sequence) is converted to
    floats once and held over the step.  ``row`` is the step's telemetry, a
    sequence of floats whose width W is fixed by the first row (W may be 0,
    and another width raises SimulationError).  The rows are gathered CHUNK
    steps at a time, each chunk converted into its slice of the preallocated
    arrays, so at most one chunk of per-step tuples is alive at any time.
    Returns a Trajectory with one row per physics step plus the final state.
    A run of more than MAX_STEPS steps, or a bad y0, raises ValueError
    before anything is allocated.  Controller and integration failures are
    re-raised as SimulationError tagged with the failure time.
    """
    if not (math.isfinite(duration) and duration >= 0.0):
        raise ValueError(f"duration must be non-negative and finite, got {duration}")
    step = bind_rk4(validate_inertia(J), dt)
    steps = duration / dt
    if steps >= MAX_STEPS + 0.5:
        raise ValueError(
            f"a run of {duration:g} s at dt = {dt:g} s takes {steps:.3g} steps,"
            f" more than the {MAX_STEPS} a run may take"
        )
    n_steps = int(round(steps))
    y = _initial_state(y0)
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
