import dataclasses
import math
import warnings

import numpy as np
import pytest

from attswitch.controllers import ErrorState, _bind_law
from attswitch.harness import CSV_HEADER
from attswitch.quat import hamilton_product, quat_kinematics


def rand_unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def reference_error_state(q, q_d, w, w_d):
    """Reference error state: q_err = q^-1 * q_d by ``quat.hamilton_product``
    (lazily renormalized) and w_err = w_d - w (no sign flip), the error that
    ``_bind_law`` writes into a telemetry row."""
    qw, qx, qy, qz = q
    wx, wy, wz = w
    return ErrorState(
        hamilton_product((qw, -qx, -qy, -qz), q_d), (w_d[0] - wx, w_d[1] - wy, w_d[2] - wz)
    )


def half_rate_left(w, q):
    """Full 4-vector 0.5 * [0, w] x q (left Hamilton product, no renorm).

    quat_mul cannot be used for this: its unit-quaternion contract
    renormalizes the product, and [0, w] is not unit.
    """
    m, n = q[0], q[1:]
    return 0.5 * np.array(
        [
            -w @ n,
            m * w[0] + w[1] * n[2] - w[2] * n[1],
            m * w[1] + w[2] * n[0] - w[0] * n[2],
            m * w[2] + w[0] * n[1] - w[1] * n[0],
        ]
    )


def law_torque(law, err, w, gains, J, sigma=+1):
    """Torque of ``law`` at an ErrorState through the one bound law form,
    with zero feedforward: kn = 0 in the torque and s = +1 (continuous) or
    sgn(m_e) (benchmark), or the gains' kn and s = sigma (switching).

    The law forms the error itself, so it is handed the identity attitude
    with body rate w and the reference (q_err, w_err + w, 0): q^-1 q_d is
    then q_err, and w_d - w is w_err whenever w_err + w is exact (every
    caller's w_err is -w or w is zero).  The switching law's dead band is
    widened to 1e300, so that its sign rule holds sigma."""
    if law == "switching":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the c_max advisory, already seen
            gains = dataclasses.replace(gains, delta=1e300)
    control = _bind_law(gains, np.asarray(J, dtype=float).tolist(), law)
    w = np.asarray(w, dtype=float).tolist()
    w_d = (np.asarray(err.w_err) + w).tolist()
    tau, _ = control(sigma if law == "switching" else +1, (1.0, 0.0, 0.0, 0.0, *w),
                     (err.q_err.tolist(), w_d, (0.0, 0.0, 0.0)))
    return np.array(tau)


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def integrate_feedback(q0, w0, torque_of, J, dt, n_steps):
    """RK4 on the open-loop dynamics with the torque re-evaluated inside
    every derivative call (continuous feedback, no zero-order hold).

    Used as the reference flow for finite-difference equivalence checks,
    where the hold error of the production integrator would swamp the
    tolerance.  Returns (t, q, w) arrays with n_steps+1 samples.
    """
    Jinv = np.linalg.inv(J)

    def deriv(y):
        q, w = y[:4], y[4:]
        tau = torque_of(q, w)
        qdot = quat_kinematics(q, w)
        wdot = Jinv @ (tau - np.cross(w, J @ w))
        return np.concatenate([qdot, wdot])

    y = np.concatenate([q0, w0])
    out = np.empty((n_steps + 1, 7))
    out[0] = y
    for k in range(n_steps):
        k1 = deriv(y)
        k2 = deriv(y + 0.5 * dt * k1)
        k3 = deriv(y + 0.5 * dt * k2)
        k4 = deriv(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        y[:4] /= np.linalg.norm(y[:4])
        out[k + 1] = y
    t = np.arange(n_steps + 1) * dt
    return t, out[:, :4], out[:, 4:]


# --- Reference closed loop -------------------------------------------------
# The closed-loop step as first written, kept as the reference the float hot
# path is compared against: ndarray error and torque laws (J @ v through
# numpy) and RK4 on the packed state.  Stage-3 tracking only: the reference
# attitude is the identity and the reference rates are zero, which is what
# every stage3-mode scenario sees.


def _ref_quat_mul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    w = aw * bw - ax * bx - ay * by - az * bz
    x = aw * bx + ax * bw + ay * bz - az * by
    y = aw * by - ax * bz + ay * bw + az * bx
    z = aw * bz + ax * by - ay * bx + az * bw
    nn = w * w + x * x + y * y + z * z
    if abs(nn - 1.0) > 1e-12:
        s = 1.0 / math.sqrt(nn)
        w, x, y, z = w * s, x * s, y * s, z * s
    return np.array([w, x, y, z])


def _ref_gyro(w, J):
    Jw = J @ w
    return np.array(
        [
            w[1] * Jw[2] - w[2] * Jw[1],
            w[2] * Jw[0] - w[0] * Jw[2],
            w[0] * Jw[1] - w[1] * Jw[0],
        ]
    )


def _ref_torque(law, q_err, w_err, sigma, w, wdot_d, gains, J):
    n_e = q_err[1:]
    if law == "continuous":
        a = gains.kq * n_e + gains.kw * w_err + wdot_d
    elif law == "benchmark":
        s = 1.0 if float(q_err[0]) >= 0.0 else -1.0
        a = (s * gains.kq) * n_e + gains.kw * w_err + wdot_d
    else:
        nu = w_err + (sigma * gains.kn) * n_e
        m = q_err[0]
        nx, ny, nz = q_err[1], q_err[2], q_err[3]
        wx, wy, wz = w_err
        ndot = 0.5 * np.array(
            [m * wx + wy * nz - wz * ny, m * wy + wz * nx - wx * nz, m * wz + wx * ny - wy * nx]
        )
        a = (sigma * gains.kq) * n_e + gains.kw * nu + wdot_d + (sigma * gains.kn) * ndot
    return J @ a + _ref_gyro(w, J)


def general_derivative(y, tx, ty, tz, J, Jinv):
    """The packed-state derivative with all nine products of J w and of
    Jinv r, summed left to right, for inertia rows J and Jinv of any form."""
    qw, qx, qy, qz, wx, wy, wz = y
    jx = J[0][0] * wx + J[0][1] * wy + J[0][2] * wz
    jy = J[1][0] * wx + J[1][1] * wy + J[1][2] * wz
    jz = J[2][0] * wx + J[2][1] * wy + J[2][2] * wz
    rx = tx - (wy * jz - wz * jy)
    ry = ty - (wz * jx - wx * jz)
    rz = tz - (wx * jy - wy * jx)
    return (
        0.5 * (-qx * wx - qy * wy - qz * wz),
        0.5 * (qw * wx + qy * wz - qz * wy),
        0.5 * (qw * wy - qx * wz + qz * wx),
        0.5 * (qw * wz + qx * wy - qy * wx),
        Jinv[0][0] * rx + Jinv[0][1] * ry + Jinv[0][2] * rz,
        Jinv[1][0] * rx + Jinv[1][1] * ry + Jinv[1][2] * rz,
        Jinv[2][0] * rx + Jinv[2][1] * ry + Jinv[2][2] * rz,
    )


def general_torque(kq, kw, kn, J, s, q_err, w_err, w, wdot_d):
    """The one torque form, J a + w x Jw, with all nine products of J a and
    of J w summed left to right, for inertia rows J of any form; the
    arguments are those of ``controllers._bind_torque`` and of its torque."""
    m, nx, ny, nz = q_err
    ex, ey, ez = w_err
    wx, wy, wz = w
    kp, kd = s * kq, s * kn
    ux, uy, uz = ex + kd * nx, ey + kd * ny, ez + kd * nz
    dx = 0.5 * (m * ex + ey * nz - ez * ny)
    dy = 0.5 * (m * ey + ez * nx - ex * nz)
    dz = 0.5 * (m * ez + ex * ny - ey * nx)
    ax = kp * nx + kw * ux + wdot_d[0] + kd * dx
    ay = kp * ny + kw * uy + wdot_d[1] + kd * dy
    az = kp * nz + kw * uz + wdot_d[2] + kd * dz
    jx = J[0][0] * wx + J[0][1] * wy + J[0][2] * wz
    jy = J[1][0] * wx + J[1][1] * wy + J[1][2] * wz
    jz = J[2][0] * wx + J[2][1] * wy + J[2][2] * wz
    return (
        J[0][0] * ax + J[0][1] * ay + J[0][2] * az + (wy * jz - wz * jy),
        J[1][0] * ax + J[1][1] * ay + J[1][2] * az + (wz * jx - wx * jz),
        J[2][0] * ax + J[2][1] * ay + J[2][2] * az + (wx * jy - wy * jx),
    )


def _ref_rk4(y, tx, ty, tz, J, Jinv, dt):
    k1 = general_derivative(y, tx, ty, tz, J, Jinv)
    h = 0.5 * dt
    y2 = tuple(y[i] + h * k1[i] for i in range(7))
    k2 = general_derivative(y2, tx, ty, tz, J, Jinv)
    y3 = tuple(y[i] + h * k2[i] for i in range(7))
    k3 = general_derivative(y3, tx, ty, tz, J, Jinv)
    y4 = tuple(y[i] + dt * k3[i] for i in range(7))
    k4 = general_derivative(y4, tx, ty, tz, J, Jinv)
    s = dt / 6.0
    y = tuple(y[i] + s * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(7))
    qw, qx, qy, qz, wx, wy, wz = y
    nn = qw * qw + qx * qx + qy * qy + qz * qz
    if abs(nn - 1.0) > 1e-12:
        r = 1.0 / math.sqrt(nn)
        qw, qx, qy, qz = qw * r, qx * r, qy * r, qz * r
    return qw, qx, qy, qz, wx, wy, wz


def reference_closed_loop(law, q0, w0, J, gains, dt, n_steps):
    """Stage-3 closed loop of ``law`` from (q0, w0), one control call per step.

    Returns a dict of per-sample arrays (n_steps + 1 rows) named like the
    RunResult fields, plus ``switch_times``.
    """
    J = np.asarray(J, dtype=float)
    Jl, Jinv = J.tolist(), np.linalg.inv(J).tolist()
    q_d, w_d, wdot_d = np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3), np.zeros(3)
    sigma, switch_times = +1, []
    rows = {k: [] for k in ("q", "w", "tau", "m_e", "n_e", "w_e", "sigma", "lam")}
    y = (*q0, *w0)
    for k in range(n_steps + 1):
        q, w = np.array(y[:4]), np.array(y[4:])
        q_err = _ref_quat_mul(np.array([q[0], -q[1], -q[2], -q[3]]), q_d)
        w_err = w_d - w
        dot = w_err[0] * q_err[1] + w_err[1] * q_err[2] + w_err[2] * q_err[3]
        lam = -2.0 * gains.kn / gains.kq * dot + 4.0 * gains.c * float(q_err[0])
        if law == "switching":
            new = +1 if lam >= gains.delta else -1 if lam <= -gains.delta else sigma
            if new != sigma:
                sigma = new
                switch_times.append(k * dt)
            s = sigma
        elif law == "benchmark":
            s = +1 if q_err[0] >= 0.0 else -1
        else:
            s = +1
        tau = _ref_torque(law, q_err, w_err, sigma, w, wdot_d, gains, J)
        for name, v in zip(rows, (q, w, tau, q_err[0], q_err[1:], w_err, s, lam)):
            rows[name].append(v)
        if k < n_steps:
            y = _ref_rk4(y, tau[0], tau[1], tau[2], Jl, Jinv, dt)
    out = {name: np.array(v) for name, v in rows.items()}
    out["switch_times"] = tuple(switch_times)
    return out


# --- Reference certificates ------------------------------------------------
# The per-state certificates as first written, on ndarrays (nu formed here
# in numpy, dot products through @, the Jacobian by slice assignment), kept
# as the reference the float forms in attswitch.stability are compared
# against.  nu does not come from production code, so a wrong nu in the
# certificates' read fails here.


def reference_lyapunov_value(err, sigma, gains):
    nu = err.w_err + sigma * gains.kn * err.n_e
    return 0.5 / gains.kq * float(nu @ nu) + 2.0 * gains.c * (1.0 - sigma * err.m_e)


def reference_lyapunov_decay_bound(err, sigma, gains):
    nu = err.w_err + sigma * gains.kn * err.n_e
    ne = err.n_e
    xn = math.sqrt(float(ne @ ne))
    xv = math.sqrt(float(nu @ nu))
    return gains.c * xn * xv - gains.kw / gains.kq * xv * xv - gains.c * gains.kn * xn * xn


def reference_lyapunov_rate(err, sigma, gains):
    nu = err.w_err + sigma * gains.kn * err.n_e
    ne = err.n_e
    return (
        (gains.c - 1.0) * sigma * float(nu @ ne)
        - gains.kw / gains.kq * float(nu @ nu)
        - gains.c * gains.kn * float(ne @ ne)
    )


def _ref_skew(v):
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def reference_error_jacobian(err, sigma, gains):
    m = err.m_e
    n = err.n_e
    nu = err.w_err + sigma * gains.kn * err.n_e
    kn = sigma * gains.kn
    I3 = np.eye(3)
    A = np.zeros((7, 7))
    A[0, 1:4] = -0.5 * nu + kn * n
    A[0, 4:7] = -0.5 * n
    A[1:4, 0] = 0.5 * (nu - kn * n)
    A[1:4, 1:4] = 0.5 * (_ref_skew(nu) - kn * m * I3)
    A[1:4, 4:7] = 0.5 * (m * I3 - _ref_skew(n))
    A[4:7, 1:4] = -(sigma * gains.kq) * I3
    A[4:7, 4:7] = -gains.kw * I3
    return A


# --- Reference export ------------------------------------------------------
# The CSV export as first written: the whole run stacked into one array and
# formatted one row at a time, kept as the reference the block-wise
# harness.export_run is compared against byte for byte.


def reference_export(run, path):
    cols = np.column_stack(
        [
            run.t,
            run.q,
            run.w,
            run.m_e,
            run.n_e,
            run.w_e,
            run.tau,
            run.sigma.astype(float),
            run.lam,
            run.V,
        ]
    )
    line = ",".join(["%.17g"] * cols.shape[1]) + "\n"
    with open(path, "w") as f:
        f.write(CSV_HEADER + "\n")
        f.writelines(line % tuple(row.tolist()) for row in cols)
