"""Quaternion algebra and attitude kinematics.

Conventions used throughout the package:

  * Quaternions are scalar-first numpy arrays ``[m, nx, ny, nz]`` where
    ``m`` is the scalar part and ``n = (nx, ny, nz)`` the vector part.
  * Composition is the Hamilton product.
  * The quaternion sign is NEVER flipped to a canonical hemisphere.  Both
    hemispheres are meaningful here (the sign carries the rotation history),
    so normalization rescales but preserves sign, and no helper forces
    ``m >= 0``.
  * Renormalization is lazy: a result is rescaled only when its squared
    norm has drifted from 1 by more than ``NORM_DRIFT_TOL``.
"""

import math

import numpy as np

NORM_DRIFT_TOL = 1e-12

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def renorm_if_drifted(w: float, x: float, y: float, z: float):
    """(w, x, y, z) rescaled to unit norm only if its norm has drifted."""
    nn = w * w + x * x + y * y + z * z
    if abs(nn - 1.0) > NORM_DRIFT_TOL:
        s = 1.0 / math.sqrt(nn)
        return w * s, x * s, y * s, z * s
    return w, x, y, z


def hamilton_product(a, b) -> tuple:
    """Hamilton product a * b of two 4-sequences as a tuple of floats
    (sign-preserving, lazily renormalized)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    w = aw * bw - ax * bx - ay * by - az * bz
    x = aw * bx + ax * bw + ay * bz - az * by
    y = aw * by - ax * bz + ay * bw + az * bx
    z = aw * bz + ax * by - ay * bx + az * bw
    return renorm_if_drifted(w, x, y, z)


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b (sign-preserving, lazily renormalized)."""
    return np.array(hamilton_product(a, b))


def quat_inverse(q: np.ndarray) -> np.ndarray:
    """Inverse of a unit quaternion, i.e. its conjugate."""
    return np.array([q[0], -q[1], -q[2], -q[3]])


def from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Quaternion for a rotation of ``angle`` rad about a unit ``axis``.

    The axis must already be unit length; a non-unit axis is rejected rather
    than silently normalized so that callers cannot hide scaling bugs.
    Angles beyond pi deliberately produce a negative scalar part.
    """
    ax, ay, az = axis
    nn = ax * ax + ay * ay + az * az
    if abs(nn - 1.0) > 1e-9:
        raise ValueError(f"rotation axis must be unit length, got |axis|^2 = {nn!r}")
    h = 0.5 * angle
    s = math.sin(h)
    return np.array([math.cos(h), ax * s, ay * s, az * s])


def to_axis_angle(q: np.ndarray):
    """Recover (axis, angle) from a unit quaternion.

    Returns angle in [0, 2*pi] with the axis carrying the rotation sense,
    so a quaternion built from a negative angle comes back as the positive
    angle about the flipped axis.  The identity maps to angle 0 about the
    conventional axis (0, 0, 1).
    """
    w = q[0]
    v = np.array([q[1], q[2], q[3]])
    vn = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    if vn < 1e-15:
        return np.array([0.0, 0.0, 1.0]), 0.0
    return v / vn, 2.0 * math.atan2(vn, w)


def rotate_vector(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector v by quaternion q (body-to-inertial for an attitude q)."""
    w = q[0]
    nx, ny, nz = q[1], q[2], q[3]
    vx, vy, vz = v
    # t = 2 n x v, v' = v + w t + n x t
    tx = 2.0 * (ny * vz - nz * vy)
    ty = 2.0 * (nz * vx - nx * vz)
    tz = 2.0 * (nx * vy - ny * vx)
    return np.array(
        [
            vx + w * tx + ny * tz - nz * ty,
            vy + w * ty + nz * tx - nx * tz,
            vz + w * tz + nx * ty - ny * tx,
        ]
    )


def yaw_of(q: np.ndarray) -> float:
    """Z-Y-X Euler yaw angle of q, in (-pi, pi]."""
    w, x, y, z = q
    return math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))


def quat_kinematics(q: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Raw quaternion rate 0.5 * q * [0, omega] for body rates omega.

    The result is a free 4-vector (not renormalized); its inner product
    with q is exactly zero, which keeps the integrated norm constant.
    """
    w, x, y, z = q
    ox, oy, oz = omega
    return 0.5 * np.array(
        [
            -x * ox - y * oy - z * oz,
            w * ox + y * oz - z * oy,
            w * oy - x * oz + z * ox,
            w * oz + x * oy - y * ox,
        ]
    )
