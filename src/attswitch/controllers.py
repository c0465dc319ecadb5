"""Attitude error, torque laws, and the hysteretic switching logic.

All three torque laws are one feedback-linearized form, so the closed-loop
error dynamics are independent of the inertia matrix:

    J(s kq n_e + kw nu + wdot_d + s kn n_e_dot) + w x Jw,  nu = w_e + s kn n_e

  * continuous:  kn = 0 in the torque and s = +1
  * benchmark:   kn = 0 in the torque and s = sgn(m_e), i.e. always
                 torquing along the shorter rotational path
  * switching:   the real kn and s = sigma in {+1, -1}, picked by a
                 Lyapunov-difference switching function with hysteresis

The switching signal sigma selects which of the two antipodal closed-loop
equilibria is stabilized; it is updated once per control step from the
switching function value Lambda with a dead band of width 2*delta.

The torque, the error, Lambda and the sigma update each have exactly one
form, written on plain floats: the error state is a pair (q_err, w_err) of
4- and 3-sequences and every result a tuple of floats.  The torque is the
factory ``_bind_torque(kq, kw, kn, J)``, a closure over the gains and the
inertia rows with J a + w x Jw in its body, whose products with the
off-diagonal entries of J are formed only when one of them is nonzero, with
the same bits either way (see its docstring); Lambda is
``_lam(q_err, w_err, a, b)`` with a = -2 kn/kq and b = 4c, from the real kn
for every law.  Each controller binds its torque and a, b once, in
``__init__``; the three differ only in their sigma rule.  A controller is
called as ``controller(t, y)`` with the packed state
y = (qw, qx, qy, qz, wx, wy, wz) and returns the torque and a telemetry row,
both tuples of floats; the row has the fixed width ``simulate`` needs to
fill its (N, 9) telemetry array.  An ``ErrorState`` holds seven entries
(m, nx, ny, nz, ex, ey, ez): floats read once from its inputs, or a run's
columns when built by ``ErrorState.of_columns``.  The public functions
delegate to the same forms: ``attitude_error`` builds its state from
``_error``'s float tuples, ``switch_function`` hands the entries to ``_lam``
with the ``GainSet``'s a and b, and ``_read`` unpacks them, nu included, for
``nu_sigma`` and the certificates in ``stability``.
"""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .quat import hamilton_product, yaw_of
from .reference import ManeuverTracker

# the GainSet fields, in order: the scenario.txt keys and command-line flags
GAIN_KEYS = ("kq", "kw", "kn", "c", "delta")


@dataclass(frozen=True)
class GainSet:
    """Controller and Lyapunov parameters.

    kq, kw, kn are the proportional, rate, and composite-error gains; c
    weights the attitude term of the Lyapunov function (and sets the
    certified-region radius 4c); delta is the switching hysteresis margin.
    All must be positive.  Stability certification additionally needs
    c < 4 kn kw / kq, which is only warned about because the torque laws
    themselves remain well defined without it.

    Frozen; the constants derived from the gains are formed once, as
    attributes: Lambda's coefficients ``lam_slope`` = -2 kn/kq and
    ``roa_radius`` = 4c (also the certified-region radius), P's diagonal
    ``c_kn`` = c kn, ``kw_kq`` = kw/kq and its second leading minor
    ``p_minor_2``.  Gains that make one of these, or ``c_max()``, non-finite
    raise ValueError.
    """

    kq: float
    kw: float
    kn: float
    c: float
    delta: float = 0.1

    def __post_init__(self):
        for name in GAIN_KEYS:
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"gain {name} must be positive and finite, got {v}")
            object.__setattr__(self, name, v)
        c_kn, kw_kq = self.c * self.kn, self.kw / self.kq
        derived = dict(
            lam_slope=-2.0 * self.kn / self.kq, roa_radius=4.0 * self.c, c_kn=c_kn, kw_kq=kw_kq,
            p_minor_2=c_kn * kw_kq - (-0.5 * self.c) * (-0.5 * self.c),
        )
        for name, v in derived.items():
            # not through self.__dict__, which would slow every attribute read
            object.__setattr__(self, name, v)
        for name, v in (*derived.items(), ("c_max", self.c_max())):
            if not math.isfinite(v):
                raise ValueError(
                    f"gains kq = {self.kq:g}, kw = {self.kw:g}, kn = {self.kn:g}, "
                    f"c = {self.c:g} give a non-finite {name} = {v}"
                )
        if self.c >= self.c_max():
            warnings.warn(
                f"c = {self.c} is not below 4*kn*kw/kq = {self.c_max()}; "
                "the decrease certificate will not hold",
                stacklevel=3,  # past the dataclass __init__, to the caller
            )

    def c_max(self) -> float:
        return 4.0 * self.kn * self.kw / self.kq


class ErrorState:
    """Attitude-error quaternion q_err (never sign-normalized) and
    angular-velocity error w_err in rad/s.

    The inputs are read once, as any 4- and 3-sequence of numbers, into the
    seven floats (m, nx, ny, nz, ex, ey, ez), which is all a state holds: it
    is a snapshot that later changes to the inputs do not reach.  ``q_err``,
    ``w_err`` and ``n_e`` build a new float64 array on each access.
    """

    __slots__ = ("_f",)

    def __init__(self, q_err, w_err):
        q = np.asarray(q_err, dtype=float)
        w = np.asarray(w_err, dtype=float)
        if q.shape != (4,) or w.shape != (3,):
            raise ValueError(
                f"ErrorState needs q_err of shape (4,) and w_err of shape (3,), "
                f"got {q.shape} and {w.shape}"
            )
        self._f = (*q.tolist(), *w.tolist())

    @classmethod
    def of_columns(cls, m_e, n_e, w_e) -> "ErrorState":
        """State whose seven entries are a run's (N,) m_e and the columns of
        its (N, 3) n_e and w_e, as views, or the entries of one row of them."""
        err = cls.__new__(cls)
        err._f = (m_e, *n_e.T, *w_e.T)
        return err

    @property
    def q_err(self) -> np.ndarray:
        return np.array(self._f[:4])

    @property
    def w_err(self) -> np.ndarray:
        return np.array(self._f[4:])

    @property
    def m_e(self) -> float:
        return self._f[0]

    @property
    def n_e(self) -> np.ndarray:
        return np.array(self._f[1:4])

    def __eq__(self, other):
        if not isinstance(other, ErrorState):
            return NotImplemented
        return self._f == other._f

    def __repr__(self) -> str:
        return f"ErrorState(q_err={self._f[:4]!r}, w_err={self._f[4:]!r})"


@dataclass(frozen=True)
class SwitchState:
    """Switch sign and history; a new one is made only when the sign changes."""

    sigma: int = +1
    switch_count: int = 0
    switch_times: tuple = ()


def _error(y, q_d, w_d):
    """Float error state of the packed state y = (qw, qx, qy, qz, wx, wy, wz):
    q_err = q^-1 * q_d (lazily renormalized), w_err = w_d - w."""
    qw, qx, qy, qz, wx, wy, wz = y
    return (
        hamilton_product((qw, -qx, -qy, -qz), q_d),
        (w_d[0] - wx, w_d[1] - wy, w_d[2] - wz),
    )


def attitude_error(q: np.ndarray, q_d: np.ndarray, w: np.ndarray, w_d: np.ndarray) -> ErrorState:
    """Error state: q_err = q^-1 * q_d, w_err = w_d - w (no sign flip)."""
    q_err, w_err = _error((*q, *w), q_d, w_d)
    return ErrorState(q_err=q_err, w_err=w_err)


def _read(err: ErrorState, sigma: int, kn: float):
    """``(m, nx, ny, nz, ux, uy, uz)``: the error state's floats, with
    nu = w_err + sigma kn n_e for switch sign sigma."""
    m, nx, ny, nz, ex, ey, ez = err._f
    g = sigma * kn
    return m, nx, ny, nz, ex + g * nx, ey + g * ny, ez + g * nz


def nu_sigma(err: ErrorState, sigma: int, gains: GainSet) -> np.ndarray:
    """Composite error w_err + sigma * kn * n_e for the given switch sign."""
    return np.array(_read(err, sigma, gains.kn)[4:])


def _shorter_path_sign(m_e) -> int:
    # sgn(0) is defined as +1; m_e = 0 is a measure-zero tie
    return +1 if m_e >= 0.0 else -1


def _bind_torque(kq: float, kw: float, kn: float, J):
    """``torque(s, q_err, w_err, w, wdot_d)`` = J(s kq n_e + kw nu + wdot_d + s kn n_e_dot) + w x Jw
    with nu = w_err + s kn n_e, bound to the gains and the inertia rows J.

    The one torque form of all three laws: the switching law binds its kn;
    the continuous (s = +1) and shorter-path (s = sgn(m_e)) laws bind kn = 0,
    which makes nu = w_err and drops the n_e_dot term.

    The products with the off-diagonal entries of J are formed only when one
    of them is nonzero (``off``), and then added in the order of the full
    sums J a and J w, so a non-diagonal inertia keeps its bits.  A diagonal
    one keeps them too, for finite inputs and a feedforward wdot_d with no
    -0.0 entry (the reference's is +0.0): each dropped product is
    +-0.0, and x + (+-0.0) = x unless x = -0.0, while a is never -0.0 because
    wdot_d is added to it, so neither J_ii a_i (unless it underflows to zero)
    nor a torque entry is.  A sign change of a zero J w entry changes w x Jw
    only in the sign of a zero, which the sum J_ii a_i + (w x Jw)_i does not
    keep.
    """
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = J
    off = any((j01, j02, j10, j12, j20, j21))

    def torque(s, q_err, w_err, w, wdot_d):
        m, nx, ny, nz = q_err
        ex, ey, ez = w_err
        wx, wy, wz = w
        kp = s * kq
        kd = s * kn
        # nu as in _read, written out here because the call costs more than
        # the arithmetic; n_e_dot = vector part of 0.5 [0, w_err] q_err
        ux, uy, uz = ex + kd * nx, ey + kd * ny, ez + kd * nz
        dx = 0.5 * (m * ex + ey * nz - ez * ny)
        dy = 0.5 * (m * ey + ez * nx - ex * nz)
        dz = 0.5 * (m * ez + ex * ny - ey * nx)
        ax = kp * nx + kw * ux + wdot_d[0] + kd * dx
        ay = kp * ny + kw * uy + wdot_d[1] + kd * dy
        az = kp * nz + kw * uz + wdot_d[2] + kd * dz
        jx, jy, jz = j00 * wx, j11 * wy, j22 * wz
        tx, ty, tz = j00 * ax, j11 * ay, j22 * az
        if off:
            jx, jy, jz = (
                jx + j01 * wy + j02 * wz, j10 * wx + jy + j12 * wz, j20 * wx + j21 * wy + jz
            )
            tx, ty, tz = (
                tx + j01 * ay + j02 * az, j10 * ax + ty + j12 * az, j20 * ax + j21 * ay + tz
            )
        return (
            tx + (wy * jz - wz * jy),
            ty + (wz * jx - wx * jz),
            tz + (wx * jy - wy * jx),
        )

    return torque


def _lam(q_err, w_err, a, b):
    """Lambda = a (w_err . n_e) + b m_e, with a = -2 kn/kq and b = 4c."""
    dot = w_err[0] * q_err[1] + w_err[1] * q_err[2] + w_err[2] * q_err[3]
    return a * dot + b * q_err[0]


def switch_function(err: ErrorState, gains: GainSet) -> float:
    """Lyapunov difference Lambda = V(-1) - V(+1) in closed form."""
    f = err._f  # _lam reads q_err from its first four entries
    return _lam(f, f[4:], gains.lam_slope, gains.roa_radius)


def update_sigma(
    state: SwitchState, lam: float, delta: float, t: float | None = None
) -> SwitchState:
    """Hysteretic update of the switch sign.

    Holds the current sign inside the dead band (-delta, delta), selects +1
    for lam >= delta and -1 for lam <= -delta.  A sign change returns a new
    state with the switch count incremented and t recorded when provided;
    otherwise ``state`` itself is returned.
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if lam >= delta:
        new = +1
    elif lam <= -delta:
        new = -1
    else:
        return state
    if new == state.sigma:
        return state
    times = state.switch_times + (t,) if t is not None else state.switch_times
    return SwitchState(sigma=new, switch_count=state.switch_count + 1, switch_times=times)


class ControlTelemetry(NamedTuple):
    """Column names of a controller's telemetry row.

    A controller returns each row as a plain tuple of floats in this order,
    which ``simulate`` writes into the run's (N, 9) telemetry array;
    ``ControlTelemetry(*row)`` names its fields.
    """

    m_e: float
    nex: float
    ney: float
    nez: float
    wex: float
    wey: float
    wez: float
    sigma: int
    lam: float


class _ControllerBase:
    """Shared set-up: gains, inertia, reference tracker and yaw unwrapping.

    A controller is called as ``controller(t, y)`` with the packed state
    y = (qw, qx, qy, qz, wx, wy, wz) and returns ``(tau, row)``: the torque
    as a tuple of floats and its fixed-width telemetry row of 9 floats (see
    ControlTelemetry), the row protocol of ``rigid_body.simulate``.  Its
    torque (``_bind_torque``, with kn = 0 unless the law switches) and
    Lambda's constants are bound once, here.  Each law's ``__call__``
    samples the reference and forms the error itself; the measured yaw only
    matters until the tracker pins the stage-3 start, so it is unwrapped
    only while that is pending.
    """

    # kn inside the torque; only the switching law's nu carries it
    _torque_kn = False

    def __init__(self, gains: GainSet, J: np.ndarray, tracker: ManeuverTracker):
        self.gains = gains
        self.J = np.asarray(J, dtype=float)
        self.tracker = tracker
        kn = gains.kn if self._torque_kn else 0.0
        self._torque = _bind_torque(gains.kq, gains.kw, kn, self.J.tolist())
        self._a, self._b = gains.lam_slope, gains.roa_radius
        self._prev_yaw = None
        self._yaw_accum = 0.0

    def _unwrapped_yaw(self, y) -> float:
        yaw = yaw_of(y[:4])
        if self._prev_yaw is None:
            self._yaw_accum = yaw
        else:
            d = yaw - self._prev_yaw
            if d > math.pi:
                d -= 2.0 * math.pi
            elif d < -math.pi:
                d += 2.0 * math.pi
            self._yaw_accum += d
        self._prev_yaw = yaw
        return self._yaw_accum


class ContinuousController(_ControllerBase):
    def __call__(self, t: float, y):
        tracker = self.tracker
        ref = tracker.sample(t, self._unwrapped_yaw(y) if tracker.t0 is None else None)
        q_err, w_err = _error(y, ref.q_d, ref.w_d)
        tau = self._torque(+1, q_err, w_err, y[4:], ref.wdot_d)
        return tau, (*q_err, *w_err, +1, _lam(q_err, w_err, self._a, self._b))


class BenchmarkController(_ControllerBase):
    """Stateless shorter-path law; its effective sign is re-read every step."""

    def __call__(self, t: float, y):
        tracker = self.tracker
        ref = tracker.sample(t, self._unwrapped_yaw(y) if tracker.t0 is None else None)
        q_err, w_err = _error(y, ref.q_d, ref.w_d)
        sigma = _shorter_path_sign(q_err[0])
        tau = self._torque(sigma, q_err, w_err, y[4:], ref.wdot_d)
        return tau, (*q_err, *w_err, sigma, _lam(q_err, w_err, self._a, self._b))


class SwitchingController(_ControllerBase):
    """Hysteretic Lyapunov-based switching law; owns the switch state."""

    _torque_kn = True

    def __init__(self, gains: GainSet, J: np.ndarray, tracker: ManeuverTracker):
        super().__init__(gains, J, tracker)
        self.switch_state = SwitchState(sigma=+1)

    def __call__(self, t: float, y):
        tracker = self.tracker
        ref = tracker.sample(t, self._unwrapped_yaw(y) if tracker.t0 is None else None)
        q_err, w_err = _error(y, ref.q_d, ref.w_d)
        lam = _lam(q_err, w_err, self._a, self._b)
        self.switch_state = update_sigma(self.switch_state, lam, self.gains.delta, t)
        sigma = self.switch_state.sigma
        tau = self._torque(sigma, q_err, w_err, y[4:], ref.wdot_d)
        return tau, (*q_err, *w_err, sigma, lam)
