"""Torque laws, the hysteretic switching logic, and the error state.

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
switching function value Lambda with a dead band of width 2*delta, by the
pure rule ``update_sigma(sigma, Lambda, delta)``.

A controller is only its law: the reference tracker it samples unwraps the
measured yaw and pins the stage-3 start, and a run's switch times are read
from its telemetry sigma column (``harness.run_scenario``), so the
switching law keeps nothing but its current sigma.

Each controller binds one closure, ``_bind_law(gains, J, name)``, on plain
floats: from the packed state y = (qw, qx, qy, qz, wx, wy, wz) and the
reference sample its general body writes q^-1 q_d, w_d - w, Lambda, nu,
n_e_dot and the torque J a + w x Jw once each, and calls only
``quat.renorm_if_drifted`` and the law's sigma rule.  A stage-3 control
step thus opens four Python frames (continuous) or five: ``__call__``,
``ManeuverTracker.sample``, the law, ``renorm_if_drifted`` and the rule.
A stage-2 control step opens one more, the tracker's ``quat.yaw_of``
while t0 is pending, so five or six; the tracker forms the spin sample in
its own frame.  A run on the yaw plane runs the law in
``harness.run_on_plane`` instead, with these bits.
``switch_function`` writes Lambda again, on an ``ErrorState``; delegating
to it would cost the law a frame (ROADMAP item 2).  A controller returns
``(tau, row)``, tuples of floats; the row is nine floats, laid out as
``_bind_law`` documents, and a run's first row is also its starting error
state, sign and Lambda (``harness.lyapunov_ic_table``).  An
``ErrorState`` holds seven entries (m, nx, ny, nz, ex, ey, ez): floats read
once, or a run's columns (``ErrorState.of_columns``).  nu's reference form
is ``err.w_err + sigma * gains.kn * err.n_e``, ``reference_nu`` in
tests/conftest.py, from which the reference certificates there read it.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .quat import renorm_if_drifted
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
    ``roa_radius`` = 4c (also the certified-region radius), V's
    coefficients ``nu_weight`` = 0.5/kq and ``m_weight`` = 2c, the exact
    rate's cross coefficient ``cross_weight`` = c - 1, P's diagonal
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
            lam_slope=-2.0 * self.kn / self.kq, roa_radius=4.0 * self.c,
            nu_weight=0.5 / self.kq, m_weight=2.0 * self.c, cross_weight=self.c - 1.0,
            c_kn=c_kn, kw_kq=kw_kq,
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


def _shorter_path_sign(m_e) -> int:
    # sgn(0) is defined as +1; m_e = 0 is a measure-zero tie
    return +1 if m_e >= 0.0 else -1


def switch_function(err: ErrorState, gains: GainSet) -> float:
    """Lyapunov difference Lambda = V(-1) - V(+1) = -2 kn/kq (w_err . n_e)
    + 4c m_e in closed form."""
    m, nx, ny, nz, ex, ey, ez = err._f
    return gains.lam_slope * (ex * nx + ey * ny + ez * nz) + gains.roa_radius * m


def update_sigma(sigma: int, lam: float, delta: float) -> int:
    """Hysteretic rule for the switch sign: +1 for lam >= delta, -1 for
    lam <= -delta, and ``sigma`` itself inside the dead band (-delta, delta)
    (and for a NaN lam).  delta must be positive."""
    if not delta > 0.0:  # also refuses a NaN delta, which would hold sigma forever
        raise ValueError(f"delta must be positive, got {delta}")
    if lam >= delta:
        return +1
    if lam <= -delta:
        return -1
    return sigma


def law_kn(gains: GainSet, name: str) -> float:
    """The kn that the law ``name`` binds: the gains' kn for the switching
    law, 0 for the continuous and benchmark laws."""
    return {"continuous": 0.0, "benchmark": 0.0, "switching": gains.kn}[name]


def _bind_law(gains: GainSet, J, name: str):
    """Control step ``law(sigma, y, ref) -> (tau, row)`` of the law ``name``,
    bound to the gains and the inertia rows J.

    From the packed state y and the sample ref = (q_d, w_d, wdot_d) it forms
    q_err = q^-1 q_d (lazily renormalized), w_err = w_d - w and Lambda, picks
    s, and returns the torque of the module docstring and the telemetry row
    of nine floats (m_e, nex, ney, nez, wex, wey, wez, s, Lambda): q_err,
    w_err, the sign and Lambda.  The name fixes the sign rule once: s is
    update_sigma(sigma, Lambda, delta) with the gains' kn ("switching"),
    sgn(m_e) ("benchmark") or the sigma passed in ("continuous"), these two
    with kn = 0, whose zero terms are formed all the same (left out, they can
    flip the sign of a zero torque for a -0.0 feedforward and a non-diagonal J).
    J a and J w are full sums of all nine products, whatever the form of J.
    """
    kn = law_kn(gains, name)
    switching, benchmark = name == "switching", name == "benchmark"
    kq, kw, delta = gains.kq, gains.kw, gains.delta
    slope, radius = gains.lam_slope, gains.roa_radius
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = J

    def law(sigma, y, ref):
        qw, qx, qy, qz, wx, wy, wz = y
        (pw, px, py, pz), (vx, vy, vz), (fx, fy, fz) = ref
        m, nx, ny, nz = renorm_if_drifted(
            qw * pw + qx * px + qy * py + qz * pz,
            qw * px - qx * pw - qy * pz + qz * py,
            qw * py + qx * pz - qy * pw - qz * px,
            qw * pz - qx * py + qy * px - qz * pw,
        )
        ex, ey, ez = vx - wx, vy - wy, vz - wz
        lam = slope * (ex * nx + ey * ny + ez * nz) + radius * m
        # the sign: hysteresis (switching), shorter path (benchmark) or as given
        s = update_sigma(sigma, lam, delta) if switching else (
            _shorter_path_sign(m) if benchmark else sigma
        )
        kp = s * kq
        kd = s * kn
        # nu, and n_e_dot = vector part of 0.5 [0, w_err] q_err
        ux, uy, uz = ex + kd * nx, ey + kd * ny, ez + kd * nz
        ax = kp * nx + kw * ux + fx + kd * (0.5 * (m * ex + ey * nz - ez * ny))
        ay = kp * ny + kw * uy + fy + kd * (0.5 * (m * ey + ez * nx - ex * nz))
        az = kp * nz + kw * uz + fz + kd * (0.5 * (m * ez + ex * ny - ey * nx))
        jx = j00 * wx + j01 * wy + j02 * wz
        jy = j10 * wx + j11 * wy + j12 * wz
        jz = j20 * wx + j21 * wy + j22 * wz
        tau = (
            j00 * ax + j01 * ay + j02 * az + (wy * jz - wz * jy),
            j10 * ax + j11 * ay + j12 * az + (wz * jx - wx * jz),
            j20 * ax + j21 * ay + j22 * az + (wx * jy - wy * jx),
        )
        return tau, (m, nx, ny, nz, ex, ey, ez, s, lam)

    return law


class _ControllerBase:
    """Shared set-up: gains, inertia and reference tracker.

    A controller is called as ``controller(t, y)`` with the packed state
    y = (qw, qx, qy, qz, wx, wy, wz) and returns ``(tau, row)``: the torque
    as a tuple of floats and its fixed-width telemetry row of 9 floats (see
    ``_bind_law``), the row protocol of ``rigid_body.simulate``.  Its law
    (``_bind_law`` of the class's ``_name``) is bound once, here; each
    law's ``__call__`` hands it the sign, the measured state and the
    reference sampled with that state, which is all the tracker needs to pin
    the stage-3 start.
    """

    _name = "continuous"

    def __init__(self, gains: GainSet, J: np.ndarray, tracker: ManeuverTracker):
        self.gains = gains
        self.J = np.asarray(J, dtype=float)
        self.tracker = tracker
        self._law = _bind_law(gains, self.J.tolist(), self._name)


class ContinuousController(_ControllerBase):
    def __call__(self, t: float, y):
        return self._law(+1, y, self.tracker.sample(t, y))


class BenchmarkController(_ControllerBase):
    """Stateless shorter-path law; its effective sign is re-read every step."""

    _name = "benchmark"

    def __call__(self, t: float, y):
        return self._law(+1, y, self.tracker.sample(t, y))


class SwitchingController(_ControllerBase):
    """Hysteretic Lyapunov-based switching law; its only state is the
    current switch sign ``sigma``, +1 at the start of a run."""

    _name = "switching"
    sigma = +1

    def __call__(self, t: float, y):
        tau, row = self._law(self.sigma, y, self.tracker.sample(t, y))
        self.sigma = row[7]
        return tau, row
