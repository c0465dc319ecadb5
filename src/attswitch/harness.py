"""Scenario runner, effort metrics, benchmark comparisons, and CSV export.

A Scenario pins everything a run needs (maneuver, controller, gains,
inertia, step size, seed); run_scenario wires the reference generator, the
chosen control law, and the integrator together and returns the full
telemetry as flat arrays.  It picks the loop once per run: a run that
starts on the yaw plane, as every manoeuvre the paper flies does, goes
through ``run_on_plane``, which reads the scenario, builds no controller,
writes only the yaw rows of the law and of the RK4 step, mirrors the
tracker's read of the yaw in its own locals and returns t0 with the
trajectory.  Its hold step opens no frame and calls no builtin, and each
chunk of steps reaches the arrays through one ``struct`` pack; a stage 1
that starts at rest, as every full-mode run does, is stepped for two rows
and filled from the second up to t1.  Any other run, or one the plane
cannot finish, goes through ``rigid_body.simulate`` from the start, with
one controller built for it.
The performance figure of merit is the RMS of the torque 2-norm over the
evaluation window [t0, t0 + horizon].

A run's inputs each have one form.  A run starts from the packed state
tuple (identity at rest in full mode, ``stage3_initial_state`` in stage3
mode).  scenario.txt has one table, ``SCENARIO_KEYS``: each key's reader
and its echo, from which ``scenario_to_text`` writes a file that
``scenario_from_text`` reads back to the same scenario bit for bit.  A law's
gains where none are given are ``DEFAULT_GAINS[law]``.

A run's start has one reading: the switching law's telemetry row at t0.
``lyapunov_ic_table`` makes that row with one call of the law, no run, and
``values_at_t0`` reads it from a run for ``report.txt`` and ``sweep.csv``;
V and ROA membership come from ``stability`` on that row.

telemetry.csv holds each cell as "%.17g" writes it.  ``export_run`` writes
it a block of rows at a time: a block's constant columns are literals of
its one row template, and its other cells come from ``_format17``, which
forms "%.17g"'s bytes in numpy.  ``_digits17`` takes a cell's 17 digits
exactly from an error-free (Dekker) product with a double-double table of
powers of ten; the few cells it cannot settle go through "%.17g" itself.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import rigid_body, stability
from .controllers import (
    GAIN_KEYS,
    BenchmarkController,
    ContinuousController,
    ErrorState,
    GainSet,
    SwitchingController,
    _bind_law,
    _shorter_path_sign,
    law_kn,
)
from .quat import IDENTITY, NORM_DRIFT_TOL, yaw_of
from .reference import HOLD, MODE_STAGE3, ManeuverSpec, ManeuverTracker, stage3_initial_state
from .rigid_body import (
    CHUNK,
    DEFAULT_DT,
    DEFAULT_HORIZON,
    DEFAULT_INERTIA,
    MAX_STEPS,
    SimulationError,
    simulate,
    validate_inertia,
)
from .stability import report_number

# The five benchmark initial conditions {wz rad/s, psi0 deg} exercised by the
# comparison harness, ordered so the first three make the shorter-path law
# and the switching law pick opposite torque directions.
REFERENCE_ICS = (
    (2.0, 150.0),
    (3.0, 120.0),
    (4.0, 100.0),
    (2.0, 100.0),
    (2.0, 210.0),
)

SWITCHING_GAINS = GainSet(kq=10.0, kw=100.0, kn=10.0, c=2.0, delta=0.1)
BENCHMARK_GAINS = GainSet(kq=1000.0, kw=100.0, kn=10.0, c=2.0, delta=0.1)

CONTROLLERS = {
    "continuous": ContinuousController,
    "benchmark": BenchmarkController,
    "switching": SwitchingController,
}
# each law's gains where none are given: the shorter-path law runs at its own kq
DEFAULT_GAINS = dict(continuous=SWITCHING_GAINS, benchmark=BENCHMARK_GAINS, switching=SWITCHING_GAINS)


def gains_with(base: GainSet, values) -> GainSet:
    """``base`` with each gain that ``values`` (a mapping by gain name) sets."""
    return GainSet(
        **{k: values[k] if values.get(k) is not None else getattr(base, k) for k in GAIN_KEYS}
    )


CSV_HEADER = (
    "t,qw,qx,qy,qz,wx,wy,wz,me,nex,ney,nez,wex,wey,wez,"
    "taux,tauy,tauz,sigma,lambda,V"
)


@dataclass
class Scenario:
    name: str
    maneuver: ManeuverSpec
    controller: str
    gains: GainSet
    inertia: np.ndarray = field(default_factory=lambda: DEFAULT_INERTIA.copy())
    dt: float = DEFAULT_DT
    horizon_after_t0: float = DEFAULT_HORIZON
    seed: int = 0

    def __post_init__(self):
        if self.controller not in CONTROLLERS:
            raise ValueError(f"unknown controller {self.controller!r}")
        if not (math.isfinite(self.horizon_after_t0) and self.horizon_after_t0 > 0.0):
            raise ValueError(
                f"horizon_after_t0 must be positive and finite, got {self.horizon_after_t0}"
            )
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not math.isfinite(self.horizon_after_t0 / self.dt):
            raise ValueError(
                f"horizon_after_t0 / dt = {self.horizon_after_t0} / {self.dt} is not a finite step count"
            )
        if self.horizon_after_t0 < self.dt:
            raise ValueError(
                f"horizon_after_t0 = {self.horizon_after_t0} is shorter than one step dt = {self.dt}"
            )
        # the torque is held over each step, and near the equilibrium the
        # n_e_dot term adds (kn/2) w_err to it, so the sampled rate loop
        # w_{k+1} ~ (1 - dt (kw + kn/2)) w_k diverges once dt (kw + kn/2)
        # reaches 2, with the kn the law binds (0 but for the switching law)
        kn = law_kn(self.gains, self.controller)
        if self.dt * (self.gains.kw + 0.5 * kn) >= 2.0:
            raise ValueError(
                f"dt * (kw + kn/2) = {self.dt * (self.gains.kw + 0.5 * kn):g} must be below 2 "
                f"for the sampled rate loop of the {self.controller} law to be stable "
                f"(dt = {self.dt}, kw = {self.gains.kw}, kn = {kn})"
            )
        self.inertia = validate_inertia(self.inertia)


@dataclass
class RunResult:
    scenario: Scenario
    t: np.ndarray        # (N,)
    q: np.ndarray        # (N, 4)
    w: np.ndarray        # (N, 3)
    m_e: np.ndarray      # (N,)
    n_e: np.ndarray      # (N, 3)
    w_e: np.ndarray      # (N, 3)
    tau: np.ndarray      # (N, 3)
    sigma: np.ndarray    # (N,) int
    lam: np.ndarray      # (N,)
    V: np.ndarray        # (N,)
    t0: float
    tf: float
    gamma_tau: float
    switch_times: tuple
    final_yaw_error: float


def control_effort(run: RunResult, t0: float, tf: float) -> float:
    """RMS torque norm over [t0, tf] by trapezoidal quadrature, on the rows
    with t0 - 1e-12 <= t <= tf + 1e-12: one slice, as t is sorted."""
    t = run.t
    if t0 < t[0] - 1e-9 or tf > t[-1] + 1e-9 or tf <= t0:
        raise ValueError(f"window [{t0}, {tf}] not covered by run [{t[0]}, {t[-1]}]")
    rows = slice(np.searchsorted(t, t0 - 1e-12), np.searchsorted(t, tf + 1e-12, side="right"))
    tau = run.tau[rows]
    sq = np.einsum("ij,ij->i", tau, tau)
    return math.sqrt(float(np.trapezoid(sq, t[rows])) / (tf - t0))


def make_controller(scenario: Scenario):
    tracker = ManeuverTracker(scenario.maneuver)
    return CONTROLLERS[scenario.controller](scenario.gains, scenario.inertia, tracker)


# run_on_plane's eight stored columns of a chunk, in one native-order pack
_pack_chunk = struct.Struct(f"{8 * CHUNK}d").pack


def _first_row_at(t, dt, n):
    """The first row k >= 1 whose time k dt, formed and compared as the
    driver forms and compares it, is at least t > 0, or n if no row before n
    is.  It starts at ceil(t / dt) and moves from there a row at a time,
    which takes a step or two, not one per row."""
    if n * dt < t:
        return n
    k = math.ceil(t / dt)
    while (k - 1) * dt >= t:
        k -= 1
    while k * dt < t:
        k += 1
    return k


def run_on_plane(scenario: Scenario, y0, duration: float):
    """``(Trajectory, t0)`` of ``simulate(y0, make_controller(scenario),
    scenario.inertia, scenario.dt, duration)`` on the yaw plane, with its
    bits and the t0 its tracker pins (None for a run cut before it), or None
    for a run it does not take or cannot finish; its refusals are
    ``rigid_body.checked_run``'s.  It reads dt, the inertia, the law, its
    gains and the maneuver from the scenario, builds no controller and
    assigns to no object it did not make.

    It takes a run that starts with qx, qy, wx and wy at +0.0 on a diagonal
    inertia (validated, so it and its inverse, diagonal too, are finite) with
    J_22 <= 1 kg m^2, which keeps J_22 wz finite for a finite wz and makes
    Jinv_22 >= 1; while the tracker's t0 is pending and it binds a spin
    axis, the spin's w0 and axis must have x and y at +0.0 too, as every
    full-mode run of the command line has.  Only qw, qz and wz then move.

    It starts where every run starts: the switching law at sigma = +1, and
    the tracker as ``ManeuverTracker(scenario.maneuver)`` binds it, from
    which it takes the spin's rate, axis and w0, with the yaw sum and the
    last yaw at 0.0 and t0 at the tracker's start value.  While t0 is
    pending, each step mirrors ``ManeuverTracker.sample``'s read in its
    operation order, in its own locals: the yaw is ``yaw_of``'s with x and
    y at +0.0, atan2(2.0 (qw qz + 0.0), 1.0 - 2.0 (0.0 + qz qz)), unwrapped
    across +-pi into the yaw sum; t0 is the first t >= t1 at which the sum
    reaches psi0; and a step with t1 <= t before t0 is a stage-2 spin row
    at h = 0.5 (rate (t - t1)).  For the hold sample
    HOLD = ((1, 0, 0, 0), 0, 0) and x and y at +0.0, ``_bind_law``'s general
    body reduces term by term to

        q_err = renorm(qw + 0.0, qw 0.0 + qz 0.0, 0.0, 0.0 - qz)
                    (qw 1.0 + 0.0 + 0.0 + qz 0.0; a +-0.0 minus +0.0 is
                     itself; +0.0 + -0.0 and +0.0 - -0.0 are +0.0)
        w_err = (0.0, 0.0, 0.0 - wz)
        Lambda = slope (0.0 + ez nz) + radius m   (0.0 nx + 0.0 ny is +0.0)
        a_z = kp nz + kw (ez + kd nz) + 0.0 + kd (0.5 (m ez + 0.0))
                    (ex ny is +0.0; x - ey nx is x for an x not -0.0)
        tau = (0.0, 0.0, J_22 a_z + 0.0)

    as nu_x, nu_y, a_x, a_y, J_00 a_x and J_11 a_y are +0.0, and so are
    their sums with the zero off-diagonal products and (w x Jw)_x and _y;
    (w x Jw)_z is +0.0 - +0.0, which turns a zero (J a)_z into +0.0.  For
    the spin sample q_d = (ch, z, z, p), with ch = cos h, sh = sin h, the
    zero z = 0.0 sh (ax sh and ay sh) and p = az sh, w_d = (0.0, 0.0, w0z)
    and a zero feedforward, it reduces to

        m  = qw ch + z + qz p         (qw ch + 0.0 z + 0.0 z + qz p, where
                                       0.0 z is z and (x + z) + z is x + z)
        nz = qw p + 0.0 - qz ch       (qw p - 0.0 z + 0.0 z - qz ch, where
                                       (x - z) + z is x + 0.0)
        nx = qw z - 0.0 ch - 0.0 p + qz z,  ny = qw z + 0.0 p - 0.0 ch - qz z
        |q_err|^2 = m m + nz nz,   w_err = (0.0, 0.0, w0z - wz)

    and from there on to the hold's Lambda, a_z and tau.  nx and ny are
    zeros of either sign (for a finite qw and qz; else m is not finite, nor
    Lambda), so nx nx and ny ny are +0.0, and nu_x, nu_y, a_x and a_y are
    +0.0 as for a hold.  nx and ny are stored with their own signs, and the
    zero terms they put in Lambda and in a_z keep theirs, but these need no
    form of their own.  Their signs turn once sh < 0, as the spin passes
    pi: the continuous law's at the IC (4, 359) reaches h = 180.5 deg.

      * a sum of zeros is -0.0 only if every term it adds is; nx is -0.0
        only if 0.0 p is +0.0, ny only if it is -0.0, so never both, and
        Lambda's 0.0 nx + 0.0 ny is +0.0, as for a hold;
      * m ez + 0.0 ny - 0.0 nx is m ez unless that is a zero, and a zero
        there gives a zero kd term, which the +0.0 before it absorbs.

    ``bind_rk4``'s step with such a torque keeps every stage on the plane
    (y + h k of a +0.0 entry and a zero derivative is +0.0), where the
    derivative reduces to

        qw_dot = 0.5 (-0.0 - qz wz)         (-qx wx - qy wy is -0.0)
               = -0.5 (qz wz)               (-0.0 - x is -x for every x,
                                             and 0.5 (-x) is (-0.5) x)
        qz_dot = 0.5 (qw wz + 0.0)          (v + 0.0 - 0.0 is v + 0.0)
        wz_dot = Jinv_22 tz                 (rz = tz - (+0.0) = tz)

    (Jinv_20 rx + Jinv_21 ry is a zero, and Jinv_22 tz is one only for
    tz = +0.0, as Jinv_22 >= 1; wx_dot and wy_dot are zeros of either sign);
    the wz sum's 2 wz_dot is formed once.  Both need every entry finite.  A
    state that a step makes non-finite makes the next step's Lambda + tau_z
    non-finite; a run whose Lambda + tau_z is not finite, tested as
    ``not -inf < Lambda + tau_z < inf`` (true for a NaN, as for isfinite),
    or whose renorm divides by zero, returns None, for its caller to run
    again from the start through ``simulate``.

    No step opens a Python frame.  The two calls of ``renorm_if_drifted``
    are written out with their bits: the step's |q|^2 is pw^2 + pz^2 plus
    two +0.0 terms, and the law's is m^2 + nz^2 for a finite m and nz, as
    (qw + 0.0)^2 is qw^2, (0.0 - qz)^2 is qz^2 and the squares of the zero
    nx and ny are +0.0 (a non-finite m or nz leaves m or nz non-finite in
    both forms, and so Lambda + tau_z).  Each tests its drift d = |q|^2 - 1
    as ``d > tol or d < -tol``, which is ``abs(d) > tol``, NaN included.
    The sign rules are ``update_sigma``'s, whose delta > 0 ``GainSet``
    guarantees, against a -delta formed once, and ``_shorter_path_sign``'s.
    sigma is carried as the float +-1.0, and each rule that sets it also
    binds skq = sigma kq and kd = sigma kn, as kq and kn or as -1.0 kq and
    -1.0 kn formed once: an int +-1 times a float is that float times
    +-1.0, so the torque's sigma kq nz is skq nz, bit for bit.

    A step stores only what it forms: qw, qz, wz, tau_z, m, nz, sigma and
    Lambda, into eight lists of a chunk, and a spin row also nx and ny.  At
    the chunk's end one native-order ``struct`` pack turns the eight lists
    into one buffer, each double's bytes copied as they are, whose
    ``np.frombuffer`` rows go to their column slices.  numpy then forms
    nx = qw 0.0 + qz 0.0 and ez = 0.0 - wz on those rows, the same IEEE
    operations on the same operands; the law's renorm scales nx and ny by
    1/sqrt(|q|^2), finite and positive or +0.0, which leaves a zero as it
    is, sign included.  The chunk's spin rows, contiguous and ending at t0's
    row or at the chunk's end, then take their stored nx and ny and
    ez = w0z - wz.  The rates' and the torque's x and y, and the hold rows'
    ny, stay the +0.0 of ``np.zeros``.

    A run whose t0 is pending, and whose stage 1 and whole length are each
    more than two rows, steps rows 0 and 1 as a chunk of their own.  If
    row 1's eight stored values have row 0's bits, row 1 is a fixed point:
    its qw, qz, wz and tau_z are row 0's, so its step is row 0's, which
    returned row 1's state, and every row before t1 repeats row 1.  Its yaw
    read repeats, so d is +0.0 and the yaw sum, never -0.0 after row 0,
    does not move, and its sign rule meets row 1's Lambda and sigma.  The
    driver then copies row 1 into each row before the first at t >= t1
    (``_first_row_at``) and goes on from that row.  A start at rest at
    qw = +-1, as every full-mode run of the command line starts, is such a
    fixed point.  So a hold step calls no builtin, a stage-1 step that moves
    only ``atan2``, a stage 1 from rest ``atan2`` twice in all, and a spin
    step ``atan2``, ``sin`` and ``cos``.
    """
    dt = scenario.dt
    y, J, n_steps = rigid_body.checked_run(y0, scenario.inertia, dt, duration)
    J, Jinv = rigid_body._inertia_rows(J)
    (_, j01, j02), (j10, _, j12), (j20, j21, j22) = J
    i22 = Jinv[2][2]
    qw, qx, qy, qz, wx, wy, wz = y
    # -qx - qy - wx - wy is -0.0 only when all four are +0.0
    if (qx or qy or wx or wy or math.copysign(1.0, -qx - qy - wx - wy) > 0.0
            or j01 or j02 or j10 or j12 or j20 or j21 or j22 > 1.0):
        return None
    tracker = ManeuverTracker(scenario.maneuver)
    t0 = tracker.t0
    pending = t0 is None
    turning = pending and tracker._axis is not None
    if turning:
        (w0x, w0y, w0z), (ax, ay, az) = tracker._w0, tracker._axis
        if w0x or w0y or ax or ay or math.copysign(1.0, -w0x - w0y - ax - ay) > 0.0:
            return None
    gains, name = scenario.gains, scenario.controller
    kn, kq, kw, delta = law_kn(gains, name), gains.kq, gains.kw, gains.delta
    slope, radius = gains.lam_slope, gains.roa_radius
    switching, benchmark = name == "switching", name == "benchmark"
    # every run's start sign, and the sign -1's sigma kq and sigma kn
    sigma, skq, kd = 1.0, kq, kn
    nkq, nkn, ndelta = -1.0 * kq, -1.0 * kn, -delta
    tol, ntol, inf, ninf = NORM_DRIFT_TOL, -NORM_DRIFT_TOL, math.inf, -math.inf
    sqrt, h, third, n = math.sqrt, 0.5 * dt, dt / 6.0, n_steps + 1
    atan2, cos, sin, pi, two_pi = math.atan2, math.cos, math.sin, math.pi, 2.0 * math.pi
    t1, psi0, rate = tracker.spec.stage1_duration, tracker.spec.psi0, tracker._rate
    yaw_sum = prev_yaw = 0.0
    spin, k0 = False, n  # whether this step is a spin row; t0's row
    # the torque's and the rates' x and y stay +0.0, and ny but in spin rows;
    # nx and ez are formed per chunk from the stored qw, qz and wz
    ys_out, taus_out, tel = np.zeros((n, 7)), np.zeros((n, 3)), np.zeros((n, 9))
    qws, qzs, wzs, tzs, ms, nzs, sigmas, lams = ([0.0] * CHUNK for _ in range(8))
    nxs, nys, ns = [0.0] * CHUNK, [0.0] * CHUNK, 0  # the chunk's spin rows' nx and ny
    # a stage 1 longer than two rows starts with a chunk of rows 0 and 1,
    # after which one bit test may fill the rest of the hover from row 1
    hover = pending and 2 * dt < t1 and n > 2
    start, c = 0, 2 if hover else CHUNK
    try:
        while start < n:
            c, last = min(c, n - start), n_steps - start
            for i in range(c):
                if pending:
                    t = (start + i) * dt
                    yaw = atan2(2.0 * (qw * qz + 0.0), 1.0 - 2.0 * (0.0 + qz * qz))
                    d = yaw - prev_yaw
                    if d > pi:
                        d -= two_pi
                    elif d < -pi:
                        d += two_pi
                    yaw_sum += d
                    prev_yaw = yaw
                    if t >= t1:
                        if yaw_sum >= psi0:
                            t0, k0, pending, spin = t, start + i, False, False
                        else:
                            spin = turning
                if spin:
                    half = 0.5 * (rate * (t - t1))
                    sh, ch = sin(half), cos(half)
                    z, p = 0.0 * sh, az * sh
                    # the body's four distinct zero products of nx and ny
                    xw, xz, xc, xp = qw * z, qz * z, 0.0 * ch, 0.0 * p
                    nxs[ns] = xw - xc - xp + xz
                    nys[ns] = xw + xp - xc - xz
                    ns += 1
                    m, nz = qw * ch + z + qz * p, qw * p + 0.0 - qz * ch
                    nn, ez = m * m + nz * nz, w0z - wz
                else:
                    m, nz, nn = qw + 0.0, 0.0 - qz, qw * qw + qz * qz
                    ez = 0.0 - wz
                d = nn - 1.0
                if d > tol or d < ntol:
                    s = 1.0 / sqrt(nn)
                    m, nz = m * s, nz * s
                lam = slope * (0.0 + ez * nz) + radius * m
                if switching:
                    if lam >= delta:
                        sigma, skq, kd = 1.0, kq, kn
                    elif lam <= ndelta:
                        sigma, skq, kd = -1.0, nkq, nkn
                elif benchmark:
                    if m >= 0.0:
                        sigma, skq, kd = 1.0, kq, kn
                    else:
                        sigma, skq, kd = -1.0, nkq, nkn
                tz = j22 * (skq * nz + kw * (ez + kd * nz) + 0.0 + kd * (0.5 * (m * ez + 0.0))) + 0.0
                if not ninf < lam + tz < inf:
                    return None
                tzs[i] = tz
                ms[i] = m
                nzs[i] = nz
                sigmas[i] = sigma
                lams[i] = lam
                qws[i] = qw
                qzs[i] = qz
                wzs[i] = wz
                if i == last:
                    break
                a6 = i22 * tz
                a62, w = 2.0 * a6, wz + h * a6
                a0, a3 = -0.5 * (qz * wz), 0.5 * (qw * wz + 0.0)
                pw, pz = qw + h * a0, qz + h * a3
                b0, b3 = -0.5 * (pz * w), 0.5 * (pw * w + 0.0)
                pw, pz = qw + h * b0, qz + h * b3
                c0, c3 = -0.5 * (pz * w), 0.5 * (pw * w + 0.0)
                pw, pz, w = qw + dt * c0, qz + dt * c3, wz + dt * a6
                d0, d3 = -0.5 * (pz * w), 0.5 * (pw * w + 0.0)
                pw = qw + third * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
                pz = qz + third * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
                wz = wz + third * (a6 + a62 + a62 + a6)
                qw, qz, nn = pw, pz, pw * pw + pz * pz
                d = nn - 1.0
                if d > tol or d < ntol:
                    s = 1.0 / sqrt(nn)
                    qw, qz = pw * s, pz * s
            rows = slice(start, start + c)
            block = np.frombuffer(
                _pack_chunk(*qws, *qzs, *wzs, *tzs, *ms, *nzs, *sigmas, *lams)
            ).reshape(8, CHUNK)[:, :c]
            (ys_out[rows, 0], ys_out[rows, 3], ys_out[rows, 6], taus_out[rows, 2],
             tel[rows, 0], tel[rows, 3], tel[rows, 7], tel[rows, 8]) = block
            tel[rows, 1] = block[0] * 0.0 + block[1] * 0.0
            tel[rows, 6] = 0.0 - block[2]
            if ns:
                end = min(k0, start + c)
                spun = slice(end - ns, end)
                tel[spun, 1], tel[spun, 2] = nxs[:ns], nys[:ns]
                tel[spun, 6] = w0z - ys_out[spun, 6]
                ns = 0
            start, c = start + c, CHUNK
            if hover:
                hover = False
                if block[:, 0].tobytes() == block[:, 1].tobytes():
                    start = _first_row_at(t1, dt, n)
                    ys_out[2:start], taus_out[2:start], tel[2:start] = ys_out[1], taus_out[1], tel[1]
    except ZeroDivisionError:  # the renorm of a zero quaternion
        return None
    traj = rigid_body.Trajectory(
        t=np.arange(n) * dt, q=ys_out[:, :4], w=ys_out[:, 4:], tau=taus_out, telemetry=tel
    )
    return traj, t0


def run_scenario(scenario: Scenario) -> RunResult:
    """Simulate a scenario and assemble the full telemetry."""
    spec = scenario.maneuver
    if spec.mode == MODE_STAGE3:
        state = stage3_initial_state(spec)
        duration = scenario.horizon_after_t0
        # round(h/dt) steps can end short of h (h = 1.0004 at dt = 1e-3,
        # or a half rounded to even): take one more step so the window fits
        n_steps = round(duration / scenario.dt)
        if duration > n_steps * scenario.dt + 1e-9:
            duration = (n_steps + 1) * scenario.dt
    else:
        state = (*IDENTITY.tolist(), 0.0, 0.0, 0.0)
        stage2_allowance = 1.5 * spec.psi0 / spec.rate + 0.5
        duration = spec.stage1_duration + stage2_allowance + scenario.horizon_after_t0
        # refused here, where each of the three terms of the run is known
        steps = duration / scenario.dt
        if steps >= MAX_STEPS + 0.5:
            raise ValueError(
                f"full mode runs stage 1 ({spec.stage1_duration:.3g} s) + stage 2 at wz ="
                f" {float(spec.w0[2])!r} rad/s (1.5 psi0/|w0| + 0.5 s = {stage2_allowance:.3g} s)"
                f" + the horizon ({scenario.horizon_after_t0:.3g} s) = {duration:.3g} s, so the"
                f" run takes {steps:.3g} steps, more than the {MAX_STEPS} a run may take"
            )
    out = run_on_plane(scenario, state, duration)
    if out is None:  # off the plane, or a run it cannot finish: from the start
        controller = make_controller(scenario)
        traj = simulate(state, controller, scenario.inertia, scenario.dt, duration)
        out = traj, controller.tracker.t0
    traj, t0 = out
    if t0 is None:
        raise SimulationError("stage-2 -> stage-3 transition never triggered")
    tf = t0 + scenario.horizon_after_t0

    t = traj.t
    tel = traj.telemetry
    m_e, n_e, w_e, lam = tel[:, 0], tel[:, 1:4], tel[:, 4:7], tel[:, 8]
    sigma = tel[:, 7].astype(int)

    if tf > t[-1] + 1e-9:
        raise SimulationError(
            f"stage-3 window [{t0}, {tf}] overruns the simulated horizon {t[-1]}"
        )
    i_f = int(np.searchsorted(t, tf - 1e-12))
    # the hysteretic law's switches are the rows whose sigma differs from the
    # row before (+1 before the first); the benchmark law's sign is no switch
    switch_times = ()
    if scenario.controller == "switching":
        switch_times = tuple(t[np.diff(sigma, prepend=1) != 0].tolist())
    # finite states can still give an overflowing V or effort: refused below
    with np.errstate(over="ignore", invalid="ignore"):
        V = stability.lyapunov_series(m_e, n_e, w_e, sigma, scenario.gains)
        run = RunResult(
            scenario=scenario,
            t=t, q=traj.q, w=traj.w, m_e=m_e, n_e=n_e, w_e=w_e, tau=traj.tau,
            sigma=sigma, lam=lam, V=V,
            t0=t0, tf=tf,
            gamma_tau=0.0,
            switch_times=switch_times,
            final_yaw_error=yaw_of(traj.q[i_f]),
        )
        run.gamma_tau = control_effort(run, t0, tf)
    if not (math.isfinite(run.gamma_tau) and all(np.isfinite(a).all() for a in (tel, traj.tau, V))):
        raise SimulationError(
            f"{scenario.name}: the run's torque, telemetry, V or effort is not finite"
        )
    return run


def _ic_maneuver(wz: float, psi0_deg: float) -> ManeuverSpec:
    """Stage3-mode maneuver of an initial condition {wz rad/s, psi0 deg}."""
    return ManeuverSpec(
        w0=np.array([0.0, 0.0, wz]), psi0=math.radians(psi0_deg), mode=MODE_STAGE3
    )


def make_ic_scenario(
    wz: float,
    psi0_deg: float,
    controller: str = "switching",
    gains: GainSet | None = None,
    inertia: np.ndarray | None = None,
    dt: float = DEFAULT_DT,
    horizon: float = DEFAULT_HORIZON,
) -> Scenario:
    """Stage3-mode scenario for an initial condition {wz rad/s, psi0 deg}."""
    if gains is None:
        # None for an unknown law, which Scenario refuses
        gains = DEFAULT_GAINS.get(controller)
    return Scenario(
        name=f"ic_{wz:g}_{psi0_deg:g}_{controller}",
        maneuver=_ic_maneuver(wz, psi0_deg),
        controller=controller,
        gains=gains,
        inertia=DEFAULT_INERTIA.copy() if inertia is None else inertia,
        dt=dt,
        horizon_after_t0=horizon,
    )


def check_run_count(runs: int) -> None:
    """ValueError past MAX_STEPS runs, before a command allocates an entry
    per run, as a run's arrays hold a row per step (``simulate`` bounds those)."""
    if runs > MAX_STEPS:
        raise ValueError(f"{runs} runs are more than the {MAX_STEPS} a command may make")


def lyapunov_ic_table(gains: GainSet | None = None, ics=REFERENCE_ICS):
    """Error state, switch sign and Lyapunov value at t0 for each benchmark IC.

    Each IC's m_e, sigma and Lambda are the telemetry row of the switching
    law's first stage-3 step, with the inputs that ``SwitchingController``
    hands it at row 0 of a stage-3 run (sigma = +1, the stage-3 start and
    the hold reference), so no simulation runs; V and ROA membership are
    the certificates of that row.  m_e at t0 is kept for the shorter-path sign.
    """
    gains = gains or SWITCHING_GAINS
    law = _bind_law(gains, DEFAULT_INERTIA.tolist(), "switching")
    rows = []
    for wz, psi0_deg in ics:
        y0 = stage3_initial_state(_ic_maneuver(wz, psi0_deg))
        _, row = law(SwitchingController.sigma, y0, HOLD)
        err, sigma, lam = ErrorState(row[:4], row[4:7]), row[7], row[8]
        V = stability.lyapunov_value(err, sigma, gains)
        if not (math.isfinite(lam) and math.isfinite(V)):
            raise ValueError(
                f"{gains} give a non-finite Lambda = {lam} or V = {V} "
                f"at the IC ({wz:g} rad/s, {psi0_deg:g} deg)"
            )
        rows.append(
            {
                "wz": wz,
                "psi0_deg": psi0_deg,
                "m_e": err.m_e,
                "sigma": sigma,
                "lam": lam,
                "V": V,
                "in_roa": stability.roa_contains(err, sigma, gains),
            }
        )
    return rows


@dataclass
class PerturbationSpec:
    """Trial-to-trial initial-condition spread (uniform, symmetric)."""

    psi0_deg: float = 1.0
    wz: float = 0.05

    def __post_init__(self):
        for name in ("psi0_deg", "wz"):
            v = float(getattr(self, name))
            if not (math.isfinite(2.0 * v) and v >= 0.0):  # 2v: the draw's range
                raise ValueError(f"perturbation {name} must be non-negative with a finite double, got {v}")


@dataclass
class IcComparison:
    wz: float
    psi0_deg: float
    direction_agreement: bool
    gamma_benchmark: np.ndarray
    gamma_switching: np.ndarray
    switches: int

    @property
    def mean_benchmark(self) -> float:
        return float(np.mean(self.gamma_benchmark))

    @property
    def mean_switching(self) -> float:
        return float(np.mean(self.gamma_switching))

    @staticmethod
    def _esd(g: np.ndarray) -> float:
        # identical repeats must report exactly zero spread
        if len(g) < 2 or np.ptp(g) == 0.0:
            return 0.0
        return float(np.std(g, ddof=1))

    @property
    def esd_benchmark(self) -> float:
        return self._esd(self.gamma_benchmark)

    @property
    def esd_switching(self) -> float:
        return self._esd(self.gamma_switching)

    @property
    def percent_reduction(self) -> float:
        return 100.0 * (self.mean_benchmark - self.mean_switching) / self.mean_benchmark


@dataclass
class ComparisonReport:
    repeats: int
    perturbation: PerturbationSpec
    rows: list

    @property
    def mean_mismatch_reduction(self) -> float:
        vals = [r.percent_reduction for r in self.rows if not r.direction_agreement]
        return float(np.mean(vals)) if vals else 0.0


def effort_comparison(
    repeats: int = 10,
    perturbation: PerturbationSpec | None = None,
    dt: float = DEFAULT_DT,
    horizon: float = DEFAULT_HORIZON,
    seed: int = 0,
    ics=REFERENCE_ICS,
) -> ComparisonReport:
    """Paired effort comparison of the shorter-path and switching laws.

    Each repeat perturbs the IC (same draw for both controllers, so the
    comparison is paired) and runs both laws from the stage-3 state, once
    every IC's perturbed yaw is known to stay inside (0, 360) deg.  A
    repeat builds both laws' scenarios before it runs either, so a step or
    horizon that one law refuses stops the comparison before its first run.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    if seed < 0:  # numpy's seed sequence refuses it without naming the seed
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    check_run_count(2 * repeats * len(ics))
    pert = perturbation or PerturbationSpec()
    for wz, psi in ics:
        if not (0.0 < psi - pert.psi0_deg and psi + pert.psi0_deg < 360.0):
            raise ValueError(f"IC ({wz:g}, {psi:g} deg) +-{pert.psi0_deg:g} deg leaves (0, 360)")
    rows = []
    for i, ic in enumerate(lyapunov_ic_table(SWITCHING_GAINS, ics)):
        wz, psi0_deg = ic["wz"], ic["psi0_deg"]
        g_b = np.empty(repeats)
        g_s = np.empty(repeats)
        switches = 0
        for r in range(repeats):
            rng = np.random.default_rng([seed, i, r])
            wz_r = wz + rng.uniform(-pert.wz, pert.wz)
            psi_r = psi0_deg + rng.uniform(-pert.psi0_deg, pert.psi0_deg)
            sc_b = make_ic_scenario(wz_r, psi_r, "benchmark", dt=dt, horizon=horizon)
            sc_s = make_ic_scenario(wz_r, psi_r, "switching", dt=dt, horizon=horizon)
            run_b, run_s = run_scenario(sc_b), run_scenario(sc_s)
            g_b[r] = run_b.gamma_tau
            g_s[r] = run_s.gamma_tau
            switches = max(switches, len(run_s.switch_times))
        rows.append(
            IcComparison(
                wz=wz,
                psi0_deg=psi0_deg,
                direction_agreement=(_shorter_path_sign(ic["m_e"]) == ic["sigma"]),
                gamma_benchmark=g_b,
                gamma_switching=g_s,
                switches=switches,
            )
        )
    return ComparisonReport(repeats=repeats, perturbation=pert, rows=rows)


# export_run's rows per block.  The formatter's temporaries grow with the
# block: a 12,329-row export peaks at 1.0 MB traced with 256 rows, 2.0 MB
# with 512 and 4.0 MB with 1024, all within 3 % of each other in time (128
# rows: 10 % slower), and 512 rows read 2-4 MB more peak RSS in the
# simulate_full benchmark than 256.
EXPORT_ROWS = CHUNK

# 10^k for k = 0..300 as the double-double hi + lo, both from Python ints,
# and hi's Veltkamp halves (split at 2^27 + 1)
_SPLIT = 134217729.0
_POW10 = np.array([float(10**k) for k in range(301)])
_POW10_LO = np.array([float(10**k - int(p)) for k, p in enumerate(_POW10.tolist())])
_POW10_HI_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_HI_LO = _POW10 - _POW10_HI_HI

# A cell's text is gathered from a 28-byte source row of seven uint32 words:
# ".-e" and the first digit, four words of four digits, the three digits of
# the exponent and "0", and four NULs.  Byte 3 + i is digit i.
_DOT, _MINUS, _E, _EXP, _ZERO, _NUL = 0, 1, 2, 20, 23, 24
_HEADS = np.frombuffer(b"".join(b".-e%d" % d for d in range(10)), np.uint32)
_GROUPS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, 10000).T + np.uint8(48))
_GROUPS = _GROUPS.view(np.uint32).ravel()  # "0000" .. "9999"
_EXPS = np.frombuffer(b"".join(b"%03d0" % x for x in range(300)), np.uint32)
# _LAST[j][g]: the digit count up to the last nonzero digit of D when that
# digit lies in the 4-digit group j (digits 4j + 1 .. 4j + 4) holding g
# (1 for j = 0, g = 0, and 0 for j > 0, g = 0, so the maximum over j is n)
_LAST = (_GROUPS.view(np.uint8).reshape(10000, 4) > 48) * np.arange(1, 5, dtype=np.uint8)
_LAST = _LAST.max(axis=1) + np.array([[1], [5], [9], [13]], np.uint8)
_LAST[:, 0] = [1, 0, 0, 0]


def _template(x: int, n: int) -> bytes:
    """Source bytes of the "%.17g" text of n significant digits with decimal
    exponent x (x < -4 for the exponent form: -10 for two exponent digits,
    -100 for three), NUL-padded to 24."""
    d = bytes(range(3, 20))
    if x >= 0:
        t = d[: x + 1] + (bytes([_DOT]) + d[x + 1 : n] if n > x + 1 else b"")
    elif x >= -4:
        t = bytes([_ZERO, _DOT] + [_ZERO] * (-x - 1)) + d[:n]
    else:
        exp = bytes([_EXP + 1, _EXP + 2] if x > -100 else [_EXP, _EXP + 1, _EXP + 2])
        t = d[:1] + (bytes([_DOT]) + d[1:n] if n > 1 else b"") + bytes([_E, _MINUS]) + exp
    return t.ljust(24, bytes([_NUL]))


# a template per key (sign, form, n - 1), forms 0..20 fixed notation at
# x = form - 4, 21 and 22 the exponent form with two and three exponent
# digits; _KEYS[k] is the key, less n, of a positive cell at k = 16 - x,
# and a negative cell's key is _NEGATIVE more
_FORMS = [*range(-4, 17), -10, -100]
_NEGATIVE = 17 * len(_FORMS)
_TEMPLATES = np.frombuffer(
    b"".join(
        sign + _template(x, n)[: 24 - len(sign)]
        for sign in (b"", bytes([_MINUS]))
        for x in _FORMS
        for n in range(1, 18)
    ),
    "V24",
)
_KEYS = 17 * np.array([20 - k if k <= 20 else 21 if k < 116 else 22 for k in range(301)]) - 1


def _digits17(v: np.ndarray):
    """``(D, k, ok)`` for the 1-D float array v: where ok, |x| rounds to 17
    significant digits as D 10^-k, 10^16 <= D < 10^17, exactly.

    ok holds for each cell with 1e-280 <= |x| < 1e16 but those named
    below.  Let k = 16 - floor(log10 |x|), moved once by +-1 so that
    p = fl(|x| 10^k) lies in [1e16, 1e17).  The Veltkamp/Dekker TwoProduct
    of |x| with the table's hi gives |x| hi = p + err exactly (no product
    under- or overflows in this range), and lo = err + |x| lo_k.  The exact
    value is V = |x| 10^k = p + lo + eps: |x| lo_k rounds by at most
    2^-50, the table misses 10^k by at most 2^-106 10^k (1.2e-15 here) and
    the sum rounds by at most 2^-48, so |eps| < 1e-14 units of the 17th
    digit, against a margin of 1e-6.  D = p + rint(lo) is exact in int64
    (p is an integer above 2^53), and is not ok where lo is within 1e-6 of
    a half unit (exact ties included).  D = 10^17 is the carry to 10^16 at
    k - 1, which is also the rounding there of a V at or just past 10^17.
    Not ok either: D = 10^16 with lo - rint(lo) < 0, which may stand for a
    V below 10^16, whose k is one more, and D outside [10^16, 10^17], an
    exponent the move missed.  A cell that is not ok has D = 10^16 and
    k = 16.
    """
    a = np.abs(v)
    ok = (a >= 1e-280) & (a < 1e16)
    a[~ok] = 1.0
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    p = a * _POW10[k]
    k += p < 1e16
    k -= p >= 1e17
    p = a * _POW10[k]
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    hh, hl = _POW10_HI_HI[k], _POW10_HI_LO[k]
    lo = ah * hh
    lo -= p
    lo += ah * hl
    lo += al * hh
    lo += al * hl
    lo += a * _POW10_LO[k]
    r = np.rint(lo)
    lo -= r
    D = p.astype(np.int64)
    D += r.astype(np.int64)
    ok &= (np.abs(lo) < 0.5 - 1e-6) & (D >= 10**16) & (D <= 10**17) & ((D != 10**16) | (lo >= 0.0))
    carry = D == 10**17
    D[carry] = 10**16
    k -= carry
    D[~ok] = 10**16
    k[~ok] = 16
    return D, k, ok


def _source_rows(D, k):
    """``(src, n)``: the cells' source rows as (m, 28) bytes, and their
    significant digit counts, from ``_digits17``'s D and k (a frame of its
    own, so its temporaries are freed before ``_format17``'s gather)."""
    head = D // 10**8
    tail = D - head * 10**8
    first = head // 10**8
    head -= first * 10**8
    g0, g2 = head // 10**4, tail // 10**4
    groups = g0, head - g0 * 10**4, g2, tail - g2 * 10**4
    src = np.empty((len(D), 7), np.uint32)
    src[:, 0] = _HEADS[first]
    for j, g in enumerate(groups):
        src[:, j + 1] = _GROUPS[g]
    src[:, 5] = _EXPS[np.abs(k - 16)]
    src[:, 6] = 0
    n = np.maximum(np.maximum(_LAST[0][groups[0]], _LAST[1][groups[1]]),
                   np.maximum(_LAST[2][groups[2]], _LAST[3][groups[3]]))
    return src.view(np.uint8), n


def _format17(v: np.ndarray) -> list:
    """``b"%.17g" % x`` for each float x of the 1-D array v.

    The cells that ``_digits17`` takes are laid out here: fixed notation
    for exponents -4 .. 16 and the exponent form otherwise, without trailing
    zeros or a bare point, gathered from a source row by a template per
    sign, form and significant digit count.  Every other cell (+-0, NaN,
    inf, subnormals, |x| >= 1e16, the half-unit margin, a missed exponent)
    is ``b"%.17g" % x``, the definition.
    """
    D, k, ok = _digits17(v)
    src, n = _source_rows(D, k)
    key = _KEYS[k] + n
    key += _NEGATIVE * (v < 0)
    m = len(v)
    idx = _TEMPLATES[key].view(np.uint8).reshape(m, 24) + np.arange(0, 28 * m, 28)[:, None]
    # an S24 item drops its trailing NULs
    cells = src.ravel()[idx].view("S24").ravel().tolist()
    bad = np.flatnonzero(~ok)
    for i, x in zip(bad.tolist(), v[bad].tolist()):
        cells[i] = b"%.17g" % x
    return cells


def export_run(run: RunResult, path) -> None:
    """Write the run telemetry as CSV (17 significant digits, byte-stable).

    The rows are formatted EXPORT_ROWS at a time: each block is stacked from
    slices of the run's arrays and written with one bytes format of its row
    template.  A column whose bits do not change within the block (the x/y
    parts of a yaw maneuver, sigma between switches) is formatted once with
    "%.17g" into the template, and the block's other cells, all at once, by
    ``_format17``, whose bytes are "%.17g"'s.  Comparing bits, not values,
    keeps -0.0 and 0.0 apart, so the bytes are those of formatting every
    cell with "%.17g".
    """
    cols = (run.t, run.q, run.w, run.m_e, run.n_e, run.w_e, run.tau, run.sigma, run.lam, run.V)
    try:
        # bytes, so the file's "\n" is written as it is on every platform
        with open(path, "wb") as f:
            f.write(CSV_HEADER.encode() + b"\n")
            for a in range(0, len(run.t), EXPORT_ROWS):
                # column_stack promotes the int sigma column to float
                block = np.column_stack([c[a : a + EXPORT_ROWS] for c in cols])
                bits = block.view(np.uint64)
                fixed = (bits == bits[0]).all(axis=0)
                # "%.17g" text holds no "%", so a literal needs no escaping
                line = b",".join(
                    b"%.17g" % v if k else b"%b" for v, k in zip(block[0].tolist(), fixed)
                ) + b"\n"
                f.write((line * len(block)) % tuple(_format17(block[:, ~fixed].ravel())))
    except OSError as exc:
        raise OSError(f"cannot write telemetry to {path}: {exc}") from exc


def values_at_t0(run: RunResult) -> tuple:
    """``(sigma, Lambda, V, in_roa)`` of the run's row at its stage-3 start
    t0, ROA membership by ``stability.roa_contains`` on that row."""
    i0 = int(np.searchsorted(run.t, run.t0 - 1e-12))
    sigma = int(run.sigma[i0])
    err = ErrorState((run.m_e[i0], *run.n_e[i0]), run.w_e[i0])
    return sigma, run.lam[i0], run.V[i0], stability.roa_contains(err, sigma, run.scenario.gains)


def format_run_report(run: RunResult) -> str:
    sc = run.scenario
    sigma, lam, V, in_roa = values_at_t0(run)
    lines = [
        "# run report",
        f"scenario = {sc.name}",
        f"controller = {sc.controller}",
        f"mode = {sc.maneuver.mode}",
        f"t0 = {report_number(run.t0)}",
        f"tf = {report_number(run.tf)}",
        f"gamma_tau = {run.gamma_tau:.9g}",
        f"switch_count = {len(run.switch_times)}",
        f"switch_times = {','.join(map(report_number, run.switch_times))}",
        f"sigma_t0 = {sigma:+d}",
        f"lambda_t0 = {report_number(lam)}",
        f"V_t0 = {report_number(V)}",
        f"in_roa_at_t0 = {str(in_roa).lower()}",
        f"final_yaw_error_rad = {run.final_yaw_error:.9g}",
        f"final_yaw_error_deg = {math.degrees(run.final_yaw_error):.9g}",
    ]
    return "\n".join(lines) + "\n"


def format_comparison_report(report: ComparisonReport) -> str:
    lines = [
        "# controller effort comparison",
        f"repeats = {report.repeats}",
        f"perturbation_psi0_deg = {_exact_text(report.perturbation.psi0_deg)}",
        f"perturbation_wz = {_exact_text(report.perturbation.wz)}",
        f"mean_mismatch_reduction_percent = {report.mean_mismatch_reduction:.3f}",
        "",
        "[results]",
        "scenario,controller,mean_gamma,esd_gamma,percent_reduction,switches",
    ]
    for r in report.rows:
        name = f"ic_{r.wz:g}_{r.psi0_deg:g}"
        lines.append(
            f"{name},benchmark,{r.mean_benchmark:.9g},{r.esd_benchmark:.9g},,0"
        )
        lines.append(
            f"{name},switching,{r.mean_switching:.9g},{r.esd_switching:.9g},"
            f"{r.percent_reduction:.3f},{r.switches}"
        )
    return "\n".join(lines) + "\n"


def _exact_text(value, read=float, shown=None) -> str:
    """Text that ``read`` turns back into the float ``value``: "%.12g" of
    the value in the file's unit (``shown(value)``, default the value itself)
    when that reads back, else the repr of it or of a float one ulp either
    side of it, whichever reads back first.  A value that none of them gives
    raises ValueError."""
    value = float(value)
    shown = value if shown is None else shown(value)
    for text in (
        "%.12g" % shown,
        *map(repr, (shown, math.nextafter(shown, -math.inf), math.nextafter(shown, math.inf))),
    ):
        if read(text) == value:
            return text
    raise ValueError(f"no text reads back to {value!r}")


def _float_key(get, read=float, shown=None):
    """Table entry of a float key: its reader and its exact echo."""
    return read, lambda sc: _exact_text(get(sc), read, shown)


def _read_j_diag(text: str) -> tuple:
    jd = tuple(float(x) for x in str(text).split(","))
    if len(jd) != 3:
        raise ValueError("j_diag must have three entries")
    return jd


def _echo_name(sc: Scenario) -> str:
    name = sc.name
    if name != name.strip() or "#" in name or len(name.splitlines()) > 1:
        raise ValueError(
            f"scenario name {name!r} cannot be held by scenario.txt: it contains '#' or a "
            "line break, or starts or ends with whitespace"
        )
    return name


def _echo_wz(sc: Scenario) -> str:
    w0 = sc.maneuver.w0.tolist()
    wx, wy, wz = w0
    # -wx - wy is -0.0 only when both are +0.0
    if wx or wy or math.copysign(1.0, -wx - wy) > 0.0:
        raise ValueError(f"scenario.txt holds only wz; w0 = {w0} has an x or y other than +0.0")
    return _exact_text(wz)


def _echo_j_diag(sc: Scenario) -> str:
    j = np.diag(sc.inertia)
    if not np.array_equal(sc.inertia, np.diag(j)):
        raise ValueError("scenario.txt holds only j_diag; the inertia has off-diagonal terms")
    return ",".join(map(_exact_text, j.tolist()))


# Every scenario.txt key, in file order: the reader of its value text (a
# flag's parsed value passes through it unchanged) and its echo of a Scenario.
SCENARIO_KEYS = {
    "name": (str, _echo_name),
    "mode": (str, lambda sc: sc.maneuver.mode),
    "controller": (str, lambda sc: sc.controller),
    "wz": (float, _echo_wz),
    "psi0_deg": _float_key(
        lambda sc: sc.maneuver.psi0, lambda text: math.radians(float(text)), math.degrees
    ),
    "stage1_duration": _float_key(lambda sc: sc.maneuver.stage1_duration),
    **{key: _float_key(lambda sc, key=key: getattr(sc.gains, key)) for key in GAIN_KEYS},
    "dt": _float_key(lambda sc: sc.dt),
    "horizon": _float_key(lambda sc: sc.horizon_after_t0),
    "seed": (int, lambda sc: str(sc.seed)),
    "j_diag": (_read_j_diag, _echo_j_diag),
}


def scenario_to_text(scenario: Scenario) -> str:
    """Flat ``key = value`` echo of a scenario that reads back to it exactly.

    Each float is written "%.12g" when that text reads back to the same
    float, else with the shortest text that does.  A name that the file
    cannot hold ('#', a line break, edge whitespace), a w0 with an x or y
    other than +0.0 (the file holds only ``wz``) and a non-diagonal inertia
    (the file holds only ``j_diag``) raise ValueError.
    """
    return "".join(f"{key} = {echo(scenario)}\n" for key, (_, echo) in SCENARIO_KEYS.items())


def scenario_from_text(text: str, overrides=None, source: str = "scenario") -> Scenario:
    """Scenario from scenario.txt ``text`` (``#`` starts a comment) with
    ``overrides`` (key -> file text or parsed value) replacing its values;
    ``source`` names the text in error messages.  A key may appear once.
    wz and psi0_deg are required; other keys default to a stage3 switching
    run, with the law's DEFAULT_GAINS; an unknown law is left to Scenario."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        if key not in SCENARIO_KEYS:
            raise ValueError(f"{source}:{lineno}: unknown scenario key {key!r}")
        if key in raw:
            raise ValueError(f"{source}:{lineno}: repeated scenario key {key!r}")
        raw[key] = value.strip()
    raw.update(overrides or {})
    v = {key: SCENARIO_KEYS[key][0](value) for key, value in raw.items()}
    if "wz" not in v or "psi0_deg" not in v:
        raise ValueError("an initial condition is required (wz and psi0_deg, or --ic)")
    # refused here in the unit it was given; ManeuverSpec refuses it in rad
    if not 0.0 < v["psi0_deg"] < 2.0 * math.pi:
        raise ValueError(f"psi0_deg must lie in (0, 360) deg, got {raw['psi0_deg']}")
    controller = v.get("controller", "switching")
    # None for an unknown law, which Scenario refuses
    base = DEFAULT_GAINS.get(controller)
    return Scenario(
        name=v.get("name", f"ic_{float(raw['wz']):g}_{float(raw['psi0_deg']):g}"),
        maneuver=ManeuverSpec(
            w0=np.array([0.0, 0.0, v["wz"]]),
            psi0=v["psi0_deg"],
            stage1_duration=v.get("stage1_duration", 1.0),
            mode=v.get("mode", MODE_STAGE3),
        ),
        controller=controller,
        gains=None if base is None else gains_with(base, v),
        inertia=np.diag(v["j_diag"]) if "j_diag" in v else DEFAULT_INERTIA.copy(),
        dt=v.get("dt", DEFAULT_DT),
        horizon_after_t0=v.get("horizon", DEFAULT_HORIZON),
        seed=v.get("seed", 0),
    )
