"""Lyapunov machinery for the switching closed loop.

Everything here works on the closed-loop error coordinates (m_e, n_e, nu)
where nu = w_err + sigma*kn*n_e.  The candidate function for switch sign
sigma is

    V_sigma = 0.5/kq * |nu|^2 + 2c (1 - sigma*m_e)

which vanishes only at the sigma-matched equilibrium (sigma*m_e = 1, nu = 0)
and whose closed-loop rate admits the quadratic-form bound -x' P x in
x = (|n_e|, |nu|).  The antipodal equilibrium is a saddle whose spectrum has
a closed form; both facts are exposed here together with the region and
rate certificates built from them.

``lyapunov_value``, ``lyapunov_rate``, ``lyapunov_decay_bound`` and
``error_jacobian`` unpack the seven entries of their ``ErrorState`` and form
nu in their own body, so that each call is one Python frame; nu's reference
form is ``err.w_err + sigma * gains.kn * err.n_e``, ``reference_nu`` in
tests/conftest.py.
Every certificate reads the constants derived from the gains from the
``GainSet``, formed there once.  The entries are floats, or on
``ErrorState.of_columns`` a run's telemetry columns, one result per sample;
``lyapunov_series`` is ``lyapunov_value`` on those columns.
"""

import math
from dataclasses import dataclass

import numpy as np

from .controllers import ErrorState, GainSet


def lyapunov_value(err: ErrorState, sigma: int, gains: GainSet) -> float:
    """V_sigma at the given error state (nu recomputed for sigma)."""
    m, nx, ny, nz, ex, ey, ez = err._f
    g = sigma * gains.kn
    ux, uy, uz = ex + g * nx, ey + g * ny, ez + g * nz
    return gains.nu_weight * (ux * ux + uy * uy + uz * uz) + gains.m_weight * (1.0 - sigma * m)


def lyapunov_series(
    m_e: np.ndarray, n_e: np.ndarray, w_err: np.ndarray, sigma: np.ndarray, gains: GainSet
) -> np.ndarray:
    """V_sigma along a run: ``lyapunov_value`` on its telemetry columns."""
    return lyapunov_value(ErrorState.of_columns(m_e, n_e, w_err), sigma, gains)


def lyapunov_decay_bound(err: ErrorState, sigma: int, gains: GainSet) -> float:
    """Quadratic-form upper bound -x'Px on the closed-loop rate of V_sigma.

    Valid as an upper bound of the exact rate whenever c >= 1/2 (so that
    |c-1| <= c); see p_matrix_certificate for the positive-definiteness
    condition that makes it strictly negative away from the equilibria.
    """
    _, nx, ny, nz, ex, ey, ez = err._f
    g = sigma * gains.kn
    ux, uy, uz = ex + g * nx, ey + g * ny, ez + g * nz
    xn = math.sqrt(nx * nx + ny * ny + nz * nz)
    xv = math.sqrt(ux * ux + uy * uy + uz * uz)
    return gains.c * xn * xv - gains.kw_kq * xv * xv - gains.c_kn * xn * xn


def lyapunov_rate(err: ErrorState, sigma: int, gains: GainSet) -> float:
    """Exact closed-loop rate of V_sigma along the switching dynamics."""
    _, nx, ny, nz, ex, ey, ez = err._f
    g = sigma * gains.kn
    ux, uy, uz = ex + g * nx, ey + g * ny, ez + g * nz
    return (
        gains.cross_weight * sigma * (ux * nx + uy * ny + uz * nz)
        - gains.kw_kq * (ux * ux + uy * uy + uz * uz)
        - gains.c_kn * (nx * nx + ny * ny + nz * nz)
    )


def roa_contains(err: ErrorState, sigma: int, gains: GainSet) -> bool:
    """Membership in the certified region of attraction {V_sigma < 4c}."""
    return lyapunov_value(err, sigma, gains) < gains.roa_radius


def p_matrix_certificate(gains: GainSet):
    """Build the 2x2 decrease-certificate matrix and test its definiteness.

    Returns (P, positive_definite, c_max) where c_max = 4 kn kw / kq is the
    supremum of admissible c.  Definiteness is checked via leading principal
    minors.  Note the separate constraint c >= 1/2 required for -x'Px to
    upper-bound the exact rate; it is reported, not enforced.
    """
    P = np.array([[gains.c_kn, -0.5 * gains.c], [-0.5 * gains.c, gains.kw_kq]])
    return P, bool(gains.c_kn > 0.0 and gains.p_minor_2 > 0.0), gains.c_max()


def closed_loop_field(m: float, n: np.ndarray, nu: np.ndarray, sigma: int, gains: GainSet):
    """Closed-loop error vector field in (m, n, nu) coordinates.

    Treats all seven coordinates as free variables (no unit-norm
    projection), which is the convention the Jacobians below differentiate.
    """
    kn = sigma * gains.kn
    mdot = -0.5 * float(nu @ n) + 0.5 * kn * float(n @ n)
    ndot = 0.5 * (m * nu - kn * m * n + np.cross(nu, n))
    nudot = -(sigma * gains.kq) * n - gains.kw * nu
    return mdot, ndot, nudot


def error_jacobian(err: ErrorState, sigma: int, gains: GainSet) -> np.ndarray:
    """7x7 Jacobian of the closed-loop error field at the given state."""
    m, nx, ny, nz, ex, ey, ez = err._f
    kn = sigma * gains.kn
    ux, uy, uz = ex + kn * nx, ey + kn * ny, ez + kn * nz
    d, h = -0.5 * (kn * m), 0.5 * m  # diagonals of the two n_e-row blocks
    p, k = -(sigma * gains.kq), -gains.kw
    # row-major; fromiter fills from a flat list faster than np.array from nested rows
    return np.fromiter(
        [
            0.0, -0.5 * ux + kn * nx, -0.5 * uy + kn * ny, -0.5 * uz + kn * nz,
            -0.5 * nx, -0.5 * ny, -0.5 * nz,
            0.5 * (ux - kn * nx), d, -0.5 * uz, 0.5 * uy, h, 0.5 * nz, -0.5 * ny,
            0.5 * (uy - kn * ny), 0.5 * uz, d, -0.5 * ux, -0.5 * nz, h, 0.5 * nx,
            0.5 * (uz - kn * nz), -0.5 * uy, 0.5 * ux, d, 0.5 * ny, -0.5 * nx, h,
            0.0, p, 0.0, 0.0, k, 0.0, 0.0,
            0.0, 0.0, p, 0.0, 0.0, k, 0.0,
            0.0, 0.0, 0.0, p, 0.0, 0.0, k,
        ],
        float,
        49,
    ).reshape(7, 7)


def saddle_jacobian(gains: GainSet) -> np.ndarray:
    """Closed-loop Jacobian at the antipodal (unstable) equilibrium, sigma = +1.

    The first row and column vanish; the zero eigenvalue they carry is the
    unit-norm constraint direction, not a dynamical mode.
    """
    I3 = np.eye(3)
    A = np.zeros((7, 7))
    A[1:4, 1:4] = 0.5 * gains.kn * I3
    A[1:4, 4:7] = -0.5 * I3
    A[4:7, 1:4] = -gains.kq * I3
    A[4:7, 4:7] = -gains.kw * I3
    return A


@dataclass(frozen=True)
class SaddleSpectrum:
    """Eigenvalues at the antipodal equilibrium.

    lam_unstable > 0 and lam_stable < 0, each with algebraic multiplicity 3
    in the 6x6 dynamical block, plus the structural zero of the norm
    constraint.
    """

    lam_unstable: float
    lam_stable: float
    lam_zero: float = 0.0


def saddle_eigenvalues(gains: GainSet) -> SaddleSpectrum:
    """Closed-form saddle spectrum.

    The 6x6 block is a 2x2 matrix Kroneckered with the identity, so its
    eigenvalues are the roots of one quadratic:

        lam = ((kn/2 - kw) +- sqrt((kn/2 - kw)^2 + 2(kq + kn kw))) / 2

    The discriminant exceeds (kn/2 - kw)^2 for positive gains, which makes
    one root positive and one negative: an unstable saddle.
    """
    b = 0.5 * gains.kn - gains.kw
    disc = b * b + 2.0 * (gains.kq + gains.kn * gains.kw)
    r = math.sqrt(disc)
    lam1 = 0.5 * (b + r)
    lam2 = 0.5 * (b - r)
    if not math.inf > lam1 > 0.0 > lam2 > -math.inf:
        raise ValueError(f"saddle split violated or not finite: {lam1}, {lam2}")
    return SaddleSpectrum(lam_unstable=lam1, lam_stable=lam2)


def exponential_rate_check(times: np.ndarray, values: np.ndarray, kw: float, tol: float = 1e-6):
    """Verify V(t) <= V(s) * exp(-2*kw*(t-s)) * (1+tol) for all sample pairs s <= t.

    Returns (ok, violation) where violation is (index_s, index_t) for the
    first failing pair, with index_s the binding earlier sample.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    w = values * np.exp(2.0 * kw * (times - times[0]))
    running = np.minimum.accumulate(w)
    bad = w > running * (1.0 + tol)
    if not bad.any():
        return True, None
    i = int(np.argmax(bad))
    j = int(np.argmin(w[: i + 1]))
    return False, (j, i)


def inter_switch_decrease_check(run, tol: float = 1e-6):
    """Check the same-sign Lyapunov decrease across switching events.

    For every pair of segments where the run returns to a previously active
    switch sign after an excursion to the other sign, the active-sign V at
    re-entry must be at least delta below its value when the sign was last
    left.  Runs with fewer than three segments pass vacuously.  Returns
    (ok, offending) with offending = (t_leave, t_return, decrease) on
    failure.
    """
    sigma = np.asarray(run.sigma)
    V = np.asarray(run.V, dtype=float)
    t = np.asarray(run.t, dtype=float)
    delta = run.scenario.gains.delta
    changes = np.flatnonzero(sigma[1:] != sigma[:-1]) + 1
    bounds = [0, *changes.tolist(), len(sigma)]
    for k in range(len(bounds) - 3):
        leave = bounds[k + 1] - 1   # last sample of segment k
        reenter = bounds[k + 2]     # first sample of segment k+2
        decrease = V[reenter] - V[leave]
        if decrease > -delta + tol:
            return False, (float(t[leave]), float(t[reenter]), float(decrease))
    return True, None


def report_number(x: float) -> str:
    """``%.6f`` below 1e15 in magnitude and ``%.6e`` from there, so that a
    report number is at most 23 characters wide."""
    return "%.6f" % x if abs(x) < 1e15 else "%.6e" % x


def format_stability_report(gains: GainSet, ic_rows=None) -> str:
    """Stability report as key-value lines plus a CSV block of IC verdicts."""
    P, pd, c_max = p_matrix_certificate(gains)
    spec = saddle_eigenvalues(gains)
    lines = [
        "# stability report",
        f"kq = {gains.kq:g}",
        f"kw = {gains.kw:g}",
        f"kn = {gains.kn:g}",
        f"c = {gains.c:g}",
        f"delta = {gains.delta:g}",
        f"c_max = {c_max:.12g}",
        "c_min_for_norm_bound = 0.5",
        f"p_matrix_positive_definite = {str(pd).lower()}",
        f"p_minor_1 = {P[0, 0]:.12g}",
        f"p_minor_2 = {gains.p_minor_2:.12g}",
        f"roa_radius = {gains.roa_radius:.12g}",
        f"lambda_unstable = {spec.lam_unstable:.12g}",
        f"lambda_stable = {spec.lam_stable:.12g}",
        f"lambda_zero = {spec.lam_zero:g}",
    ]
    if ic_rows:
        lines.append("")
        lines.append("[initial_conditions]")
        lines.append("wz,psi0_deg,sigma,V,in_roa")
        for row in ic_rows:
            lines.append(
                f"{row['wz']:g},{row['psi0_deg']:g},{row['sigma']:+d},"
                f"{report_number(row['V'])},{str(row['in_roa']).lower()}"
            )
    return "\n".join(lines) + "\n"

