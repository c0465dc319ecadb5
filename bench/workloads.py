"""The three benchmark workloads: compare, simulate_full and certify.

Each workload turns the benchmark seed into passes of ops.  A pass is the
workload's fixed unit of work; pass k's inputs depend only on (seed, k), so
every run with a given seed sees the same inputs in the same order however
many passes it completes.  The program is imported from ``src`` next to this
directory and never from anywhere else.
"""

import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from measure import Op, require, rel_close

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from attswitch import cli, controllers, harness, stability  # noqa: E402
from attswitch.controllers import ErrorState, GainSet  # noqa: E402

if not Path(harness.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"attswitch was imported from {harness.__file__}, not from {SRC}")

DEFAULT_SEED = 0  # the seed the reference results were recorded with
HELDOUT_SEED = 7919  # kept back for confirming a claimed gain
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
COMPARE_REL_TOL = 1e-12  # allowance for reordered floating-point sums


def load_reference(name: str):
    return json.loads(REFERENCE_FILE.read_text())[name]


class Compare:
    """The paper's effort comparison over the five reference ICs (stage 3).

    One op is one ``effort_comparison`` call over all of REFERENCE_ICS with
    one repeat: five benchmark-law and five switching-law runs of 3001 steps,
    so a batched path sees all five runs of a law in one call.  One repeat
    keeps the op near 3 s, about ten ops in a run.  A pass is one op.  The
    seed only moves the IC perturbation, so every op costs the same.
    """

    name = "compare"
    unit = "runs"
    simulates = True

    def __init__(self, seed: int, workdir: Path, reference=None):
        self.seed = seed
        self.reference = reference

    def pass_ops(self, k: int):
        seed = int(np.random.default_rng([self.seed, k]).integers(0, 2**32))
        return [self._op(harness.REFERENCE_ICS, seed)]

    def warmup_op(self):
        # one IC is enough to load and warm every code path the op uses
        return self._op(harness.REFERENCE_ICS[:1], 0)

    def _op(self, ics, seed):
        def call():
            return harness.effort_comparison(
                repeats=1, ics=ics, seed=seed, dt=1e-3, horizon=3.0
            )

        return Op(call, self._check, units=2 * len(ics), steps=2 * 3000 * len(ics))

    @staticmethod
    def _check(report):
        """Check every IC's row; return its mean [benchmark, switching] gamma."""
        means = []
        for row in report.rows:
            gb, gs = row.gamma_benchmark, row.gamma_switching
            require(np.all(np.isfinite(gb) & (gb > 0.0)), f"benchmark gammas {gb}")
            require(np.all(np.isfinite(gs) & (gs > 0.0)), f"switching gammas {gs}")
            if row.direction_agreement:
                # The switching law starts at sigma = +1; where m_e < 0 (targets
                # past 180 deg) its first update at t0 selects sigma = -1, which
                # the harness records as a switch at t = 0.  Nothing may follow it.
                expected = 0 if row.psi0_deg < 180.0 else 1
                require(row.switches == expected, f"agreement IC switched {row.switches} times")
            else:
                require(np.all(gs < gb), f"switching {gs} does not beat benchmark {gb} (mismatch)")
            means.append([float(np.mean(gb)), float(np.mean(gs))])
        return means

    @staticmethod
    def same(expected, observed):
        """Reference comparison; the other workloads compare with ==."""
        return len(expected) == len(observed) and all(
            rel_close(e, o, COMPARE_REL_TOL)
            for e_row, o_row in zip(expected, observed)
            for e, o in zip(e_row, o_row)
        )


# simulate_full IC ranges: wz in [1, 4] rad/s and psi0 inside (60, 300) deg
WZ_MIN, WZ_MAX = 1.0, 4.0
PSI_MIN, PSI_MAX = math.radians(61.0), math.radians(299.0)
# psi0 / wz fixes a full-mode run's length: 1 + (1.5 psi0 / wz + 0.5) + 3 s
RATIO_LO, RATIO_HI = PSI_MIN / WZ_MAX, PSI_MAX / WZ_MIN
LAWS = ("benchmark", "switching", "continuous")


class SimulateFull:
    """``attswitch simulate --mode full`` through ``cli.main``, files and all.

    A pass is six runs in three antithetic pairs: the pair's psi0/wz ratios
    sum to RATIO_LO + RATIO_HI, so every pass integrates the same number of
    steps whatever the seed, while the seed still picks where each run lands
    in the (wz, psi0) rectangle.  Pair j's lower ratio is drawn from the j-th
    third of the lower half, and the laws rotate across pairs from pass to pass.
    """

    name = "simulate_full"
    unit = "runs"
    simulates = True

    def __init__(self, seed: int, workdir: Path, reference=None):
        self.seed = seed
        self.reference = reference
        self.out = workdir / "simulate"

    def pass_ics(self, k: int):
        """Pass k's runs as (wz rad/s, psi0 deg, law)."""
        rng = np.random.default_rng([self.seed, k])
        mid = 0.5 * (RATIO_LO + RATIO_HI)
        ics = []
        for j in range(3):
            low = RATIO_LO + (j + rng.random()) / 3.0 * (mid - RATIO_LO)
            law = LAWS[(j + k) % 3]
            for ratio in (low, RATIO_LO + RATIO_HI - low):
                wz_lo = max(WZ_MIN, PSI_MIN / ratio)
                wz_hi = min(WZ_MAX, PSI_MAX / ratio)
                wz = wz_lo + rng.random() * (wz_hi - wz_lo)
                ics.append((wz, math.degrees(ratio * wz), law))
        return ics

    def pass_ops(self, k: int):
        return [self._op(*ic) for ic in self.pass_ics(k)]

    def warmup_op(self):
        return self._op(2.0, 150.0, "switching")

    def _op(self, wz: float, psi0_deg: float, law: str):
        argv = [
            "simulate", "--mode", "full", "--ic", f"{wz!r},{psi0_deg!r}",
            "--controller", law, "--dt", "0.001", "--horizon", "3", "--stage1", "1",
            "--out", str(self.out),
        ]
        # the run length run_scenario gives a full-mode maneuver
        duration = 1.0 + (1.5 * math.radians(psi0_deg) / math.sqrt(wz * wz) + 0.5) + 3.0
        steps = int(round(duration / 1e-3))

        def call():
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli.main(argv)
            return code, printed.getvalue()

        def check(result):
            code, printed = result
            require(code == 0, f"exit code {code}")
            report = (self.out / "report.txt").read_text()
            require(printed == report, "printed report differs from report.txt")
            fields = dict(line.split(" = ", 1) for line in report.splitlines()[1:])
            t0 = float(fields["t0"])
            require(math.isfinite(t0) and t0 >= 1.0, f"t0 = {fields['t0']}")
            data = (self.out / "telemetry.csv").read_bytes()
            rows = data.count(b"\n") - 1  # minus the header
            require(rows == steps + 1, f"{rows} telemetry rows for {steps} steps")
            require(b"nan" not in data and b"inf" not in data, "non-finite telemetry")
            return hashlib.sha256(data).hexdigest()

        return Op(call, check, units=1, steps=steps)


GAIN_SETS_PER_PASS = 4
# an op of about 50 ms keeps the tail percentile from timing scheduler hiccups
STATES_PER_GAIN_SET = 1000
JACOBIAN_EVERY = 10  # every tenth state also gets error_jacobian
FD_STEP = 1e-6


def certify_batch(gains: GainSet, states):
    """All certificate calls for one gain set and its states."""
    _, positive_definite, _ = stability.p_matrix_certificate(gains)
    spectrum = stability.saddle_eigenvalues(gains)
    rows = []
    for i, err in enumerate(states):
        per_sign = [
            (
                stability.lyapunov_value(err, sigma, gains),
                stability.lyapunov_rate(err, sigma, gains),
                stability.lyapunov_decay_bound(err, sigma, gains),
                stability.roa_contains(err, sigma, gains),
            )
            for sigma in (+1, -1)
        ]
        lam = controllers.switch_function(err, gains)
        jac = None
        if i % JACOBIAN_EVERY == 0:
            jac = stability.error_jacobian(err, +1 if lam >= 0.0 else -1, gains)
        rows.append((per_sign, lam, jac))
    return positive_definite, spectrum, rows


def check_certificates(gains: GainSet, q, w, result):
    """Check certify_batch's result for states with error quaternions q and rate errors w."""
    positive_definite, spectrum, rows = result
    require(positive_definite, f"P not positive definite for c < c_max: {gains}")
    eig = np.linalg.eigvals(stability.saddle_jacobian(gains))
    scale = max(abs(spectrum.lam_unstable), abs(spectrum.lam_stable))
    expected = [spectrum.lam_stable] * 3 + [spectrum.lam_zero] + [spectrum.lam_unstable] * 3
    require(
        np.max(np.abs(eig.imag)) <= 1e-9 * scale
        and np.max(np.abs(np.sort(eig.real) - expected)) <= 1e-9 * scale,
        f"saddle spectrum {spectrum} vs eigvals {eig}",
    )
    kq, kw, kn, c = gains.kq, gains.kw, gains.kn, gains.c
    n = q[:, 1:]
    # per state and sign (+1, -1): value, rate, bound, in_roa
    vals = np.array([[sign[:3] for sign in per_sign] for per_sign, _, _ in rows])
    in_roa = np.array([[sign[3] for sign in per_sign] for per_sign, _, _ in rows])
    lam = np.array([row[1] for row in rows])
    nn = np.linalg.norm(n, axis=1)
    for i, sigma in enumerate((+1, -1)):
        value, rate, bound = vals[:, i, 0], vals[:, i, 1], vals[:, i, 2]
        vv = np.linalg.norm(w + sigma * kn * n, axis=1)
        tol = 1e-12 * (kw / kq * vv * vv + c * kn * nn * nn + c * nn * vv)
        require(np.all(rate <= bound + tol), f"rate above the decay bound (sigma {sigma})")
        require(np.array_equal(in_roa[:, i], value < 4.0 * c), "roa_contains disagrees with V < 4c")
    v_plus, v_minus = vals[:, 0, 0], vals[:, 1, 0]
    require(
        np.all(np.abs(lam - (v_minus - v_plus)) <= 1e-12 * (1.0 + np.abs(v_minus) + np.abs(v_plus))),
        "Lambda differs from V(-1) - V(+1)",
    )
    for i, (_, lam_i, jac) in enumerate(rows):
        if jac is not None:
            sigma = +1 if lam_i >= 0.0 else -1
            x = np.concatenate([q[i, :1], n[i], w[i] + sigma * kn * n[i]])
            fd, fx = _central_differences(x, sigma, gains)
            # central differences of this quadratic field are exact up to
            # rounding, about eps |f| / h; 1e-8 |f| leaves a wide margin
            tol = 1e-8 * (1.0 + np.max(np.abs(fx)))
            require(np.max(np.abs(jac - fd)) <= tol, "Jacobian differs from central differences")


def _field(x, sigma, gains):
    md, nd, nud = stability.closed_loop_field(x[0], x[1:4], x[4:7], sigma, gains)
    return np.concatenate([[md], nd, nud])


def _central_differences(x, sigma, gains):
    cols = []
    for j in range(7):
        e = np.zeros(7)
        e[j] = FD_STEP
        cols.append((_field(x + e, sigma, gains) - _field(x - e, sigma, gains)) / (2 * FD_STEP))
    return np.column_stack(cols), _field(x, sigma, gains)


def random_gains(rng) -> GainSet:
    """Gains with 0.5 <= c < c_max, c_max = 4 kn kw / kq kept at 1 or more."""
    kw = rng.uniform(10.0, 200.0)
    kn = rng.uniform(1.0, 20.0)
    kq = math.exp(rng.uniform(0.0, math.log(min(1000.0, 4.0 * kn * kw))))
    c = 0.5 + rng.random() * (min(4.0 * kn * kw / kq, 10.0) - 0.5)
    return GainSet(kq=kq, kw=kw, kn=kn, c=c, delta=0.1)


class Certify:
    """The stability layer on seeded error states; no integrator runs.

    One op is one gain set: its P-matrix and saddle certificates, then value,
    rate, decay bound and ROA membership for both signs plus the switching
    function on each of its states, and the Jacobian on every tenth state.
    """

    name = "certify"
    unit = "states"
    simulates = False

    def __init__(self, seed: int, workdir: Path, reference=None):
        self.seed = seed
        self.reference = reference

    def pass_ops(self, k: int):
        rng = np.random.default_rng([self.seed, k])
        return [self._op(rng) for _ in range(GAIN_SETS_PER_PASS)]

    def warmup_op(self):
        return self._op(np.random.default_rng(0))

    @staticmethod
    def _op(rng):
        gains = random_gains(rng)
        q = rng.normal(size=(STATES_PER_GAIN_SET, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        w = rng.normal(size=(STATES_PER_GAIN_SET, 3)) * 3.0
        states = [ErrorState(q_err=q[i], w_err=w[i]) for i in range(STATES_PER_GAIN_SET)]
        return Op(
            lambda: certify_batch(gains, states),
            lambda result: check_certificates(gains, q, w, result),
            units=STATES_PER_GAIN_SET,
        )


WORKLOADS = {w.name: w for w in (Compare, SimulateFull, Certify)}
