"""Gate on the per-state certificates and the reports built from them.

The SHA-256 digests below were taken before the certificates were rewritten
to read each error state once into flat floats; any change that alters a
single bit of a certificate result, or a byte of the ``table1`` and
``stability-report`` output, fails here.  The loop over gain sets and states
is written out here so that the gate does not depend on the benchmark code.
"""

import contextlib
import hashlib
import io
import math

import numpy as np
import pytest

from attswitch import stability
from attswitch.cli import main
from attswitch.controllers import ErrorState, GainSet, nu_sigma, switch_function
from attswitch.harness import BENCHMARK_GAINS, SWITCHING_GAINS

STATES_PER_GAIN_SET = 500

# SHA-256 of the packed float64 results over six gain sets x 500 states
CERTIFICATE_DIGEST = "e407866ab77f0e8a20ca11f4462d5bd9f74e01f2104c3a8d6aca10a547dac8fd"

# CLI arguments -> SHA-256 of the stdout, or of the stdout and of files the
# command writes to its --out directory.  The sweep, ``compare --repeats 2``
# and ``table1 --kw 5000`` digests were taken before the IC table and the t0
# report fields were read from the switching law's own first row.
CLI_DIGESTS = {
    ("table1",): "4e1942e1c3a1476f017fd46c95dd4f59ca20d6e91a7f988138830a6bcbbdc229",
    ("table1", "--kq", "3", "--kw", "7", "--kn", "2", "--c", "1.3"): (
        "a6a8eccc2fe39fd4c8ce4e9ab80d99092c020c32f6ade83a1ef94e6c68c8b5e7"
    ),
    ("stability-report",): "04a9e8ab66b00b567f19a179a7141a7de850fed470d3d124fc27944eafd7d557",
    ("stability-report", "--kq", "3", "--kw", "7", "--kn", "2", "--c", "1.3"): (
        "aaee167c8bb0e7b24a780b36290e7e0cc02418c63af0fc84d2e5317a1a54e5a4"
    ),
    ("table1", "--kw", "5000"): "4e1942e1c3a1476f017fd46c95dd4f59ca20d6e91a7f988138830a6bcbbdc229",
    ("sweep",): {
        "stdout": "5f09d5505cc1d5341775f4ac45a7f4ada80a6010349359cf89ab6ecbf347dfc3",
        "params.txt": "ba9fda80de3677fdeaa9d64bfdf9220f3755fde63dd5f3d56a92a90f5eeedc3d",
    },
    ("compare", "--repeats", "2"): (
        "2d06daf10d27f8ebae67d93072680f78432d287ba90ae533c1bc9ef2b01a9287"
    ),
    # the default 10 repeats, taken before the RK4 step's yaw-plane branch
    ("compare",): "9d34d1c2891eab93900c7cd094baddd4acb0ac0ed9be44d39212ddce5cc76b3b",
}


def _gain_sets():
    """The paper's two gain sets plus four seeded ones, each with c below c_max."""
    rng = np.random.default_rng(20240917)
    out = [SWITCHING_GAINS, BENCHMARK_GAINS]
    for _ in range(4):
        kq = math.exp(rng.uniform(math.log(0.5), math.log(1000.0)))
        kw = rng.uniform(1.0, 200.0)
        kn = rng.uniform(0.5, 20.0)
        c = rng.uniform(0.05, 0.95) * 4.0 * kn * kw / kq
        out.append(GainSet(kq=kq, kw=kw, kn=kn, c=c, delta=rng.uniform(0.01, 1.0)))
    return out


def _states(rng):
    """Error states: unit quaternions, then scaled (non-unit) ones, then exact m_e = 0 ties."""
    q = rng.normal(size=(STATES_PER_GAIN_SET, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    half = STATES_PER_GAIN_SET // 2
    q[half:] *= rng.uniform(0.5, 1.5, size=(STATES_PER_GAIN_SET - half, 1))
    q[-10:, 0] = 0.0
    w = rng.normal(size=(STATES_PER_GAIN_SET, 3)) * 3.0
    return [ErrorState(q_err=q[i], w_err=w[i]) for i in range(STATES_PER_GAIN_SET)]


def _certificate_floats():
    out = []
    for k, gains in enumerate(_gain_sets()):
        for err in _states(np.random.default_rng([20240917, k])):
            for sigma in (+1, -1):
                out.append(stability.lyapunov_value(err, sigma, gains))
                out.append(stability.lyapunov_rate(err, sigma, gains))
                out.append(stability.lyapunov_decay_bound(err, sigma, gains))
                out.append(float(stability.roa_contains(err, sigma, gains)))
                out.extend(nu_sigma(err, sigma, gains).tolist())
                out.extend(stability.error_jacobian(err, sigma, gains).ravel().tolist())
            out.append(switch_function(err, gains))
    return out


def test_certificates_bit_identical():
    floats = _certificate_floats()
    assert len(floats) == 6 * STATES_PER_GAIN_SET * (2 * (4 + 3 + 49) + 1)
    # tobytes also tells -0.0 from 0.0
    digest = hashlib.sha256(np.array(floats, dtype=float).tobytes()).hexdigest()
    assert digest == CERTIFICATE_DIGEST


def test_certificate_types():
    err = ErrorState(q_err=np.array([0.5, 0.5, -0.5, 0.5]), w_err=np.array([1.0, -2.0, 3.0]))
    g = SWITCHING_GAINS
    for fn in (stability.lyapunov_value, stability.lyapunov_rate, stability.lyapunov_decay_bound):
        assert type(fn(err, +1, g)) is float
    assert type(stability.roa_contains(err, +1, g)) is bool
    assert type(switch_function(err, g)) is float
    jac = stability.error_jacobian(err, -1, g)
    assert jac.shape == (7, 7) and jac.dtype == np.float64 and jac.flags.c_contiguous
    nu = nu_sigma(err, -1, g)
    assert nu.shape == (3,) and nu.dtype == np.float64


@pytest.mark.parametrize("gains", _gain_sets(), ids=lambda g: f"kq={g.kq:.6g}")
def test_gain_set_constants_are_their_expressions(gains):
    # the certificates read these in place of the expressions, so each keeps their bits
    want = (0.5 / gains.kq, 2.0 * gains.c, gains.c - 1.0)
    got = (gains.nu_weight, gains.m_weight, gains.cross_weight)
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("args", sorted(CLI_DIGESTS), ids=" ".join)
def test_report_output_byte_identical(args, tmp_path):
    want = CLI_DIGESTS[args]
    if isinstance(want, str):
        want = {"stdout": want}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main([*args, "--out", str(tmp_path)]) == 0
    files = {name: (tmp_path / name).read_bytes() for name in want if name != "stdout"}
    got = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    assert got | {"stdout": hashlib.sha256(buf.getvalue().encode()).hexdigest()} == want
