"""Gates on the closed-loop step.

The SHA-256 digests below were taken from the CLI output files before the
closed-loop step was rewritten on plain floats; any change that alters a
single byte of ``telemetry.csv`` or ``report.txt`` fails here.  The
equivalence tests compare the production loop with the reference loop in
conftest: bit for bit on the default (diagonal) inertia, signed zeros
included, and to a relative 1e-12 on non-diagonal inertias, where the
production path sums J @ v in Python while the reference sums it in numpy.
Non-diagonal runs, and diagonal ones that the yaw-plane driver refuses, are
pinned to the bit by their own digests, and the bound
derivative and law are compared with the general forms in conftest,
which form every product of the inertia.
"""

import contextlib
import hashlib
import io
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import general_derivative, general_torque, reference_closed_loop
from hypothesis import example, given, settings, strategies as st

from attswitch.cli import main
from attswitch.controllers import (
    ErrorState,
    GainSet,
    _bind_law,
    _shorter_path_sign,
    switch_function,
)
from attswitch import harness
from attswitch.harness import (
    DEFAULT_GAINS,
    REFERENCE_ICS,
    Scenario,
    make_controller,
    make_ic_scenario,
    run_on_plane,
    run_scenario,
    scenario_from_text,
)
from attswitch.quat import NORM_DRIFT_TOL, hamilton_product
from attswitch.reference import ManeuverSpec, stage3_initial_state
from attswitch.rigid_body import CHUNK, DEFAULT_INERTIA, SimulationError, _bind_derivative, simulate

LAWS = ("benchmark", "switching", "continuous")

# (mode, "wz,psi0_deg", law) -> (telemetry.csv, report.txt) SHA-256
DIGESTS = {
    ("stage3", "2,150", "benchmark"): (
        "b79f16edec84ab0672db40149e376a972dc85acd20c0e266021ea86cd87881ae",
        "b88f83b6ea2d51b06c790b59599ef3af478e28516cfa7799a70338511a22ddd6",
    ),
    ("stage3", "2,150", "switching"): (
        "a3f3100bd666c67b70382bb34317b349c573f83aec6bc6bc2d450e8167e42240",
        "33aa4e369e5eec29406fce77219e6237d200bc2918d0df8ea451c8c173a686f0",
    ),
    ("stage3", "2,150", "continuous"): (
        "9645cc245c06350b4b36627ba8542efcc0ac1565b0bcf409196378fc722b45dd",
        "1ac5a1e4a550902e6ee4f4c249ef000eda60d4a15487044ce176d016a5ba4801",
    ),
    ("stage3", "3,120", "benchmark"): (
        "9e6ddebea350de7d211ae0e37cbdead51ef721d3f7a4de3941eec7b629d61045",
        "d9729edadb356b01a1ef5bc0eed990d6d2726cd72c85de67dd9e9fe0a3179bdf",
    ),
    ("stage3", "3,120", "switching"): (
        "8ebe69e0820fc523ed0244482696476648c70d92454a02206833d5b3898fcfb4",
        "bd2db367905a0b730f533a129b14b76da9202f28fe0a246fdf970183d225ea5c",
    ),
    ("stage3", "3,120", "continuous"): (
        "1a323fe8693b376068b0c965593f591201ec2c039c6ad9304cb684a27b079b1e",
        "b42915ddca8292c706f35cd9761d925ae2141c1000e51827e0c6359cea032442",
    ),
    ("stage3", "4,100", "benchmark"): (
        "bb91cdcf0faa8c6dc1a93aec23660d0798e2104a0ffcc5c80297a3d0f5e4c166",
        "926cecd480b4c009a6854d7381b0ed10564f9e4a1ceab0311a47f6cc2e506d7b",
    ),
    ("stage3", "4,100", "switching"): (
        "900a8da18c160b6c84513f32b18c0ec30a28b8f5375984617c9e7f8a238d0965",
        "5ffec47198436d7daf02eb46fdfc8e5e84a9fa316d18420be5555874cb3a57ed",
    ),
    ("stage3", "4,100", "continuous"): (
        "b7c9b803ffb12ef6f074dfdcc347712ee7ac3738db1126faf2d19419f243af61",
        "4f73403e8379c92a6f0e58d5412b03ede83969f853c547b8b96d2c9f6583f7c6",
    ),
    ("stage3", "2,100", "benchmark"): (
        "396aa766fec2d9230b0597bf3ec2b610d9af600df60b93c72f0f53b2844c487b",
        "fd90d53aa7595733674356f6143e8ff63e497cdd009748d69a9a559b158ccec5",
    ),
    ("stage3", "2,100", "switching"): (
        "239f6a7b55fe72088c31384fb75207de70a4a04330dcf1c00cac3c6a7f10fdb5",
        "62f58306a9436deb35844ae54f1ea73826da06bd031d5a2cbaad3308a016db7f",
    ),
    ("stage3", "2,100", "continuous"): (
        "27a950d5b9ad32961fe88bb493ff270a3dfac95c3954ff77a8bbe1c98684c535",
        "b6621c815f4c6f75de05de0b982757888dba484a25b5873bbcdda71dae27161e",
    ),
    ("stage3", "2,210", "benchmark"): (
        "878738faa19776f953d8f40c1bceebed52aa9176a9468d4e42e160f7e2936845",
        "ff4334f9212f00c0d57a25a4c9559007791bb4df77d4eb22584af7d919eb47c6",
    ),
    ("stage3", "2,210", "switching"): (
        "927a2fc9103d210138c32f0b06a36068f49aeb82122bb726fe8bf355a5d27352",
        "75fa18ecbb03e13cc2b2a3f6ce99a872279ce82395daf5d39c7905a74b5bfaad",
    ),
    ("stage3", "2,210", "continuous"): (
        "65784ab02adee30f58ffa858132234f09b54963fb9b8aabd3d82a6312cd5e9e2",
        "9624621f82795ff16652f77d96f8e57323dc1a69e356d866730dd60b55d12598",
    ),
    ("full", "2,150", "benchmark"): (
        "2ec4a93ebc862f5b5e73295d9c1caacefbdb42089a5f5915725c2919b0aa0862",
        "21082937738d3da4aa6fd228869b7b3735e37a107827eb73e0a116f81187c494",
    ),
    ("full", "2,150", "switching"): (
        "2ddc86ee4a633fb3a2e6958a8d8198775fb79585ac25ea4115f5559f9e449d68",
        "662c4278a720df27dc78f2f1961cafef6fc9902b7cfea9ebcd67741e101807b1",
    ),
    ("full", "2,150", "continuous"): (
        "e218d2158a4c1b10090ff79277cecb6a91093c0fe3332b761d88be644d06ced8",
        "a025802dcbdb990b7b24cfd39d604cfde91de0868b77b2fea7805b9ac952fdbf",
    ),
    # stage-2 reference with a negative scalar part
    ("full", "2,210", "benchmark"): (
        "54a042f706613eb2ae48d0c6c408ea899876a321871037abf872b7de0f96c5e5",
        "48d44c668ab9535b138cdd17e03fe232e6733b6376daab5d867b5bcaf77ae811",
    ),
    ("full", "2,210", "switching"): (
        "6a1d196d5b5ae682ca40f06145653c240a31a25b63e3d08f867e9b58e7f5fa36",
        "2494e8f9376d4c89c4195bce29a351833146c4a9157ffb7d96bfc92c5868d704",
    ),
    ("full", "2,210", "continuous"): (
        "27b5cf3dd69d257b8dddd5ee12ce35f6fb4b7808b403e4df1e7665cc2523cd0c",
        "49e208e541ce8ac0303f792e42af68bb420e26218222046069089d711dec566c",
    ),
}


def _run_cli(tmp_path, mode, ic, law):
    out = tmp_path / f"{mode}_{ic}_{law}"
    with contextlib.redirect_stdout(io.StringIO()):
        args = ["simulate", "--mode", mode, "--ic", ic, "--controller", law, "--out", str(out)]
        assert main(args) == 0
    return tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("telemetry.csv", "report.txt")
    )


@pytest.mark.parametrize("key", sorted(DIGESTS), ids="-".join)
def test_outputs_byte_identical(tmp_path, key):
    assert _run_cli(tmp_path, *key) == DIGESTS[key]


FIELDS = ("q", "w", "tau", "m_e", "n_e", "w_e", "sigma", "lam")


def _production(law, wz, psi0_deg, inertia, steps):
    sc = make_ic_scenario(wz, psi0_deg, law, inertia=inertia, horizon=steps * 1e-3)
    return run_scenario(sc), stage3_initial_state(sc.maneuver), sc


def _assert_bit_identical_to_reference(law, wz, psi0_deg, steps):
    run, s0, sc = _production(law, wz, psi0_deg, None, steps)
    ref = reference_closed_loop(law, s0[:4], s0[4:], sc.inertia, sc.gains, sc.dt, steps)
    for name in FIELDS:
        got = np.ascontiguousarray(getattr(run, name))
        assert got.shape == ref[name].shape, name
        # tobytes also tells -0.0 from 0.0, which telemetry.csv prints
        assert got.tobytes() == np.ascontiguousarray(ref[name]).tobytes(), name
    assert run.switch_times == ref["switch_times"]


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("wz,psi0_deg", REFERENCE_ICS)
def test_default_inertia_bit_identical_to_reference(law, wz, psi0_deg):
    _assert_bit_identical_to_reference(law, wz, psi0_deg, 500)


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("steps", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_chunk_boundaries_bit_identical_to_reference(law, steps):
    # steps + 1 rows: one full chunk, a full chunk plus one row, plus two
    # rows, and two full chunks plus two rows
    _assert_bit_identical_to_reference(law, 2.0, 150.0, steps)


def _random_spd(rng):
    a = rng.normal(size=(3, 3))
    m = a @ a.T + 0.5 * np.eye(3)
    return 1e-5 * 0.5 * (m + m.T)


@pytest.mark.parametrize("i", range(20))
def test_nondiagonal_inertia_matches_reference(i):
    rng = np.random.default_rng([20240917, i])
    J = _random_spd(rng)
    assert np.min(np.abs(J[np.triu_indices(3, 1)])) > 0.0
    wz, psi0_deg = REFERENCE_ICS[i % len(REFERENCE_ICS)]
    for law in LAWS:
        run, s0, sc = _production(law, wz, psi0_deg, J, 500)
        ref = reference_closed_loop(law, s0[:4], s0[4:], sc.inertia, sc.gains, sc.dt, 500)
        for name in FIELDS:
            got, want = getattr(run, name), ref[name]
            dev = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert dev <= 1e-12, (law, name, dev)
        assert run.switch_times == ref["switch_times"]


def _deviation_from_default_inertia(law, wz, psi0_deg, J, dt):
    a, b = (
        run_scenario(make_ic_scenario(wz, psi0_deg, law, inertia=j, dt=dt, horizon=1.0))
        for j in (None, J)
    )
    assert a.switch_times == b.switch_times
    assert np.array_equal(a.sigma, b.sigma)
    return max(np.max(np.abs(a.q - b.q)), np.max(np.abs(a.w_e - b.w_e)))


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("wz,psi0_deg", [(2.0, 150.0), (4.0, 100.0)])
def test_nondiagonal_inertia_run_converges_to_diagonal_run(law, wz, psi0_deg):
    # In continuous time the torque cancels J exactly, so the error
    # dynamics do not depend on it; the torque held over each step leaves a
    # first-order difference, which halves with dt.
    J = _random_spd(np.random.default_rng(20241018))
    devs = [_deviation_from_default_inertia(law, wz, psi0_deg, J, dt)
            for dt in (2e-3, 1e-3, 5e-4, 2.5e-4)]
    ratios = [coarse / fine for coarse, fine in zip(devs, devs[1:])]
    assert all(1.8 <= r <= 2.4 for r in ratios), (devs, ratios)


# --- Non-diagonal inertia, pinned to the bit --------------------------------
# Inertias 2^-16 L diag(d) L^T, L unit lower triangular with entries l/8 below
# the diagonal (|l| < 8, so LU with partial pivoting swaps no rows): every
# step of np.linalg.inv is exact on them, so the inverse the integrator binds
# has the same bits on every LAPACK build.  The first four were drawn at
# random (every off-diagonal entry nonzero); the last has a single
# off-diagonal pair.
LDL_INERTIAS = (
    ((-2, -3, 2), (4, 2, 1)),
    ((-6, 1, -3), (2, 1, 4)),
    ((2, 6, -2), (1, 1, 4)),
    ((5, -2, 6), (2, 1, 1)),
    ((2, 0, 0), (1, 1, 2)),
)


def _ldl_fractions(l, d):
    L = ((1, 0, 0), (Fraction(l[0], 8), 1, 0), (Fraction(l[1], 8), Fraction(l[2], 8), 1))
    return [
        [sum(L[i][k] * d[k] * L[j][k] for k in range(3)) / 2**16 for j in range(3)]
        for i in range(3)
    ]


def _exact_inverse(M):
    """Inverse of a 3x3 matrix of Fractions, by cofactors."""
    def cof(i, j):
        (a, b), (c, e) = ([M[r][s] for s in range(3) if s != j] for r in range(3) if r != i)
        return (-1) ** (i + j) * (a * e - b * c)

    det = sum(M[0][j] * cof(0, j) for j in range(3))
    return [[cof(j, i) / det for j in range(3)] for i in range(3)]


def _ldl_inertia(l, d):
    return np.array(_ldl_fractions(l, d), dtype=float)


@pytest.mark.parametrize("l,d", LDL_INERTIAS)
def test_ldl_inertia_inverse_is_exact(l, d):
    M = _ldl_fractions(l, d)
    exact = _exact_inverse(M)
    assert all(Fraction(float(x)) == x for row in (*M, *exact) for x in row)
    assert np.linalg.inv(_ldl_inertia(l, d)).tolist() == [[float(x) for x in r] for r in exact]


def _nondiagonal_scenario(i, mode, law):
    wz, psi0_deg = REFERENCE_ICS[i]
    return Scenario(
        name=f"ldl_{i}",
        maneuver=ManeuverSpec(w0=np.array([0.0, 0.0, wz]), psi0=math.radians(psi0_deg), mode=mode),
        controller=law,
        gains=DEFAULT_GAINS[law],
        inertia=_ldl_inertia(*LDL_INERTIAS[i]),
        horizon_after_t0=0.5,
    )


def _run_digest(run):
    h = hashlib.sha256()
    for name in FIELDS:
        h.update(np.ascontiguousarray(getattr(run, name)).tobytes())
    return h.hexdigest()


# (inertia index, mode, law) -> SHA-256 of the q, w, tau and telemetry
# (m_e, n_e, w_e, sigma, lambda) bytes of a 0.5 s run from REFERENCE_ICS[i]
NONDIAGONAL_DIGESTS = {
    (0, "stage3", "benchmark"): "9b0230985d2ee78d8fbdd3b18fb0c6f499a39b1d85ca744813ce81f6ca27f201",
    (0, "stage3", "switching"): "bfe999257e04bd6c3af284c441f558ceaace79f1fa260f65bf8cbccd3d0a9dee",
    (0, "stage3", "continuous"): "d1d7b33f1abd2b9f8f3e17446fc33b0d14ff4ced2f00a393cd561419003471af",
    (0, "full", "benchmark"): "42d76725594064ed541dd7d0d369785e2f834fb8de6414692b5b7aa677171830",
    (0, "full", "switching"): "8161542504c6860fe2d29818ecd1bac7d6e7f8e44a03e429516ab12eca3757ed",
    (0, "full", "continuous"): "fe34ecb7aa2737cf0c772711378ab13590e3c89e648bb93eb204bf05d135ebc9",
    (1, "stage3", "benchmark"): "654984e2a3dbc30b5d7794f0af0a53132a3fff3d4d753fa20618d4523e8be093",
    (1, "stage3", "switching"): "e8a2b89da0ba9de7f4a659ce924fda0e5238c4063aaf99a45423baf29725a30a",
    (1, "stage3", "continuous"): "9d0036c723bc917acbb3d9499e8d7fea91843ce955ffeaefaecd21dc5a15fc49",
    (1, "full", "benchmark"): "60cffc08fa0272a6f2d330c445353c455e608921ec77df93785ab182d094e575",
    (1, "full", "switching"): "630723106a1490289ee1e8f17bfd086b1d0aa3318aa6b1eb7b33bb527a797371",
    (1, "full", "continuous"): "e931c5c616d8f082ecd6c7bfbeb2718142c5a36f35a13cae91dcb6eed8c1e436",
    (2, "stage3", "benchmark"): "526466e63f74e731c59e5600eb2f428d0d0a26726bb08cb14f422563eab46216",
    (2, "stage3", "switching"): "c2ea68ee62093c3ae8d227fe59c3162c05f9471cb3ea7e20c93fe2855207211c",
    (2, "stage3", "continuous"): "6cdac23bd1a542845fb9b67bd6a830e297c709f59b625d5dea78734a947a8cab",
    (2, "full", "benchmark"): "b76b73f7dc46ab22d80389351bc43a858aa073db5d6e97ce920678d5e8f612cf",
    (2, "full", "switching"): "905ba2a3ee266589bafb78b8a0cebccc5007c0b465c131f9a014d1d354631c62",
    (2, "full", "continuous"): "c0713ebb53fffd247b3ae1e595d4fb5dfd41d913ea03fa352264591eddc8e2b1",
    (3, "stage3", "benchmark"): "e0343e77d59321a21c4017fb0ff291c1cf282523a074a472e42749c1c68c32a5",
    (3, "stage3", "switching"): "550686af4b53b3401c7b5357ba607e6e6f97b297efa59f0b4e7c75351d6bc09b",
    (3, "stage3", "continuous"): "2742c2e48d427daeef6c074d6b9b4924430e1916fa865886e83d977244514be6",
    (3, "full", "benchmark"): "590bd622448c1d79e40e8419dc186de345fdf431d8bc5b63b024fc4a8bf1bd3a",
    (3, "full", "switching"): "dbf8544b40a948a68a091db7bbb275a1a390784c1ca3ad2629b96e5e3b43cf7c",
    (3, "full", "continuous"): "81fe097d9f9f1b45183b7f3f48c052d75effee68c865f3b668f34ab95636c347",
    (4, "stage3", "benchmark"): "b7f0588ced1c19e6e691d7d821fe1b039ec6d493006588a6474b89ffbd7d3362",
    (4, "stage3", "switching"): "bfdcaa6bd644ed9200cdc13f6b686d74d52b5da299c655dcbb794bcd6e61997e",
    (4, "stage3", "continuous"): "a055b393eda6b6585979e20b427f57da09e0ba2539d8b8dfa3cbb88015402cb3",
    (4, "full", "benchmark"): "64c50808f3bafa9dbfe785565308b2eccd02a02e2a4e5369c82c038dd242b38f",
    (4, "full", "switching"): "fe2ae76c5fa40bf11ffbee2ddcd18b1647160a4709d5156351b82619c00054db",
    (4, "full", "continuous"): "e5d2054d8c058b2170bf47d1fd5a258950fecbd749e53f93400d09950b62a81f",
}


@pytest.mark.parametrize("key", sorted(NONDIAGONAL_DIGESTS), ids=lambda k: "-".join(map(str, k)))
def test_nondiagonal_inertia_runs_pinned_to_the_bit(key):
    # the relative-1e-12 agreement above would pass a re-ordered J @ v sum;
    # these digests would not
    i, mode, law = key
    assert _run_digest(run_scenario(_nondiagonal_scenario(i, mode, law))) == NONDIAGONAL_DIGESTS[key]


# --- Diagonal inertias off the yaw-plane driver ------------------------------
# run_on_plane refuses J_22 > 1 kg m^2 and a start off the plane, so these
# runs of a diagonal inertia go through simulate's general step and law.

# J_22 = 2 kg m^2: run_on_plane refuses it, run_scenario runs simulate
GENERAL_DIAGONAL_INERTIA = np.diag([1e-5, 1e-5, 2.0])
# (qx, wx, wy) of the stage-3 start at REFERENCE_ICS[0], off the yaw plane
OFF_PLANE_STARTS = {
    "wx": (0.0, 0.1, 0.0),
    "tilted": (0.1, 0.0, -0.3),  # the quaternion renormalised
    "qx=-0.0": (-0.0, 0.0, 0.0),
}


def _diagonal_general_run(key):
    if key[0] == "run_scenario":
        _, mode, law = key
        sc = _nondiagonal_scenario(0, mode, law)
        sc.inertia = GENERAL_DIAGONAL_INERTIA
        return _run_digest(run_scenario(sc))
    _, start, law = key
    steps = 300
    sc = make_ic_scenario(*REFERENCE_ICS[0], law, horizon=steps * 1e-3)
    qw, _, _, qz, _, _, wz = stage3_initial_state(sc.maneuver)
    qx, wx, wy = OFF_PLANE_STARTS[start]
    norm = math.sqrt(qw * qw + qx * qx + qz * qz)
    y0 = (qw / norm, qx / norm, 0.0, qz / norm, wx, wy, wz)
    assert run_on_plane(sc, y0, steps * sc.dt) is None
    traj = simulate(y0, make_controller(sc), sc.inertia, sc.dt, steps * sc.dt)
    h = hashlib.sha256()
    for a in (traj.t, traj.q, traj.w, traj.tau, traj.telemetry):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ("run_scenario", mode, law) -> the digest of a 0.5 s run from
# REFERENCE_ICS[0] on GENERAL_DIAGONAL_INERTIA, hashed as NONDIAGONAL_DIGESTS;
# ("simulate", start, law) -> SHA-256 of the t, q, w, tau and telemetry bytes
# of a 300-step simulate run on DEFAULT_INERTIA from that start
DIAGONAL_GENERAL_DIGESTS = {
    ("run_scenario", "stage3", "benchmark"): "c5397d66cea0074657a04a026755f506e19ba9df8858c6c3c3785e4c8a2da69b",
    ("run_scenario", "stage3", "switching"): "dd0e1134402f2ebaf21343226a6cc0a37b21d86c391dcf621fb1e1f65a6d2c65",
    ("run_scenario", "stage3", "continuous"): "926b542609bf0b4fadbde47cbeadc5c640373b37398bf94b90f1ce2f6b6c19ee",
    ("run_scenario", "full", "benchmark"): "aac74230a2e50c6a5caddcb4468de8dbf000ae23bbaea63e0bfa535dfedb3d53",
    ("run_scenario", "full", "switching"): "9ccd64aec00d2d839b80a8d1513c7ba625be12f3c5d358bc5252fbb81da98fc6",
    ("run_scenario", "full", "continuous"): "02889027a25ac1f0a2a4b0ebec105bfad0b5425cc3d23c51b4fa90a909f0bd25",
    ("simulate", "wx", "benchmark"): "975b10c9ec39d5cc16ba6f44a10e57936bcbe1ca688c0a868a67076a68deb91a",
    ("simulate", "wx", "switching"): "dbf45a58eb6854a9a9831ea0fd419d006c4a6cfb53816fcfbbc27753669c3e1a",
    ("simulate", "wx", "continuous"): "25d675bb0a6e5fac5f63a5ac84b0db227b6e9998084648b20939429883a0feb7",
    ("simulate", "tilted", "benchmark"): "b42283979f78423c29128e7da6f8178da05c335a20c25ba2e3be6ca76c70f888",
    ("simulate", "tilted", "switching"): "8ca76496ecd2a0315f5b478c67536cb41325f1ba53349ef2eced777f05cfa229",
    ("simulate", "tilted", "continuous"): "f5d690e5757c2d6559abcee1e74a69a523e9d1cbd95a21f0086a0e6a749c6399",
    ("simulate", "qx=-0.0", "benchmark"): "2ee8dd32943fd18763e7e3fbd44d8f1405764daddf23bdf7906d53ee47a184d8",
    ("simulate", "qx=-0.0", "switching"): "9531fcf52daac2a41b78e1de4a6d2ad0e37d2e8714ed62bf7cd4db5056ebe3a0",
    ("simulate", "qx=-0.0", "continuous"): "13512ede2e052bfe4274b93d8023b3f1832335dcc4fc4cee0606acf1d1cc0c5b",
}


@pytest.mark.parametrize(
    "key", sorted(DIAGONAL_GENERAL_DIGESTS), ids=lambda k: "-".join(map(str, k))
)
def test_diagonal_general_runs_pinned_to_the_bit(key):
    assert _diagonal_general_run(key) == DIAGONAL_GENERAL_DIGESTS[key]


# --- Signed zeros in the start state ----------------------------------------
# J w and Jinv r are full sums, so a zero of either sign in the state reaches
# the same sums as in the reference loop.


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("zeros", list(itertools.product((0.0, -0.0), repeat=4)), ids=repr)
def test_signed_zero_states_bit_identical_to_reference(law, zeros):
    # a yaw maneuver keeps qx, qy, wx and wy at zero all run long, with the
    # signs they start with
    steps = 300
    sc = make_ic_scenario(2.0, 150.0, law, horizon=steps * 1e-3)
    qw, _, _, qz, _, _, wz = stage3_initial_state(sc.maneuver)
    qx, qy, wx, wy = zeros
    y0 = (qw, qx, qy, qz, wx, wy, wz)
    traj = simulate(y0, make_controller(sc), sc.inertia, sc.dt, steps * sc.dt)
    ref = reference_closed_loop(law, y0[:4], y0[4:], sc.inertia, sc.gains, sc.dt, steps)
    telemetry = np.column_stack(
        [ref["m_e"], ref["n_e"], ref["w_e"], ref["sigma"].astype(float), ref["lam"]]
    )
    for got, want in ((traj.q, ref["q"]), (traj.w, ref["w"]), (traj.tau, ref["tau"]),
                      (traj.telemetry, telemetry)):
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("law", LAWS)
def test_negative_zero_rate_bit_identical_to_reference(law):
    _assert_bit_identical_to_reference(law, -0.0, 150.0, 300)


@pytest.mark.parametrize("key", sorted(DIGESTS), ids="-".join)
def test_digest_runs_hold_no_negative_zero_torque(key):
    mode, ic, law = key
    wz, psi0_deg = ic.split(",")
    overrides = {"mode": mode, "wz": wz, "psi0_deg": psi0_deg, "controller": law}
    tau = run_scenario(scenario_from_text("", overrides)).tau
    assert not np.signbit(tau[tau == 0.0]).any()


# finite entries, zeros of both signs among them, none so small that a
# product with them underflows
_ENTRY = st.one_of(
    st.sampled_from((0.0, -0.0)), st.floats(-10.0, 10.0).filter(lambda x: abs(x) >= 1e-6)
)
# the same with -0.0 turned into +0.0: feedforward, and torques, which are
# scaled to the size of w x Jw so that a change in it shows in r
_NO_NEGATIVE_ZERO = _ENTRY.map(lambda x: x + 0.0)
_TORQUE = _NO_NEGATIVE_ZERO.map(lambda x: 1e-4 * x)


def _vector(entry, n):
    return st.tuples(*[entry] * n)


# a packed state or a reference attitude whose quaternion is not zero, so
# that the error quaternion can be renormalized
_STATE = _vector(_ENTRY, 7).filter(lambda y: any(y[:4]))
_QUAT = _vector(_ENTRY, 4).filter(any)


def _bytes(values):
    return np.array(values, dtype=float).tobytes()


def _error(y, q_d, w_d):
    """q^-1 q_d through quat.hamilton_product and w_d - w, of the packed y."""
    qw, qx, qy, qz, wx, wy, wz = y
    return hamilton_product((qw, -qx, -qy, -qz), q_d), (w_d[0] - wx, w_d[1] - wy, w_d[2] - wz)


def _law_gains(kq, kw, kn=1.0, delta=0.1):
    # c is far below c_max, so no advisory; it only scales Lambda
    return GainSet(kq=kq, kw=kw, kn=kn, c=1e-3 * min(1.0, 4.0 * kn * kw / kq), delta=delta)


def _assert_bound_forms_match_general(J, y, tau, gains, s, q_d, w_d, wdot_d):
    # gains = (kq, kw, kn): kn = 0 is the continuous law's form, which
    # takes its sign as given; kn > 0 the switching law's, whose dead band
    # of 1e300 holds the sign it is given
    rows, inv = J.tolist(), np.linalg.inv(J).tolist()
    derivative = _bind_derivative(rows, inv)
    assert _bytes(derivative(*y, *tau)) == _bytes(general_derivative(y, *tau, rows, inv))
    kq, kw, kn = gains
    law = _bind_law(_law_gains(kq, kw, kn or 1.0, 1e300), rows, "switching" if kn else "continuous")
    got, row = law(s, y, (q_d, w_d, wdot_d))
    assert row[7] == s
    q_err, w_err = _error(y, q_d, w_d)
    assert _bytes(got) == _bytes(general_torque(*gains, rows, s, q_err, w_err, y[4:], wdot_d))


_GAINS = st.tuples(
    st.floats(0.1, 1e3), st.floats(0.1, 1e3), st.one_of(st.just(0.0), st.floats(0.1, 1e2))
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    jd=_vector(st.floats(1e-6, 1e-3), 3),
    y=_STATE,
    tau=_vector(_TORQUE, 3),
    gains=_GAINS,
    s=st.sampled_from((1, -1)),
    q_d=_QUAT,
    w_d=_vector(_ENTRY, 3),
    wdot_d=_vector(_NO_NEGATIVE_ZERO, 3),
)
def test_diagonal_forms_match_general_forms(jd, y, tau, gains, s, q_d, w_d, wdot_d):
    _assert_bound_forms_match_general(np.diag(jd), y, tau, gains, s, q_d, w_d, wdot_d)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    y=_STATE,
    tau=_vector(_ENTRY.map(lambda x: 1e-4 * x), 3),
    gains=_GAINS,
    s=st.sampled_from((1, -1)),
    q_d=_QUAT,
    w_d=_vector(_ENTRY, 3),
    wdot_d=_vector(_ENTRY, 3),
)
# a kn = 0 law that leaves out its zero kn terms gives tau_z = -0.0 here,
# against the general form's +0.0
@example(
    seed=0, y=(1.0, 0.0, 0.0, 0.0, -0.0, 0.0, 0.0), tau=(0.0, 0.0, 0.0), gains=(10.0, 100.0, 0.0),
    s=-1, q_d=(1.0, 0.0, 0.0, 0.0), w_d=(0.0, -0.0, -0.0), wdot_d=(0.0, -0.0, -0.0),
)
def test_nondiagonal_forms_match_general_forms(seed, y, tau, gains, s, q_d, w_d, wdot_d):
    # every product is formed here, in the general forms' order, so even
    # -0.0 inputs keep their bits
    J = _random_spd(np.random.default_rng(seed))
    _assert_bound_forms_match_general(J, y, tau, gains, s, q_d, w_d, wdot_d)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    name=st.sampled_from(("continuous", "benchmark")),
    diagonal=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    gains=st.tuples(st.floats(0.1, 1e3), st.floats(0.1, 1e3), st.floats(0.1, 1e2)),
    y=_STATE,
    q_d=_QUAT,
    w_d=_vector(_ENTRY, 3),
    wdot_d=_vector(_NO_NEGATIVE_ZERO, 3),
)
def test_kn_zero_laws_match_the_general_form(name, diagonal, seed, gains, y, q_d, w_d, wdot_d):
    # the continuous and benchmark laws bind kn = 0; the general form forms
    # every product of J, the error comes from quat.hamilton_product and
    # Lambda from switch_function
    J = _random_spd(np.random.default_rng(seed))
    rows = (np.diag(np.diag(J)) if diagonal else J).tolist()
    g = _law_gains(*gains)
    tau, row = _bind_law(g, rows, name)(+1, y, (q_d, w_d, wdot_d))
    q_err, w_err = _error(y, q_d, w_d)
    s = _shorter_path_sign(q_err[0]) if name == "benchmark" else +1
    want = general_torque(g.kq, g.kw, 0.0, rows, s, q_err, w_err, y[4:], wdot_d)
    assert _bytes(tau) == _bytes(want)
    assert _bytes(row) == _bytes((*q_err, *w_err, s, switch_function(ErrorState(q_err, w_err), g)))


# --- The yaw-plane driver against simulate ----------------------------------
# run_scenario runs a run that starts on the yaw plane through
# harness.run_on_plane, and one that it refuses (None) through simulate, from
# the start.  What the driver returns must be simulate's run, bit for bit,
# and the t0 that simulate's tracker pins.


def _scenario(name, spec, gains=None, J=DEFAULT_INERTIA, dt=1e-3):
    """The ``name`` law's scenario of ``spec``, its gains DEFAULT_GAINS[name]
    if not given.  dt and J are assigned after construction, so a step or an
    inertia that ``Scenario`` refuses still reaches both loops."""
    sc = Scenario(name=name, maneuver=spec, controller=name, gains=gains or DEFAULT_GAINS[name])
    sc.dt, sc.inertia = dt, J
    return sc


def _simulated(sc, y0, duration):
    """``simulate``'s run of the scenario from y0 and its tracker's t0."""
    controller = make_controller(sc)
    return simulate(y0, controller, sc.inertia, sc.dt, duration), controller.tracker.t0


def _run_outcome(run):
    """``run()``'s trajectory and t0, the arrays as bytes with any NaN as
    one NaN (CPython may return either NaN operand of a sum), None for None,
    or the type and text of what it raised."""
    try:
        out = run()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    if out is None:
        return None
    traj, t0 = out
    a = np.concatenate([traj.t, *(x.ravel() for x in (traj.q, traj.w, traj.tau, traj.telemetry))])
    return np.where(np.isnan(a), math.nan, a).tobytes(), t0


def _outcomes(sc, y0, duration):
    """``_run_outcome`` of the scenario's run from y0 through run_on_plane
    and through simulate."""
    return (
        _run_outcome(lambda: run_on_plane(sc, y0, duration)),
        _run_outcome(lambda: _simulated(sc, y0, duration)),
    )


_UNIT = st.one_of(
    st.sampled_from(((-0.0, 1.0), (0.0, -1.0), (1.0, -0.0), (-1.0, 0.0), (1.0, 0.0))),
    st.floats(-4.0, 4.0).map(lambda a: (math.cos(a), math.sin(a))),
)
_EXAMPLE = dict(
    name="switching", mode="stage3", jd=(1.66e-5, 1.66e-5, 2.93e-5), gains=(10.0, 100.0, 10.0),
    q=(0.6, 0.8), drift=1.0, wz=2.0, xy=(0.0, 0.0, 0.0, 0.0), tilt=0.0, dt=1e-3, steps=40,
)


def _example(**changes):
    return example(**{**_EXAMPLE, **changes})


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    name=st.sampled_from(LAWS),
    mode=st.sampled_from(("stage3", "full")),
    # inertias, and J_22 > 1; the examples add those validate_inertia refuses
    jd=st.one_of(*[_vector(st.floats(1e-6, 1e-3), 3)] * 3, _vector(st.floats(1e-6, 2.0), 3)),
    gains=st.tuples(st.floats(0.1, 1e3), st.floats(0.01, 1e3), st.floats(0.1, 1e2)),
    q=_UNIT,
    # |q|^2 drifted past the renorm's tolerance, and past the start's
    drift=st.sampled_from((1.0, 1.0, 1.0, 1.0 + 1e-10, 1.0 - 3e-10, 1.0 + 1e-8)),
    wz=st.one_of(
        *[st.floats(-100.0, 100.0)] * 3,
        st.sampled_from((0.0, -0.0, 1e150, 1e308, -1e308, math.nan)),
    ),
    # (qx, qy, wx, wy): mostly on the plane; a -0.0 or a nonzero rate starts off it
    xy=st.sampled_from(
        [(0.0,) * 4] * 16
        + [(-0.0, 0.0, 0.0, 0.0), (0.0, -0.0, 0.0, 0.0), (0.0, 0.0, -0.0, 0.0)]
        + [(0.0, 0.0, 0.0, -0.0), (-0.0,) * 4, (0.0, 0.0, 1e-3, 0.0), (0.0, 0.0, 0.0, -1e-3)]
    ),
    # a stage-2 spin axis off the yaw axis takes the torque off the plane
    tilt=st.sampled_from((0.0,) * 5 + (1e-3,)),
    dt=st.sampled_from((1e-3, 0.019)),
    steps=st.integers(0, 60),
)
@_example(q=(-0.0, 1.0))
@_example(q=(1.0, -0.0), wz=-0.0)
@_example(wz=0.0, mode="full")
@_example(drift=1.0 + 1e-10)  # the first law call rescales the quaternion
@_example(xy=(-0.0, 0.0, 0.0, 0.0))  # off the plane
@_example(xy=(0.0, 0.0, 0.0, -0.0))
@_example(jd=(1.0, 1.0, 2.0))  # J_22 > 1: simulate
@_example(jd=(1.0, 1.0, 2.0), wz=1e308)  # J_22 wz overflows: x and y turn NaN
@_example(jd=(1.0, 1.0, 2.0), wz=1e308, gains=(10.0, 0.1, 0.1), steps=0)  # tau_z does not
@_example(jd=(1.0, 1.0, 1e300), wz=1e10)
@_example(jd=(1.0, -1.0, 0.5))  # refused by validate_inertia
@_example(jd=(-1.0, 1.0, -1.0))
@_example(jd=(1.0, 1.0, 0.0))
@_example(jd=(1e-200, 1e-200, 1e-200))  # J_00 J_11 underflows to 0
@_example(jd=(1.0, math.inf, 1.0))
@_example(jd=(1e-309, 1.0, 1.0))  # refused by validate_inertia
@_example(wz=1e150)  # the state blows up in the first step
@_example(q=(1.0, 5e-324), wz=0.0)  # J_22 a_z underflows to -0.0, tau_z is +0.0
@_example(q=(-5e-324, 1.0), wz=0.0)  # 4c m_e underflows to -0.0 in Lambda
@_example(name="benchmark", q=(-0.6, 0.8), wz=-30.0)
@_example(name="continuous", mode="full", steps=60)
@_example(name="benchmark", mode="full", steps=60, dt=0.019)
@_example(name="switching", mode="full", steps=60, dt=0.019)
@_example(q=(0.6, -0.8), wz=-3.0)
@_example(mode="full", tilt=1e-3, steps=60)  # the spin torque leaves the plane
# |q|^2 - 1 just inside and just past +-NORM_DRIFT_TOL (RENORM_EDGES)
@_example(q=(0.602, 0.798496086403058))  # 4503 2^-52: no renorm
@_example(q=(0.6, 0.8000000000006251))  # 4504 2^-52: renorm
@_example(q=(0.6, 0.799999999999375))  # -9007 2^-53: no renorm
@_example(q=(0.601, 0.7992490225198902))  # -9008 2^-53: renorm
# the step's |q|^2 - 1 at the tolerance's edge, from a start just inside it;
# no output shows it, but a step tolerance moved past a neighbour fails these
@_example(q=(0.989, 0.14791551643083165))  # 4504 2^-52 at the 9th step: renorm
@_example(q=(-0.647, -0.7624899999337729))  # -9008 2^-53 at the 2nd step: renorm
@_example(q=(0.721, 0.6929350618918132))  # -9006 2^-53 at the 5th step: no renorm
def test_plane_driver_matches_simulate(name, mode, jd, gains, q, drift, wz, xy, tilt, dt, steps):
    spec = ManeuverSpec(
        w0=np.array([tilt, 0.0, 20.0]), psi0=0.5, stage1_duration=5 * dt, mode=mode
    )
    sc = _scenario(name, spec, _law_gains(*gains), np.diag(jd), dt)
    (qw, qz), (qx, qy, wx, wy) = q, xy
    y0 = (qw * drift, qx, qy, qz * drift, wx, wy, wz)
    got, want = _outcomes(sc, y0, steps * dt)
    if got is not None:
        assert got == want
    # the driver refuses only a run off the plane or one that leaves it or
    # blows up: a finite run of moderate size that starts on it is its own
    on_plane = not np.signbit(xy).any() and not any(xy) and (tilt == 0.0 or mode == "stage3")
    if on_plane and jd[2] <= 1.0 and not isinstance(want, str):
        values = np.frombuffer(want[0])
        if np.isfinite(values).all() and np.abs(values).max() < 1e100:
            assert got is not None


# the renorm-edge examples' q and |q|^2 - 1: the last drift inside the
# tolerance and the first past it, above 1 (steps of 2^-52) and below (2^-53)
RENORM_EDGES = [
    ((0.602, 0.798496086403058), 4503 * 2.0**-52, False),
    ((0.6, 0.8000000000006251), 4504 * 2.0**-52, True),
    ((0.6, 0.799999999999375), -9007 * 2.0**-53, False),
    ((0.601, 0.7992490225198902), -9008 * 2.0**-53, True),
]


@pytest.mark.parametrize("q, d, renorms", RENORM_EDGES)
def test_renorm_edge_examples(q, d, renorms):
    qw, qz = q
    assert qw * qw + qz * qz - 1.0 == d
    assert (abs(d) > NORM_DRIFT_TOL) is renorms


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize(
    "wz, dt, horizon",
    [(1e150, 1e-3, 1.0), (2.0, 0.05, 60.0)],  # a non-finite state; a zero quaternion
)
def test_plane_run_that_blows_up_raises_the_general_error(monkeypatch, law, wz, dt, horizon):
    sc = make_ic_scenario(wz, 150.0, law, horizon=horizon)
    sc.dt = dt  # past the step limit that Scenario refuses
    y0 = stage3_initial_state(sc.maneuver)
    assert run_on_plane(sc, y0, horizon) is None
    with pytest.raises(SimulationError) as plane:
        run_scenario(sc)
    monkeypatch.setattr(harness, "run_on_plane", lambda *args: None)
    with pytest.raises(SimulationError) as general:
        run_scenario(sc)
    assert str(plane.value) == str(general.value)


# --- The yaw-plane driver across its chunk flushes ---------------------------
# The draws above take at most 60 steps, all inside the driver's first chunk.
# These runs take 2 CHUNK + 37 steps, so they reach the flushes where the
# driver forms the derived telemetry columns and writes the stage-2 spin rows
# back over their slots.  Each case's own expectation is read from simulate's
# run, so it holds of the input whatever the driver does.

_FLUSH_STEPS = 2 * CHUNK + 37


def _flush_run(case):
    """(spec, y0) of a flush case, at dt = 1 ms."""
    if case.startswith("full"):
        # stage 1 for 50 ms (200 ms: the spin rows run past row CHUNK), then
        # a spin at 20 rad/s until the yaw reaches psi0 (at 2 rad/s: the run
        # is cut first, with spin rows in every chunk and t0 pending)
        stage1, psi0, wz = {
            "full": (0.05, 1.0, 20.0), "full_straddle": (0.2, 2.0, 20.0), "full_cut": (0.05, 2.0, 2.0)
        }[case]
        spec = ManeuverSpec(w0=np.array([0.0, 0.0, wz]), psi0=psi0, stage1_duration=stage1)
        return spec, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    spec = ManeuverSpec(w0=np.array([0.0, 0.0, 2.0]), psi0=math.radians(150.0), mode="stage3")
    qw, _, _, qz, _, _, wz = stage3_initial_state(spec)
    scale = {"stage3": 1.0, "drifted": 1.0 + 1e-10, "negated": -1.0}[case]
    return spec, (qw * scale, 0.0, 0.0, qz * scale, 0.0, 0.0, wz)


@pytest.mark.parametrize("case", ["stage3", "full", "full_straddle", "full_cut", "drifted", "negated"])
@pytest.mark.parametrize("name", LAWS)
def test_plane_driver_matches_simulate_across_flushes(name, case):
    spec, y0 = _flush_run(case)
    sc, dt = _scenario(name, spec), 1e-3
    got, want = _outcomes(sc, y0, _FLUSH_STEPS * dt)
    assert got is not None
    assert got == want
    traj, t0 = _simulated(sc, y0, _FLUSH_STEPS * dt)
    nx = traj.telemetry[:, 1]
    qq = (traj.q * traj.q).sum(axis=1)
    if case == "full":  # the spin ends inside the first chunk
        assert spec.stage1_duration < t0 < CHUNK * dt
    elif case == "full_straddle":  # the spin rows run past the first flush
        assert spec.stage1_duration < (CHUNK - 1) * dt and t0 > CHUNK * dt
    elif case == "full_cut":
        assert t0 is None
    elif case == "drifted":  # the law rescales row 0, the step rescales row 1
        assert abs(qq[0] - 1.0) > 1e-12 > abs(qq[1] - 1.0)
    elif case == "negated":  # qw 0.0 + qz 0.0 is -0.0 for a negative qw and qz
        assert (np.signbit(nx) & (nx == 0.0)).any()


# --- Full-mode cases the draws never reach -----------------------------------
# The draws spin at 20 rad/s to psi0 = 0.5 rad after five steps of stage 1:
# no spin passes pi (where sin h < 0 can turn the spin rows' zero nx and ny
# negative), the trigger never fires on the first stage-2 step and stage 1 is
# never empty.  Each case runs until the spin is over, at dt = 1 ms.

AT_REST = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _full_case(case):
    """(spec, y0) of a full-mode case."""
    if case == "past_pi":  # the command line's full mode at the IC (4, 359)
        return ManeuverSpec(w0=np.array([0.0, 0.0, 4.0]), psi0=math.radians(359.0)), AT_REST
    if case == "trigger_at_t1":  # at a yaw of 150 deg, past psi0 = 1 rad once stage 1 ends
        spec = ManeuverSpec(w0=np.array([0.0, 0.0, 20.0]), psi0=1.0, stage1_duration=0.005)
        h = math.radians(75.0)
        return spec, (math.cos(h), 0.0, 0.0, math.sin(h), 0.0, 0.0, 0.0)
    if case.startswith("no_stage1"):
        # the first row spins at h = 0, where the spin sample's zeros meet the
        # signed zeros of a start at -1 (qz = +0.0) or at a yaw of pi (qw = -0.0)
        psi0, y0 = {
            "no_stage1": (1.0, AT_REST),
            "no_stage1_negated": (1.0, (-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
            "no_stage1_half_turn": (4.0, (-0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0)),
        }[case]
        return ManeuverSpec(w0=np.array([0.0, 0.0, 20.0]), psi0=psi0, stage1_duration=0.0), y0
    # negative_zero_x: w_d's x is -0.0, and so is w_err's, which the driver never writes
    return ManeuverSpec(w0=np.array([-0.0, 0.0, 2.0]), psi0=math.radians(150.0)), AT_REST


def _spin_over(spec):
    """A full-mode run's length without the stage-3 horizon: past t0."""
    return spec.stage1_duration + 1.5 * spec.psi0 / spec.rate + 0.5


def _full_case_runs(name, case):
    """``_outcomes`` of the case at dt = 1 ms, and the case's (scenario, y0)."""
    spec, y0 = _full_case(case)
    sc = _scenario(name, spec)
    return (*_outcomes(sc, y0, _spin_over(spec)), sc, y0)


@pytest.mark.parametrize(
    "case", ["past_pi", "trigger_at_t1", "no_stage1", "no_stage1_negated", "no_stage1_half_turn"]
)
@pytest.mark.parametrize("name", LAWS)
def test_plane_driver_full_mode_cases(name, case):
    got, want, sc, _ = _full_case_runs(name, case)
    assert got is not None  # the driver finished the run
    assert got == want
    spec = sc.maneuver
    t0, t1, dt = want[1], spec.stage1_duration, 1e-3
    if case == "past_pi" and name == "continuous":
        # the last spin row, the one before t0's, is past h = pi
        assert 0.5 * (spec.rate * (t0 - dt - t1)) > math.pi
    elif case == "trigger_at_t1":
        assert t0 == t1
    elif case.startswith("no_stage1"):
        assert t1 == 0.0 < t0


@pytest.mark.parametrize("name", LAWS)
def test_plane_driver_refuses_a_negative_zero_spin_axis(name):
    got, _, sc, y0 = _full_case_runs(name, "negative_zero_x")
    assert got is None  # so run_scenario takes simulate's bits
    traj, _ = _simulated(sc, y0, _spin_over(sc.maneuver))
    wex = traj.telemetry[:, 4]
    assert (np.signbit(wex) & (wex == 0.0)).any()
