"""Gates on the closed-loop step.

The SHA-256 digests below were taken from the CLI output files before the
closed-loop step was rewritten on plain floats; any change that alters a
single byte of ``telemetry.csv`` or ``report.txt`` fails here.  The
equivalence tests compare the production loop with the reference loop in
conftest: bit for bit on the default (diagonal) inertia, and to a relative
1e-12 on non-diagonal inertias, where the production path sums J @ v in
Python while the reference sums it in numpy.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest
from conftest import reference_closed_loop

from attswitch.cli import main
from attswitch.harness import REFERENCE_ICS, make_ic_scenario, run_scenario
from attswitch.reference import stage3_initial_state
from attswitch.rigid_body import CHUNK

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
