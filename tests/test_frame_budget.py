"""The per-step frame budget: the Python frames that one stage-3 control
step and one integration step open, counted as ``call`` events of
``sys.setprofile``, and the builtins that a step on the yaw plane calls,
counted as its ``c_call`` events.

Frames, not arithmetic, are most of what a closed-loop step costs, so a
refactor that puts a layer back on the per-step path (a helper the law calls,
a per-step wrapper in ``simulate``) fails here and not only in the
benchmark.  A stage-3 control step is the controller's ``__call__``,
``ManeuverTracker.sample``, the bound law and ``renorm_if_drifted``, plus the
sigma rule of the benchmark and switching laws; a stage-2 control step adds
``quat.yaw_of``, which the tracker calls while t0 is pending, and its spin
sample is formed in ``sample``'s own body; an integration step is the
RK4 step, its four derivative calls and ``renorm_if_drifted``.  A step of
a run on the yaw plane, in ``harness.run_on_plane``, opens none, in stage 1,
in the stage-2 spin and from t0 on: it writes the tracker's read, the law's
hold and spin rows, its renorm and sigma rule and the step's renorm itself.
Its hold step calls no builtin either: the renorm tests and the finiteness
test of Lambda + tau_z are comparisons, not ``abs`` and ``math.isfinite``,
and a chunk's stores reach the arrays in one ``struct`` pack after the
chunk.  A stage-1 step from a start that moves calls only the tracker's
``atan2``, and a spin step also the ``sin`` and ``cos`` of its half angle.
A stage 1 from rest at the identity calls ``atan2`` twice in all: the
driver steps rows 0 and 1 and, finding row 1 a repeat of row 0 that steps
to itself, fills the rest of the hover from row 1.

The per-state certificates are held to the same rule: each of
``lyapunov_value``, ``lyapunov_rate``, ``lyapunov_decay_bound`` and
``switch_function`` is one frame, and ``roa_contains`` two, itself and the
``lyapunov_value`` that gives V its one form.
"""

import gc
import math
import sys
from dataclasses import replace

import pytest

from attswitch import stability
from attswitch.controllers import ErrorState, switch_function
from attswitch.harness import SWITCHING_GAINS, make_controller, make_ic_scenario, run_on_plane
from attswitch.reference import HOLD, MODE_FULL, ManeuverSpec, ManeuverTracker, stage3_initial_state
from attswitch.rigid_body import simulate


def _frames(fn, *args):
    """Names of the Python frames that ``fn(*args)`` opens, itself first."""
    return _calls(fn, *args)[0]


def _calls(fn, *args):
    """Names of the Python frames that ``fn(*args)`` opens, itself first,
    and of the builtins that it calls, in order.

    The garbage collector is off meanwhile (and then back as it was): a
    collection inside the call would add the frames of whatever gc callback
    is installed, such as hypothesis's."""
    names, builtins = [], []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)
        elif event == "c_call":
            builtins.append(arg.__name__)

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return names, builtins


@pytest.mark.parametrize("enabled", (True, False))
def test_frames_restores_the_collector(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert _frames(len, ()) == []
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


LAW_FRAMES = {
    "continuous": ["__call__", "sample", "law", "renorm_if_drifted"],
    "benchmark": ["__call__", "sample", "law", "renorm_if_drifted", "_shorter_path_sign"],
    "switching": ["__call__", "sample", "law", "renorm_if_drifted", "update_sigma"],
}


@pytest.mark.parametrize("law", sorted(LAW_FRAMES))
def test_stage3_control_step_frames(law):
    sc = make_ic_scenario(2.0, 150.0, law)
    controller = make_controller(sc)
    y = stage3_initial_state(sc.maneuver)
    controller(0.0, y)
    assert _frames(controller, 0.001, y) == LAW_FRAMES[law]


def _full_mode_scenario(law):
    """The {2 rad/s, 150 deg} scenario of ``law`` flown in full mode."""
    sc = make_ic_scenario(2.0, 150.0, law)
    return replace(sc, maneuver=ManeuverSpec(w0=(0.0, 0.0, 2.0), psi0=math.radians(150.0)))


# at rest at yaw 0, a state that never arms t0 (psi0 > 0)
AT_REST = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
# at rest at a yaw of 75 deg, which the hold law turns back towards 0
TURNED = (math.cos(math.radians(37.5)), 0.0, 0.0, math.sin(math.radians(37.5)), 0.0, 0.0, 0.0)


def test_stage2_sample_frames():
    # with t0 pending, a stage-2 sample unwraps the measured yaw and forms
    # the spin in its own body: it opens itself and yaw_of only
    tracker = ManeuverTracker(_full_mode_scenario("continuous").maneuver)
    t = tracker.spec.stage1_duration + 0.5
    assert _frames(tracker.sample, t, AT_REST) == ["sample", "yaw_of"]
    assert tracker.t0 is None and tracker.sample(t, AT_REST) is not HOLD


@pytest.mark.parametrize("law", sorted(LAW_FRAMES))
def test_stage2_control_step_frames(law):
    # a stage-2 control step is a stage-3 one plus the tracker's yaw_of
    controller = make_controller(_full_mode_scenario(law))
    controller(0.0, AT_REST)
    expected = LAW_FRAMES[law][:2] + ["yaw_of"] + LAW_FRAMES[law][2:]
    assert _frames(controller, 1.5, AT_REST) == expected


def _extra(before, after):
    """Sorted names that ``after`` has beyond ``before``."""
    extra = sorted(after)
    for name in before:
        extra.remove(name)
    return extra


def _simulate_step_frames(y0):
    """Sorted names of the frames that one step more of a run from y0 opens."""
    sc = make_ic_scenario(2.0, 150.0, "continuous")

    def controller(t, y):
        return (0.0, 0.0, 0.0), ()

    return _extra(*(_frames(simulate, y0, controller, sc.inertia, sc.dt, n * sc.dt) for n in (3, 4)))


def test_simulate_step_frames():
    # off the yaw plane (wx != 0), one step more opens the controller's one
    # frame and six of simulate's
    qw, qx, qy, qz, _, wy, wz = stage3_initial_state(make_ic_scenario(2.0, 150.0).maneuver)
    y0 = (qw, qx, qy, qz, 0.1, wy, wz)
    assert _simulate_step_frames(y0) == [
        "controller", "derivative", "derivative", "derivative", "derivative",
        "renorm_if_drifted", "step",
    ]


# sorted, as _simulate_step_frames gives them
PLANE_STEP_FRAMES = {"continuous": [], "benchmark": [], "switching": []}
# the builtins one step more of run_on_plane calls, sorted: a hold step none,
# a stage-1 step from rest none (the driver fills it from row 1), one from a
# start that moves the tracker's atan2, a stage-2 spin step also its sin and cos
PLANE_STEP_BUILTINS = {"hold": [], 1: [], "moving": ["atan2"], 2: ["atan2", "cos", "sin"]}


def _plane_step_calls(sc, y0, n):
    """Sorted names of the frames that one step more of ``run_on_plane``
    from y0 opens, after n steps, and of the builtins it calls, and the t0
    the longer run returns."""
    (frames, builtins), (more_frames, more_builtins) = (
        _calls(run_on_plane, sc, y0, k * sc.dt) for k in (n, n + 1)
    )
    t0 = run_on_plane(sc, y0, (n + 1) * sc.dt)[1]
    return _extra(frames, more_frames), _extra(builtins, more_builtins), t0


@pytest.mark.parametrize("law", sorted(PLANE_STEP_FRAMES))
def test_plane_driver_step_frames(law):
    # on the yaw plane, from the stage-3 state, run_on_plane writes the law's
    # and the step's yaw rows, their renorms and the sign rule itself: one
    # hold step more opens no frame, no controller, sample, law or step
    sc = make_ic_scenario(2.0, 150.0, law)
    extra, _, _ = _plane_step_calls(sc, stage3_initial_state(sc.maneuver), 3)
    assert extra == PLANE_STEP_FRAMES[law]


@pytest.mark.parametrize("law", sorted(PLANE_STEP_FRAMES))
def test_plane_driver_step_builtins(law):
    # a hold step writes its renorm tests and the finiteness test of
    # Lambda + tau_z as comparisons: one step more calls no abs, no isfinite
    sc = make_ic_scenario(2.0, 150.0, law)
    _, extra, _ = _plane_step_calls(sc, stage3_initial_state(sc.maneuver), 3)
    assert extra == PLANE_STEP_BUILTINS["hold"]


@pytest.mark.parametrize("law", sorted(PLANE_STEP_FRAMES))
@pytest.mark.parametrize("stage", (1, "moving", 2))
def test_plane_driver_pending_step_frames(law, stage):
    # with t0 pending, run_on_plane also writes the tracker's read of the
    # yaw and, in stage 2, the law's spin row: one stage-1 or stage-2 step
    # more opens no frame, no sample, yaw_of, law, renorm or sign rule
    extra, _ = _pending_step_calls(law, stage)
    assert extra == PLANE_STEP_FRAMES[law]


@pytest.mark.parametrize("law", sorted(PLANE_STEP_FRAMES))
@pytest.mark.parametrize("stage", (1, "moving", 2))
def test_plane_driver_pending_step_builtins(law, stage):
    # with t0 pending, a step that moves calls the tracker's atan2, and a
    # spin step the sin and cos of its half angle; it stores a spin row's nx
    # and ny by index, with no list append.  A stage-1 row from rest is filled
    _, extra = _pending_step_calls(law, stage)
    assert extra == PLANE_STEP_BUILTINS[stage]


def _pending_step_calls(law, stage):
    """``_plane_step_calls``'s frames and builtins of one stage-1 or
    stage-2 step more of the law's full-mode run from rest, or of one
    stage-1 step more from the turned start ("moving"), t0 pending."""
    sc = _full_mode_scenario(law)
    first_spin_row = round(sc.maneuver.stage1_duration / sc.dt)
    n = {1: 3, "moving": 3, 2: first_spin_row + 3}[stage]
    frames, builtins, t0 = _plane_step_calls(sc, TURNED if stage == "moving" else AT_REST, n)
    assert t0 is None
    assert ((n + 1) * sc.dt >= sc.maneuver.stage1_duration) is (stage == 2)
    return frames, builtins


@pytest.mark.parametrize("law", sorted(PLANE_STEP_FRAMES))
@pytest.mark.parametrize("y0, moves", [(AT_REST, False), (TURNED, True)], ids=("rest", "turned"))
def test_plane_driver_stage1_atan2_calls(law, y0, moves):
    # a stage 1 from rest at the identity reads the yaw in rows 0 and 1 only,
    # and fills the rest from row 1; one from a start that moves reads it
    # once a row.  Both read it in each of the three stage-2 rows after it
    sc = _full_mode_scenario(law)
    rows = round(sc.maneuver.stage1_duration / sc.dt)
    assert (rows - 1) * sc.dt < sc.maneuver.stage1_duration <= rows * sc.dt
    _, builtins = _calls(run_on_plane, sc, y0, (rows + 2) * sc.dt)
    assert builtins.count("atan2") == (rows if moves else 2) + 3


CERTIFICATE_FRAMES = {
    stability.lyapunov_value: ["lyapunov_value"],
    stability.lyapunov_rate: ["lyapunov_rate"],
    stability.lyapunov_decay_bound: ["lyapunov_decay_bound"],
    stability.roa_contains: ["roa_contains", "lyapunov_value"],
    stability.error_jacobian: ["error_jacobian"],
}


@pytest.mark.parametrize("fn", list(CERTIFICATE_FRAMES), ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("sigma", (+1, -1))
def test_certificate_frames(fn, sigma):
    err = ErrorState((0.5, 0.5, -0.5, 0.5), (1.0, -2.0, 3.0))
    assert _frames(fn, err, sigma, SWITCHING_GAINS) == CERTIFICATE_FRAMES[fn]


def test_switch_function_frames():
    err = ErrorState((0.5, 0.5, -0.5, 0.5), (1.0, -2.0, 3.0))
    assert _frames(switch_function, err, SWITCHING_GAINS) == ["switch_function"]
