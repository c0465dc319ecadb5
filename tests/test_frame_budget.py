"""The per-step frame budget: the Python frames that one stage-3 control
step and one integration step open, counted as ``call`` events of
``sys.setprofile``.

Frames, not arithmetic, are most of what a closed-loop step costs, so a
refactor that puts a layer back on the per-step path (a helper the law calls,
a per-step wrapper in ``simulate``) fails here and not only in the
benchmark.  A stage-3 control step is the controller's ``__call__``,
``ManeuverTracker.sample``, the bound law and ``renorm_if_drifted``, plus the
sigma rule of the benchmark and switching laws; an integration step is the
RK4 step, its four derivative calls and ``renorm_if_drifted``.  A step of
a run on the yaw plane, in ``harness.run_on_plane``, is the law's
``renorm_if_drifted`` and sigma rule and the step's ``renorm_if_drifted``.

The per-state certificates are held to the same rule: each of
``lyapunov_value``, ``lyapunov_rate``, ``lyapunov_decay_bound`` and
``switch_function`` is one frame, and ``roa_contains`` two, itself and the
``lyapunov_value`` that gives V its one form.
"""

import gc
import sys

import pytest

from attswitch import stability
from attswitch.controllers import ErrorState, switch_function
from attswitch.harness import SWITCHING_GAINS, make_controller, make_ic_scenario, run_on_plane
from attswitch.reference import stage3_initial_state
from attswitch.rigid_body import simulate


def _frames(fn, *args):
    """Names of the Python frames that ``fn(*args)`` opens, itself first.

    The garbage collector is off meanwhile (and then back as it was): a
    collection inside the call would add the frames of whatever gc callback
    is installed, such as hypothesis's."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return names


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


def _simulate_step_frames(y0):
    """Sorted names of the frames that one step more of a run from y0 opens."""
    sc = make_ic_scenario(2.0, 150.0, "continuous")

    def controller(t, y):
        return (0.0, 0.0, 0.0), ()

    runs = [_frames(simulate, y0, controller, sc.inertia, sc.dt, n * sc.dt) for n in (3, 4)]
    extra = sorted(runs[1])
    for name in runs[0]:
        extra.remove(name)
    return extra


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
PLANE_STEP_FRAMES = {
    "continuous": ["renorm_if_drifted", "renorm_if_drifted"],
    "benchmark": ["_shorter_path_sign", "renorm_if_drifted", "renorm_if_drifted"],
    "switching": ["renorm_if_drifted", "renorm_if_drifted", "update_sigma"],
}


@pytest.mark.parametrize("law", sorted(PLANE_STEP_FRAMES))
def test_plane_driver_step_frames(law):
    # on the yaw plane, from the stage-3 state, run_on_plane writes the law's
    # and the step's yaw rows itself: one step more opens the law's renorm
    # and sign rule and the step's renorm, and no controller, sample or step
    sc = make_ic_scenario(2.0, 150.0, law)
    y0 = stage3_initial_state(sc.maneuver)
    runs = [_frames(run_on_plane, y0, make_controller(sc), sc.dt, n * sc.dt) for n in (3, 4)]
    extra = sorted(runs[1])
    for name in runs[0]:
        extra.remove(name)
    assert extra == PLANE_STEP_FRAMES[law]


CERTIFICATE_FRAMES = {
    stability.lyapunov_value: ["lyapunov_value"],
    stability.lyapunov_rate: ["lyapunov_rate"],
    stability.lyapunov_decay_bound: ["lyapunov_decay_bound"],
    stability.roa_contains: ["roa_contains", "lyapunov_value"],
}


@pytest.mark.parametrize("fn", list(CERTIFICATE_FRAMES), ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("sigma", (+1, -1))
def test_certificate_frames(fn, sigma):
    err = ErrorState((0.5, 0.5, -0.5, 0.5), (1.0, -2.0, 3.0))
    assert _frames(fn, err, sigma, SWITCHING_GAINS) == CERTIFICATE_FRAMES[fn]


def test_switch_function_frames():
    err = ErrorState((0.5, 0.5, -0.5, 0.5), (1.0, -2.0, 3.0))
    assert _frames(switch_function, err, SWITCHING_GAINS) == ["switch_function"]
