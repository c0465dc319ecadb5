"""The per-step frame budget: the Python frames that one stage-3 control
step and one integration step open, counted as ``call`` events of
``sys.setprofile``.

Frames, not arithmetic, are most of what a closed-loop step costs, so a
refactor that puts a layer back on the per-step path (a helper the law calls,
a per-step wrapper in ``simulate``) fails here and not only in the
benchmark.  A stage-3 control step is the controller's ``__call__``,
``ManeuverTracker.sample``, the bound law and ``renorm_if_drifted``, plus the
sigma rule of the benchmark and switching laws; an integration step is the
RK4 step, its four derivative calls and ``renorm_if_drifted``.
"""

import sys

import pytest

from attswitch.harness import make_controller, make_ic_scenario
from attswitch.reference import stage3_initial_state
from attswitch.rigid_body import simulate


def _frames(fn, *args):
    """Names of the Python frames that ``fn(*args)`` opens, itself first."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return names


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


def test_simulate_step_frames():
    # one step more opens the controller's one frame and six of simulate's
    sc = make_ic_scenario(2.0, 150.0, "continuous")
    y0 = stage3_initial_state(sc.maneuver)

    def controller(t, y):
        return (0.0, 0.0, 0.0), ()

    runs = [_frames(simulate, y0, controller, sc.inertia, sc.dt, n * sc.dt) for n in (3, 4)]
    extra = sorted(runs[1])
    for name in runs[0]:
        extra.remove(name)
    assert extra == ["controller", "derivative", "derivative", "derivative", "derivative",
                     "renorm_if_drifted", "step"]
