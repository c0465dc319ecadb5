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

The per-state certificates are held to the same rule: each of
``lyapunov_value``, ``lyapunov_rate``, ``lyapunov_decay_bound`` and
``switch_function`` is one frame, and ``roa_contains`` two, itself and the
``lyapunov_value`` that gives V its one form.
"""

import sys

import pytest

from attswitch import stability
from attswitch.controllers import ErrorState, switch_function
from attswitch.harness import SWITCHING_GAINS, make_controller, make_ic_scenario
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
