"""The per-thread scratch pool: filled in place, the same bits, one set per thread.

The controllers fill their noise draws, tracking corrections and penalty
terms in buffers from :func:`robust_mppi.sampling.scratch`, kept across steps.
These check that a noise plan drawn into ``out`` has the bits of a fresh
one (the penalty terms' properties sit with the others in
``test_costs.py``), that controllers of different sizes sharing the pool in
one thread do not see each other's numbers, and that stepped controllers do
not each keep buffers.
"""

import dataclasses
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from robust_mppi import harness, sampling
from robust_mppi.config import load_config
from robust_mppi.costs import penalty_step_terms
from robust_mppi.sampling import NoisePlan, scratch

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def garbage(shape):
    """A buffer whose stale contents would show if they leaked into a result."""
    return np.full(shape, np.nan)


def test_scratch_keeps_a_buffer_per_role_until_its_shape_changes():
    a = scratch("test_role", (3, 4))
    assert a.shape == (3, 4) and a.dtype == np.float64
    assert scratch("test_role", (3, 4)) is a
    assert scratch("test_other_role", (3, 4)) is not a
    b = scratch("test_role", (5,))
    assert b.shape == (5,) and b is not a
    assert scratch("test_role", (5,)) is b


def test_scratch_pool_is_per_thread():
    here = scratch("test_thread_role", (2, 2))
    there = []
    worker = threading.Thread(target=lambda: there.append(scratch("test_thread_role", (2, 2))))
    worker.start()
    worker.join()
    assert there[0] is not here


SIGMA_CHOLS = {
    "diagonal": np.diag([0.5, 2.0]),
    "full": np.linalg.cholesky(np.array([[1.0, 0.3], [0.3, 0.5]])),
}


@pytest.mark.parametrize("kind", sorted(SIGMA_CHOLS))
def test_noise_plan_filled_in_place_equals_a_fresh_plan(kind):
    chol = SIGMA_CHOLS[kind]
    fresh = NoisePlan.sample(11, 40, 7, chol)
    out = garbage((40, 7, 2))
    draws = NoisePlan.sample(11, 40, 7, chol, out=out)
    assert draws is out
    assert np.array_equal(draws, fresh)


def test_noise_plan_refuses_an_out_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"\(40, 7\).*\(40, 7, 1\)"):
        NoisePlan.sample(11, 40, 7, np.eye(1), out=np.empty((40, 7)))


def test_penalty_step_terms_refuses_buffers_of_the_wrong_shape():
    u, eps, sigma_inv = np.ones((4, 3, 1)), np.ones((4, 3, 1)), np.eye(1)
    with pytest.raises(ValueError, match=r"out has shape \(3, 4\), expected \(4, 3\)"):
        penalty_step_terms(u, eps, sigma_inv, out=np.empty((3, 4)))
    with pytest.raises(ValueError, match=r"work has shape \(2, 4, 3\), expected \(4, 3\)"):
        penalty_step_terms(u, eps, sigma_inv, work=np.empty((2, 4, 3)))


# Controllers of different sizes, so that every role of the pool changes
# shape each time the interleaved loop moves to the next controller.
CONTROLLERS = {
    "rmppi-64": ("di_stress_x100.ini", ["sampling.n_samples=64", "rmppi.nsp_samples=16"]),
    "rmppi-96-ilqg": (
        "pendulum_stress_x150.ini",
        ["sampling.n_samples=96", "rmppi.nsp_samples=24", "feedback.kind=ilqg"],
    ),
    "tube-48": ("di_wall_compare_x100.ini", ["experiment.controller=tube", "sampling.n_samples=48"]),
}


def build(config, overrides):
    cfg = load_config(str(CONFIGS / config), overrides)
    model = harness.build_model(cfg)
    controller = harness.build_controller(cfg, model, harness.build_cost(cfg, model))
    return controller, np.array(cfg.x0, dtype=float)


def flat_record(action, record):
    return [action] + [np.asarray(v) for v in dataclasses.astuple(record)]


@pytest.mark.parametrize("prefetch_bytes", [sampling._PREFETCH_BYTES, 0])
def test_interleaved_controllers_step_as_they_do_alone(monkeypatch, prefetch_bytes):
    # at 0 every controller's next draws are filled ahead, and each call of
    # the interleaved loop finds the draws of another controller in flight
    monkeypatch.setattr(sampling, "_PREFETCH_BYTES", prefetch_bytes)
    steps = 8
    solo = {}
    for name in CONTROLLERS:
        controller, x = build(*CONTROLLERS[name])
        solo[name] = []
        for _ in range(steps):
            action, record = controller.step(x)
            solo[name].append(flat_record(action, record))
            x = controller.model.step(x, action)

    running = {name: build(*CONTROLLERS[name]) for name in CONTROLLERS}
    for k in range(steps):
        for name, (controller, x) in running.items():
            action, record = controller.step(x)
            got = flat_record(action, record)
            assert all(
                np.array_equal(a, b, equal_nan=True) for a, b in zip(got, solo[name][k])
            ), (name, k)
            running[name] = (controller, controller.model.step(x, action))


def test_stepped_controllers_hold_one_set_of_pool_buffers():
    """Five live N=4096 controllers hold about one controller's worth of buffers.

    Run in a fresh thread, so the pool starts empty and its first fill is
    counted.  numpy reports its array memory to tracemalloc.
    """
    traced = []

    def run():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            alive = []
            for _ in range(5):
                # from x0 = (3, 0) no NSP candidate is feasible, so NSP rolls
                # out all of them and fills its grouped penalty terms
                controller, x = build(
                    "di_stress_x100.ini",
                    ["sampling.n_samples=4096", "rmppi.nsp_samples=512", "harness.x0=3, 0"],
                )
                # a nominal off the measured state, so the augmented batch
                # rolls out both copies and fills the correction buffers
                controller.x_star = x + np.array([0.1, 0.0])
                for _ in range(2):  # the second step runs the deferred NSP batch
                    action, _ = controller.step(x)
                    x = controller.model.step(x, action)
                alive.append(controller)
                traced.append(tracemalloc.get_traced_memory()[0] - base)
        finally:
            tracemalloc.stop()

    worker = threading.Thread(target=run)
    worker.start()
    worker.join()
    assert len(traced) == 5
    mib = 2**20
    # draws, corrections, two penalty buffers and the NSP batch's terms
    assert traced[0] > 4 * mib
    assert traced[-1] - traced[0] < 1 * mib
