"""Draws filled ahead on the worker thread: the same bits, one worker, no thread when small.

:func:`robust_mppi.sampling.step_draws` hands out one step's draws and, for a
buffer of at least ``_PREFETCH_BYTES``, fills the next step's on the one
worker thread of a ``ThreadPoolExecutor``.  These check that any sequence
of calls returns the bits of fresh :meth:`NoisePlan.sample` draws per
stream, that the worker never writes a buffer a caller still holds, that
paper-size controllers stay on the synchronous path, that many large
controllers share one worker, and that a process which filled ahead exits
cleanly, also when a caller thread outlives the main one.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robust_mppi
from robust_mppi import harness, sampling
from robust_mppi.config import load_config
from robust_mppi.costs import CostFunction
from robust_mppi.sampling import STREAM_NSP, STREAM_ROLLOUT, NoisePlan, derive_seed, step_draws

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
WORKER_NAME = "robust-mppi-draws"


def make_cost(sigma):
    return CostFunction(
        state_cost=lambda x: np.zeros(x.shape[:-1]),
        terminal_cost=lambda x: np.zeros(x.shape[:-1]),
        sigma=sigma,
        lam=1.0,
    )


# A scalar, a diagonal and a full covariance: two control sizes and both
# ways :func:`NoisePlan.sample` scales its normals.
COSTS = (
    make_cost(np.eye(1) * 0.25),
    make_cost(np.diag([0.5, 2.0])),
    make_cost(np.array([[1.0, 0.3], [0.3, 0.5]])),
)
LAYOUTS = (
    ((STREAM_ROLLOUT, 5),),
    ((STREAM_NSP, 3), (STREAM_ROLLOUT, 5)),
    ((STREAM_NSP, 2), (STREAM_ROLLOUT, 7)),
)

# One call: (step advance, seed, layout, horizon, cost).  Mostly the next
# step of the same draws, which takes the buffer filled ahead; otherwise a
# skipped or repeated step, or another seed, layout, horizon or cost.
CALLS = st.tuples(
    st.sampled_from((1, 1, 1, 1, 0, 2, -1)),
    st.sampled_from((3, 3, 3, 8)),
    st.sampled_from((0, 0, 0, 1, 2)),
    st.sampled_from((4, 4, 4, 6)),
    st.sampled_from((1, 1, 1, 0, 2)),
)


def fresh_draws(seed, step, layout, horizon, cost):
    return np.concatenate([
        NoisePlan.sample(derive_seed(seed, step, stream), rows, horizon, cost.sigma_chol)
        for stream, rows in layout
    ])


def settle():
    """Wait for the fill in flight, if any, so that a stray write would show."""
    pending = sampling._POOL.pending
    if pending is not None:
        future = pending[-1]
        future.exception(timeout=10)  # returns once the fill is done, whatever it raised


def draws_workers():
    return [t for t in threading.enumerate() if t.name.startswith(WORKER_NAME)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(CALLS, min_size=1, max_size=12))
def test_draws_filled_ahead_equal_fresh_draws_and_leave_the_held_buffer_alone(calls):
    with mock.patch.object(sampling, "_PREFETCH_BYTES", 0):
        step, held = 20, None
        for advance, seed, layout, horizon, cost in calls:
            step += advance
            if held is not None:
                settle()
                buf, expected = held
                assert np.array_equal(buf, expected)
            args = (seed, step, LAYOUTS[layout], horizon, COSTS[cost])
            got = step_draws(*args)
            expected = fresh_draws(*args)
            assert np.array_equal(got, expected)
            held = got, expected
        settle()
        assert np.array_equal(*held)
    assert len(draws_workers()) <= 1


def test_caller_threads_sharing_the_worker_each_get_their_own_draws():
    """More caller threads than cores, each with its own pool, fill ahead through one worker.

    A short switch interval makes the threads trade the GIL often; a fill
    written into another thread's buffer, or into a buffer its caller still
    holds, would show as a wrong draw.
    """
    wrong = []

    def caller(seed):
        held = None
        for step in range(40):
            layout = LAYOUTS[0] if step % 9 == 8 else LAYOUTS[1]
            args = (seed, step, layout, 4, COSTS[1])
            if held is not None and not np.array_equal(*held):
                wrong.append((seed, step - 1))
            got = step_draws(*args)
            if not np.array_equal(got, expected := fresh_draws(*args)):
                wrong.append((seed, step))
            held = got, expected

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(sampling, "_PREFETCH_BYTES", 0):
            threads = [threading.Thread(target=caller, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(draws_workers()) == 1


def test_a_fill_that_fails_on_the_worker_raises_on_the_next_call():
    """Whatever that call asks for, and the call after it draws again."""
    real_fill = sampling._fill

    def failing_on_the_worker(rng, sigma_chol, out):
        if threading.current_thread().name.startswith(WORKER_NAME):
            raise MemoryError("no room for the draws")
        return real_fill(rng, sigma_chol, out)

    args = (3, 0, LAYOUTS[1], 4, COSTS[1])
    with mock.patch.object(sampling, "_PREFETCH_BYTES", 0):
        with mock.patch.object(sampling, "_fill", failing_on_the_worker):
            step_draws(*args)
            with pytest.raises(MemoryError, match="no room for the draws"):
                step_draws(3, 7, LAYOUTS[0], 4, COSTS[1])
        assert np.array_equal(step_draws(*args), fresh_draws(*args))
        settle()

def build(config, overrides):
    cfg = load_config(str(CONFIGS / config), overrides)
    model = harness.build_model(cfg)
    controller = harness.build_controller(cfg, model, harness.build_cost(cfg, model))
    return controller, np.array(cfg.x0, dtype=float)


def test_ten_large_controllers_stepped_in_turn_share_one_worker():
    large = ["sampling.n_samples=4096", "rmppi.nsp_samples=512"]
    running = [build("di_stress_x100.ini", large + [f"experiment.seed={k}"]) for k in range(10)]
    for _ in range(2):
        for k, (controller, x) in enumerate(running):
            action, _ = controller.step(x)
            running[k] = controller, controller.model.step(x, action)
    assert len(draws_workers()) == 1


PAPER_SIZE = """
import sys, threading
import numpy as np
from robust_mppi import harness
from robust_mppi.config import load_config
cfg = load_config(sys.argv[1], ["feedback.kind=ilqg"])
model = harness.build_model(cfg)
controller = harness.build_controller(cfg, model, harness.build_cost(cfg, model))
x = np.array(cfg.x0, dtype=float)
for _ in range(3):
    action, _ = controller.step(x)
    x = model.step(x, action)
print(threading.active_count(), "queue" in sys.modules)
"""


def test_paper_size_controller_starts_no_thread_and_imports_no_queue():
    """Run in a fresh process, where no earlier test has started the worker."""
    import_root = str(Path(robust_mppi.__file__).parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [import_root, inherited]))}
    proc = subprocess.run(
        [sys.executable, "-c", PAPER_SIZE, str(CONFIGS / "pendulum_stress_x150.ini")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False"]


FORKED = """
import os, signal, sys, time
import numpy as np
from robust_mppi import sampling
from robust_mppi.costs import CostFunction
from robust_mppi.sampling import STREAM_ROLLOUT, NoisePlan, derive_seed, step_draws
sampling._PREFETCH_BYTES = 0
zero = lambda x: np.zeros(x.shape[:-1])
cost = CostFunction(state_cost=zero, terminal_cost=zero, sigma=np.eye(1), lam=1.0)
layout = ((STREAM_ROLLOUT, 64),)
step_draws(5, 0, layout, 8, cost)  # starts the worker and fills step 1 ahead
pid = os.fork()
if pid == 0:
    ok = all(
        np.array_equal(
            step_draws(5, step, layout, 8, cost),
            NoisePlan.sample(derive_seed(5, step, STREAM_ROLLOUT), 64, 8, cost.sigma_chol),
        )
        for step in (1, 2, 3)
    )
    os._exit(0 if ok else 1)
deadline = time.monotonic() + 20
while not (done := os.waitpid(pid, os.WNOHANG))[0]:
    if time.monotonic() > deadline:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        sys.exit("the child hung")
    time.sleep(0.01)
sys.exit(os.waitstatus_to_exitcode(done[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_fills_its_draws_without_the_parents_worker():
    """A child has no worker thread, so it draws on its own until it starts one."""
    import_root = str(Path(robust_mppi.__file__).parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [import_root, inherited]))}
    proc = subprocess.run(
        [sys.executable, "-c", FORKED], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def child_env():
    """This environment, with the package under test first on the import path."""
    import_root = str(Path(robust_mppi.__file__).parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [import_root, inherited]))}


LARGE_RUN = """
import sys
import numpy as np
from robust_mppi import harness, sampling
from robust_mppi.config import load_config
cfg = load_config(sys.argv[1], ["sampling.n_samples=4096", "rmppi.nsp_samples=512"])
model = harness.build_model(cfg)
controller = harness.build_controller(cfg, model, harness.build_cost(cfg, model))
x = np.array(cfg.x0, dtype=float)
for _ in range(5):
    action, _ = controller.step(x)
    x = model.step(x, action)
print(sampling._POOL.pending is not None)
"""


def test_a_process_that_filled_ahead_exits_promptly_and_cleanly():
    """Exit joins the worker, which may still be filling the sixth step's draws."""
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", LARGE_RUN,
         str(CONFIGS / "di_stress_x100.ini")],
        capture_output=True, text=True, env=child_env(), timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.split() == ["True"]


OUTLIVES_MAIN = """
import threading, time
import numpy as np
from robust_mppi import sampling
from robust_mppi.costs import CostFunction
from robust_mppi.sampling import STREAM_ROLLOUT, NoisePlan, derive_seed, step_draws
sampling._PREFETCH_BYTES = 0
zero = lambda x: np.zeros(x.shape[:-1])
cost = CostFunction(state_cost=zero, terminal_cost=zero, sigma=np.eye(1), lam=1.0)
layout = ((STREAM_ROLLOUT, 64),)
step_draws(5, 0, layout, 8, cost)  # starts the worker and fills step 1 ahead

def late():
    time.sleep(0.2)  # the main thread has returned, and exit has shut the worker down
    ok = all(
        np.array_equal(
            step_draws(5, step, layout, 8, cost),
            NoisePlan.sample(derive_seed(5, step, STREAM_ROLLOUT), 64, 8, cost.sigma_chol),
        )
        for step in range(1, 6)
    )
    print(ok)

threading.Thread(target=late).start()
"""


def test_a_caller_thread_that_outlives_the_main_one_draws_its_own_steps():
    proc = subprocess.run(
        [sys.executable, "-c", OUTLIVES_MAIN],
        capture_output=True, text=True, env=child_env(), timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.split() == ["True"]
