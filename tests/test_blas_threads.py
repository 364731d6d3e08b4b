"""Fleet lanes run scipy's BLAS on one thread; the driving process keeps its own.

After a small ``cho_factor`` + ``cho_solve`` OpenBLAS's idle helper threads
busy-wait, stealing the core of a sibling worker, so every worker process
calls :func:`repro.parallel.pool.limit_blas_threads` first.  These tests
read scipy's live OpenBLAS count through
:func:`~repro.parallel.pool.blas_threads` and skip on a build without one.
"""

import multiprocessing as mp
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.distributed import SweepBroker, run_distributed_sweep
from repro.distributed.coordinator import _local_worker_main
from repro.parallel import pool
from repro.parallel.sweep import SweepSpec
from repro.training import TrainingConfig

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def openblas(monkeypatch):
    """Load scipy's OpenBLAS here (not at import: spawned probes import this
    module) and clear the variables a user would set to choose."""
    import scipy.linalg  # noqa: F401

    for var in pool._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    if pool.blas_threads() is None:
        pytest.skip("scipy's BLAS exposes no *_get_num_threads symbol")


def _tasks(n_seeds=1):
    return SweepSpec(designs=("OS-ELM-L2-Lipschitz",), n_seeds=n_seeds,
                     n_hidden=16, training=TrainingConfig(max_episodes=3),
                     root_seed=7).tasks()


def _worker_then_report(host, port, queue):
    """Serve a broker through the fleet's worker entry point, then report."""
    loaded_before = "scipy.linalg" in sys.modules
    _local_worker_main(host, port, "probe", 2.0)
    queue.put((loaded_before, pool.blas_threads()))


def _limit_then_report(queue):
    pool.limit_blas_threads()
    import scipy.linalg  # noqa: F401 - the lazy import a first training makes

    queue.put(pool.blas_threads())


def _lane_blas_threads(_):
    return pool.blas_threads(), _thread_env()


def _thread_env():
    return {var: os.environ.get(var) for var in pool._BLAS_THREAD_VARS}


def test_spawned_worker_trains_on_one_thread():
    broker = SweepBroker(_tasks())
    broker.start()
    ctx = mp.get_context("spawn")
    queue = ctx.Queue()
    worker = ctx.Process(target=_worker_then_report,
                         args=(*broker.address, queue), daemon=True)
    worker.start()
    try:
        assert broker.join(timeout=60.0), "sweep did not drain"
        assert broker.results()[0][0].curve is not None
    finally:
        broker.close()
    try:
        # scipy loads after the entry point, as the first training's import
        assert queue.get(timeout=30.0) == (False, 1)
        worker.join(timeout=10.0)
        assert worker.exitcode == 0
    finally:
        if worker.is_alive():
            worker.kill()


def test_forked_pool_worker_limits_loaded_openblas():
    before = pool.blas_threads()
    lanes = pool.parallel_map(_lane_blas_threads, [0, 1], max_workers=2)
    # Only OpenBLAS is limited; an OpenMP or MKL runtime keeps its default.
    limited = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
               "MKL_NUM_THREADS": None}
    assert lanes == [(1, limited), (1, limited)]
    assert pool.blas_threads() == before


def test_explicit_user_count_wins(monkeypatch):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS caps its thread count at the CPU count")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    ctx = mp.get_context("spawn")
    queue = ctx.Queue()
    process = ctx.Process(target=_limit_then_report, args=(queue,), daemon=True)
    process.start()
    try:
        assert queue.get(timeout=30.0) == 2
        process.join(timeout=10.0)
        assert process.exitcode == 0
    finally:
        if process.is_alive():
            process.kill()


def test_driving_process_keeps_its_threads(capfd):
    before, env = pool.blas_threads(), _thread_env()
    results = run_distributed_sweep(_tasks(n_seeds=2), n_workers=1,
                                    timeout=60.0)
    assert len(results) == 2
    assert pool.blas_threads() == before
    assert _thread_env() == env
    exiting = [line for line in capfd.readouterr().err.splitlines()
               if "worker exiting" in line]
    assert exiting and all("blas_threads=1" in line for line in exiting)


def test_repro_worker_command_runs_on_one_thread():
    broker = SweepBroker(_tasks())
    broker.start()
    host, port = broker.address
    worker = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--connect",
         f"{host}:{port}", "--no-reconnect"],
        stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": SRC})
    try:
        assert broker.join(timeout=60.0), "sweep did not drain"
        broker.close()
        _, err = worker.communicate(timeout=30.0)
    finally:
        broker.close()
        if worker.poll() is None:
            worker.kill()
            worker.communicate()
    assert worker.returncode == 0, err
    exiting = [line for line in err.splitlines() if "worker exiting" in line]
    assert exiting and "blas_threads=1" in exiting[0]
