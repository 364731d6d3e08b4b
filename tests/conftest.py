"""Shared pytest fixtures for the reproduction test suite."""

from __future__ import annotations

import pickle
import socket
import sys
import threading
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# Allow running the tests from a source checkout without installation.
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.training.records import TrainingCurve, TrainingResult


@dataclass
class TaggedResult(TrainingResult):
    """A real :class:`TrainingResult` for one task, told apart by ``tag``.

    Scripted broker peers deliver these: the broker refuses a ``RESULT``
    that is not a ``TrainingResult`` of the task's design, size and seed.
    """

    tag: str = ""


def tagged_result(task, tag: str) -> TaggedResult:
    """An empty trained-trial result for ``task``, labelled ``tag``."""
    return TaggedResult(design=task.design, n_hidden=task.n_hidden, solved=False,
                        episodes=0, episodes_to_solve=None, wall_time_seconds=0.0,
                        curve=TrainingCurve(), operation_counts={}, seed=task.seed,
                        tag=tag)


#: ``--hypothesis-profile ci-deep``: a deeper search for CI's serving
#: contract step.  It deepens every property test that does not pin its own
#: ``max_examples``; the tier-1 run keeps Hypothesis's default profile.
settings.register_profile("ci-deep", max_examples=500)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator shared by numerical tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_regression_data(rng):
    """A small smooth regression problem solvable by a single-hidden-layer network."""
    x = rng.uniform(-1.0, 1.0, size=(200, 3))
    y = (np.sin(x[:, 0]) + 0.5 * x[:, 1] ** 2 - 0.3 * x[:, 2]).reshape(-1, 1)
    return x, y


@pytest.fixture
def cartpole_env():
    from repro.envs import make

    return make("CartPole-v0", seed=0)


@pytest.fixture
def tiny_agent_config():
    from repro.core.agents import AgentConfig

    return AgentConfig(n_states=4, n_actions=2, n_hidden=16, seed=0)


@pytest.fixture
def stale_pickle():
    """``dump(wrap)`` pickles ``wrap(orphan)``, where ``orphan``'s class lives
    in a module that is gone by the time the blob is read — a blob saved by
    an older package whose module has since been deleted.  ``name`` is the
    orphan class's dotted path (``"repro.nn.network.MLP"`` names a class
    the package really had)."""
    def dump(wrap, name="repro_deleted_module.Orphan"):
        module_name, _, class_name = name.rpartition(".")
        module = types.ModuleType(module_name)
        orphan = type(class_name, (), {"__module__": module_name})
        setattr(module, class_name, orphan)
        sys.modules[module_name] = module
        try:
            return pickle.dumps(wrap(orphan()))
        finally:
            del sys.modules[module_name]
    return dump


class ScriptedPeer:
    """A loopback TCP peer running ``handler(connection)`` per accepted client.

    Stands in for a broker or policy server that misbehaves in one exact way
    (hangs up mid-handshake, answers HELLO with the wrong frame, ...).
    Connections are served one at a time; ``connections`` counts accepts so
    a test can assert how often a client dialled.
    """

    def __init__(self, handler):
        self._handler = handler
        self._server = socket.socket()
        self._server.bind(("127.0.0.1", 0))
        self._server.listen(8)
        self._server.settimeout(0.1)
        self.address = self._server.getsockname()[:2]
        self.connections = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                connection, _ = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self.connections += 1
            with connection:
                connection.settimeout(5.0)
                try:
                    self._handler(connection)
                except (ConnectionError, OSError):
                    pass

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._server.close()


@pytest.fixture
def scripted_peer():
    """Factory fixture: ``scripted_peer(handler)`` -> a running :class:`ScriptedPeer`."""
    peers = []

    def start(handler):
        peer = ScriptedPeer(handler)
        peers.append(peer)
        return peer

    yield start
    for peer in peers:
        peer.close()
