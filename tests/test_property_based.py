"""Property-based tests (hypothesis) on the core numerical invariants."""

import socket
import struct
import threading
import time
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.clipping import q_learning_target, shaped_cartpole_reward
from repro.core.designs import DESIGN_NAMES, make_design
from repro.core.elm import ELM
from repro.core.os_elm import OSELM
from repro.core.qfunction import QFunction
from repro.core.regularization import RegularizationConfig
from repro.distributed import protocol
from repro.distributed.broker import SweepBroker
from repro.envs.registry import registry as env_registry
from repro.fpga.accelerator import FPGAAcceleratedOSELM
from repro.fixedpoint.qformat import Q20, QFormat
from repro.linalg.incremental import sherman_morrison_update
from repro.linalg.spectral import spectral_norm, spectral_normalize
from repro.parallel.sweep import (
    SweepSpec,
    SweepTask,
    _lockstep_groups,
    execute_tasks,
    lockstep_key,
)
from repro.serving import PolicyClient, PolicyServer
from repro.training import Trainer, TrainingConfig, supports_lockstep
from repro.utils.metrics import MovingAverage, RunningStats

from conftest import tagged_result

# Keep hypothesis fast and deterministic for CI-style runs.
_SETTINGS = settings(max_examples=50, deadline=None)

finite_floats = st.floats(min_value=-100.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False)


class TestFixedPointProperties:
    @_SETTINGS
    @given(value=st.floats(min_value=-2000.0, max_value=2000.0,
                           allow_nan=False, allow_infinity=False))
    def test_quantization_error_within_half_lsb(self, value):
        assert abs(Q20.quantize(value) - value) <= Q20.scale / 2 + 1e-12

    @_SETTINGS
    @given(value=finite_floats)
    def test_quantization_idempotent(self, value):
        once = Q20.quantize(value)
        assert Q20.quantize(once) == once

    @_SETTINGS
    @given(value=finite_floats, frac_bits=st.integers(min_value=4, max_value=20))
    def test_more_fractional_bits_never_worse(self, value, frac_bits):
        # frac_bits is capped at 20 so the finer format still represents +-100
        # without saturating (saturation would make "finer" worse at the range edge).
        coarse = QFormat(32, frac_bits)
        fine = QFormat(32, frac_bits + 4)
        assert abs(fine.quantize(value) - value) <= abs(coarse.quantize(value) - value) + 1e-15

    @_SETTINGS
    @given(a=finite_floats, b=finite_floats)
    def test_quantized_addition_commutes(self, a, b):
        qa, qb = Q20.quantize(a), Q20.quantize(b)
        assert Q20.quantize(qa + qb) == Q20.quantize(qb + qa)


class TestClippingProperties:
    @_SETTINGS
    @given(reward=st.floats(min_value=-1.0, max_value=1.0),
           done=st.booleans(),
           max_next=st.floats(min_value=-1e6, max_value=1e6),
           gamma=st.floats(min_value=0.0, max_value=1.0))
    def test_clipped_target_always_in_range(self, reward, done, max_next, gamma):
        target = q_learning_target(reward, done, max_next, gamma=gamma, clip=True)
        assert -1.0 <= target <= 1.0

    @_SETTINGS
    @given(terminated=st.booleans(), truncated=st.booleans(),
           step=st.integers(min_value=1, max_value=100_000))
    def test_shaped_reward_in_range(self, terminated, truncated, step):
        assert shaped_cartpole_reward(terminated, truncated, step) in (-1.0, 0.0, 1.0)

    @_SETTINGS
    @given(reward=st.floats(min_value=-0.5, max_value=0.5),
           max_next=st.floats(min_value=-0.4, max_value=0.4))
    def test_unclipped_values_pass_through(self, reward, max_next):
        target = q_learning_target(reward, False, max_next, gamma=0.5, clip=True)
        assert target == pytest.approx(reward + 0.5 * max_next)


class TestSpectralProperties:
    @_SETTINGS
    @given(matrix=hnp.arrays(np.float64, shape=st.tuples(st.integers(2, 8), st.integers(2, 8)),
                             elements=st.floats(min_value=-5, max_value=5,
                                                allow_nan=False, allow_infinity=False)))
    def test_normalized_spectral_norm_at_most_one(self, matrix):
        normalized, sigma = spectral_normalize(matrix, target=1.0)
        if sigma > 1e-9:
            assert spectral_norm(normalized) <= 1.0 + 1e-9

    @_SETTINGS
    @given(matrix=hnp.arrays(np.float64, shape=(4, 6),
                             elements=st.floats(min_value=-3, max_value=3,
                                                allow_nan=False, allow_infinity=False)),
           scale=st.floats(min_value=0.1, max_value=10.0))
    def test_spectral_norm_is_absolutely_homogeneous(self, matrix, scale):
        assert spectral_norm(scale * matrix) == pytest.approx(scale * spectral_norm(matrix),
                                                              rel=1e-9, abs=1e-9)

    @_SETTINGS
    @given(matrix=hnp.arrays(np.float64, shape=(5, 5),
                             elements=st.floats(min_value=-3, max_value=3,
                                                allow_nan=False, allow_infinity=False)))
    def test_spectral_norm_bounded_by_frobenius(self, matrix):
        assert spectral_norm(matrix) <= np.linalg.norm(matrix) + 1e-9


class TestRecursiveUpdateProperties:
    @_SETTINGS
    @given(rows=st.integers(min_value=5, max_value=20), seed=st.integers(0, 1000))
    def test_p_stays_symmetric_positive_definite_with_ridge(self, rows, seed):
        """With the ReOS-ELM ridge initialisation, P remains SPD through rank-1 updates."""
        rng = np.random.default_rng(seed)
        n = 4
        h0 = rng.normal(size=(6, n))
        p = np.linalg.inv(h0.T @ h0 + 0.5 * np.eye(n))
        for _ in range(rows):
            p = sherman_morrison_update(p, rng.normal(size=n))
        assert np.allclose(p, p.T, atol=1e-8)
        assert np.all(np.linalg.eigvalsh((p + p.T) / 2) > 0)

    @_SETTINGS
    @given(seed=st.integers(0, 500), n_updates=st.integers(1, 30))
    def test_oselm_matches_batch_solution(self, seed, n_updates):
        """Invariant: sequential training equals batch ridge regression (Eqs 5-8)."""
        rng = np.random.default_rng(seed)
        n_in, n_hidden = 3, 8
        total = n_hidden + n_updates
        x = rng.uniform(-1, 1, size=(total, n_in))
        y = rng.uniform(-1, 1, size=(total, 1))
        model = OSELM(n_in, n_hidden, 1, regularization=RegularizationConfig.l2(0.7),
                      seed=seed)
        model.init_train(x[:n_hidden], y[:n_hidden])
        for i in range(n_hidden, total):
            model.seq_train_step(x[i], float(y[i, 0]))
        h = model.hidden(x)
        expected = np.linalg.solve(h.T @ h + 0.7 * np.eye(n_hidden), h.T @ y)
        np.testing.assert_allclose(model.beta, expected, atol=1e-6)


_MODELS = {"ELM": ELM, "OS-ELM": OSELM, "FPGA": FPGAAcceleratedOSELM}

states_4 = hnp.arrays(np.float64, 4, elements=st.floats(min_value=-3.0, max_value=3.0,
                                                        allow_nan=False, allow_infinity=False))


def _fitted_qfunction(kind, seed):
    """A trained Q-function over a fresh model of ``kind`` (5 inputs, 16 hidden)."""
    rng = np.random.default_rng(seed)
    model = _MODELS[kind](5, 16, 1, regularization=RegularizationConfig.l2(0.5), seed=seed)
    qf = QFunction(model, n_states=4, n_actions=2)
    qf.fit_batch(rng.uniform(-1, 1, size=(24, 4)), rng.integers(0, 2, size=24),
                 rng.uniform(-1, 1, size=24))
    return qf


class TestTrustedPathEqualsPublicPath:
    """The Q-function's trusted row path and the models' validating public
    methods compute the same bits."""

    @_SETTINGS
    @given(kind=st.sampled_from(sorted(_MODELS)), seed=st.integers(0, 200),
           states=st.lists(states_4, min_size=1, max_size=4))
    def test_q_values_equal_model_predict(self, kind, seed, states):
        qf = _fitted_qfunction(kind, seed)
        for state in states:
            expected = qf.model.predict(qf.encode_all_actions(state)[0]).reshape(-1)
            np.testing.assert_array_equal(qf.q_values(state), expected)
        # A batch is evaluated one state's block at a time (its rows are
        # bit for bit the single-state ones), so the public reference is
        # predict on each state's block.
        batch = np.stack(states)
        expected = np.stack([qf.model.predict(block).reshape(-1)
                             for block in qf.encode_all_actions(batch)])
        np.testing.assert_array_equal(qf.q_values(batch), expected)

    @_SETTINGS
    @given(kind=st.sampled_from(["OS-ELM", "FPGA"]), seed=st.integers(0, 200),
           state=states_4, action=st.integers(0, 1),
           target=st.floats(min_value=-1.0, max_value=1.0))
    def test_update_equals_partial_fit(self, kind, seed, state, action, target):
        trusted, public = _fitted_qfunction(kind, seed), _fitted_qfunction(kind, seed)
        trusted.update(state, action, target)
        public.model.partial_fit(public.encode(state, action)[None, :], [[target]])
        np.testing.assert_array_equal(trusted.model.beta, public.model.beta)
        np.testing.assert_array_equal(trusted.model.p_matrix, public.model.p_matrix)


#: Batched (OS-ELM-L2-Lipschitz, ELM) and generic (OS-ELM) designs.
_EXECUTOR_GRID = SweepSpec(designs=("OS-ELM-L2-Lipschitz", "OS-ELM", "ELM"),
                           n_seeds=2, n_hidden=8,
                           training=TrainingConfig(max_episodes=4),
                           root_seed=17).tasks()


def _trial_bits(result):
    """Everything a trial's outcome is compared on, floats by their bits."""
    curve = [(r.episode, r.steps, float(r.shaped_return).hex(),
              float(r.moving_average).hex(), repr(r.lipschitz_bound),
              repr(r.beta_norm)) for r in result.curve.records]
    return curve, dict(result.operation_counts), result.weight_resets


_SERIAL_BITS = {}


def _serial_bits(position):
    if position not in _SERIAL_BITS:
        task = _EXECUTOR_GRID[position]
        _SERIAL_BITS[position] = _trial_bits(Trainer().fit(
            task.make_agent(), config=task.training, n_hidden=task.n_hidden))
    return _SERIAL_BITS[position]


class TestExecutorContract:
    """However a grid is split between ``execute_tasks`` calls (pool jobs,
    worker leases), every trial replays serial ``Trainer.fit``."""

    @settings(max_examples=15, deadline=None)
    @given(order=st.permutations(range(len(_EXECUTOR_GRID))),
           chunk_of=st.lists(st.integers(0, 3), min_size=len(_EXECUTOR_GRID),
                             max_size=len(_EXECUTOR_GRID)))
    def test_any_chunking_equals_serial_fit(self, order, chunk_of):
        chunks = {}
        for position in order:
            chunks.setdefault(chunk_of[position], []).append(position)
        seen = []
        for positions in chunks.values():
            chunk = [_EXECUTOR_GRID[position] for position in positions]
            for group in execute_tasks(chunk):
                for index, result, _agent in group:
                    seen.append(positions[index])
                    assert _trial_bits(result) == _serial_bits(positions[index])
        assert sorted(seen) == list(range(len(_EXECUTOR_GRID)))


_TASK_CELLS = st.tuples(st.sampled_from(DESIGN_NAMES),
                        st.sampled_from(sorted(env_registry)),
                        st.sampled_from((4, 8, 16)))


def _cell_task(design, env_id, n_hidden, seed=0):
    return SweepTask(design=design, env_id=env_id, n_hidden=n_hidden,
                     gamma=0.99, seed=seed, trial=seed,
                     training=TrainingConfig(max_episodes=1, env_id=env_id,
                                             seed=seed))


class TestLockstepKeyContract:
    """The broker leases by ``lockstep_key`` without building agents, so the
    key must agree with the agent-level predicate and with the groups the
    executor trains."""

    @_SETTINGS
    @given(cell=_TASK_CELLS)
    def test_key_agrees_with_supports_lockstep(self, cell):
        task = _cell_task(*cell)
        assert (lockstep_key(task) is not None) == supports_lockstep(
            task.make_agent())

    @settings(max_examples=25, deadline=None)
    @given(cells=st.lists(_TASK_CELLS, min_size=1, max_size=8))
    def test_groups_partition_tasks_by_key(self, cells):
        tasks = [_cell_task(*cell, seed=i) for i, cell in enumerate(cells)]
        expected = defaultdict(list)
        for position, task in enumerate(tasks):
            expected[(task.env_id, lockstep_key(task))].append(position)
        groups = _lockstep_groups(tasks)
        assert [[position for position, _ in group] for _, group in groups] == list(
            expected.values())
        assert [strategy for strategy, _ in groups] == [
            "generic" if key is None else "batched" for _env, key in expected]


class TestMetricProperties:
    @_SETTINGS
    @given(values=st.lists(finite_floats, min_size=1, max_size=50),
           window=st.integers(min_value=1, max_value=10))
    def test_moving_average_matches_tail_mean(self, values, window):
        avg = MovingAverage(window)
        for value in values:
            avg.add(value)
        expected = float(np.mean(values[-window:]))
        assert avg.value == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @_SETTINGS
    @given(values=st.lists(finite_floats, min_size=2, max_size=100))
    def test_running_stats_match_numpy(self, values):
        stats = RunningStats()
        stats.extend(values)
        assert stats.mean == pytest.approx(float(np.mean(values)), rel=1e-9, abs=1e-9)
        assert stats.variance == pytest.approx(float(np.var(values)), rel=1e-6, abs=1e-9)


#: Arbitrary bytes, plus bytes behind a well-formed length header so the
#: payload decoder is exercised and not only the header check.
wire_bytes = st.one_of(
    st.binary(max_size=512),
    st.binary(max_size=512).map(lambda body: struct.pack(">Q", len(body)) + body),
)


#: Frames of the shapes the serving and sweep traffic carries.
messages = st.lists(
    st.tuples(st.text(max_size=8),
              st.one_of(st.none(), st.integers(), st.text(max_size=32),
                        st.binary(max_size=600))),
    min_size=1, max_size=8)


@pytest.fixture(scope="module")
def live_server():
    agent = make_design("OS-ELM", n_hidden=8, seed=3)
    with PolicyServer({"OS-ELM": agent}, max_frame_bytes=4096) as server:
        yield server, agent


class TestFramingProperties:
    @_SETTINGS
    @given(sent=messages, data=st.data())
    def test_any_chunking_reads_what_recv_message_reads(self, sent, data):
        stream = b"".join(protocol.encode_frame(kind, payload)
                          for kind, payload in sent)
        writer, reader = socket.socketpair()
        try:
            writer.sendall(stream)
            blocking = [protocol.recv_message(reader) for _ in sent]
        finally:
            writer.close()
            reader.close()
        cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)),
                                         max_size=6)))
        buffer, incremental = bytearray(), []
        for start, end in zip([0] + cuts, cuts + [len(stream)]):
            buffer += stream[start:end]
            incremental.extend(protocol.read_frames(buffer,
                                                    max_frame_bytes=4096))
        assert incremental == blocking == sent
        assert not buffer

    @settings(max_examples=25, deadline=None)
    @given(data=wire_bytes)
    def test_policy_server_survives_arbitrary_bytes(self, live_server, data):
        server, agent = live_server
        sock = socket.create_connection(server.address, timeout=5.0)
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            while True:  # ERROR replies until the server drops the peer
                try:
                    kind, _reason = protocol.recv_message(sock)
                except ConnectionError:
                    break
                assert kind == protocol.ERROR
        finally:
            sock.close()
        state = np.array([0.1, -0.2, 0.03, 0.4])
        with PolicyClient(*server.address, timeout=5.0) as client:
            assert client.act(state) == agent.act(state, explore=False)

    @_SETTINGS
    @given(data=wire_bytes)
    def test_recv_message_raises_only_connection_errors(self, data):
        writer, reader = socket.socketpair()
        try:
            writer.sendall(data)
            writer.close()
            try:
                kind, _payload = protocol.recv_message(reader,
                                                       max_frame_bytes=4096)
            except (protocol.ProtocolError, ConnectionError):
                return
            assert isinstance(kind, str)
        finally:
            reader.close()


#: Frames a client could send a broker: every kind it knows and others,
#: with payloads of the shapes sweep traffic carries and near misses.
broker_frames = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([protocol.HELLO, protocol.GET,
                                   protocol.RESULT, protocol.HEARTBEAT,
                                   protocol.STATS, protocol.DRAIN]),
                  st.text(max_size=8)),
        st.one_of(st.none(), st.booleans(), st.integers(-2, 4),
                  st.text(max_size=8), st.binary(max_size=64),
                  st.lists(st.text(max_size=8), max_size=3),
                  st.tuples(st.integers(-1, 3), st.text(max_size=4),
                            st.text(max_size=4)),
                  st.fixed_dictionaries({"id": st.text(max_size=8),
                                         "wire": st.integers(0, 5)}))),
    max_size=6)


def _fuzz_broker(broker, frames, raw, handshake):
    """Send ``frames`` then ``raw`` bytes, half-close, and read every reply
    until the broker drops the connection."""
    sock = socket.create_connection(broker.address, timeout=5.0)
    try:
        if handshake:
            protocol.send_message(sock, protocol.HELLO,
                                  {"id": "fuzz", "wire": protocol.WIRE_VERSION})
            assert protocol.recv_message(sock)[0] == protocol.WELCOME
        try:
            sock.sendall(b"".join(protocol.encode_frame(kind, payload)
                                  for kind, payload in frames) + raw)
            sock.shutdown(socket.SHUT_WR)
        except OSError:   # the broker has already dropped the connection
            pass
        while True:   # a socket.timeout here would mean a stuck broker
            try:
                kind, _payload = protocol.recv_message(sock)
            except (protocol.ProtocolError, ConnectionError):
                return
            assert kind in {protocol.WELCOME, protocol.TASKS, protocol.WAIT,
                            protocol.SHUTDOWN, protocol.ACK, protocol.STATS,
                            protocol.DRAIN, protocol.ERROR}
    finally:
        sock.close()


class TestBrokerReader:
    @settings(max_examples=25, deadline=None)
    @given(frames=broker_frames, raw=st.one_of(st.just(b""), wire_bytes),
           handshake=st.booleans())
    def test_live_broker_survives_arbitrary_frames(self, frames, raw,
                                                   handshake):
        """Whatever a peer sends, in place of HELLO or after it, costs the
        broker that connection at most: no connection thread dies, and a
        worker on a second connection still leases and delivers."""
        tasks = SweepSpec(designs=("OS-ELM-L2",), n_seeds=2, n_hidden=8,
                          training=TrainingConfig(max_episodes=3),
                          root_seed=99).tasks()
        crashes = []
        previous_hook = threading.excepthook
        threading.excepthook = crashes.append
        try:
            with SweepBroker(tasks, max_frame_bytes=4096) as broker:
                _fuzz_broker(broker, frames, raw, handshake)
                sock, _info = protocol.dial(*broker.address, "steady",
                                            role="broker", timeout=5.0)
                with sock:
                    while True:
                        protocol.send_message(sock, protocol.GET, 8)
                        kind, payload = protocol.recv_message(sock)
                        if kind == protocol.WAIT:   # fuzz leases requeueing
                            time.sleep(payload)
                            continue
                        if kind == protocol.SHUTDOWN:  # fuzz delivered all
                            assert broker.completed_count == len(tasks)
                            break
                        assert kind == protocol.TASKS
                        for index, _task in payload:
                            protocol.send_message(
                                sock, protocol.RESULT,
                                (index, tagged_result(tasks[index], "result"),
                                 "distributed"))
                            assert protocol.recv_message(sock)[0] == protocol.ACK
                        break
        finally:
            threading.excepthook = previous_hook
        assert crashes == []
