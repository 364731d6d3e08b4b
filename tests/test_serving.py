"""Tests of the serving stack: tick semantics, protocol edge cases, byte-identity.

Protocol edge cases drive :class:`~repro.serving.server.PolicyServer` with
raw scripted sockets in the style of ``test_distributed_broker.py`` —
malformed frames, oversized frames, disconnects mid-batch, swaps between
requests, clients that never read — so every fault a client fleet can throw
at the daemon is exercised deterministically.  Tick tests send several
frames in one write, so one loop tick reads them all, and pin the order the
loop handles them in.  The byte-identity tests pin the paper-level contract:
an action served through pickling + batching equals the same observation
evaluated offline with ``agent.act(state, explore=False)``, for every agent
family and after a hot swap.
"""

import pickle
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro import Trainer, TrainingConfig, make_design
from repro.distributed import protocol
from repro.distributed.broker import SweepBroker
from repro.parallel.sweep import SweepSpec
from repro.serving import (
    PolicyClient,
    PolicyServer,
    ServingError,
    WeightPushCallback,
)

DESIGNS = ("ELM", "OS-ELM", "DQN")


def _trained_agent(design, *, seed=7, episodes=2):
    agent = make_design(design, n_hidden=8, seed=seed)
    Trainer().fit(agent, config=TrainingConfig(max_episodes=episodes))
    return agent


@pytest.fixture(scope="module")
def agents():
    """One briefly-trained agent per family, shared across the module."""
    return {design: _trained_agent(design) for design in DESIGNS}


def _probe_states(agent, n=16, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(n, agent.config.n_states))


def _offline_greedy(agent, states):
    return np.array([agent.act(state, explore=False) for state in states],
                    dtype=np.int64)


def _clone(agent):
    """A pickle round trip — exactly what loading from a store produces."""
    return pickle.loads(pickle.dumps(agent))


class _EchoAgent:
    """Answers each state with ``int(state[0]) + offset``.

    ``batches`` records the first features of every ``act_batch`` call, so
    a test sees exactly how the loop grouped its requests.  A batch holding
    ``fail_on`` raises; ``gate``, once cleared, parks the loop inside
    ``act_batch`` until it is set again.
    """

    def __init__(self, offset=0, fail_on=None):
        self.config = type("Config", (), {"n_states": 4})()
        self.offset = offset
        self.fail_on = fail_on
        self.batches = []
        self.entered = threading.Event()
        self.gate = threading.Event()
        self.gate.set()

    def act_batch(self, states, explore=False):
        firsts = [int(state[0]) for state in states]
        self.batches.append(firsts)
        self.entered.set()
        self.gate.wait(timeout=10.0)
        if self.fail_on in firsts:
            raise RuntimeError("model exploded")
        return np.asarray(firsts) + self.offset


def _row(design, state):
    """A one-row ``ACT_BATCH`` frame for ``state``."""
    row = np.asarray(state, dtype=np.float64)
    return protocol.ACT_BATCH, (design, row.size, row.tobytes())


def _act(value, design="d"):
    return _row(design, [float(value), 0.0, 0.0, 0.0])


def _action(action):
    """The reply to a one-row frame: its action."""
    return protocol.ACTIONS, [action]


# ---------------------------------------------------------------- scripted sockets
class _RawClient:
    """A bare socket speaking the serving protocol, one frame at a time."""

    def __init__(self, server, client_id="raw", handshake=True):
        host, port = server.address
        self.sock = socket.create_connection((host, port), timeout=5.0)
        if handshake:
            protocol.send_message(self.sock, protocol.HELLO,
                                  {"id": client_id,
                                   "wire": protocol.WIRE_VERSION})
            kind, info = protocol.recv_message(self.sock)
            assert kind == protocol.WELCOME
            self.welcome_info = info

    def send(self, kind, payload=None):
        protocol.send_message(self.sock, kind, payload)

    def send_many(self, frames):
        """Every ``(kind, payload)`` frame in one write: one tick reads them."""
        self.sock.sendall(b"".join(protocol.encode_frame(kind, payload)
                                   for kind, payload in frames))

    def recv(self):
        return protocol.recv_message(self.sock)

    def sendall(self, raw):
        self.sock.sendall(raw)

    def assert_closed_by_peer(self, timeout=5.0):
        self.sock.settimeout(timeout)
        try:
            assert self.sock.recv(1) == b""
        except ConnectionError:
            pass  # reset is as closed as it gets

    def close(self):
        self.sock.close()


class TestServerProtocol:
    def test_rejects_empty_and_batchless_policies(self):
        with pytest.raises(ValueError, match="nothing to serve"):
            PolicyServer({})
        with pytest.raises(TypeError, match="act_batch"):
            PolicyServer({"OS-ELM": object()})
        with pytest.raises(ValueError, match="max_batch"):
            PolicyServer({"d": _EchoAgent()}, max_batch=0)

    def test_welcome_names_the_wire_version_and_role(self, agents):
        with PolicyServer({"OS-ELM": _clone(agents["OS-ELM"])}) as server:
            raw = _RawClient(server)
            assert raw.welcome_info["wire"] == protocol.WIRE_VERSION
            assert raw.welcome_info["role"] == "serving"
            assert raw.welcome_info["designs"] == ["OS-ELM"]
            assert raw.welcome_info["max_batch"] == 8
            raw.close()

    def test_stats_and_welcome_report_the_configured_max_batch(self, agents):
        with PolicyServer({"OS-ELM": _clone(agents["OS-ELM"])},
                          max_batch=3) as server:
            raw = _RawClient(server)
            assert raw.welcome_info["max_batch"] == 3
            raw.close()
            with PolicyClient(*server.address) as client:
                assert client.stats()["batching"] == {"max_batch": 3,
                                                      "queued": 0}

    def test_unknown_design_errors_but_connection_survives(self, agents):
        agent = agents["OS-ELM"]
        state = _probe_states(agent, 1)[0]
        with PolicyServer({"OS-ELM": _clone(agent)}) as server:
            with PolicyClient(*server.address) as client:
                with pytest.raises(ServingError, match="unknown design"):
                    client.act(state, design="nope")
                # The ERROR reply must not poison the connection.
                assert client.act(state) == agent.act(state, explore=False)

    def test_wrong_state_width_rejected(self, agents):
        with PolicyServer({"OS-ELM": _clone(agents["OS-ELM"])}) as server:
            with PolicyClient(*server.address) as client:
                with pytest.raises(ServingError, match="state dims"):
                    client.act([0.0, 1.0])

    def test_unknown_frame_kind_gets_error_reply(self, agents):
        with PolicyServer({"OS-ELM": _clone(agents["OS-ELM"])}) as server:
            raw = _RawClient(server)
            raw.send("frobnicate", None)
            kind, reason = raw.recv()
            assert kind == protocol.ERROR
            assert "unknown frame kind" in reason
            raw.close()

    def test_malformed_frame_closes_connection_server_survives(self, agents):
        agent = agents["OS-ELM"]
        with PolicyServer({"OS-ELM": _clone(agent)}) as server:
            raw = _RawClient(server)
            body = pickle.dumps("not a (kind, payload) tuple")
            raw.sendall(struct.pack(">Q", len(body)) + body)
            raw.assert_closed_by_peer()
            raw.close()
            # The daemon must shrug the bad client off and keep serving.
            state = _probe_states(agent, 1)[0]
            with PolicyClient(*server.address) as client:
                assert client.act(state) == agent.act(state, explore=False)

    def test_oversized_frame_refused_before_allocation(self, agents):
        agent = agents["OS-ELM"]
        with PolicyServer({"OS-ELM": _clone(agent)},
                          max_frame_bytes=2048) as server:
            raw = _RawClient(server)
            raw.sendall(struct.pack(">Q", 1 << 30))  # hostile length header
            raw.assert_closed_by_peer()
            raw.close()
            state = _probe_states(agent, 1)[0]
            with PolicyClient(*server.address) as client:
                assert client.act(state) == agent.act(state, explore=False)

    def test_client_disconnect_mid_batch_spares_other_clients(self, agents):
        agent = agents["OS-ELM"]
        states = _probe_states(agent, 8, seed=3)
        with PolicyServer({"OS-ELM": _clone(agent)}, max_batch=4) as server:
            doomed = _RawClient(server, "doomed")
            doomed.send_many([_row("OS-ELM", state) for state in states])
            doomed.close()  # dies with its requests unanswered
            with PolicyClient(*server.address) as survivor:
                np.testing.assert_array_equal(survivor.act_many(states),
                                              _offline_greedy(agent, states))

    def test_swap_during_inflight_act_drops_nothing(self, agents):
        old = agents["OS-ELM"]
        new = make_design("OS-ELM", n_hidden=8, seed=321)
        state = _probe_states(old, 2, seed=4)
        with PolicyServer({"OS-ELM": _clone(old)}, max_batch=8) as server:
            raw = _RawClient(server)
            raw.send_many([_row("OS-ELM", state[0]),
                           (protocol.SWAP, ("OS-ELM", pickle.dumps(new))),
                           _row("OS-ELM", state[1])])
            assert raw.recv() == _action(old.act(state[0], explore=False))
            assert raw.recv() == (protocol.SWAPPED,
                                  {"design": "OS-ELM", "generation": 1})
            assert raw.recv() == _action(new.act(state[1], explore=False))
            raw.close()

    def test_non_finite_state_fails_only_its_request(self, agents):
        agent = agents["OS-ELM"]
        states = _probe_states(agent, 3, seed=5)
        states[1, 2] = np.nan
        with PolicyServer({"OS-ELM": _clone(agent)}) as server:
            raw = _RawClient(server)
            raw.send_many([_row("OS-ELM", state) for state in states])
            assert raw.recv() == _action(agent.act(states[0], explore=False))
            kind, reason = raw.recv()
            assert kind == protocol.ERROR and "NaN or Inf" in reason
            assert raw.recv() == _action(agent.act(states[2], explore=False))
            raw.close()

    def test_close_returns_promptly_with_idle_clients(self, agents):
        server = PolicyServer({"OS-ELM": _clone(agents["OS-ELM"])}).start()
        idle = [_RawClient(server, f"idle-{i}") for i in range(2)]
        began = time.perf_counter()
        server.close()
        assert time.perf_counter() - began < 1.0
        for raw in idle:
            raw.assert_closed_by_peer()
            raw.close()

    def test_close_returns_even_if_the_loop_wakes_for_a_client_first(self):
        server = PolicyServer({"d": _EchoAgent()}).start()
        raw = _RawClient(server)
        wake, sender = server._wake

        class LateWakeUp:
            """close() is held up; a client frame wakes the loop first."""

            def send(self, data):
                raw.send(*_act(1))
                assert raw.recv() == _action(1)
                return sender.send(data)

            def close(self):
                sender.close()

        server._wake = (wake, LateWakeUp())
        server.close()
        assert not server._thread.is_alive()
        raw.assert_closed_by_peer()
        raw.close()

    def test_client_that_never_reads_is_dropped(self, agents):
        agent = agents["OS-ELM"]
        states = _probe_states(agent, 64, seed=6)
        burst = b"".join(protocol.encode_frame(*_row("OS-ELM", state))
                         for state in states)
        with PolicyServer({"OS-ELM": _clone(agent)},
                          max_frame_bytes=4096) as server:
            hog = socket.socket()
            hog.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            hog.settimeout(5.0)
            hog.connect(server.address)
            deadline = time.monotonic() + 60.0
            with pytest.raises(ConnectionError):  # reset, not a timeout
                while time.monotonic() < deadline:
                    hog.sendall(burst)  # never reads a reply
            assert time.monotonic() < deadline, "the hog was never dropped"
            hog.close()
            with PolicyClient(*server.address) as client:
                np.testing.assert_array_equal(client.act_many(states),
                                              _offline_greedy(agent, states))

    def test_swap_rejects_non_agent_blob(self, agents):
        agent = agents["OS-ELM"]
        with PolicyServer({"OS-ELM": _clone(agent)}) as server:
            with PolicyClient(*server.address) as client:
                with pytest.raises(ServingError, match="swap rejected"):
                    client.swap("not an agent")
                state = _probe_states(agent, 1)[0]
                assert client.act(state) == agent.act(state, explore=False)

    def test_swap_can_add_a_new_design(self, agents):
        extra = make_design("ELM", n_hidden=8, seed=11)
        with PolicyServer({"OS-ELM": _clone(agents["OS-ELM"])}) as server:
            with PolicyClient(*server.address) as client:
                info = client.swap(_clone(extra), design="ELM")
                assert info["generation"] == 1
                state = _probe_states(extra, 1, seed=9)[0]
                assert client.act(state, design="ELM") == extra.act(
                    state, explore=False)
            assert server.designs() == ["ELM", "OS-ELM"]

    def test_stats_reports_latency_percentiles(self, agents):
        agent = agents["OS-ELM"]
        with PolicyServer({"OS-ELM": _clone(agent)},
                          max_batch=4) as server:
            with PolicyClient(*server.address) as client:
                client.act_many(_probe_states(agent, 12))
                stats = client.stats()
        assert stats["repro_version"]
        assert stats["designs"]["OS-ELM"]["requests"] == 12
        assert stats["designs"]["OS-ELM"]["generation"] == 0
        latency = stats["metrics"]["histograms"]["serving.request_latency_seconds"]
        assert latency["count"] == 12
        for percentile in ("p50", "p90", "p99"):
            assert latency[percentile] >= 0.0
        batches = stats["metrics"]["histograms"]["serving.batch_size"]
        assert batches["count"] >= 3  # 12 requests through max_batch=4
        for stage in ("read", "act_batch", "write"):
            timings = stats["metrics"]["histograms"][f"serving.stage.{stage}_seconds"]
            assert timings["count"] >= 1

    def test_client_refuses_a_sweep_broker_peer(self):
        spec = SweepSpec(designs=("OS-ELM-L2",), n_seeds=1, n_hidden=8,
                         training=TrainingConfig(max_episodes=3), root_seed=99)
        with SweepBroker(spec.tasks()) as broker:
            host, port = broker.address
            with pytest.raises(ServingError, match="not a policy server"):
                PolicyClient(host, port)


    @pytest.mark.parametrize("hello", [
        "client-1",                                       # a 1.x/2.0 client
        {"id": "c", "wire": protocol.WIRE_VERSION - 1},
        {"id": None, "wire": protocol.WIRE_VERSION},
    ], ids=["bare-string", "other-wire", "non-str-id"])
    def test_bad_hello_is_refused_and_others_are_served(self, agents, hello):
        agent = agents["OS-ELM"]
        state = _probe_states(agent, 1)[0]
        with PolicyServer({"OS-ELM": _clone(agent)}) as server:
            with PolicyClient(*server.address) as steady:
                raw = _RawClient(server, handshake=False)
                raw.send(protocol.HELLO, hello)
                kind, reason = raw.recv()
                assert kind == protocol.ERROR
                assert "wire version" in reason or "id must be a str" in reason
                raw.assert_closed_by_peer()
                raw.close()
                assert steady.act(state) == agent.act(state, explore=False)
                errors = steady.stats()["metrics"]["counters"]["serving.errors"]
        assert errors == 1

    def test_dial_asking_for_a_broker_is_definitive(self, agents):
        with PolicyServer({"OS-ELM": _clone(agents["OS-ELM"])}) as server:
            with pytest.raises(protocol.HandshakeError,
                               match="is a policy server, not a sweep "
                                     "broker") as caught:
                protocol.dial(*server.address, "probe", role="broker",
                              timeout=5.0)
        assert not caught.value.transient

    @pytest.mark.parametrize("garbled", ["welcome", "action"])
    def test_undecodable_frame_surfaces_as_serving_error(self, scripted_peer,
                                                         garbled):
        """A reply that is not a pickle is a ServingError, not a raw
        UnpicklingError from deep inside the framing."""
        garbage = b"this is not a pickle!!"

        def server(connection):
            protocol.recv_message(connection)                   # HELLO
            if garbled == "welcome":
                connection.sendall(struct.pack(">Q", len(garbage)) + garbage)
                return
            protocol.send_message(connection, protocol.WELCOME,
                                  protocol.welcome_info("serving",
                                                        designs=["OS-ELM"]))
            protocol.recv_message(connection)                   # ACT_BATCH
            connection.sendall(struct.pack(">Q", len(garbage)) + garbage)

        peer = scripted_peer(server)
        with pytest.raises(ServingError):
            with PolicyClient(*peer.address, timeout=5.0) as client:
                client.act([0.0, 0.0, 0.0, 0.0])


# ------------------------------------------------------------------ tick semantics
class TestTick:
    @pytest.mark.parametrize("max_batch, batches", [
        (4, [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]),
        (1, [[i] for i in range(10)]),
    ])
    def test_max_batch_splits_a_tick_into_chunks(self, max_batch, batches):
        echo = _EchoAgent()
        with PolicyServer({"d": echo}, max_batch=max_batch) as server:
            raw = _RawClient(server)
            raw.send_many([_act(i) for i in range(10)])
            assert [raw.recv() for _ in range(10)] == [
                _action(i) for i in range(10)]
            raw.close()
        assert echo.batches == batches

    def test_replies_stay_fifo_when_designs_interleave(self):
        a, b = _EchoAgent(), _EchoAgent(offset=100)
        with PolicyServer({"a": a, "b": b}) as server:
            raw = _RawClient(server)
            raw.send_many([_act(0, "a"), _act(1, "b"), _act(2, "a"),
                           _act(3, "b"), _act(4, "a")])
            assert [raw.recv() for _ in range(5)] == [
                _action(action) for action in (0, 101, 2, 103, 4)]
            raw.close()
        assert (a.batches, b.batches) == ([[0, 2, 4]], [[1, 3]])

    def test_stats_reply_stays_in_order_behind_earlier_acts(self):
        echo = _EchoAgent()
        with PolicyServer({"d": echo}) as server:
            raw = _RawClient(server)
            raw.send_many([_act(0), _act(1), (protocol.STATS, None), _act(2)])
            assert raw.recv() == _action(0)
            assert raw.recv() == _action(1)
            kind, stats = raw.recv()
            assert kind == protocol.STATS
            assert stats["designs"]["d"]["requests"] == 2
            # The ACT behind the STATS frame is decoded, not yet answered.
            assert stats["batching"] == {"max_batch": 8, "queued": 1}
            assert raw.recv() == _action(2)
            raw.close()
        assert echo.batches == [[0, 1], [2]]

    def test_lone_client_act_lands_in_the_first_group(self):
        echo = _EchoAgent()
        with PolicyServer({"d": echo}, max_batch=4) as server:
            parker, burst, lone = (_RawClient(server, name)
                                   for name in ("parker", "burst", "lone"))
            echo.gate.clear()
            parker.send(*_act(99))
            assert echo.entered.wait(timeout=5.0)  # the loop is parked
            # Both writes land while the loop is parked: its next tick
            # reads them together, round-robin across the two connections.
            burst.send_many([_act(i) for i in range(12)])
            lone.send(*_act(50))
            echo.gate.set()
            assert parker.recv() == _action(99)
            assert lone.recv() == _action(50)
            assert [burst.recv() for _ in range(12)] == [
                _action(i) for i in range(12)]
            for raw in (parker, burst, lone):
                raw.close()
        assert echo.batches[0] == [99]
        assert 50 in echo.batches[1]
        assert [len(batch) for batch in echo.batches[1:]] == [4, 4, 4, 1]

    def test_dispatch_failure_reaches_only_its_own_chunk(self):
        with PolicyServer({"d": _EchoAgent(fail_on=5)}, max_batch=4) as server:
            raw = _RawClient(server)
            raw.send_many([_act(i) for i in range(8)])
            assert [raw.recv() for _ in range(4)] == [
                _action(i) for i in range(4)]
            for _ in range(4):
                assert raw.recv() == (protocol.ERROR,
                                      "dispatch failed: model exploded")
            raw.send(*_act(9))  # the connection and the loop live on
            assert raw.recv() == _action(9)
            raw.close()

    def test_wrong_action_shape_fails_its_chunk(self):
        class Overeager(_EchoAgent):
            def act_batch(self, states, explore=False):
                return np.zeros(len(states) + 1, dtype=np.int64)

        with PolicyServer({"d": Overeager()}) as server:
            raw = _RawClient(server)
            raw.send(*_act(0))
            kind, reason = raw.recv()
            assert kind == protocol.ERROR and "returned shape" in reason
            raw.close()

    def test_one_thread_serves_every_client(self):
        before = threading.active_count()
        with PolicyServer({"d": _EchoAgent()}) as server:
            assert threading.active_count() == before + 1
            clients = [PolicyClient(*server.address) for _ in range(8)]
            for index, client in enumerate(clients):
                assert client.act([float(index), 0.0, 0.0, 0.0]) == index
            assert threading.active_count() == before + 1
            for client in clients:
                client.close()
        assert threading.active_count() == before


# ------------------------------------------------------------------ wire payloads
#: Float64 values whose bits a lossy encoding would change: signed zero,
#: subnormals and the edges of the finite range.
_EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1e308, -1e308, np.finfo(np.float64).max)

_rows = st.lists(
    st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from(_EDGE_FLOATS)),
             min_size=4, max_size=4),
    min_size=1, max_size=20)


class _RecordingAgent:
    """Answers 0 and keeps every batch it was asked about."""

    def __init__(self):
        self.config = type("Config", (), {"n_states": 4})()
        self.seen = []

    def act_batch(self, states, explore=False):
        self.seen.append(np.array(states, copy=True))
        return np.zeros(len(states), dtype=np.int64)


@pytest.fixture(scope="module")
def recording_server():
    agent = _RecordingAgent()
    with PolicyServer({"d": agent}) as server:
        with PolicyClient(*server.address) as client:
            yield agent, client


@pytest.fixture(scope="module")
def oselm_server(agents):
    agent = agents["OS-ELM"]
    with PolicyServer({"OS-ELM": _clone(agent)}) as server:
        with PolicyClient(*server.address) as client:
            yield agent, client


class TestWirePayloads:
    @settings(deadline=None)
    @given(rows=_rows)
    def test_list_payloads_reach_act_batch_bit_exact(self, recording_server,
                                                     rows):
        agent, client = recording_server
        sent = np.array(rows, dtype=np.float64)
        agent.seen.clear()
        client.act_many(sent)
        received = np.concatenate(agent.seen)
        assert received.dtype == np.float64
        assert received.tobytes() == sent.tobytes()

    # Rows near the float64 range overflow inside the network, in the
    # server thread as much as offline; the actions must still agree.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(deadline=None)
    @given(rows=_rows)
    def test_served_equals_offline_on_edge_floats(self, oselm_server, rows):
        agent, client = oselm_server
        states = np.array(rows, dtype=np.float64)
        with np.errstate(all="ignore"):
            offline = _offline_greedy(agent, states)
        np.testing.assert_array_equal(client.act_many(states), offline)

    def test_ndarray_and_list_payloads_get_the_same_action(self, agents):
        """``act_many`` serves ndarray rows and list rows alike."""
        agent = agents["OS-ELM"]
        states = _probe_states(agent, 3, seed=9)
        expected = _offline_greedy(agent, states)
        with PolicyServer({"OS-ELM": _clone(agent)}) as server:
            with PolicyClient(*server.address) as client:
                for rows in (states, states.tolist(), list(states)):
                    np.testing.assert_array_equal(client.act_many(rows),
                                                  expected)
                assert client.act(states[0].tolist()) == expected[0]

    def test_bad_rows_in_a_group_fail_alone_and_in_order(self):
        """NaN, wrong-width and ragged frames each get their own ERROR; the
        good rows of the same group are batched and answered in place."""
        echo = _EchoAgent()
        with PolicyServer({"d": echo}) as server:
            raw = _RawClient(server)
            raw.send_many([_act(0),
                           _row("d", [1.0, np.nan, 0.0, 0.0]),
                           _row("d", [2.0, 0.0, 0.0]),
                           (protocol.ACT_BATCH, ("d", 4, bytes(40))),
                           _act(4)])
            replies = [raw.recv() for _ in range(5)]
            raw.close()
        assert replies[0] == _action(0)
        assert replies[1] == (protocol.ERROR,
                              "row 0: state contains NaN or Inf values")
        assert replies[2] == (protocol.ERROR,
                              "row 0: design 'd' expects 4 state dims, got 3")
        assert replies[3][0] == protocol.ERROR
        assert replies[4] == _action(4)
        assert echo.batches == [[0, 4]]

    def test_unconvertible_row_fails_alone_and_the_loop_serves_on(self):
        """Rows that are not float64 bytes (here a list holding an int past
        the float range) answer ERROR; the loop keeps serving other clients."""
        echo = _EchoAgent()
        with PolicyServer({"d": echo}) as server:
            raw = _RawClient(server)
            raw.send_many([(protocol.ACT_BATCH,
                            ("d", 4, [10 ** 400, 0.0, 0.0, 0.0])),
                           _act(1)])
            replies = [raw.recv() for _ in range(2)]
            raw.close()
            other = _RawClient(server, client_id="other")
            other.send(*_act(2))
            later = other.recv()
            other.close()
        assert replies[0][0] == protocol.ERROR
        assert replies[1] == _action(1)
        assert later == _action(2)

    def test_ragged_group_without_a_design_width_fails_only_its_chunk(self):
        """With no ``config.n_states`` to check against, rows of two widths
        in one chunk fail that chunk at dispatch; the loop serves on."""
        echo = _EchoAgent()
        del echo.config
        with PolicyServer({"d": echo}, max_batch=2) as server:
            raw = _RawClient(server)
            raw.send_many([_row("d", [0.0, 0.0, 0.0]),
                           _row("d", [1.0, 0.0, 0.0, 0.0]),
                           _act(2), _act(3)])
            replies = [raw.recv() for _ in range(4)]
            raw.send(*_act(4))
            later = raw.recv()
            raw.close()
        assert [kind for kind, _ in replies[:2]] == [protocol.ERROR] * 2
        assert replies[0][1].startswith("dispatch failed")
        assert replies[2:] == [_action(2), _action(3)]
        assert later == _action(4)


def _batch(values, design="d", width=4):
    """An ``ACT_BATCH`` frame of rows ``[value, 0, ...]``, one per value."""
    rows = np.zeros((len(values), width))
    rows[:, 0] = values
    return protocol.ACT_BATCH, (design, width, rows.tobytes())


@pytest.fixture(scope="module")
def recording_raw_server():
    agent = _RecordingAgent()
    with PolicyServer({"d": agent}) as server:
        raw = _RawClient(server)
        yield agent, raw
        raw.close()


class TestWireBatchFrames:
    @settings(deadline=None)
    @given(rows=_rows)
    def test_batch_and_single_rows_reach_act_batch_bit_exact(
            self, recording_raw_server, rows):
        """The same rows sent as one ``ACT_BATCH`` frame and as one-row
        frames reach ``act_batch`` with every bit intact."""
        agent, raw = recording_raw_server
        sent = np.array(rows, dtype=np.float64)
        received = []
        for frames in ([(protocol.ACT_BATCH, ("d", 4, sent.tobytes()))],
                       [_row("d", row) for row in rows]):
            agent.seen.clear()
            raw.send_many(frames)
            replies = [raw.recv() for _ in frames]
            assert all(kind == protocol.ACTIONS for kind, _ in replies)
            received.append(np.concatenate(agent.seen))
        batched, single = received
        assert batched.dtype == single.dtype == np.float64
        assert batched.tobytes() == single.tobytes() == sent.tobytes()

    @pytest.mark.parametrize("payload, reason", [
        (("nope", 4, bytes(32)), "unknown design"),
        (("d", 0, bytes(32)), "n_cols must be a positive int"),
        (("d", -4, bytes(32)), "n_cols must be a positive int"),
        (("d", 4.0, bytes(32)), "n_cols must be a positive int"),
        (("d", "4", bytes(32)), "n_cols must be a positive int"),
        (("d", True, bytes(8)), "n_cols must be a positive int"),
        (("d", 4, bytes(33)), "do not hold whole rows"),
        (("d", 4, [0.0] * 4), "rows must be bytes"),
        (("d", 4, bytearray(32)), "rows must be bytes"),
        (("d", 3, bytes(48)), "row 0: design 'd' expects 4 state dims, got 3"),
        (("d", 4, np.array([[0.0] * 4, [1.0, np.nan, 0.0, 0.0]]).tobytes()),
         "row 1: state contains NaN or Inf values"),
        (("d", 4), "not enough values to unpack"),
    ])
    def test_malformed_batch_gets_one_error_and_others_are_served(
            self, payload, reason):
        echo = _EchoAgent()
        with PolicyServer({"d": echo}) as server:
            raw = _RawClient(server)
            raw.send_many([_batch([1, 2]), (protocol.ACT_BATCH, payload),
                           _batch([3])])
            assert raw.recv() == (protocol.ACTIONS, [1, 2])
            kind, message = raw.recv()
            assert kind == protocol.ERROR and reason in message
            assert raw.recv() == (protocol.ACTIONS, [3])
            raw.close()
            with PolicyClient(*server.address) as other:
                assert other.act([4.0, 0.0, 0.0, 0.0]) == 4
        assert echo.batches == [[1, 2, 3], [4]]

    def test_one_row_and_many_row_frames_interleave_in_fifo_order(self):
        echo = _EchoAgent()
        with PolicyServer({"d": echo}, max_batch=4) as server:
            raw = _RawClient(server)
            raw.send_many([_act(0), _batch([1, 2, 3]), _act(4), _batch([]),
                           _batch([5, 6]), _act(7)])
            assert [raw.recv() for _ in range(6)] == [
                _action(0), (protocol.ACTIONS, [1, 2, 3]),
                _action(4), (protocol.ACTIONS, []),
                (protocol.ACTIONS, [5, 6]), _action(7)]
            raw.close()
        # The blocks are laid end to end, then cut per max_batch rows.
        assert echo.batches == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_a_failed_chunk_fails_each_block_with_a_row_in_it(self):
        with PolicyServer({"d": _EchoAgent(fail_on=5)}, max_batch=4) as server:
            raw = _RawClient(server)
            # Chunks [0, 1, 2, 3], [4, 5, 6, 7] (fails) and [8, 9].
            raw.send_many([_batch([0, 1, 2]), _batch([3, 4, 5]), _act(6),
                           _act(7), _batch([8, 9])])
            assert raw.recv() == (protocol.ACTIONS, [0, 1, 2])
            failure = (protocol.ERROR, "dispatch failed: model exploded")
            assert [raw.recv() for _ in range(3)] == [failure] * 3
            assert raw.recv() == (protocol.ACTIONS, [8, 9])
            raw.send(protocol.STATS)
            _kind, stats = raw.recv()
            raw.close()
        assert stats["metrics"]["counters"]["serving.errors"] == 5

    def test_swap_between_batches_answers_the_first_with_old_weights(
            self, agents):
        old = agents["OS-ELM"]
        new = make_design("OS-ELM", n_hidden=8, seed=321)
        states = _probe_states(old, 8, seed=4)
        with PolicyServer({"OS-ELM": _clone(old)}) as server:
            raw = _RawClient(server)
            raw.send_many([
                (protocol.ACT_BATCH, ("OS-ELM", 4, states[:4].tobytes())),
                (protocol.SWAP, ("OS-ELM", pickle.dumps(new))),
                (protocol.ACT_BATCH, ("OS-ELM", 4, states[4:].tobytes()))])
            assert raw.recv() == (protocol.ACTIONS,
                                  _offline_greedy(old, states[:4]).tolist())
            assert raw.recv() == (protocol.SWAPPED,
                                  {"design": "OS-ELM", "generation": 1})
            assert raw.recv() == (protocol.ACTIONS,
                                  _offline_greedy(new, states[4:]).tolist())
            raw.close()

    def test_requests_and_errors_count_rows(self):
        with PolicyServer({"d": _EchoAgent()}, max_batch=4) as server:
            with PolicyClient(*server.address) as client:
                client.act_many(np.zeros((12, 4)))
                with pytest.raises(ServingError, match="row 2: state contains"):
                    client.act_many([[0.0] * 4, [0.0] * 4, [np.inf] + [0.0] * 3])
                counters = client.stats()["metrics"]["counters"]
        assert counters["serving.requests"] == 12
        assert counters["serving.errors"] == 3


# ------------------------------------------------------------------ client I/O
class _CountingSocket:
    """A socket proxy counting ``sendall`` calls."""

    def __init__(self, sock):
        self._sock = sock
        self.sendalls = 0

    def sendall(self, data):
        self.sendalls += 1
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestClientIO:
    def test_act_many_makes_one_write(self):
        sockets = []

        def connect(host, port, timeout):
            sockets.append(_CountingSocket(
                socket.create_connection((host, port), timeout=timeout)))
            return sockets[0]

        with PolicyServer({"d": _EchoAgent()}) as server:
            with PolicyClient(*server.address, connect_factory=connect) as client:
                sockets[0].sendalls = 0
                states = np.zeros((64, 4))
                states[:, 0] = np.arange(64)
                np.testing.assert_array_equal(client.act_many(states),
                                              np.arange(64))
                assert sockets[0].sendalls == 1

    def test_rejected_row_leaves_the_connection_in_step(self):
        """``act_many`` reads every reply of the call before it raises, so
        the next call does not read a stale reply."""
        with PolicyServer({"d": _EchoAgent()}) as server:
            with PolicyClient(*server.address) as client:
                states = [[0.0, 0.0, 0.0, 0.0], [1.0, np.inf, 0.0, 0.0],
                          [2.0, 0.0, 0.0, 0.0]]
                with pytest.raises(ServingError, match="NaN or Inf"):
                    client.act_many(states)
                assert client.act([7.0, 0.0, 0.0, 0.0]) == 7

    def test_oversized_reply_is_refused_before_buffering(self, scripted_peer):
        def server(connection):
            protocol.recv_message(connection)                   # HELLO
            protocol.send_message(connection, protocol.WELCOME,
                                  protocol.welcome_info("serving",
                                                        designs=["d"]))
            protocol.recv_message(connection)                   # ACT_BATCH
            connection.sendall(struct.pack(">Q", 1 << 40) + b"x" * 1024)
            connection.recv(1)              # hold the line until the client hangs up

        peer = scripted_peer(server)
        with PolicyClient(*peer.address, timeout=30.0) as client:
            began = time.perf_counter()
            with pytest.raises(ServingError, match="exceeds") as caught:
                client.act([0.0, 0.0, 0.0, 0.0])
            assert not caught.value.transient
            assert time.perf_counter() - began < 10.0
            assert len(client._inbox) <= 8 + 1024


class _RecordingSocket(_CountingSocket):
    """A :class:`_CountingSocket` that also keeps every byte it sends."""

    def __init__(self, sock):
        super().__init__(sock)
        self.sent = bytearray()

    def sendall(self, data):
        self.sent += data
        super().sendall(data)


def _recording_connect(sockets):
    def connect(host, port, timeout):
        sockets.append(_RecordingSocket(
            socket.create_connection((host, port), timeout=timeout)))
        return sockets[-1]
    return connect


class TestClientBatchFrames:
    def test_client_sends_one_act_batch_per_call(self):
        sockets = []
        with PolicyServer({"d": _EchoAgent()}) as server:
            with PolicyClient(*server.address,
                              connect_factory=_recording_connect(sockets)) as client:
                assert client.act([3.0, 0.0, 0.0, 0.0]) == 3
                np.testing.assert_array_equal(
                    client.act_many(np.eye(4) * 2.0), [2, 0, 0, 0])
        frames = list(protocol.read_frames(sockets[0].sent,
                                           max_frame_bytes=1 << 20))
        assert [kind for kind, _ in frames] == [protocol.HELLO,
                                                protocol.ACT_BATCH,
                                                protocol.ACT_BATCH]
        design, n_cols, rows = frames[2][1]
        assert (design, n_cols, rows) == ("d", 4, (np.eye(4) * 2.0).tobytes())

    @pytest.mark.parametrize("empty", [[], np.empty((0, 4)), ()])
    def test_act_many_on_no_rows_does_no_io(self, empty):
        sockets = []
        with PolicyServer({"d": _EchoAgent()}) as server:
            with PolicyClient(*server.address,
                              connect_factory=_recording_connect(sockets)) as client:
                sockets[0].sendalls = 0
                actions = client.act_many(empty)
                assert sockets[0].sendalls == 0
                assert actions.dtype == np.int64 and actions.shape == (0,)
                assert client.stats()["metrics"]["counters"]["serving.errors"] == 0

    def test_server_of_another_wire_version_is_refused_at_connect(
            self, scripted_peer):
        def server(connection):
            protocol.recv_message(connection)                   # HELLO
            protocol.send_message(connection, protocol.WELCOME,
                                  {"serving": True, "act_batch": True,
                                   "designs": ["d"]})         # a 2.0 server

        peer = scripted_peer(server)
        with pytest.raises(ServingError, match="wire version") as caught:
            PolicyClient(*peer.address, timeout=5.0)
        assert not caught.value.transient

    def test_short_actions_reply_is_an_error(self, scripted_peer):
        def server(connection):
            protocol.recv_message(connection)                   # HELLO
            protocol.send_message(connection, protocol.WELCOME,
                                  protocol.welcome_info("serving",
                                                        designs=["d"]))
            protocol.recv_message(connection)                   # ACT_BATCH
            protocol.send_message(connection, protocol.ACTIONS, [0])

        peer = scripted_peer(server)
        with PolicyClient(*peer.address, timeout=5.0) as client:
            with pytest.raises(ServingError, match="2 rows"):
                client.act_many(np.zeros((2, 4)))


# ------------------------------------------------------------------ byte identity
class TestByteIdentity:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_served_equals_offline_greedy(self, agents, design):
        agent = agents[design]
        states = _probe_states(agent, 24, seed=1)
        offline = _offline_greedy(agent, states)
        with PolicyServer({design: _clone(agent)}, max_batch=8) as server:
            results = {}

            def drive(name):
                with PolicyClient(*server.address) as client:
                    results[name] = client.act_many(states)

            threads = [threading.Thread(target=drive, args=(i,))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        assert set(results) == {0, 1}
        for served in results.values():
            np.testing.assert_array_equal(served, offline)

    @pytest.mark.parametrize("design", DESIGNS)
    def test_byte_identity_survives_hot_swap(self, agents, design):
        fresh = make_design(design, n_hidden=8, seed=555)
        states = _probe_states(fresh, 16, seed=2)
        with PolicyServer({design: _clone(agents[design])},
                          max_batch=8) as server:
            with PolicyClient(*server.address) as client:
                info = client.swap(_clone(fresh))
                assert info["generation"] == 1
                np.testing.assert_array_equal(client.act_many(states),
                                              _offline_greedy(fresh, states))


#: Heavy-tailed observations: ordinary floats, the edge values above and
#: magnitudes up to 1e16, where a differently blocked matmul rounds apart.
_heavy_rows = st.integers(1, 64).flatmap(lambda n: hnp.arrays(
    np.float64, (n, 4), elements=st.one_of(
        st.floats(-1e16, 1e16), st.sampled_from(_EDGE_FLOATS[:4]),
        st.integers(-10 ** 16, 10 ** 16).map(float))))


class TestBatchQValueIdentity:
    """A batch of states is evaluated state by state: batched Q-values are
    bit for bit the single-state ones, so served == offline greedy holds
    for any rows a server groups together."""

    @settings(deadline=None)
    @given(design=st.sampled_from(["ELM", "OS-ELM"]), states=_heavy_rows)
    def test_batched_q_values_equal_single_state_bits(self, agents, design,
                                                      states):
        agent = agents[design]
        q = agent.q_online
        batched = q.q_values(states)
        for i, state in enumerate(states):
            assert batched[i].tobytes() == q.q_values(state).tobytes()
        np.testing.assert_array_equal(agent.act_batch(states, explore=False),
                                      _offline_greedy(agent, states))


# ------------------------------------------------------------------ weight pushes
class TestWeightPushCallback:
    def test_rejects_bad_cadence(self):
        with pytest.raises(ValueError, match="every"):
            WeightPushCallback("127.0.0.1:1", every=0)

    def test_pushes_land_and_final_weights_serve(self):
        stale = make_design("OS-ELM", n_hidden=8, seed=5)
        with PolicyServer({"OS-ELM": stale}) as server:
            host, port = server.address
            callback = WeightPushCallback(f"{host}:{port}", every=2,
                                          strict=True)
            trained = make_design("OS-ELM", n_hidden=8, seed=6)
            Trainer(callbacks=[callback]).fit(
                trained, config=TrainingConfig(max_episodes=5))
            callback.close()
            # episodes 2 and 4, plus the unconditional end-of-training push
            assert callback.pushes == 3
            assert callback.failed_pushes == 0
            states = _probe_states(trained, 12, seed=8)
            with PolicyClient(host, port) as client:
                np.testing.assert_array_equal(
                    client.act_many(states), _offline_greedy(trained, states))
                generation = client.stats()["designs"]["OS-ELM"]["generation"]
        assert generation == callback.pushes

    def test_lenient_mode_survives_a_dead_server(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        callback = WeightPushCallback(("127.0.0.1", dead_port), every=1)
        agent = make_design("OS-ELM", n_hidden=8, seed=13)
        result = Trainer(callbacks=[callback]).fit(
            agent, config=TrainingConfig(max_episodes=2))
        assert result.episodes == 2  # training survived every failed push
        assert callback.pushes == 0
        assert callback.failed_pushes >= 1

    def test_strict_mode_raises(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        callback = WeightPushCallback(("127.0.0.1", dead_port), every=1,
                                      strict=True)
        with pytest.raises(ServingError, match="cannot reach policy server"):
            Trainer(callbacks=[callback]).fit(
                make_design("OS-ELM", n_hidden=8, seed=13),
                config=TrainingConfig(max_episodes=2))


# ---------------------------------------------------------------- frame size guard
class TestFrameSizeGuard:
    def _framed_roundtrip(self, payload, **recv_kwargs):
        left, right = socket.socketpair()
        try:
            protocol.send_message(left, "kind", payload)
            return protocol.recv_message(right, **recv_kwargs)
        finally:
            left.close()
            right.close()

    def test_explicit_limit_enforced(self):
        with pytest.raises(protocol.ProtocolError, match="exceeds the 1024-byte"):
            self._framed_roundtrip(b"x" * 100_000, max_frame_bytes=1024)
        kind, payload = self._framed_roundtrip(b"small", max_frame_bytes=1024)
        assert (kind, payload) == ("kind", b"small")

    def test_nonpositive_limit_rejected(self):
        with pytest.raises(ValueError, match="must be positive"):
            self._framed_roundtrip(b"x", max_frame_bytes=0)

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(protocol.MAX_FRAME_ENV_VAR, "64")
        assert protocol.default_max_frame_bytes() == 64
        with pytest.raises(protocol.ProtocolError, match="64-byte limit"):
            self._framed_roundtrip(b"y" * 4096)

    @pytest.mark.parametrize("bad", ["not-a-number", "0", "-5"])
    def test_env_var_validated(self, monkeypatch, bad):
        monkeypatch.setenv(protocol.MAX_FRAME_ENV_VAR, bad)
        with pytest.raises(ValueError, match="positive integer"):
            protocol.default_max_frame_bytes()

    def test_env_var_unset_gives_default(self, monkeypatch):
        monkeypatch.delenv(protocol.MAX_FRAME_ENV_VAR, raising=False)
        assert protocol.default_max_frame_bytes() == protocol.MAX_FRAME_BYTES

    def test_broker_drops_oversized_frames(self):
        spec = SweepSpec(designs=("OS-ELM-L2",), n_seeds=1, n_hidden=8,
                         training=TrainingConfig(max_episodes=3), root_seed=99)
        with SweepBroker(spec.tasks(), max_frame_bytes=256) as broker:
            host, port = broker.address
            hostile = socket.create_connection((host, port), timeout=5.0)
            protocol.send_message(hostile, protocol.HELLO, "x" * 4096)
            hostile.settimeout(5.0)
            try:
                assert hostile.recv(1) == b""
            except ConnectionError:
                pass
            hostile.close()
            # A well-behaved worker still registers afterwards.
            polite = socket.create_connection((host, port), timeout=5.0)
            protocol.send_message(polite, protocol.HELLO,
                                  {"id": "polite",
                                   "wire": protocol.WIRE_VERSION})
            kind, info = protocol.recv_message(polite)
            assert kind == protocol.WELCOME and info["tasks"] == 1
            polite.close()
