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


def _act(value, design="d"):
    return protocol.ACT, (design, [float(value), 0.0, 0.0, 0.0])


# ---------------------------------------------------------------- scripted sockets
class _RawClient:
    """A bare socket speaking the serving protocol, one frame at a time."""

    def __init__(self, server, client_id="raw", handshake=True):
        host, port = server.address
        self.sock = socket.create_connection((host, port), timeout=5.0)
        if handshake:
            protocol.send_message(self.sock, protocol.HELLO, client_id)
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

    def test_welcome_advertises_serving(self, agents):
        with PolicyServer({"OS-ELM": _clone(agents["OS-ELM"])}) as server:
            raw = _RawClient(server)
            assert raw.welcome_info["serving"] is True
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
            doomed.send_many([(protocol.ACT, ("OS-ELM", state))
                              for state in states])
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
            raw.send_many([(protocol.ACT, ("OS-ELM", state[0])),
                           (protocol.SWAP, ("OS-ELM", pickle.dumps(new))),
                           (protocol.ACT, ("OS-ELM", state[1]))])
            assert raw.recv() == (protocol.ACTION, old.act(state[0], explore=False))
            assert raw.recv() == (protocol.SWAPPED,
                                  {"design": "OS-ELM", "generation": 1})
            assert raw.recv() == (protocol.ACTION, new.act(state[1], explore=False))
            raw.close()

    def test_non_finite_state_fails_only_its_request(self, agents):
        agent = agents["OS-ELM"]
        states = _probe_states(agent, 3, seed=5)
        states[1, 2] = np.nan
        with PolicyServer({"OS-ELM": _clone(agent)}) as server:
            raw = _RawClient(server)
            raw.send_many([(protocol.ACT, ("OS-ELM", state)) for state in states])
            assert raw.recv() == (protocol.ACTION,
                                  agent.act(states[0], explore=False))
            kind, reason = raw.recv()
            assert kind == protocol.ERROR and "NaN or Inf" in reason
            assert raw.recv() == (protocol.ACTION,
                                  agent.act(states[2], explore=False))
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
                assert raw.recv() == (protocol.ACTION, 1)
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
        burst = b"".join(protocol.encode_frame(protocol.ACT, ("OS-ELM", state))
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
                                  {"serving": True, "designs": ["OS-ELM"]})
            protocol.recv_message(connection)                   # ACT
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
                (protocol.ACTION, i) for i in range(10)]
            raw.close()
        assert echo.batches == batches

    def test_replies_stay_fifo_when_designs_interleave(self):
        a, b = _EchoAgent(), _EchoAgent(offset=100)
        with PolicyServer({"a": a, "b": b}) as server:
            raw = _RawClient(server)
            raw.send_many([_act(0, "a"), _act(1, "b"), _act(2, "a"),
                           _act(3, "b"), _act(4, "a")])
            assert [raw.recv() for _ in range(5)] == [
                (protocol.ACTION, action) for action in (0, 101, 2, 103, 4)]
            raw.close()
        assert (a.batches, b.batches) == ([[0, 2, 4]], [[1, 3]])

    def test_stats_reply_stays_in_order_behind_earlier_acts(self):
        echo = _EchoAgent()
        with PolicyServer({"d": echo}) as server:
            raw = _RawClient(server)
            raw.send_many([_act(0), _act(1), (protocol.STATS, None), _act(2)])
            assert raw.recv() == (protocol.ACTION, 0)
            assert raw.recv() == (protocol.ACTION, 1)
            kind, stats = raw.recv()
            assert kind == protocol.STATS
            assert stats["designs"]["d"]["requests"] == 2
            # The ACT behind the STATS frame is decoded, not yet answered.
            assert stats["batching"] == {"max_batch": 8, "queued": 1}
            assert raw.recv() == (protocol.ACTION, 2)
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
            assert parker.recv() == (protocol.ACTION, 99)
            assert lone.recv() == (protocol.ACTION, 50)
            assert [burst.recv() for _ in range(12)] == [
                (protocol.ACTION, i) for i in range(12)]
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
                (protocol.ACTION, i) for i in range(4)]
            for _ in range(4):
                assert raw.recv() == (protocol.ERROR,
                                      "dispatch failed: model exploded")
            raw.send(*_act(9))  # the connection and the loop live on
            assert raw.recv() == (protocol.ACTION, 9)
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
            protocol.send_message(polite, protocol.HELLO, "polite")
            kind, info = protocol.recv_message(polite)
            assert kind == protocol.WELCOME and info["tasks"] == 1
            polite.close()
