"""The ``serve_policy`` workload: a trained policy behind a ``PolicyServer``.

A policy is trained on the serial path from ``--seed``, pickled, and loaded
by a :class:`~repro.serving.PolicyServer` with default knobs running in a
process of its own.  This process drives it in two phases per round:

* closed loop: 2 blocking clients on 2 threads, each sending its next
  ``act()`` only after the last reply, so the micro-batcher waits out
  ``max_wait_us`` for requests that cannot arrive;
* pipelined: 1 client streaming ``act_many`` chunks, so batches fill.

Requests walk a seeded observation stream.  Every served action is compared
with the offline ``agent.act(state, explore=False)`` for the same state; a
mismatch, an ``ERROR`` frame or a client exception is a failed request.
"""

from __future__ import annotations

import multiprocessing
import pickle
import resource
import statistics
import threading
import time
from array import array
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import PolicyClient, PolicyServer, Trainer, TrainingConfig, make_design
from repro.distributed import protocol
from repro.serving.client import ServingError

from spans import SpanRecorder, patched
from train_workloads import traffic, traffic_since, validation_targets

DESIGN = "OS-ELM-L2-Lipschitz"
N_HIDDEN = 64
POLICY_EPISODES = 40
STREAM = 4096            #: observations in the seeded stream
CLIENTS = 2              #: closed-loop clients, one thread each
CHUNK = 64               #: states per pipelined act_many call
ROUNDS = 3               #: server start-ups per untraced run
CLOSED_SHARE = 0.7       #: share of a round's budget spent in the closed loop
START_TIMEOUT_S = 60.0


def train_policy(seed: int) -> Any:
    agent = make_design(DESIGN, n_hidden=N_HIDDEN, seed=seed)
    Trainer().fit(agent, config=TrainingConfig(max_episodes=POLICY_EPISODES,
                                               stop_when_solved=False, seed=seed))
    return agent


def observation_stream(seed: int) -> np.ndarray:
    """Seeded CartPole-shaped observations around the upright pole."""
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, (1.0, 1.0, 0.1, 1.0), size=(STREAM, 4))


# ---------------------------------------------------------------------- server process
def server_main(conn: Any, blob: bytes, trace: bool) -> None:
    """Host the policy until told to stop; report peak RSS, and (``trace``)
    the time and rows of the agent's ``act_batch`` and validation calls."""
    agent = pickle.loads(blob)
    rows = array("q")
    recorder = SpanRecorder()
    if trace:
        inner = recorder.wrap("serving.act_batch", agent.act_batch)

        def act_batch(states: np.ndarray, **kwargs: Any) -> np.ndarray:
            rows.append(len(states))
            return inner(states, **kwargs)

        agent.act_batch = act_batch
    server = PolicyServer({DESIGN: agent}).start()
    try:
        with patched(recorder, validation_targets() if trace else []):
            conn.send(server.address)
            conn.recv()
    finally:
        server.close()
    summary = recorder.summary()
    conn.send({
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "act_batch_calls": summary.calls("serving.act_batch"),
        "act_batch_s": summary.seconds("serving.act_batch"),
        "act_batch_rows": int(sum(rows)),
        "validation_calls": summary.calls("validation.ensure_2d",
                                          "validation.check_array"),
    })
    conn.close()


# ---------------------------------------------------------------------- client phases
class Served(NamedTuple):
    indices: array        #: stream index of each answered request
    actions: array        #: the served action
    latencies: array      #: client round trip, seconds (closed loop only)
    failures: int


def closed_loop(clients: Sequence[Any], states: np.ndarray, *,
                seconds: Optional[float] = None,
                counts: Optional[Sequence[int]] = None) -> Tuple[List[Served], float]:
    """Each client sends its next ``act`` after the last reply; returns wall time."""
    barrier = threading.Barrier(len(clients) + 1, timeout=START_TIMEOUT_S)
    served: List[Optional[Served]] = [None] * len(clients)
    errors: List[BaseException] = []

    def drive(k: int) -> None:
        try:
            client = clients[k]
            indices, actions, latencies = array("q"), array("q"), array("d")
            failures = 0
            index = k
            barrier.wait()
            deadline = time.perf_counter() + seconds if seconds is not None else None
            done = 0
            while (done < counts[k] if counts is not None
                   else time.perf_counter() < deadline):
                state_index = index % len(states)
                sent = time.perf_counter()
                try:
                    action = client.act(states[state_index])
                except ServingError:
                    failures += 1
                else:
                    latencies.append(time.perf_counter() - sent)
                    indices.append(state_index)
                    actions.append(action)
                index += len(clients)
                done += 1
            served[k] = Served(indices, actions, latencies, failures)
        except BaseException as error:  # surfaced in the calling thread
            errors.append(error)
            raise

    threads = [threading.Thread(target=drive, args=(k,), name=f"perfbench-client-{k}")
               for k in range(len(clients))]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return [s for s in served if s is not None], wall


def pipelined(client: Any, states: np.ndarray, *, seconds: Optional[float] = None,
              rows: Optional[int] = None) -> Tuple[Served, float]:
    """Stream ``act_many`` chunks through one connection; returns wall time."""
    indices, actions = array("q"), array("q")
    failures = 0
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else None
    offset = 0
    while (offset < rows if rows is not None else time.perf_counter() < deadline):
        first = offset % len(states)
        chunk = range(first, first + CHUNK)
        try:
            replies = client.act_many(states[first:first + CHUNK])
        except ServingError:
            failures += CHUNK
        else:
            indices.extend(chunk)
            actions.extend(int(action) for action in replies)
        offset += CHUNK
    return Served(indices, actions, array("d"), failures), time.perf_counter() - start


class Round(NamedTuple):
    setup_s: float
    closed: List[Served]
    closed_s: float
    piped: Served
    piped_s: float
    stats_closed: Dict[str, Any]
    stats_end: Dict[str, Any]
    server: Dict[str, Any]
    traffic: Dict[str, int]     #: frames and bytes the clients sent and received


def serve_round(blob: bytes, states: np.ndarray, *,
                seconds: Optional[float] = None,
                counts: Optional[Tuple[List[int], int]] = None,
                recorder: Optional[SpanRecorder] = None) -> Round:
    """Start a server, run both phases against it, stop it and wait for it.

    Phases run for ``seconds`` in total, or send exactly ``counts`` requests
    (per closed-loop client, then pipelined).  With a ``recorder`` both the
    clients here and the server's ``act_batch`` are traced.
    """
    context = multiprocessing.get_context("spawn")
    parent, child = context.Pipe()
    start = time.perf_counter()
    process = context.Process(target=server_main,
                              args=(child, blob, recorder is not None),
                              name="perfbench-policy-server")
    process.start()
    child.close()
    clients: List[Any] = []
    server: Dict[str, Any] = {}
    try:
        if not parent.poll(START_TIMEOUT_S):
            raise RuntimeError("policy server did not report its address")
        host, port = parent.recv()
        clients = [PolicyClient(host, port, design=DESIGN) for _ in range(CLIENTS)]
        setup_s = time.perf_counter() - start
        before = traffic()
        targets = (client_targets() + validation_targets()
                   if recorder is not None else [])
        with patched(recorder or SpanRecorder(), targets):
            if counts is None:
                closed, closed_s = closed_loop(clients, states,
                                               seconds=seconds * CLOSED_SHARE)
            else:
                closed, closed_s = closed_loop(clients, states, counts=counts[0])
            stats_closed = clients[0].stats()
            if counts is None:
                piped, piped_s = pipelined(clients[0], states,
                                           seconds=seconds * (1 - CLOSED_SHARE))
            else:
                piped, piped_s = pipelined(clients[0], states, rows=counts[1])
            stats_end = clients[0].stats()
        sent = traffic_since(before)
    finally:
        for client in clients:
            client.close()
        if process.is_alive():
            try:
                parent.send("stop")
                if parent.poll(30.0):
                    server = parent.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
        process.join(10.0)
        if process.is_alive():
            process.terminate()
            process.join(5.0)
        parent.close()
    return Round(setup_s, closed, closed_s, piped, piped_s, stats_closed,
                 stats_end, server, sent)


def client_targets() -> List[Tuple[Any, str, str]]:
    return [(PolicyClient, "act", "serving.client.act"),
            (PolicyClient, "act_many", "serving.client.act_many"),
            (PolicyClient, "stats", "serving.client.stats"),
            (protocol, "send_message", "protocol.send"),
            (protocol, "recv_message", "protocol.recv")]


# ---------------------------------------------------------------------- metrics
def _histogram(stats: Dict[str, Any], name: str) -> Dict[str, float]:
    return stats["metrics"]["histograms"][name]


def _batch_mean(before: Optional[Dict[str, Any]], after: Dict[str, Any]) -> float:
    hist_after = _histogram(after, "serving.batch_size")
    count, total = hist_after["count"], hist_after["sum"]
    if before is not None:
        hist_before = _histogram(before, "serving.batch_size")
        count -= hist_before["count"]
        total -= hist_before["sum"]
    return total / count if count else 0.0


def _latencies(rounds: Sequence[Round]) -> List[float]:
    return sorted(value for r in rounds for s in r.closed for value in s.latencies)


def _percentile(ordered: Sequence[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(traced: Round, recorder: SpanRecorder) -> Tuple[Dict[str, float], str]:
    """Per-request work, overhead, traffic and validation of the traced
    round, and a report of its spans and serving figures for standard error.

    Work is the hosted agent's ``act_batch``; the server's batcher is the
    one lane, so the rest of the round's wall time is overhead.
    """
    wall = traced.closed_s + traced.piped_s
    ops = (sum(len(s.actions) for s in traced.closed) + len(traced.piped.actions))
    server = traced.server
    summary = recorder.summary()
    validation_calls = server["validation_calls"] + summary.calls(
        "validation.ensure_2d", "validation.check_array")
    metrics = {
        "work.compute_us_per_op": server["act_batch_s"] / ops * 1e6,
        "work.overhead_us_per_op": (wall - server["act_batch_s"]) / ops * 1e6,
        "transport.frames_per_op": traced.traffic["frames"] / ops,
        "transport.bytes_per_op": traced.traffic["bytes"] / ops,
        "validation.calls_per_op": validation_calls / ops,
    }
    latencies = _latencies([traced])
    server_p50_us = _histogram(traced.stats_closed,
                               "serving.request_latency_seconds")["p50"] * 1e6
    figures = {
        "client p50 / p99 ms (closed loop)": (_percentile(latencies, 0.5) * 1e3,
                                              _percentile(latencies, 0.99) * 1e3),
        "server request latency p50 us (closed loop)": server_p50_us,
        "batch size mean (closed, pipelined)": (
            _batch_mean(None, traced.stats_closed),
            _batch_mean(traced.stats_closed, traced.stats_end)),
        "act_batch us per call, per row": (
            server["act_batch_s"] / server["act_batch_calls"] * 1e6,
            server["act_batch_s"] / server["act_batch_rows"] * 1e6),
    }
    lines = [f"{name}: {value}" for name, value in figures.items()]
    return metrics, "\n".join([summary.render(wall)] + lines)


def offline_actions(agent: Any, states: np.ndarray) -> np.ndarray:
    return np.array([agent.act(state, explore=False) for state in states],
                    dtype=np.int64)


def check_served(rounds: Sequence[Round], expected: np.ndarray) -> Tuple[int, int, int]:
    """(requests attempted, failed, mismatched) over every phase of every round."""
    attempted = failed = mismatched = 0
    for r in rounds:
        for served in list(r.closed) + [r.piped]:
            got = np.frombuffer(served.actions, dtype=np.int64)
            want = expected[np.frombuffer(served.indices, dtype=np.int64)]
            bad = int(np.count_nonzero(got != want))
            attempted += got.size + served.failures
            failed += served.failures + bad
            mismatched += bad
        server_errors = int(r.stats_end["metrics"]["counters"].get("serving.errors", 0))
        failed += max(0, server_errors - sum(s.failures for s in r.closed)
                      - r.piped.failures)
    return attempted, failed, mismatched


def run(seed: int, seconds: float, trace: bool, import_s: float) -> Dict[str, Any]:
    """One run: three time-boxed rounds, or (``trace``) an untraced round and
    a traced round doing the same number of requests."""
    start = time.perf_counter()
    agent = train_policy(seed)
    blob = pickle.dumps(agent, protocol=pickle.HIGHEST_PROTOCOL)
    states = observation_stream(seed)
    policy_s = time.perf_counter() - start

    if trace:
        untraced = serve_round(blob, states, seconds=seconds)
        counts = ([len(s.actions) + s.failures for s in untraced.closed],
                  len(untraced.piped.actions) + untraced.piped.failures)
        recorder = SpanRecorder()
        traced = serve_round(blob, states, counts=counts, recorder=recorder)
        rounds = [untraced, traced]
    else:
        rounds = [serve_round(blob, states, seconds=seconds / ROUNDS)
                  for _ in range(ROUNDS)]

    expected = offline_actions(agent, states)
    attempted, failed, mismatched = check_served(rounds, expected)
    checks = [("served actions equal offline act(explore=False)", mismatched == 0,
               f"{mismatched} mismatched")]

    closed_n = sum(len(s.actions) for r in rounds for s in r.closed)
    piped_n = sum(len(r.piped.actions) for r in rounds)
    if trace:
        untraced, traced = rounds
        metrics, report = layer_metrics(traced, recorder)
        metrics.update({
            "setup.import_s": import_s,
            "setup.warmup_s": policy_s,
            "setup.build_s": statistics.median(r.setup_s for r in rounds),
            "trace.overhead": ((traced.closed_s + traced.piped_s)
                               / (untraced.closed_s + untraced.piped_s) - 1.0),
        })
        latencies = _latencies([traced])
    else:
        latencies = _latencies(rounds)
        metrics = {
            "ops_per_s": piped_n / sum(r.piped_s for r in rounds),
            "p50_ms": _percentile(latencies, 0.5) * 1e3,
            "setup_s": import_s + policy_s
                       + statistics.median(r.setup_s for r in rounds),
            "peak_rss_mb": max(r.server["maxrss_kb"] for r in rounds) / 1024.0,
        }
        report = ""
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "summary": (f"serve_policy: {len(rounds)} rounds, {closed_n} closed-loop "
                    f"and {piped_n} pipelined replies, {len(latencies)} latency "
                    f"samples"),
        "report": report,
    }
