"""The broker's write-ahead journal: record/replay, crash tolerance, resume.

Unit tests drive :class:`~repro.distributed.journal.SweepJournal` directly;
the broker-level tests restart a :class:`~repro.distributed.broker.
SweepBroker` on the journal a previous broker instance left behind — the
in-process equivalent of the SIGKILL scenario `tests/test_chaos.py` runs
against a real subprocess.
"""

import socket
import time

import pytest

from repro.distributed import protocol
from repro.distributed.broker import SweepBroker
from repro.distributed.journal import (
    JournalError,
    SweepJournal,
    count_deliveries,
    task_journal_key,
)
from repro.parallel.sweep import SweepSpec
from repro.training import TrainingConfig

from conftest import tagged_result


def _tiny_tasks(n_seeds=2, root_seed=99):
    spec = SweepSpec(designs=("OS-ELM-L2",), n_seeds=n_seeds, n_hidden=8,
                     training=TrainingConfig(max_episodes=3),
                     root_seed=root_seed)
    return spec.tasks()


class _ScriptedWorker:
    """A bare socket speaking the worker protocol (see test_distributed_broker)."""

    def __init__(self, broker, worker_id="scripted"):
        host, port = broker.address
        self.sock = socket.create_connection((host, port), timeout=5.0)
        protocol.send_message(self.sock, protocol.HELLO,
                              {"id": worker_id, "wire": protocol.WIRE_VERSION})
        kind, info = protocol.recv_message(self.sock)
        assert kind == protocol.WELCOME
        self.welcome_info = info
        self.tasks = broker.tasks

    def get(self, capacity=1):
        protocol.send_message(self.sock, protocol.GET, capacity)
        return protocol.recv_message(self.sock)

    def send_result(self, index, result="result", backend="distributed"):
        """Deliver a result for task ``index`` tagged ``result``."""
        protocol.send_message(self.sock, protocol.RESULT,
                              (index, tagged_result(self.tasks[index], result),
                               backend))
        kind, fresh = protocol.recv_message(self.sock)
        assert kind == protocol.ACK
        return fresh

    def close(self):
        self.sock.close()


def _wait_until(predicate, timeout=5.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {message}")


class TestSweepJournalUnit:
    def test_missing_file_replays_to_nothing(self, tmp_path):
        replay = SweepJournal(tmp_path / "never-written.journal").load()
        assert replay.results == {}
        assert replay.sessions == 0
        assert not replay.truncated_tail

    def test_record_roundtrip(self, tmp_path):
        path = tmp_path / "sweep.journal"
        with SweepJournal(path) as journal:
            journal.open(tasks=3, done=0)
            journal.record_lease(["k0", "k1"], "w0")
            journal.record_deliver("k0", {"curve": [1, 2, 3]}, "distributed")
            journal.record_requeue(["k1"], "w0", reason="disconnect")
            journal.record_drain(["w0"])
        replay = SweepJournal(path).load()
        assert replay.sessions == 1
        assert replay.leases == 2
        assert replay.requeues == 1
        assert replay.drains == 1
        assert replay.delivered == 1
        result, backend = replay.results["k0"]
        assert result == {"curve": [1, 2, 3]}
        assert backend == "distributed"
        assert not replay.truncated_tail

    def test_truncated_tail_is_tolerated_and_flagged(self, tmp_path):
        path = tmp_path / "sweep.journal"
        with SweepJournal(path) as journal:
            journal.open(tasks=1, done=0)
            journal.record_deliver("k0", "r0", "distributed")
        # The broker died mid-append: a dangling partial record, no newline.
        with open(path, "ab") as fh:
            fh.write(b'{"op":"deliver","key":"k1","resu')
        replay = SweepJournal(path).load()
        assert replay.truncated_tail
        assert list(replay.results) == ["k0"]    # the partial line is ignored

    def test_malformed_mid_file_record_raises(self, tmp_path):
        path = tmp_path / "sweep.journal"
        path.write_bytes(b'not json at all\n{"op":"open","version":1}\n')
        with pytest.raises(JournalError, match="malformed"):
            SweepJournal(path).load()

    def test_unknown_op_raises(self, tmp_path):
        path = tmp_path / "sweep.journal"
        path.write_bytes(b'{"op":"explode"}\n')
        with pytest.raises(JournalError, match="unknown journal op"):
            SweepJournal(path).load()

    def test_future_format_version_refused(self, tmp_path):
        path = tmp_path / "sweep.journal"
        path.write_bytes(b'{"op":"open","version":999}\n')
        with pytest.raises(JournalError, match="v999"):
            SweepJournal(path).load()

    def test_duplicate_deliveries_first_wins(self, tmp_path):
        path = tmp_path / "sweep.journal"
        with SweepJournal(path) as journal:
            journal.open(tasks=1, done=0)
            journal.record_deliver("k0", "first", "distributed")
            journal.record_deliver("k0", "second", "distributed")
        replay = SweepJournal(path).load()
        assert replay.results["k0"] == ("first", "distributed")

    def test_count_deliveries_tolerates_partial_tail(self, tmp_path):
        path = tmp_path / "sweep.journal"
        assert count_deliveries(path) == 0       # missing file: zero, no raise
        with SweepJournal(path) as journal:
            journal.open(tasks=2, done=0)
            journal.record_deliver("k0", "r0", "distributed")
            journal.record_deliver("k1", "r1", "distributed")
        with open(path, "ab") as fh:
            fh.write(b'{"op":"deliver","key":"k2"')  # partial: not counted
        assert count_deliveries(path) == 2

    def test_append_requires_open(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.journal")
        with pytest.raises(RuntimeError, match="not open"):
            journal.append("lease", keys=[], worker="w")


class TestBrokerJournalReplay:
    def test_restarted_broker_resumes_where_the_first_stopped(self, tmp_path):
        path = tmp_path / "sweep.journal"
        tasks = _tiny_tasks(2)
        first = SweepBroker(tasks, journal=str(path)).start()   # str coerces
        try:
            worker = _ScriptedWorker(first, "w0")
            kind, [(index, _task)] = worker.get()
            assert kind == protocol.TASKS and index == 0
            assert worker.send_result(0, result="r0") is True
            worker.close()
        finally:
            first.close()                     # "crash": task 1 never ran
        assert count_deliveries(path) == 1

        second = SweepBroker(_tiny_tasks(2), journal=path).start()
        try:
            assert second.journal_replayed_results == 1
            snap = second.stats_snapshot()
            assert snap["tasks"] == {"total": 2, "queued": 1,
                                     "leased": 0, "done": 1}
            assert snap["counters"]["journal_replayed"] == 1
            worker = _ScriptedWorker(second, "w1")
            kind, [(index, _task)] = worker.get()
            assert kind == protocol.TASKS and index == 1   # not task 0 again
            assert worker.send_result(1, result="r1") is True
            assert second.join(timeout=2.0)
            assert [r.tag for r, _ in second.results()] == ["r0", "r1"]
            worker.close()
        finally:
            second.close()
        # Two broker sessions on one journal, both recorded.
        assert SweepJournal(path).load().sessions == 2

    def test_in_flight_lease_at_crash_is_requeued_on_restart(self, tmp_path):
        path = tmp_path / "sweep.journal"
        first = SweepBroker(_tiny_tasks(1), journal=path).start()
        try:
            worker = _ScriptedWorker(first, "doomed")
            kind, _payload = worker.get()
            assert kind == protocol.TASKS     # lease held, never delivered
        finally:
            first.close()
        replay = SweepJournal(path).load()
        assert replay.leases == 1 and replay.delivered == 0
        second = SweepBroker(_tiny_tasks(1), journal=path).start()
        try:
            assert second.stats_snapshot()["tasks"]["queued"] == 1
            survivor = _ScriptedWorker(second, "survivor")
            kind, [(index, _task)] = survivor.get()
            assert kind == protocol.TASKS and index == 0
            survivor.send_result(0)
            assert second.join(timeout=2.0)
            survivor.close()
        finally:
            second.close()

    def test_journal_from_a_different_grid_matches_nothing(self, tmp_path):
        path = tmp_path / "sweep.journal"
        first = SweepBroker(_tiny_tasks(1, root_seed=7), journal=path).start()
        try:
            worker = _ScriptedWorker(first, "w0")
            worker.get()
            worker.send_result(0, result="foreign")
            worker.close()
        finally:
            first.close()
        # Same shape, different root seed: every trial_key differs, so the
        # foreign journal restores nothing instead of poisoning the queue.
        second = SweepBroker(_tiny_tasks(1, root_seed=8), journal=path)
        try:
            assert second.journal_replayed_results == 0
            assert second.stats_snapshot()["tasks"]["queued"] == 1
        finally:
            second.close()

    def test_duplicate_redelivery_after_replay_is_deduped(self, tmp_path):
        """A worker that computed a result during the outage redelivers it
        to the restarted broker; the replayed copy already won."""
        path = tmp_path / "sweep.journal"
        tasks = _tiny_tasks(1)
        first = SweepBroker(tasks, journal=path).start()
        try:
            worker = _ScriptedWorker(first, "w0")
            worker.get()
            assert worker.send_result(0, result="original") is True
            worker.close()
        finally:
            first.close()
        second = SweepBroker(_tiny_tasks(1), journal=path).start()
        try:
            late = _ScriptedWorker(second, "w0")
            assert late.send_result(0, result="stale-copy") is False
            assert second.duplicate_results == 1
            assert [r.tag for r, _ in second.results()] == ["original"]
            late.close()
        finally:
            second.close()

    def test_journal_records_lease_requeue_and_drain_ops(self, tmp_path):
        path = tmp_path / "sweep.journal"
        broker = SweepBroker(_tiny_tasks(2), journal=path).start()
        try:
            doomed = _ScriptedWorker(broker, "doomed")
            doomed.get()
            assert broker.mark_draining(["doomed"])["marked"] == ["doomed"]
            doomed.close()                   # disconnect: requeue journaled
            _wait_until(lambda: broker.requeued_tasks == 1,
                        message="disconnect requeue")
        finally:
            broker.close()
        replay = SweepJournal(path).load()
        assert replay.leases == 1
        assert replay.requeues == 1
        assert replay.drains == 1

    def test_journal_key_is_the_store_content_address(self):
        from repro.api.store import trial_key

        task = _tiny_tasks(1)[0]
        assert task_journal_key(task) == trial_key(task)

    def test_journalless_broker_reports_zero_counters(self):
        """With no journal the broker's books are unchanged from v1.7."""
        with SweepBroker(_tiny_tasks(1)) as broker:
            assert broker.journal is None
            snap = broker.stats_snapshot()
            assert snap["counters"]["journal_replayed"] == 0
            assert snap["counters"]["worker_reconnections"] == 0

    def test_journal_rejected_off_the_distributed_backend(self, tmp_path):
        from repro.api.engine import run
        from repro.api.spec import ExperimentSpec
        from repro.parallel.sweep import SweepRunner

        with pytest.raises(ValueError, match="journal"):
            SweepRunner(_tiny_tasks(1), backend="serial",
                        journal=str(tmp_path / "j"))
        spec = ExperimentSpec(name="nope", designs=("OS-ELM-L2",),
                              hidden_sizes=(8,), n_seeds=1)
        with pytest.raises(ValueError, match="journal"):
            run(spec, backend="serial", journal=str(tmp_path / "j"))
