"""JobRecord and the durable job journal."""

from __future__ import annotations

import json

import pytest

import threading

from repro.resilience.faults import InjectedRunnerDeath, ServiceFaultPlan
from repro.service.jobs import (
    JOB_FORMAT,
    JobIdAllocator,
    JobJournal,
    JobJournalError,
    JobRecord,
)


def _record(job_id="job-000001", state="queued", **kw) -> JobRecord:
    defaults = dict(
        job_id=job_id,
        fingerprint="ab" * 32,
        model="vgg19_bench",
        tenant="ci",
        state=state,
    )
    defaults.update(kw)
    return JobRecord(**defaults)


class TestJobRecord:
    def test_round_trip(self):
        record = _record(state="done", source="cache", total_cycles=123)
        assert JobRecord.from_dict(record.to_dict()) == record

    def test_rejects_unknown_keys(self):
        doc = _record().to_dict()
        doc["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            JobRecord.from_dict(doc)

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing"):
            JobRecord.from_dict({"job_id": "job-000001"})

    def test_rejects_bad_state_and_source(self):
        with pytest.raises(ValueError):
            _record(state="paused")
        with pytest.raises(ValueError):
            _record(source="wishful")

    def test_terminal(self):
        assert not _record(state="queued").terminal
        assert not _record(state="running").terminal
        assert _record(state="done").terminal
        assert _record(state="failed").terminal
        assert _record(state="cancelled").terminal

    def test_advanced(self):
        done = _record(state="running").advanced("done", total_cycles=9)
        assert done.state == "done" and done.total_cycles == 9


class TestJobIdAllocator:
    def test_empty(self):
        assert JobIdAllocator(None).next() == "job-000001"
        assert JobIdAllocator({}).next() == "job-000001"

    def test_continues_after_highest(self):
        allocator = JobIdAllocator({"job-000002": None, "job-000007": None})
        assert allocator.next() == "job-000008"
        assert allocator.next() == "job-000009"

    def test_ignores_malformed_ids(self):
        allocator = JobIdAllocator({"weird": None, "job-abc": None})
        assert allocator.next() == "job-000001"

    def test_concurrent_draws_never_collide(self):
        """N unsynchronized submitters must each get a distinct id."""
        allocator = JobIdAllocator({})
        drawn: list[str] = []
        lock = threading.Lock()

        def draw() -> None:
            ids = [allocator.next() for _ in range(50)]
            with lock:
                drawn.extend(ids)

        threads = [threading.Thread(target=draw) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(drawn) == 8 * 50
        assert len(set(drawn)) == len(drawn)


class TestNextJobId:
    """The first id an allocator seeded from a journal's jobs hands out."""

    def test_continues_after_highest(self):
        jobs = {"job-000007": None, "job-000002": None, "job-000010": None}
        assert JobIdAllocator(jobs).next() == "job-000011"

    def test_ignores_malformed_ids(self):
        jobs = {"weird": None, "job-abc": None, "job-000003": None}
        assert JobIdAllocator(jobs).next() == "job-000004"


class TestLeaseFields:
    def test_round_trip(self):
        record = _record(
            state="running", runner_id="runner-3", lease_seq=17, attempt=2
        )
        assert JobRecord.from_dict(record.to_dict()) == record

    def test_defaults_are_unleased(self):
        record = _record()
        assert record.lease_seq == 0
        assert record.attempt == 0
        assert record.runner_id is None

    def test_rejects_negative_lease_fields(self):
        with pytest.raises(ValueError):
            _record(lease_seq=-1)
        with pytest.raises(ValueError):
            _record(attempt=-1)

    def test_journal_replays_lease_fields(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        journal = JobJournal(path)
        journal.open()
        job = _record()
        journal.record("queued", job)
        job = job.advanced(
            "running", runner_id="runner-1", lease_seq=1, attempt=1
        )
        journal.record("running", job)
        journal.close()
        replayed = JobJournal(path).open()["job-000001"]
        assert replayed.runner_id == "runner-1"
        assert replayed.lease_seq == 1
        assert replayed.attempt == 1


class TestJobJournal:
    def test_header_extras_journaled(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        journal = JobJournal(path)
        journal.open(header_extras={"max_attempts": 5})
        journal.close()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["max_attempts"] == 5
        # Reopen surfaces the persisted header.
        reopened = JobJournal(path)
        reopened.open()
        assert reopened.header["max_attempts"] == 5
        reopened.close()

    def test_version1_journal_still_loads(self, tmp_path):
        """Pre-lease journals (version 1, no lease fields) stay readable."""
        path = tmp_path / "jobs.jsonl"
        job = _record().to_dict()
        for key in ("lease_seq", "attempt", "runner_id"):
            del job[key]
        path.write_text(
            json.dumps({"format": JOB_FORMAT, "version": 1}) + "\n"
            + json.dumps({"event": "queued", "job": job}) + "\n"
        )
        replayed = JobJournal(path).open()
        record = replayed["job-000001"]
        assert record.state == "queued"
        assert record.lease_seq == 0 and record.attempt == 0

    def test_torn_journal_fault_poisons_and_recovers(self, tmp_path):
        """The injected torn append kills the journal mid-line; a reopen
        recovers everything up to the tear."""
        path = tmp_path / "jobs.jsonl"
        journal = JobJournal(
            path, faults=ServiceFaultPlan.single("torn-journal", index=1)
        )
        journal.open()
        job = _record()
        journal.record("queued", job)  # arrival 0: intact
        with pytest.raises(InjectedRunnerDeath):
            journal.record(
                "running",
                job.advanced(
                    "running", runner_id="runner-1", lease_seq=1, attempt=1
                ),
            )  # arrival 1: torn mid-line
        assert journal.closed
        with pytest.raises(RuntimeError):
            journal.record("queued", job)
        assert not path.read_text().endswith("\n")  # the tear is real
        replayed = JobJournal(path).open()
        assert replayed["job-000001"].state == "queued"
    def test_fresh_open_writes_header(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        journal = JobJournal(path)
        assert journal.open() == {}
        journal.close()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == JOB_FORMAT

    def test_replay_keeps_latest_record(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        journal = JobJournal(path)
        journal.open()
        job = _record()
        journal.record("queued", job)
        job = job.advanced("running")
        journal.record("running", job)
        job = job.advanced("done", total_cycles=42)
        journal.record("done", job)
        journal.close()

        replayed = JobJournal(path).open()
        assert replayed == {"job-000001": job}

    def test_event_state_mismatch_rejected(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.jsonl")
        journal.open()
        with pytest.raises(ValueError, match="disagrees"):
            journal.record("done", _record(state="queued"))

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        journal = JobJournal(path)
        journal.open()
        journal.record("queued", _record())
        journal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "running", "job": {"job_')  # the torn write
        replayed = JobJournal(path).open()
        assert replayed["job-000001"].state == "queued"

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        journal = JobJournal(path)
        journal.open()
        journal.record("queued", _record())
        journal.close()
        lines = path.read_text().splitlines()
        lines.insert(1, "garbage")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JobJournalError):
            JobJournal(path).open()

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text('{"format": "something-else", "version": 1}\n')
        with pytest.raises(JobJournalError, match="not a"):
            JobJournal(path).open()

    def test_append_requires_open(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.jsonl")
        with pytest.raises(RuntimeError):
            journal.record("queued", _record())
