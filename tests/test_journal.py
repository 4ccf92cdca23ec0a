"""The durable-journal primitive and the three journals built on it.

Every journal kind must survive repeated crashes: crash, resume, crash,
resume, resume — for each torn-tail shape a killed writer can leave —
without losing a committed record and without raising.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import pytest

import repro
from repro.cli import main
from repro.journal import Journal
from repro.resilience import CheckpointError, CheckpointJournal
from repro.resilience.faults import InjectedRunnerDeath, ServiceFaultPlan
from repro.service.events import EventLog, EventLogError
from repro.service.jobs import JobJournal, JobJournalError, JobRecord


def _journal(path: Path, **kw: Any) -> Journal:
    return Journal(
        path, format="atomic-test", versions=(1,), noun="test journal",
        error=ValueError, **kw,
    )


HEADER = {"format": "atomic-test", "version": 1}


class TestCommitRule:
    def test_fresh_open_writes_header_and_appends_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = _journal(path)
        assert j.open(HEADER) == []
        j.append({"n": 1})
        j.close()
        assert path.read_text().splitlines() == [
            json.dumps(HEADER, sort_keys=True), '{"n": 1}'
        ]
        assert _journal(path).open(HEADER) == [{"n": 1}]

    def test_record_without_newline_is_not_committed(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = _journal(path)
        j.open(HEADER)
        j.append({"n": 1})
        j.close()
        path.write_text(path.read_text() + '{"n": 2}')
        j = _journal(path)
        assert j.open(HEADER) == [{"n": 1}]
        j.append({"n": 3})
        j.close()
        assert _journal(path).open(HEADER) == [{"n": 1}, {"n": 3}]

    def test_rejected_final_line_is_truncated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = _journal(path)
        j.open(HEADER)
        j.append({"n": 1})
        j.close()
        path.write_text(path.read_text() + '{"bad": 1}\n')

        def decode(obj: dict) -> int:
            return obj["n"]

        j = _journal(path, decode=decode)
        assert j.open(HEADER) == [1]
        j.append({"n": 2})
        j.close()
        assert _journal(path, decode=decode).open(HEADER) == [1, 2]

    def test_rejected_middle_line_raises_owner_error(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps(HEADER) + '\ngarbage\n{"n": 1}\n')
        with pytest.raises(ValueError, match=r"j.jsonl:2: corrupt test journal"):
            _journal(path).open(HEADER)

    def test_header_without_newline_is_rewritten(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps(HEADER))
        j = _journal(path)
        assert j.open(HEADER) == []
        j.append({"n": 1})
        j.close()
        assert _journal(path).open(HEADER) == [{"n": 1}]

    def test_refused_header_leaves_file_untouched(self, tmp_path):
        path = tmp_path / "j.jsonl"
        text = json.dumps({**HEADER, "version": 2}) + "\n" + '{"n": 1'
        path.write_text(text)
        with pytest.raises(ValueError, match="version 2"):
            _journal(path).open(HEADER)
        assert path.read_text() == text

    def test_tear_fault_writes_prefix_and_closes(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = _journal(
            path,
            faults=ServiceFaultPlan.single("torn-journal", index=1),
            tear_fault="torn-journal",
        )
        j.open(HEADER)
        j.append({"n": 1}, what="first")
        with pytest.raises(InjectedRunnerDeath, match="@ second"):
            j.append({"n": 2}, what="second")
        assert j.closed
        assert not path.read_text().endswith("\n")
        assert _journal(path).open(HEADER) == [{"n": 1}]


# -- repeated crashes, per journal kind --------------------------------------

KEY = {"workload": "vgg", "seed": 0}


def _job(i: int) -> JobRecord:
    return JobRecord(
        job_id=f"job-{i:06d}", fingerprint="ab" * 32, model="m", tenant="t"
    )


@dataclass(frozen=True)
class Kind:
    """One journal kind, reduced to what the crash sequence needs."""

    name: str
    open: Callable[[Path], tuple[Any, list[str]]]  # -> (handle, record ids)
    append: Callable[[Any, int], None]
    record_id: Callable[[int], str]
    line: Callable[[int], str]  # record i as its writer puts it on disk
    rejected: str  # a whole line this kind's decoder refuses


def _open_checkpoint(path: Path) -> tuple[Any, list[str]]:
    journal = CheckpointJournal(path, KEY)
    return journal, sorted(journal.open(resume=True))


def _open_jobs(path: Path) -> tuple[Any, list[str]]:
    journal = JobJournal(path)
    return journal, sorted(journal.open())


def _open_events(path: Path) -> tuple[Any, list[str]]:
    log = EventLog(path)
    events = log.open()
    assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
    return log, [e["job_id"] for e in events]


KINDS = [
    Kind(
        "checkpoint",
        _open_checkpoint,
        lambda j, i: j.append({"label": f"r{i}", "fingerprint": "fp"}),
        lambda i: f"r{i}",
        lambda i: json.dumps({"fingerprint": "fp", "label": f"r{i}"}),
        '{"fingerprint": "fp"}',  # a record without a candidate label
    ),
    Kind(
        "jobs",
        _open_jobs,
        lambda j, i: j.record("queued", _job(i)),
        lambda i: f"job-{i:06d}",
        lambda i: json.dumps(
            {"event": "queued", "job": _job(i).to_dict()}, sort_keys=True
        ),
        '{"event": "queued", "job": {"job_id": "job-999999"}}',
    ),
    Kind(
        "events",
        _open_events,
        lambda log, i: log.append("submit", f"job-{i:06d}"),
        lambda i: f"job-{i:06d}",
        lambda i: json.dumps(
            {"job_id": f"job-{i:06d}", "kind": "submit", "seq": i + 1,
             "trace_id": None}
        ),
        '"not an event"',
    ),
]

#: The torn tails a writer killed while appending record ``i`` can leave.
SHAPES: dict[str, Callable[[Kind, int], str]] = {
    "mid-line fragment": lambda kind, i: kind.line(i)[: len(kind.line(i)) // 2],
    "whole record without newline": lambda kind, i: kind.line(i),
    "rejected final record": lambda kind, i: kind.rejected + "\n",
}


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
def test_repeated_crashes_lose_no_committed_record(kind, tmp_path):
    for shape, torn_tail in SHAPES.items():
        path = tmp_path / f"{shape.replace(' ', '-')}.jsonl"
        handle, ids = kind.open(path)
        assert ids == []
        kind.append(handle, 0)
        kind.append(handle, 1)
        handle.close()
        committed = [kind.record_id(0), kind.record_id(1)]
        for i in (2, 3):  # crash while appending record i, then resume
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(torn_tail(kind, i))
            handle, ids = kind.open(path)
            assert ids == committed, f"{shape}: resume after crash {i - 1}"
            kind.append(handle, i)
            handle.close()
            committed.append(kind.record_id(i))
        handle, ids = kind.open(path)  # a last, crash-free resume
        handle.close()
        assert ids == committed, f"{shape}: final resume"
        assert path.read_text().endswith("\n")


def test_owner_error_types_survive_the_port(tmp_path):
    alien = tmp_path / "alien.jsonl"
    alien.write_text('{"format": "something-else", "version": 1}\n')
    with pytest.raises(CheckpointError, match="not an"):
        CheckpointJournal(alien, KEY).open(resume=True)
    with pytest.raises(JobJournalError, match="not a"):
        JobJournal(alien).open()
    with pytest.raises(EventLogError, match="not a"):
        EventLog(alien).open()


# -- end to end: `repro optimize --checkpoint --resume` ----------------------


def _optimize(tmp_path: Path, name: str, *flags: str) -> dict:
    solution = tmp_path / f"{name}.json"
    argv = [
        "optimize", "--model", "vgg19_bench", "--mesh", "2x2",
        "--sa-iterations", "8", "--seed", "0", *flags,
        "--save", str(solution),
    ]
    assert main(argv) == 0
    return json.loads(solution.read_text())


def _decisions(doc: dict) -> list[tuple]:
    return [
        (t["label"], t["fingerprint"], t["accepted"], t["reason"],
         t["total_cycles"])
        for t in doc["search"]["traces"]
    ]


def _tear_final_record(path: Path, keep_bytes: Callable[[int], int]) -> None:
    data = path.read_bytes()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    path.write_bytes(data[: start + keep_bytes(len(data) - start)])


@pytest.mark.parametrize(
    "search",
    [("--restarts", "2"), ("--rungs", "3", "--exchange-every", "4")],
    ids=["restarts", "tempering"],
)
def test_cli_resume_after_repeated_tears(search, tmp_path, capsys):
    clean = _optimize(tmp_path, "clean", *search)
    journal = tmp_path / "ck.jsonl"
    resume = (*search, "--checkpoint", str(journal), "--resume")
    _optimize(tmp_path, "first", *resume)
    _tear_final_record(journal, lambda n: n // 2)  # mid-line fragment
    _optimize(tmp_path, "second", *resume)
    _tear_final_record(journal, lambda n: n - 1)  # record without newline
    _optimize(tmp_path, "third", *resume)
    final = _optimize(tmp_path, "final", *resume)

    assert _decisions(final) == _decisions(clean)
    assert {k: v for k, v in final.items() if k != "search"} == {
        k: v for k, v in clean.items() if k != "search"
    }
    evaluated = [
        t for t in final["search"]["traces"]
        if not t["reason"].startswith("deduplicated")
    ]
    assert evaluated and all(t["restored"] for t in evaluated)
    capsys.readouterr()
    assert main(["check", "--journal", str(journal)]) == 0


# -- one durable-journal primitive -------------------------------------------

_APPEND_MODE = re.compile(r"[rwxbt+]*a[rwxbt+]*")


def _durability_calls(tree: ast.AST) -> list[str]:
    """Every ``fsync`` reference and append-mode ``open`` in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in (
            "fsync", "O_APPEND"
        ):
            found.append(f"{node.lineno}: {node.attr}")
        elif isinstance(node, ast.Name) and node.id == "fsync":
            found.append(f"{node.lineno}: fsync")
        elif isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) == "open"
            or getattr(node.func, "attr", None) == "open"
        ):
            for arg in [*node.args, *(k.value for k in node.keywords)]:
                for const in ast.walk(arg):
                    if (
                        isinstance(const, ast.Constant)
                        and isinstance(const.value, str)
                        and _APPEND_MODE.fullmatch(const.value)
                    ):
                        found.append(f"{node.lineno}: open(..., {const.value!r})")
    return found


def test_only_the_journal_primitive_fsyncs_or_appends():
    root = Path(repro.__file__).parent
    offenders = {
        str(path.relative_to(root)): hits
        for path in sorted(root.rglob("*.py"))
        if path.name != "journal.py" or path.parent != root
        if (hits := _durability_calls(ast.parse(path.read_text())))
    }
    assert offenders == {}
    assert _durability_calls(ast.parse((root / "journal.py").read_text()))


def test_durability_guard_sees_the_forbidden_forms():
    source = (
        "import os\n"
        "os.fsync(fd)\n"
        "open(p, 'a')\n"
        "open(p, mode='ab')\n"
        "p.open('a' if x else 'w')\n"
        "open(p, 'w')\n"
        "open('data.json')\n"
    )
    hits = _durability_calls(ast.parse(source))
    assert sorted(int(hit.split(":")[0]) for hit in hits) == [2, 3, 4, 5]
