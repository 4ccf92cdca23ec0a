"""Durable append-only JSONL journals: the one discipline every log shares.

The candidate checkpoint (:mod:`repro.resilience.checkpoint`), the job
journal (:mod:`repro.service.jobs`) and the service event log
(:mod:`repro.service.events`) are all a :class:`Journal`:

* line 1 is a header ``{"format": ..., "version": ..., ...}``; a reopen
  refuses a file whose format or version it cannot read;
* every further line is one JSON object, written by one
  ``write + flush + fsync`` per append, so a writer may die at any byte;
* **commit rule** — a record counts only when its trailing newline is on
  disk *and* the owner's decoder accepts it.  Any other final line is the
  torn write of a killed writer: :meth:`Journal.open` truncates it before
  the first append, so the next record always starts on a clean line.  A
  line the decoder rejects anywhere *before* the final one is corruption
  and raises the owner's error type.

The journal never rewrites or compacts: a reopen appends to the same
file, so one file accumulates the full history across any number of
interruptions.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.resilience.faults import InjectedRunnerDeath, ServiceFaultPlan


def _object(raw: bytes) -> dict[str, Any]:
    obj = json.loads(raw)  # malformed JSON or UTF-8 raises a ValueError
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    return obj


@dataclass(eq=False)
class Journal:
    """One append-only JSONL file under the commit rule.

    ``decode`` turns a record object into the owner's value (raising
    ``KeyError``, ``TypeError`` or ``ValueError`` rejects the line);
    ``check_header`` runs on a replayed header before anything on disk
    is touched; ``error`` is the owner's exception type.  With
    ``faults``, a ``tear_fault`` arrival makes one append write only a
    prefix of its line and close the journal — a writer killed
    mid-``fsync`` — then raise
    :class:`~repro.resilience.faults.InjectedRunnerDeath`.
    """

    path: str | os.PathLike
    format: str
    versions: tuple[int, ...]
    noun: str
    error: type[Exception]
    decode: Callable[[dict[str, Any]], Any] = lambda obj: obj
    check_header: Callable[[dict[str, Any]], None] | None = None
    faults: ServiceFaultPlan | None = None
    tear_fault: str | None = None
    header: dict[str, Any] = field(default_factory=dict, init=False)
    _fh: io.TextIOBase | None = field(default=None, init=False, repr=False)

    @property
    def closed(self) -> bool:
        return self._fh is None

    def open(self, header: Mapping[str, Any], resume: bool = True) -> list[Any]:
        """Open for appending; return the decoded committed records.

        With ``resume`` and an existing file, the file is replayed (its
        own header kept as :attr:`header`) and a torn tail truncated;
        otherwise the file is (re)created with ``header``.
        """
        if resume and os.path.exists(self.path):
            self.header, records, committed = self.replay()
            if committed < os.path.getsize(self.path):
                with open(self.path, "r+b") as raw:
                    raw.truncate(committed)
        else:
            self.header, records, committed = dict(header), [], 0
        self._fh = open(self.path, "a" if committed else "w", encoding="utf-8")
        if not committed:
            self._write(json.dumps(self.header, sort_keys=True))
        return records

    def close(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.close()

    def append(self, obj: Mapping[str, Any], what: str = "") -> None:
        """Durably append one record (``what`` names it in a torn-write
        fault's message)."""
        if self._fh is None:
            raise RuntimeError(f"{self.noun} is not open")
        line = json.dumps(obj, sort_keys=True)
        if self.faults is not None and self.faults.take(self.tear_fault or "") is not None:
            self._write(line[: max(1, len(line) // 2)], end="")
            self.close()  # the journal dies with the write
            raise InjectedRunnerDeath(f"injected torn {self.noun} append @ {what}")
        self._write(line)

    def _write(self, line: str, end: str = "\n") -> None:
        assert self._fh is not None
        self._fh.write(line + end)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def replay(self) -> tuple[dict[str, Any], list[Any], int]:
        """Read the file: ``(header, records, committed_bytes)``, where
        anything past ``committed_bytes`` is torn (a header still missing
        its newline commits nothing)."""
        with open(self.path, "rb") as fh:
            data = fh.read()
        if not data:
            raise self.error(f"{self.path}: empty {self.noun}")
        lines = data.split(b"\n")
        tail = lines.pop()  # b"" when the file ends on a newline
        try:
            header = _object(lines[0] if lines else tail)
        except ValueError:
            header = {}
        if header.get("format") != self.format:
            raise self.error(f"{self.path}: not an {self.format} {self.noun}")
        if header.get("version") not in self.versions:
            expected = " or ".join(str(v) for v in self.versions)
            raise self.error(
                f"{self.path}: unsupported {self.noun} version "
                f"{header.get('version')!r} (expected {expected})"
            )
        if self.check_header is not None:
            self.check_header(header)
        records: list[Any] = []
        committed = len(lines[0]) + 1 if lines else 0
        for line_no, raw in enumerate(lines[1:], start=2):
            try:
                records.append(self.decode(_object(raw)))
            except (KeyError, TypeError, ValueError) as exc:
                if line_no == len(lines):
                    break  # a final line the decoder rejects is torn
                raise self.error(
                    f"{self.path}:{line_no}: corrupt {self.noun} line ({exc})"
                ) from exc
            committed += len(raw) + 1
        return header, records, committed


__all__ = ["Journal"]
