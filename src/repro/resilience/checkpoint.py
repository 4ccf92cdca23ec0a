"""Append-only JSONL checkpoint journal for the staged search.

A journal records every candidate the search *finished* evaluating, so a
crashed or interrupted run resumes by re-evaluating zero completed
candidates.  It is a :class:`repro.journal.Journal`:

* the header carries ``key``, everything that determines the candidate
  set and its results (workload, architecture, seed, restarts, search
  knobs).  A resume against a journal whose key differs is refused
  (:class:`CheckpointError`) rather than silently mixing two searches;
* every further line is one completed-candidate record (shape owned by
  :mod:`repro.pipeline`, which also re-verifies each record's tiling
  fingerprint on restore — a record this module accepts is *syntactically*
  sound, not yet trusted).  A record commits once its newline is on disk
  and it carries a candidate label; a torn final line is truncated on
  resume.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.journal import Journal

#: Format tag in the journal header; bump :data:`CHECKPOINT_VERSION` on
#: any record-shape change.
CHECKPOINT_FORMAT = "atomic-dataflow-checkpoint"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """The journal cannot be used: wrong format, version, or search key."""


def _labeled(record: dict[str, Any]) -> dict[str, Any]:
    label = record.get("label")
    if not isinstance(label, str) or not label:
        raise ValueError("record has no candidate label")
    return record


class CheckpointJournal:
    """One append-only JSONL journal bound to one search key.

    Usage::

        journal = CheckpointJournal(path, key)
        records = journal.open(resume=True)   # label -> record dict
        ...
        journal.append(record)                # after each completed candidate
        journal.close()

    ``key`` must be a JSON round-trippable dict; equality after a
    ``json`` round trip is the compatibility test between the running
    search and the journal on disk.
    """

    def __init__(self, path: str | os.PathLike, key: dict[str, Any]) -> None:
        self.path = os.fspath(path)
        self.key = json.loads(json.dumps(key))
        self._journal = Journal(
            self.path,
            format=CHECKPOINT_FORMAT,
            versions=(CHECKPOINT_VERSION,),
            noun="checkpoint journal",
            error=CheckpointError,
            decode=_labeled,
            check_header=self._check_key,
        )

    # -- lifecycle ---------------------------------------------------------

    def open(self, resume: bool = False) -> dict[str, dict[str, Any]]:
        """Open the journal for appending; return already-completed records.

        Args:
            resume: Load existing records (key must match) instead of
                truncating.  With ``resume=False`` an existing file is
                overwritten; with ``resume=True`` a missing file simply
                starts a fresh journal.

        Returns:
            Completed-candidate records keyed by spec label (empty for a
            fresh journal; the newest record wins for a repeated label).

        Raises:
            CheckpointError: The existing file is not a journal, has an
                incompatible version, or was written by a search with a
                different key.
        """
        header = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "key": self.key,
        }
        records = self._journal.open(header, resume=resume)
        return {record["label"]: record for record in records}

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def append(self, record: dict[str, Any]) -> None:
        """Durably append one completed-candidate record."""
        self._journal.append(record)

    def _check_key(self, header: dict[str, Any]) -> None:
        if header.get("key") != self.key:
            raise CheckpointError(
                f"{self.path}: checkpoint was written by a different search "
                "(workload/architecture/seed/search options differ); "
                "refusing to resume"
            )
