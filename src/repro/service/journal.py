"""Torn-tail-safe job journal: the daemon's durable queue state.

One append-only ``.jsonl`` file records every job submission and every
lifecycle transition as a single JSON line.  The file is a
:class:`~repro.jsonlog.JsonLog`, the same log the result cache persists
through: each record reaches the OS the moment it is appended, so a killed
daemon loses at most the one line it was writing, and replay tolerates
that torn tail.  A restarted daemon therefore reconstructs its queue
exactly: jobs whose last recorded state is non-terminal (``pending`` or
``running`` — i.e. interrupted) are re-queued in their original
submission order.

Record shapes::

    {"version": 1, "kind": "repro-service-journal"}      # header, line 1
    {"t": "submit", "id": "...", "spec": {...}}
    {"t": "state", "id": "...", "state": "running"}
    {"t": "state", "id": "...", "state": "failed", "error": "..."}
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.jsonlog import JsonLog

#: Bump when the record layout changes incompatibly.
JOURNAL_VERSION = 1

_HEADER = {"version": JOURNAL_VERSION, "kind": "repro-service-journal"}


class JobJournal:
    """Job records over one :class:`~repro.jsonlog.JsonLog`.

    Thread-safe: the worker pool and the accept loop both write through
    one lock.  A missing/empty file is a fresh journal; a file with any
    other header replays nothing and is rewritten on the next append (the
    jobs it described are unrecoverable anyway under a layout change).
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._log = JsonLog(self.path, _HEADER)

    def record_submit(self, job_id: str, spec_dict: dict) -> None:
        """Journal a new submission (spec travels in full, for recovery)."""
        with self._lock:
            self._log.append({"t": "submit", "id": job_id, "spec": spec_dict})

    def record_state(self, job_id: str, state: str,
                     error: Optional[str] = None) -> None:
        """Journal a lifecycle transition."""
        record: dict = {"t": "state", "id": job_id, "state": state}
        if error:
            record["error"] = error
        with self._lock:
            self._log.append(record)

    def flush(self) -> None:
        """Push buffered records to the OS (checkpoint boundary)."""
        with self._lock:
            self._log.flush()

    def close(self) -> None:
        """Flush and close the underlying handle (daemon shutdown)."""
        with self._lock:
            self._log.close()

    def replay(self) -> List[dict]:
        """Every intact job record, in order (see
        :meth:`~repro.jsonlog.JsonLog.replay`)."""
        return [record for record in self._log.replay()
                if isinstance(record, dict)
                and "t" in record and "id" in record]

    def replay_jobs(self) -> "Dict[str, dict]":
        """Fold :meth:`replay` into ``id -> {"spec", "state", "error"}``.

        Insertion order is submission order, which is what FIFO recovery
        needs.  State records for unknown ids (their submit line was torn)
        are dropped.
        """
        jobs: Dict[str, dict] = {}
        for record in self.replay():
            if record["t"] == "submit" and isinstance(record.get("spec"), dict):
                jobs[record["id"]] = {"spec": record["spec"],
                                      "state": "pending", "error": None}
            elif record["t"] == "state" and record["id"] in jobs:
                jobs[record["id"]]["state"] = record.get("state")
                jobs[record["id"]]["error"] = record.get("error")
        return jobs
