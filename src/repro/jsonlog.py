"""The one on-disk format: an append-only JSON-lines log behind a header.

A log file is one header line, then one JSON value per line.  The result
cache (every ``--cache`` path, the dispatcher's ``checkpoints.jsonl``, the
service's ``cache.jsonl``) and the service's job journal all persist
through :class:`JsonLog`, so crash recovery and version checks live here
once:

- **Durability**: records go through a line-buffered handle, so each one
  reaches the OS the moment it is appended and a killed writer loses at
  most the line it was writing.
- **Torn tail**: that torn final line is skipped silently on replay, and
  the first append after it writes ``"\\n"`` first, so the next record is
  never glued onto the fragment.  A corrupt line anywhere else is real
  damage: it is skipped with a warning naming its line number, and the
  records around it still replay.
- **Header**: a file whose first line is not exactly this store's header
  (another layout version, a foreign file) replays nothing, with one
  warning naming both headers, and the next append rewrites the file;
  until then the log keeps that line as ``foreign_header``.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import IO, List, Optional, Union

logger = logging.getLogger("repro.jsonlog")


class JsonLog:
    """One append-only JSON-lines file with a fixed header line.

    Not synchronized: the owning store serializes its calls.
    """

    def __init__(self, path: Union[str, Path], header: dict):
        self.path = Path(path)
        self.header_line = json.dumps(header)
        self._handle: Optional[IO[str]] = None
        #: the file's first line, set by :meth:`replay` when it is not this
        #: store's header: the first append then truncates the file
        #: instead of appending to it, and clears this.
        self.foreign_header: Optional[str] = None

    def replay(self) -> List[object]:
        """Every intact record, in file order (see the module docstring)."""
        try:
            text = self.path.read_text()
        except OSError:
            return []
        head, _, body = text.partition("\n")
        if not head:
            return []
        if head != self.header_line:
            self.foreign_header = head
            logger.warning("%s: header %.80s is not this store's header %s; "
                           "its records are ignored",
                           self.path, head, self.header_line)
            return []
        # One json.loads over the whole body is what keeps a warm replay as
        # fast as parsing a single blob; one call per line costs ~2x.
        try:
            return json.loads("[" + body.rstrip("\n").replace("\n", ",") + "]")
        except json.JSONDecodeError:
            pass
        lines = body.split("\n")
        # The last piece is "" after a final newline, else the torn tail.
        last = len(lines) - 1
        records = []
        for index, line in enumerate(lines):
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                if index < last:
                    logger.warning(
                        "%s: skipping corrupt record on line %d: %.80r",
                        self.path, index + 2, line)
        return records

    def append(self, record: object) -> None:
        """Write *record* as one line (opening the file on first use)."""
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            rewrite = self.foreign_header is not None
            fresh = (rewrite or not self.path.exists()
                     or self.path.stat().st_size == 0)
            torn_tail = False
            if not fresh:
                with open(self.path, "rb") as existing:
                    existing.seek(-1, os.SEEK_END)
                    torn_tail = existing.read(1) != b"\n"
            self._handle = open(self.path, "w" if rewrite else "a",
                                buffering=1)
            self.foreign_header = None
            if torn_tail:
                self._handle.write("\n")
            if fresh:
                self._handle.write(self.header_line + "\n")
        self._handle.write(json.dumps(record) + "\n")

    def flush(self) -> None:
        """Push appended records to the OS now."""
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        """Flush and close the handle; a later append reopens the file."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
