"""Content-addressed result cache for flag-space evaluations.

Keys are built from ``sha256(source) x flag index x platform x seed`` so a
cached entry is valid exactly as long as the shader text, the flag
combination, the simulated platform, and the measurement seed are all
unchanged — evaluation order, corpus position, and strategy never matter.

Beside the measurements, each compiled source is one ``variants:<digest>``
record (:class:`SourceRecord`): the 256-combination emitted texts, ARM's
static cycle count and the lines of code, the three facts of paper Fig. 4
that come from the source alone.  They are compiled, stored, read and
released together, so a source is either fully compiled or not at all.

The cache is a plain ``str -> dict`` map with an optional file behind it,
so repeated studies, ``tune`` runs, and benchmark invocations skip both
recompilation and re-measurement.  Whatever its suffix, the file is a
:class:`~repro.jsonlog.JsonLog`: a version header, then one
``[key, value]`` line per entry, appended the moment the entry is ``put``.
A killed run therefore keeps everything it had already measured, and a
long sharded study checkpoints incrementally instead of rewriting an
ever-growing blob.

A store in another layout (a different version header, or a pre-log
one-blob file) replays nothing and is rewritten on the next ``put``: its
entries become misses and are never misread.  :meth:`ResultCache.merge_from`
unions another store into this one (the ``repro merge-results`` cache
path), refusing a store of another layout and conflicting values for the
same key — with content-addressed keys and deterministic measurement, a
conflict can only mean corruption.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, Optional, Union

from repro.jsonlog import JsonLog

logger = logging.getLogger("repro.search.cache")

#: Bump when the cached payload layout or the key recipe changes.
#: 2: ``[key, value]`` log records.  3: a source's variant set, static
#: cycle count and lines of code are one ``variants:<digest>`` record (a
#: version-2 store kept the count apart, as ``static_cycles:<digest>``).
CACHE_VERSION = 3


@lru_cache(maxsize=4096)
def source_digest(source: str) -> str:
    """The content address of one shader text.

    Memoized: ``make_key`` sits on the hot loop of every ``measure`` /
    ``evaluate`` call, and re-hashing a multi-kilobyte shader text per call
    dwarfs the dictionary lookup it guards.
    """
    return hashlib.sha256(source.encode()).hexdigest()


def make_key(source: str, flag_index: int, platform: str, seed: int) -> str:
    """``sha256(source) x flag index x platform x seed`` as one cache key.

    ``flag_index`` is -1 for entries addressing an already-emitted variant
    text (where the producing combination is irrelevant to the measurement).
    """
    return f"{source_digest(source)}:{flag_index}:{platform}:{seed}"


@dataclass(frozen=True)
class SourceRecord:
    """What a study needs of a source beyond its measurements."""

    #: flag index -> emitted text, for all 256 combinations.
    index_to_text: Dict[int, str]
    #: ARM's static cycle count (paper Fig. 4b).
    arm_static_cycles: float
    #: lines of code after preprocessing (paper Fig. 4a).
    loc: int


def _value_digest(value: object) -> str:
    """A short content digest of one cache value, for conflict reports."""
    blob = json.dumps(value, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


class ResultCache:
    """In-memory evaluation cache with an optional append-only log behind it.

    The cache is safe for concurrent readers and writers within one
    process: every mutation (``put``/``put_variants``/``merge_from``) and
    every disk operation (log append, ``save``) holds one re-entrant lock,
    so the ``repro serve`` worker pool can share a single process-wide
    instance across jobs and tenants.  Metered reads (``get``) take the
    lock too, keeping the hit/miss counters exact.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None):
        #: guards _entries, the hit/miss counters, and the log.
        self._lock = threading.RLock()
        self.path = Path(path) if path else None
        self._entries: Dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        self._log: Optional[JsonLog] = None
        if self.path is not None:
            self._log = JsonLog(self.path, {"version": CACHE_VERSION})
            records = self._log.replay()
            try:
                self._entries.update(records)
            except (TypeError, ValueError):
                for record in records:
                    if (isinstance(record, list) and len(record) == 2
                            and isinstance(record[0], str)):
                        self._entries[record[0]] = record[1]
                    else:
                        logger.warning(
                            "%s: skipping malformed cache record %.80r",
                            self.path, record)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[dict]:
        """The entry for *key*, metering the hit/miss counters."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
            return entry

    def put(self, key: str, value: dict) -> None:
        """Store *value* under *key*; a changed entry is appended to the log."""
        with self._lock:
            if self._entries.get(key) != value:
                self._entries[key] = value
                if self._log is not None:
                    self._log.append([key, value])

    # ------------------------------------------------------------------
    # Compiled sources
    # ------------------------------------------------------------------
    # The pass pipeline is as cacheable as the measurements: persisting each
    # source's record lets a warm cache replay a whole study — and the
    # report pipeline on top of it — with zero compiles and no front end.
    # These entries bypass the hit/miss counters, which meter measurement
    # lookups only.

    @staticmethod
    def variants_key(digest: str) -> str:
        return f"variants:{digest}"

    def has_variants(self, digest: str) -> bool:
        return self.variants_key(digest) in self._entries

    def get_variants(self, digest: str) -> Optional[SourceRecord]:
        """The stored record of a source, or None (also for a record with
        a missing or malformed field, which is compiled again)."""
        entry = self._entries.get(self.variants_key(digest))
        try:
            texts = entry["texts"]
            return SourceRecord(
                index_to_text={int(index): texts[pos]
                               for index, pos in entry["combos"].items()},
                arm_static_cycles=float(entry["cycles"]),
                loc=int(entry["loc"]))
        except (KeyError, IndexError, TypeError, ValueError, AttributeError):
            return None

    def put_variants(self, digest: str, record: SourceRecord) -> None:
        """Store a source's record, deduplicating the (heavily shared)
        texts.

        The real flag indices are stored (JSON-stringified), so sparse or
        partial maps round-trip faithfully.
        """
        texts: list = []
        positions: Dict[str, int] = {}
        combos: Dict[str, int] = {}
        for index in sorted(record.index_to_text):
            text = record.index_to_text[index]
            if text not in positions:
                positions[text] = len(texts)
                texts.append(text)
            combos[str(index)] = positions[text]
        self.put(self.variants_key(digest),
                 {"texts": texts, "combos": combos,
                  "cycles": record.arm_static_cycles, "loc": record.loc})

    def release_variants(self, digest: str) -> None:
        """Evict a source's record from memory (a streaming study's bound).

        Records are read from memory only, so a later request for the same
        source compiles it again; a file-backed cache's log still holds it
        for the next process that loads the file.
        """
        with self._lock:
            self._entries.pop(self.variants_key(digest), None)

    # ------------------------------------------------------------------
    # Disk store
    # ------------------------------------------------------------------

    def merge_from(self, other: Union["ResultCache", str, Path]) -> int:
        """Union *other*'s entries into this store; returns how many were new.

        A store of another layout (its file's header is not this
        version's) raises ``ValueError`` naming the file and both headers,
        instead of merging as empty.  Conflicting values for the same key
        raise ``ValueError`` too: keys are content-addressed and
        measurement is deterministic, so two shard caches can only
        disagree through corruption or a version skew.  The error names
        the offending key and both value digests, so an operator can grep
        each store for the damaged entry.
        """
        if not isinstance(other, ResultCache):
            other = ResultCache(other)
        log = other._log
        if log is not None and log.foreign_header is not None:
            raise ValueError(
                f"cannot merge cache {str(log.path)!r}: its header "
                f"{log.foreign_header:.80} is not this version's header "
                f"{log.header_line}")
        with self._lock:
            added = 0
            for key, value in other._entries.items():
                mine = self._entries.get(key)
                if mine is None:
                    added += 1
                elif mine != value:
                    raise ValueError(
                        f"cache merge conflict on key {key!r}: this store "
                        f"has value digest {_value_digest(mine)}, the "
                        f"other {_value_digest(value)} — content-addressed "
                        f"stores can only disagree through corruption")
                self.put(key, value)
            return added

    def save(self) -> None:
        """Push every appended entry to the OS now (no-op without a file).

        Entries reach the log as they are ``put``; this is the explicit
        checkpoint a long-running caller (the service between jobs, the
        dispatcher, a study every ``checkpoint_every`` cases) makes rather
        than relying on interpreter exit.
        """
        with self._lock:
            if self._log is not None:
                self._log.flush()
