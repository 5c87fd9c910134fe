"""Result records for the exhaustive study, with JSON (de)serialisation so
benchmarks can cache a completed study run on disk.

A :class:`StudyResult` may describe one *shard* of a larger study (see
``repro study --shard I/N``): it then carries a :class:`ShardInfo` naming
the global corpus indices it covers, and :func:`merge_study_results`
reassembles the full study — byte-identical to an unsharded run, because
every measurement seed is derived from the global index, not the position
within the shard.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.passes import SPACE_SIZE, OptimizationFlags


@dataclass
class ShaderCase:
    """One corpus shader instance."""

    name: str
    family: str
    source: str


@dataclass
class VariantRecord:
    """One distinct optimized text of one shader."""

    variant_id: int
    flag_indices: List[int]          # all combos (0..255) producing this text
    text_hash: str
    #: platform name -> measured mean ns
    times_ns: Dict[str, float] = field(default_factory=dict)
    static_ops: Dict[str, int] = field(default_factory=dict)
    registers: Dict[str, int] = field(default_factory=dict)


@dataclass
class ShaderResult:
    """Everything the study measured for one corpus shader."""
    name: str
    family: str
    loc: int
    arm_static_cycles: float
    variants: List[VariantRecord] = field(default_factory=list)
    #: platform name -> measured mean ns of the *unaltered* shader
    original_times_ns: Dict[str, float] = field(default_factory=dict)

    @property
    def unique_variant_count(self) -> int:
        return len(self.variants)

    def _by_index(self) -> tuple:
        """The memo behind :meth:`variant_for_flags` and
        :meth:`speedup_row`: ``(variant count, flag index -> variant,
        platform -> speed-up row)``, rebuilt whenever variants have been
        appended since it was built."""
        memo = self.__dict__.get("_by_index_memo")
        if memo is None or memo[0] != len(self.variants):
            mapping = {index: variant
                       for variant in self.variants
                       for index in variant.flag_indices}
            memo = (len(self.variants), mapping, {})
            self.__dict__["_by_index_memo"] = memo
        return memo

    def variant_for_flags(self, flags: OptimizationFlags) -> VariantRecord:
        try:
            return self._by_index()[1][flags.index]
        except KeyError:
            raise KeyError(
                f"no variant for flags {flags} in shader {self.name}") from None

    def speedup_row(self, platform: str) -> List[Optional[float]]:
        """Percentage speed-up over the unaltered shader of every flag
        combination on *platform*, by flag index; ``None`` where no variant
        holds the index.  Each variant's entry is computed once."""
        rows = self._by_index()[2]
        row = rows.get(platform)
        if row is None:
            base = self.original_times_ns[platform]
            row = [None] * SPACE_SIZE
            for variant in self.variants:
                speedup = (base / variant.times_ns[platform] - 1.0) * 100.0
                for index in variant.flag_indices:
                    row[index] = speedup
            rows[platform] = row
        return row

    def speedup_pct(self, platform: str, flags: OptimizationFlags) -> float:
        """Percentage speed-up of *flags* over the unaltered shader."""
        speedup = self.speedup_row(platform)[flags.index]
        if speedup is None:
            self.variant_for_flags(flags)   # raises its KeyError
        return speedup

    def variant_speedup_pct(self, platform: str, variant: VariantRecord) -> float:
        base = self.original_times_ns[platform]
        return (base / variant.times_ns[platform] - 1.0) * 100.0

    def best_speedup_pct(self, platform: str) -> float:
        return max(self.variant_speedup_pct(platform, v) for v in self.variants)


@dataclass(frozen=True)
class ShardInfo:
    """Which slice of the full corpus one shard result covers."""

    index: int                       # 1-based shard number
    count: int                       # total number of shards
    case_indices: List[int]          # global corpus index per shader, in order
    #: content hash of the *full* corpus (every case's source, in order) —
    #: merging refuses shards whose corpora differ, which names, indices,
    #: and seeds alone cannot detect (e.g. two --synth-seed values).
    corpus_digest: str = ""

    def validate(self, shader_count: int) -> None:
        """Raise ``ValueError`` on inconsistent shard metadata."""
        if not 1 <= self.index <= self.count:
            raise ValueError(f"shard index {self.index} outside 1..{self.count}")
        if len(self.case_indices) != shader_count:
            raise ValueError(
                f"shard {self.index}/{self.count} lists "
                f"{len(self.case_indices)} case indices for "
                f"{shader_count} shader results")


@dataclass
class StudyResult:
    """A completed study (or one shard of one): per-shader variant timings."""

    platforms: List[str]
    shaders: List[ShaderResult] = field(default_factory=list)
    seed: int = 0
    #: set only on shard runs; ``None`` means a complete study.
    shard: Optional[ShardInfo] = None

    def shader(self, name: str) -> ShaderResult:
        """The result for the shader named *name* (KeyError if absent)."""
        for result in self.shaders:
            if result.name == name:
                return result
        raise KeyError(name)

    # ------------------------------------------------------------------
    # Serialisation (benchmark caching)
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize to JSON.  Complete studies omit the ``shard`` key, so
        their serialization is byte-identical whether the study ran whole or
        was merged back together from shards."""
        payload = {
            "platforms": self.platforms,
            "seed": self.seed,
            "shaders": [
                {
                    "name": s.name,
                    "family": s.family,
                    "loc": s.loc,
                    "arm_static_cycles": s.arm_static_cycles,
                    "original_times_ns": s.original_times_ns,
                    "variants": [
                        {
                            "variant_id": v.variant_id,
                            "flag_indices": v.flag_indices,
                            "text_hash": v.text_hash,
                            "times_ns": v.times_ns,
                            "static_ops": v.static_ops,
                            "registers": v.registers,
                        }
                        for v in s.variants
                    ],
                }
                for s in self.shaders
            ],
        }
        if self.shard is not None:
            payload["shard"] = {
                "index": self.shard.index,
                "count": self.shard.count,
                "case_indices": list(self.shard.case_indices),
                "corpus_digest": self.shard.corpus_digest,
            }
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "StudyResult":
        """Rebuild a :class:`StudyResult` from :meth:`to_json` output."""
        payload = json.loads(text)
        shard = None
        if "shard" in payload:
            raw = payload["shard"]
            shard = ShardInfo(index=int(raw["index"]),
                              count=int(raw["count"]),
                              case_indices=[int(i)
                                            for i in raw["case_indices"]],
                              corpus_digest=str(raw.get("corpus_digest", "")))
        result = StudyResult(platforms=payload["platforms"],
                             seed=payload.get("seed", 0), shard=shard)
        for s in payload["shaders"]:
            shader = ShaderResult(
                name=s["name"], family=s["family"], loc=s["loc"],
                arm_static_cycles=s["arm_static_cycles"],
                original_times_ns=s["original_times_ns"],
            )
            for v in s["variants"]:
                shader.variants.append(VariantRecord(
                    variant_id=v["variant_id"],
                    flag_indices=v["flag_indices"],
                    text_hash=v["text_hash"],
                    times_ns=v["times_ns"],
                    static_ops={k: int(x) for k, x in v["static_ops"].items()},
                    registers={k: int(x) for k, x in v["registers"].items()},
                ))
            _check_flag_indices(shader)
            result.shaders.append(shader)
        return result


def _check_flag_indices(shader: ShaderResult) -> None:
    """Raise ``ValueError`` unless *shader*'s variants hold every flag
    index 0..255 exactly once, naming the shader and the bad indices.  An
    index must be an integer: ``5.0`` equals 5 but cannot index a
    speed-up row."""
    indices: list = []
    for variant in shader.variants:
        indices += variant.flag_indices
    indices.sort()
    if indices == list(range(SPACE_SIZE)) and set(map(type, indices)) == {int}:
        return
    counts = Counter(indices)
    found = {
        "missing": [i for i in range(SPACE_SIZE) if i not in counts],
        "repeated": [i for i, n in counts.items() if n > 1],
        "invalid": [i for i in counts
                    if type(i) is not int or i not in range(SPACE_SIZE)],
    }
    details = "; ".join(f"{label} {bad}" for label, bad in found.items()
                        if bad)
    raise ValueError(f"shader {shader.name!r}: flag_indices must cover "
                     f"0..{SPACE_SIZE - 1} exactly once ({details})")


def merge_study_results(parts: Sequence[StudyResult],
                        require_complete: bool = True) -> StudyResult:
    """Reassemble shard results into one complete :class:`StudyResult`.

    Every part must carry :class:`ShardInfo` from the *same* sharded study
    (same platform list, same seed, same shard count), and together the
    parts must cover every global corpus index exactly once.  The merged
    result orders shaders by global index and drops the shard metadata, so
    its JSON is byte-identical to the equivalent unsharded run.

    ``require_complete=False`` relaxes only the coverage check — the
    graceful-degradation path the shard dispatcher takes when a shard
    exhausted its retries: the available shards merge into a *partial*
    result (global index order preserved, duplicates still rejected), and
    the accompanying missing-shard manifest is what keeps a partial run
    from masquerading as a complete one.
    """
    if not parts:
        raise ValueError("no shard results to merge")
    first = parts[0]
    for part in parts:
        if part.shard is None:
            raise ValueError("cannot merge: a result has no shard metadata "
                             "(was it produced with --shard?)")
        part.shard.validate(len(part.shaders))
        if part.platforms != first.platforms:
            raise ValueError(f"cannot merge: platform lists differ "
                             f"({part.platforms} vs {first.platforms})")
        if part.seed != first.seed:
            raise ValueError(f"cannot merge: seeds differ "
                             f"({part.seed} vs {first.seed})")
        if part.shard.count != first.shard.count:
            raise ValueError(f"cannot merge: shard counts differ "
                             f"({part.shard.count} vs {first.shard.count})")
        if part.shard.corpus_digest != first.shard.corpus_digest:
            raise ValueError(
                "cannot merge: shards were run over different corpora "
                f"(corpus digest {part.shard.corpus_digest[:12]}… vs "
                f"{first.shard.corpus_digest[:12]}…); check --synth-seed/"
                "--synth-count/--max-shaders were identical across shards")
    seen_shards = [part.shard.index for part in parts]
    if len(set(seen_shards)) != len(seen_shards):
        raise ValueError(f"cannot merge: duplicate shard indices {seen_shards}")

    by_global: Dict[int, ShaderResult] = {}
    for part in parts:
        for global_index, shader in zip(part.shard.case_indices, part.shaders):
            if global_index in by_global:
                raise ValueError(
                    f"cannot merge: case index {global_index} appears twice")
            by_global[global_index] = shader
    expected = set(range(len(by_global)))
    if require_complete and set(by_global) != expected:
        missing = sorted(expected - set(by_global))[:8]
        extra = sorted(set(by_global) - expected)[:8]
        raise ValueError(
            f"cannot merge: case indices do not cover 0..{len(by_global) - 1} "
            f"(missing {missing}, unexpected {extra}); are all "
            f"{first.shard.count} shards present?")
    return StudyResult(platforms=list(first.platforms),
                       shaders=[by_global[i] for i in sorted(by_global)],
                       seed=first.seed)
