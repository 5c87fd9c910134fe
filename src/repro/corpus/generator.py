"""Corpus assembly: hand-written + synthesized families, lazily instantiated.

The corpus is defined as an ordered stream of :class:`ShaderCase` objects —
every variant of every family, alphabetical by family name (synthesized
families are named ``synth_0000`` ... so they form one contiguous run inside
that order).  :func:`iter_corpus` yields the stream lazily: a family's
template is only built and instantiated once the iteration reaches it, so
``default_corpus(max_shaders=10, synth_count=100_000)`` pays for ten cases,
not a hundred thousand.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import merge
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.corpus import synth
from repro.corpus.templates import ALL_FAMILIES
from repro.corpus.ubershader import Family
from repro.harness.results import ShaderCase


@dataclass(frozen=True)
class CorpusSpec:
    """The corpus-selection parameters shared by every corpus consumer.

    One value object behind the CLI's ``--max-shaders``/``--synth-seed``/
    ``--synth-count`` flags *and* the study service's :class:`JobSpec`
    (``repro.service.jobs``), so the two surfaces cannot drift: both call
    :meth:`build`, which is a thin wrapper over :func:`default_corpus`.

    The spec is canonical-JSON round-trippable (:meth:`to_dict` /
    :meth:`from_dict`) because it is part of a job's content address.
    """

    max_shaders: Optional[int] = None
    synth_seed: Optional[int] = None
    synth_count: int = 0
    import_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_shaders is not None and self.max_shaders < 0:
            raise ValueError(f"max_shaders must be >= 0 or None, got "
                             f"{self.max_shaders}")
        if self.synth_count < 0:
            raise ValueError(f"synth_count must be >= 0, got "
                             f"{self.synth_count}")

    def build(self) -> List[ShaderCase]:
        """Instantiate the selected corpus (lazily truncated)."""
        return default_corpus(max_shaders=self.max_shaders,
                              synth_seed=self.synth_seed,
                              synth_count=self.synth_count,
                              import_dir=self.import_dir)

    def to_dict(self) -> Dict[str, object]:
        """A canonical, JSON-safe form (stable across equal specs).

        ``import_dir`` is only present when set, so specs without imports
        keep their historical canonical form (and content digests).  Note
        the digest covers the *path*, not the directory's contents.
        """
        payload: Dict[str, object] = {
            "max_shaders": self.max_shaders,
            "synth_seed": self.synth_seed,
            "synth_count": self.synth_count,
        }
        if self.import_dir is not None:
            payload["import_dir"] = self.import_dir
        return payload

    def to_cli_args(self) -> List[str]:
        """This spec as the equivalent shared CLI corpus flags.

        The inverse of ``corpus_spec_from_args``: the shard dispatcher's
        subprocess transport ships the corpus to ``repro study`` workers
        as these parameters (the corpus content is a pure function of
        them), and shard-identity validation on the way back proves the
        worker rebuilt the same corpus.
        """
        args: List[str] = []
        if self.max_shaders:
            args += ["--max-shaders", str(self.max_shaders)]
        if self.synth_seed is not None:
            args += ["--synth-seed", str(self.synth_seed)]
        if self.synth_count:
            args += ["--synth-count", str(self.synth_count)]
        if self.import_dir is not None:
            args += ["--import-dir", self.import_dir]
        return args

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CorpusSpec":
        """Rebuild a spec from :meth:`to_dict` output (extras rejected)."""
        known = {"max_shaders", "synth_seed", "synth_count", "import_dir"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown CorpusSpec fields: {sorted(unknown)}")
        max_shaders = payload.get("max_shaders")
        synth_seed = payload.get("synth_seed")
        import_dir = payload.get("import_dir")
        return cls(
            max_shaders=None if max_shaders is None else int(max_shaders),
            synth_seed=None if synth_seed is None else int(synth_seed),
            synth_count=int(payload.get("synth_count") or 0),
            import_dir=None if import_dir is None else str(import_dir))


def corpus_families(synth_seed: Optional[int] = None,
                    synth_count: int = 0) -> Dict[str, Family]:
    """All übershader families by name.

    With ``synth_count > 0``, the first *synth_count* synthesized families
    for ``synth_seed`` (default seed 2018) are included alongside the
    hand-written ones.  This instantiates every requested family; prefer
    :func:`iter_corpus` when only a prefix of the corpus is needed.
    """
    families = dict(ALL_FAMILIES)
    if synth_count:
        families.update(synth.synth_families(
            2018 if synth_seed is None else synth_seed, synth_count))
    return families


def _family_stream(synth_seed: Optional[int],
                   synth_count: int) -> Iterator[Tuple[str, Callable[[], Family]]]:
    """Lazily yield ``(name, zero-arg builder)`` in sorted-name order.

    Names are known without building templates, and both the hand-written
    names (pre-sorted) and the synthesized names (zero-padded, so index
    order *is* lexicographic order) are already sorted streams — a lazy
    two-way merge establishes the corpus order without materializing
    anything, so a truncated consumer never even names the tail.
    """
    handwritten = ((name, lambda name=name: ALL_FAMILIES[name])
                   for name in sorted(ALL_FAMILIES))
    if not synth_count:
        return handwritten
    if synth_count > synth.MAX_SYNTH_FAMILIES:
        raise ValueError(f"synth_count {synth_count} exceeds the "
                         f"{synth.MAX_SYNTH_FAMILIES}-family cap")
    seed = 2018 if synth_seed is None else synth_seed
    synthesized = ((synth.family_name(index),
                    lambda index=index: synth.synth_family(seed, index))
                   for index in range(synth_count))
    return merge(handwritten, synthesized, key=lambda pair: pair[0])


#: Family name carried by every shader brought in via ``--import-dir``.
IMPORTED_FAMILY = "imported"


def _imported_cases(import_dir: str) -> Iterator[ShaderCase]:
    """Ingest every shader file under *import_dir*, in sorted-path order.

    Case names derive from the file's path relative to the import root
    (separators and suffix folded away), so two files with the same stem
    in different subdirectories stay distinct.
    """
    from pathlib import Path

    from repro.glsl.ingest import ingest_file, iter_shader_files

    root = Path(import_dir)
    for path in iter_shader_files(root):
        rel = path.relative_to(root)
        name = "__".join(rel.parts)[: -len(path.suffix)]
        result = ingest_file(path)
        yield ShaderCase(name=name, family=IMPORTED_FAMILY,
                         source=result.canonical)


def iter_corpus(families: Optional[List[str]] = None,
                synth_seed: Optional[int] = None,
                synth_count: int = 0,
                import_dir: Optional[str] = None) -> Iterator[ShaderCase]:
    """Lazily yield the corpus stream in deterministic order.

    Order is family name (sorted), then variant order within the family.
    ``families`` restricts to named families.  Synthesized families are
    built on demand, so truncated consumers (``islice``, sharding) never
    pay instantiation cost for cases they skip past the stream's tail.
    With ``import_dir``, every shader file under that directory is ingested
    through :mod:`repro.glsl.ingest` and joins the stream as the
    ``imported`` family, merged into the same sorted-name order.
    """
    def base_cases(make: Callable[[], Family]) -> Callable[[], Iterator[ShaderCase]]:
        def build() -> Iterator[ShaderCase]:
            family = make()
            for variant in family.variants:
                yield family.instantiate(variant)
        return build

    stream: Iterator[Tuple[str, Callable[[], Iterator[ShaderCase]]]] = (
        (name, base_cases(make))
        for name, make in _family_stream(synth_seed, synth_count))
    if import_dir is not None:
        imported = iter(
            [(IMPORTED_FAMILY,
              lambda: _imported_cases(import_dir))])  # type: ignore[list-item]
        stream = merge(stream, imported, key=lambda pair: pair[0])
    for name, build in stream:
        if families is not None and name not in families:
            continue
        yield from build()


def default_corpus(max_shaders: Optional[int] = None,
                   families: Optional[List[str]] = None,
                   synth_seed: Optional[int] = None,
                   synth_count: int = 0,
                   import_dir: Optional[str] = None) -> List[ShaderCase]:
    """The default study corpus: every instance of every family.

    ``families`` restricts to named families; ``max_shaders`` truncates (for
    quick test runs) — lazily, via :func:`iter_corpus`, so a truncated run
    over a huge synthesized corpus only instantiates the cases it keeps.
    ``synth_seed``/``synth_count`` append the procedural families from
    :mod:`repro.corpus.synth`; ``import_dir`` merges in ingested wild
    shaders as the ``imported`` family.  Order is deterministic: family
    name, then variant order within the family.
    """
    stream = iter_corpus(families=families, synth_seed=synth_seed,
                         synth_count=synth_count, import_dir=import_dir)
    if max_shaders is not None:
        return list(islice(stream, max_shaders))
    return list(stream)
