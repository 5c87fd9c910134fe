"""Flag-level analyses: Table I (best static flags), Fig. 8 (applicability /
optimality), Fig. 9 (isolated per-flag impact)."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add
from typing import Dict, List, Optional

from repro.harness.results import ShaderResult, StudyResult
from repro.passes import ALL_FLAG_NAMES, SPACE_SIZE, OptimizationFlags
from repro.passes.flags import FLAG_LABELS, popcount
from repro.reporting.spec import Series, TableSpec, ViolinSpec


def best_static_flags(study: StudyResult, platform: str) -> OptimizationFlags:
    """The flag combination maximizing mean speed-up across all shaders
    (Table I).  Ties break toward the *minimal* flag set, matching the
    paper's note that no-op flags (ADCE) "can be safely omitted from the
    minimal optimal flag selection".

    Scans the platform's row of corpus means (:func:`mean_speedup_row`)
    over indices 0..255 in order, treating scores within 1e-9 as ties."""
    best: Optional[int] = None
    best_score = float("-inf")
    for index, score in enumerate(mean_speedup_row(study, platform)):
        if score is None:
            _raise_missing(study, platform, index)
        better = score > best_score + 1e-9
        tie = abs(score - best_score) <= 1e-9
        if better or (tie and best is not None
                      and popcount(index) < popcount(best)):
            best = index
            best_score = score
    assert best is not None
    return OptimizationFlags.from_index(best)


def mean_speedup(study: StudyResult, platform: str,
                 flags: OptimizationFlags) -> float:
    """Mean speed-up of *flags* over the corpus on *platform*: the Table I
    / Fig. 5 metric, read from :func:`mean_speedup_row`."""
    score = mean_speedup_row(study, platform)[flags.index]
    if score is None:
        _raise_missing(study, platform, flags.index)
    return score


def mean_speedup_row(study: StudyResult,
                     platform: str) -> List[Optional[float]]:
    """The corpus-mean speed-up of every flag combination on *platform*, by
    flag index; ``None`` where some shader lacks the combination.

    Each entry adds the shaders' :meth:`~ShaderResult.speedup_row` entries
    left to right in shader order, starting from 0.0, then divides by the
    shader count.  Memoized on the study until a shader or a variant is
    appended."""
    memo = _study_memo(study)
    row = memo.get(("means", platform))
    if row is None:
        totals: List[Optional[float]] = [0.0] * SPACE_SIZE
        for shader in study.shaders:
            speedups = shader.speedup_row(platform)
            try:
                totals = list(map(add, totals, speedups))
            except TypeError:       # a None: a combination some shader lacks
                totals = [None if total is None or speedup is None
                          else total + speedup
                          for total, speedup in zip(totals, speedups)]
        count = max(len(study.shaders), 1)
        row = memo[("means", platform)] = [
            None if total is None else total / count for total in totals]
    return row


def _study_memo(study: StudyResult) -> dict:
    """The study's analysis memo, emptied whenever a shader or a variant has
    been appended since it was filled."""
    key = [len(shader.variants) for shader in study.shaders]
    memo = study.__dict__.get("_analysis_memo")
    if memo is None or memo[0] != key:
        memo = study.__dict__["_analysis_memo"] = (key, {})
    return memo[1]


def _raise_missing(study: StudyResult, platform: str, index: int) -> None:
    """Raise the ``KeyError`` of the first shader lacking combination
    *index*."""
    flags = OptimizationFlags.from_index(index)
    for shader in study.shaders:
        shader.speedup_pct(platform, flags)
    raise AssertionError(f"every shader holds combination {index}")


# ---------------------------------------------------------------------------
# Fig. 8: applicability and optimality
# ---------------------------------------------------------------------------


@dataclass
class FlagApplicability:
    """Counts for one flag across the corpus (one Fig. 8 subplot)."""

    flag: str
    total_shaders: int = 0          # blue
    changes_code: int = 0           # red: flag alters output for some combo
    in_optimal_set: int = 0         # green: flag on in >=half of best-10% variants

    @property
    def applicability(self) -> float:
        return self.changes_code / max(self.total_shaders, 1)


def flag_applicability(study: StudyResult,
                       platform: str) -> Dict[str, FlagApplicability]:
    """Fig. 8 for one platform.  The platform-independent "changes code"
    counts are computed once per study."""
    changes = _changes_code(study)
    results = {name: FlagApplicability(flag=name,
                                       total_shaders=len(study.shaders),
                                       changes_code=changes[name])
               for name in ALL_FLAG_NAMES}
    for shader in study.shaders:
        for name in _optimal_variant_flags(shader, platform):
            results[name].in_optimal_set += 1
    return results


def _changes_code(study: StudyResult) -> Dict[str, int]:
    """Per flag, how many shaders it rewrites under some combination;
    memoized beside the means rows."""
    memo = _study_memo(study)
    counts = memo.get("changes code")
    if counts is None:
        counts = dict.fromkeys(ALL_FLAG_NAMES, 0)
        for shader in study.shaders:
            variant_of: Dict[int, int] = {}
            for variant in shader.variants:
                for index in variant.flag_indices:
                    variant_of[index] = variant.variant_id
            for bit, name in enumerate(ALL_FLAG_NAMES):
                if _flag_changes_code(variant_of, bit):
                    counts[name] += 1
        memo["changes code"] = counts
    return counts


def _flag_changes_code(variant_of: Dict[int, int], bit: int) -> bool:
    mask = 1 << bit
    for index in range(256):
        if index & mask:
            continue
        if variant_of[index] != variant_of[index | mask]:
            return True
    return False


def _optimal_variant_flags(shader: ShaderResult, platform: str) -> List[str]:
    """Flags on in at least half of the best-10% variants (paper's green
    criterion: "included for at least half of the optimal 10% of variants")."""
    ranked = sorted(shader.variants,
                    key=lambda v: v.times_ns[platform])
    top_n = max(1, round(len(ranked) * 0.10))
    top = ranked[:top_n]
    winners: List[str] = []
    for bit, name in enumerate(ALL_FLAG_NAMES):
        mask = 1 << bit
        votes = 0
        for variant in top:
            # A variant corresponds to many combos; call the flag "on" when
            # at least one producing combo has it on AND turning it off would
            # leave this variant (i.e. the flag is materially involved).
            on = any(index & mask for index in variant.flag_indices)
            off = any(not (index & mask) for index in variant.flag_indices)
            if on and not off:
                votes += 1
        if votes * 2 >= len(top):
            winners.append(name)
    return winners


# ---------------------------------------------------------------------------
# Fig. 9: isolated flag impact
# ---------------------------------------------------------------------------


@dataclass
class IsolatedImpact:
    """Speed-up distribution of one flag alone vs the all-off baseline."""

    flag: str
    platform: str
    speedups_pct: List[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return sum(self.speedups_pct) / max(len(self.speedups_pct), 1)

    @property
    def peak(self) -> float:
        return max(self.speedups_pct) if self.speedups_pct else 0.0

    @property
    def trough(self) -> float:
        return min(self.speedups_pct) if self.speedups_pct else 0.0


def isolated_flag_impact(study: StudyResult, platform: str,
                         flag: str) -> IsolatedImpact:
    """Fig. 9: each flag alone, measured against the LunarGlass all-flags-off
    baseline (NOT the unaltered shader — Section VI-D explains this isolates
    the pass's effect from code-generation artifacts)."""
    result = IsolatedImpact(flag=flag, platform=platform)
    none_flags = OptimizationFlags.none()
    single = OptimizationFlags.single(flag)
    for shader in study.shaders:
        base = shader.variant_for_flags(none_flags).times_ns[platform]
        time = shader.variant_for_flags(single).times_ns[platform]
        result.speedups_pct.append((base / time - 1.0) * 100.0)
    return result


# ---------------------------------------------------------------------------
# Figure specs for the report registry
# ---------------------------------------------------------------------------


def best_flags_table_spec(study: StudyResult) -> TableSpec:
    """Table I: the best static flag selection per platform, as a flag
    matrix plus the mean speed-up it delivers."""
    headers = ["platform"] + [FLAG_LABELS[name] for name in ALL_FLAG_NAMES] \
        + ["mean %"]
    rows = []
    for platform in study.platforms:
        flags = best_static_flags(study, platform)
        rows.append(tuple([platform]
                          + ["x" if getattr(flags, name) else "-"
                             for name in ALL_FLAG_NAMES]
                          + [mean_speedup(study, platform, flags)]))
    return TableSpec.make(
        headers, rows,
        caption="Best static flag selection per platform "
                "(x = enabled, minimal tie-break)")


def applicability_spec(study: StudyResult) -> TableSpec:
    """Fig. 8 as one table: per flag, how many shaders it rewrites
    (platform-independent) and how often it appears in the optimal set on
    each platform."""
    per_platform = {platform: flag_applicability(study, platform)
                    for platform in study.platforms}
    headers = ["flag", "changes code", "applicability"] \
        + [f"optimal on {p}" for p in study.platforms]
    rows = []
    first = study.platforms[0] if study.platforms else None
    for name in ALL_FLAG_NAMES:
        base = per_platform[first][name] if first else None
        row = [FLAG_LABELS[name],
               base.changes_code if base else 0,
               f"{100.0 * base.applicability:.0f}%" if base else "-"]
        row += [per_platform[p][name].in_optimal_set for p in study.platforms]
        rows.append(tuple(row))
    return TableSpec.make(
        headers, rows,
        caption="Flag applicability (shaders whose code changes) and "
                "membership in the optimal 10% of variants")


def per_flag_impact_specs(study: StudyResult) -> List[ViolinSpec]:
    """Fig. 9: isolated per-flag speed-up violins, one panel per platform."""
    specs: List[ViolinSpec] = []
    for platform in study.platforms:
        series = []
        for name in ALL_FLAG_NAMES:
            impact = isolated_flag_impact(study, platform, name)
            series.append(Series.make(FLAG_LABELS[name], impact.speedups_pct))
        specs.append(ViolinSpec(
            series=tuple(series),
            caption=f"{platform}: each flag alone vs the all-off baseline"))
    return specs
