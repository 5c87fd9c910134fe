"""The default paper-artifact registry entries.

Importing this module (done lazily by :mod:`repro.reporting.report`)
registers every figure and table the paper contributes, in paper order,
plus the beyond-paper artifacts the repo has grown.  Each entry is a thin
declarative template over the computations in :mod:`repro.analysis` and
:mod:`repro.search` — ``repro report --list`` enumerates them, and
``docs/paper_mapping.md`` maps them back to paper sections.
"""

from __future__ import annotations

from typing import List

from repro.analysis.flags import (
    applicability_spec, best_flags_table_spec, best_static_flags,
    mean_speedup, per_flag_impact_specs,
)
from repro.analysis.speedups import (
    blanket_specs, loc_scatter_specs, overall_speedups_spec,
    per_shader_violin_specs, top_shaders_specs,
)
from repro.analysis.static_metrics import corpus_composition_spec
from repro.analysis.uniqueness import uniqueness_specs
from repro.harness.results import StudyResult
from repro.passes import OptimizationFlags
from repro.reporting.report import register_artifact
from repro.reporting.spec import Spec, TableSpec


@register_artifact(
    name="blanket-distribution",
    title="Blanket optimization is not enough",
    paper_ref="Fig. 3, Sec. II",
    description="One fixed flag selection (the LunarGlass defaults) applied "
                "to every shader: some speed up, others slow down, which "
                "motivates per-shader, per-platform flag selection.")
def _blanket(study: StudyResult) -> List[Spec]:
    return list(blanket_specs(study))


@register_artifact(
    name="uniqueness",
    title="Variant uniqueness",
    paper_ref="Fig. 4c, Sec. III-A",
    description="Most of the 256 flag combinations emit identical code: the "
                "distribution of unique variants per shader bounds how much "
                "of the space actually needs measuring.")
def _uniqueness(study: StudyResult) -> List[Spec]:
    return list(uniqueness_specs(study))


@register_artifact(
    name="overall-speedups",
    title="Average speed-ups per platform",
    paper_ref="Fig. 5, Sec. IV-A",
    description="Per platform: the per-shader best variant (the headroom), "
                "the single best static flag selection, and the default "
                "LunarGlass flags, averaged over the corpus.")
def _overall(study: StudyResult) -> List[Spec]:
    return [overall_speedups_spec(study)]


@register_artifact(
    name="top-shaders",
    title="Most-improved shaders",
    paper_ref="Fig. 6, Sec. IV-A",
    description="The shaders with the largest best-variant speed-up on each "
                "platform — where offline optimization pays most.")
def _top_shaders(study: StudyResult) -> List[Spec]:
    return list(top_shaders_specs(study))


@register_artifact(
    name="speedup-violins",
    title="Per-shader speed-up distributions",
    paper_ref="Fig. 7, Sec. IV-B",
    description="Distribution over shaders of the best-possible, default-"
                "LunarGlass, and best-static speed-ups, per platform: the "
                "gap between the best-possible and best-static rows is the "
                "specialization opportunity.")
def _violins(study: StudyResult) -> List[Spec]:
    return list(per_shader_violin_specs(study))


@register_artifact(
    name="flag-applicability",
    title="Flag applicability and optimality",
    paper_ref="Fig. 8, Sec. VI",
    description="Per flag: how many shaders it actually rewrites, and how "
                "often it is part of the optimal 10% of variants on each "
                "platform.")
def _applicability(study: StudyResult) -> List[Spec]:
    return [applicability_spec(study)]


@register_artifact(
    name="per-flag-impact",
    title="Isolated per-flag impact",
    paper_ref="Fig. 9, Sec. VI-D",
    description="Each flag enabled alone, measured against the all-flags-"
                "off baseline (isolating the pass from code-generation "
                "artifacts), per platform.")
def _per_flag(study: StudyResult) -> List[Spec]:
    return list(per_flag_impact_specs(study))


@register_artifact(
    name="best-flags",
    title="Best static flag selections",
    paper_ref="Table I, Sec. IV-A",
    description="The minimal flag selection maximizing mean speed-up on "
                "each platform — the paper's headline that no single "
                "selection is best everywhere.")
def _best_flags(study: StudyResult) -> List[Spec]:
    return [best_flags_table_spec(study)]


@register_artifact(
    name="loc-vs-speedup",
    title="Shader size vs speed-up headroom",
    paper_ref="beyond paper (Sec. IV discussion)",
    description="Lines of GLSL against the best available speed-up, per "
                "platform: optimization headroom is not simply a function "
                "of shader size.")
def _loc_scatter(study: StudyResult) -> List[Spec]:
    return list(loc_scatter_specs(study))


@register_artifact(
    name="corpus-composition",
    title="Corpus composition",
    paper_ref="beyond paper (Sec. III corpus, repro.corpus.synth)",
    description="What the study actually ran over: per-family case counts, "
                "size range, and variant richness, with the hand-written "
                "vs procedurally synthesized split — the provenance line "
                "for scaled-out synth corpora.")
def _corpus_composition(study: StudyResult) -> List[Spec]:
    return [corpus_composition_spec(study)]


@register_artifact(
    name="search-strategies",
    title="Budgeted search vs exhaustive sweep",
    paper_ref="beyond paper (repro.search)",
    description="The repo's budgeted flag-space search strategies replayed "
                "over the study's measurements: best selection found, its "
                "mean speed-up, and the gap to the exhaustive optimum, at a "
                "quarter of the exhaustive budget.")
def _search_strategies(study: StudyResult, budget: int = 64) -> List[Spec]:
    from repro.search.strategies import make_strategy

    rows = []
    for platform in study.platforms:
        objective = _study_objective(study, platform)
        optimum = best_static_flags(study, platform)
        optimum_score = mean_speedup(study, platform, optimum)
        for name in ("random", "greedy", "genetic"):
            outcome = make_strategy(name, seed=study.seed).search(
                objective, budget=budget)
            found = OptimizationFlags.from_index(outcome.best_index)
            rows.append((platform, name, str(found), outcome.best_score,
                         optimum_score, optimum_score - outcome.best_score,
                         outcome.points_evaluated))
    return [TableSpec.make(
        ["platform", "strategy", "best found", "mean %", "optimum %",
         "gap pp", "evaluated"],
        rows,
        caption=f"Search strategies at budget {budget}/256, replayed from "
                "cached study measurements (zero new evaluations)")]


def _study_objective(study: StudyResult, platform: str):
    """Mean corpus speed-up as a function of flag index, answered entirely
    from the shaders' speed-up rows as they stand when it is built.  Its
    ``sum()`` is compensated on Python >= 3.12, so a score may differ in
    the last bit from Table I's left-to-right mean of the same entries."""
    rows = [shader.speedup_row(platform) for shader in study.shaders]

    def objective(flag_index: int) -> float:
        if not rows:
            return 0.0
        try:
            return sum([row[flag_index] for row in rows]) / len(rows)
        except TypeError:       # a None: raise the lacking shader's KeyError
            mean_speedup(study, platform,
                         OptimizationFlags.from_index(flag_index))
            raise

    return objective
