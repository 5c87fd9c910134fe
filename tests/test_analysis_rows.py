"""The analysis's speed-up rows against the per-call formulas they replaced.

``ShaderResult.speedup_row`` and ``repro.analysis.flags.mean_speedup_row``
hold each (shader, platform) and each (study, platform) as one 256-entry
row.  Every table-based result must equal the ``tests/helpers`` reference
bit for bit — including the corpus means' left-to-right summation order,
the report objective's ``sum()``, and Table I's 1e-9 ties broken toward
fewer flags — and a missing combination must raise the reference's
``KeyError``, never read as 0.0.
"""

from __future__ import annotations

import random
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    reference_best_static_flags, reference_changes_code,
    reference_mean_speedup, reference_speedup_pct, reference_study_objective,
)
from repro.analysis.flags import (
    best_static_flags, flag_applicability, mean_speedup, mean_speedup_row,
)
from repro.analysis.speedups import (
    average_speedups, blanket_distribution, per_shader_distribution,
)
from repro.harness.results import ShaderResult, StudyResult, VariantRecord
from repro.passes import DEFAULT_LUNARGLASS, SPACE_SIZE, OptimizationFlags
from repro.reporting.artifacts import _study_objective

PLATFORMS = ("Intel", "AMD", "NVIDIA", "ARM", "Qualcomm")

#: Times drawn from this pool tie exactly across variants and shaders.  The
#: fastest, 50.0 and its neighbours 1e-13 and 2e-13 above it, give speed-ups
#: less than 1e-9 apart, so the best combinations often tie only within
#: Table I's tolerance.
TIME_POOL = (50.0, 50.0 * (1 + 1e-13), 50.0 * (1 + 2e-13), 100.0, 80.0,
             125.0, 97.25)


def _time(rng: random.Random) -> float:
    """Half the times from the pool, half uniform in 60..10,000 ns."""
    if rng.random() < 0.5:
        return rng.choice(TIME_POOL)
    return rng.uniform(60.0, 1e4)


def _partition(rng: random.Random, count: int) -> List[List[int]]:
    """The 256 flag indices split at random into *count* non-empty
    variants."""
    order = list(range(SPACE_SIZE))
    rng.shuffle(order)
    parts = [[index] for index in order[:count]]
    for index in order[count:]:
        parts[rng.randrange(count)].append(index)
    return [sorted(part) for part in parts]


@st.composite
def studies(draw) -> StudyResult:
    """1–30 shaders on 1–5 platforms, each with 1–40 variants.  In half the
    studies every shader splits the combinations the same way, as one
    family's shaders tend to, so the corpus means tie as often as one
    shader's speed-ups do."""
    platforms = list(PLATFORMS[:draw(st.integers(1, len(PLATFORMS)))])
    family = draw(st.booleans())
    partition = None
    study = StudyResult(platforms=platforms)
    for position in range(draw(st.integers(1, 30))):
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        if partition is None or not family:
            partition = _partition(rng, draw(st.integers(1, 40)))
        shader = ShaderResult(
            name=f"s{position}", family="random", loc=1,
            arm_static_cycles=0.0,
            original_times_ns={p: _time(rng) for p in platforms})
        for variant_id, indices in enumerate(partition):
            shader.variants.append(VariantRecord(
                variant_id=variant_id, flag_indices=list(indices),
                text_hash=f"{variant_id:016x}",
                times_ns={p: _time(rng) for p in platforms}))
        study.shaders.append(shader)
    return study


def _outcome(fn, *args):
    """What a call returns, or the message of the ``KeyError`` it raises;
    floats by their bits."""
    try:
        value = fn(*args)
    except KeyError as exc:
        return ("KeyError", str(exc))
    return value.hex() if isinstance(value, float) else value


def assert_rows_match_references(study: StudyResult) -> None:
    """Every per-combination lookup equals its reference, or raises the
    same ``KeyError``."""
    for platform in study.platforms:
        objective = _study_objective(study, platform)
        expected_objective = reference_study_objective(study, platform)
        for flags in OptimizationFlags.all_combinations():
            for shader in study.shaders:
                assert (_outcome(shader.speedup_pct, platform, flags)
                        == _outcome(reference_speedup_pct, shader, platform,
                                    flags))
            assert (_outcome(mean_speedup, study, platform, flags)
                    == _outcome(reference_mean_speedup, study, platform,
                                flags))
            assert (_outcome(objective, flags.index)
                    == _outcome(expected_objective, flags.index))
        assert (_outcome(best_static_flags, study, platform)
                == _outcome(reference_best_static_flags, study, platform))


def assert_aggregates_match_references(study: StudyResult) -> None:
    """Fig. 3, 5, 7 and 8 numbers of a complete study, bit for bit."""
    changes = reference_changes_code(study)
    for overall in average_speedups(study):
        platform = overall.platform
        static = reference_best_static_flags(study, platform)
        assert overall.best_static.hex() == reference_mean_speedup(
            study, platform, static).hex()
        assert overall.default_lunarglass.hex() == reference_mean_speedup(
            study, platform, DEFAULT_LUNARGLASS).hex()
        dist = per_shader_distribution(study, platform)
        expected = sorted(
            ((s.best_speedup_pct(platform),
              reference_speedup_pct(s, platform, DEFAULT_LUNARGLASS),
              reference_speedup_pct(s, platform, static), s.name)
             for s in study.shaders), reverse=True)
        assert [x.hex() for x in dist.default_lunarglass] \
            == [row[1].hex() for row in expected]
        assert [x.hex() for x in dist.best_static] \
            == [row[2].hex() for row in expected]
        for flags in (DEFAULT_LUNARGLASS, static):
            assert [x.hex() for x in blanket_distribution(
                study, platform, flags)] == [x.hex() for x in sorted(
                    (reference_speedup_pct(s, platform, flags)
                     for s in study.shaders), reverse=True)]
        applicability = flag_applicability(study, platform)
        assert {name: a.changes_code
                for name, a in applicability.items()} == changes


@settings(max_examples=30, deadline=None)
@given(study=studies())
def test_rows_equal_the_per_call_formulas(study):
    """With the last shader held back and the last variant of the shader
    before it missing, then with each appended again: every row-based
    result equals its reference, and the rows refresh on each append."""
    held_shader = study.shaders.pop()
    held_variant = study.shaders[-1].variants.pop() if study.shaders else None
    assert_rows_match_references(study)

    if held_variant is not None:
        study.shaders[-1].variants.append(held_variant)
        assert_rows_match_references(study)
    study.shaders.append(held_shader)
    assert_rows_match_references(study)
    assert_aggregates_match_references(study)


def _study(*shaders: ShaderResult) -> StudyResult:
    return StudyResult(platforms=["Intel"], shaders=list(shaders))


def _shader(name: str, groups, times, base: float = 100.0) -> ShaderResult:
    shader = ShaderResult(name=name, family="f", loc=1, arm_static_cycles=0.0,
                          original_times_ns={"Intel": base})
    for variant_id, (indices, time) in enumerate(zip(groups, times)):
        shader.variants.append(VariantRecord(
            variant_id=variant_id, flag_indices=sorted(indices),
            text_hash="", times_ns={"Intel": time}))
    return shader


def test_exact_and_near_ties_break_toward_fewer_flags():
    """Combinations 3 (two flags) and 4 (one flag) share the fastest
    variant, exactly or 1e-13 apart: Table I picks 4, the first index of
    fewest flags among the tied best."""
    rest = [i for i in range(SPACE_SIZE) if i not in (3, 4)]
    exact = _study(_shader("a", [rest, [3, 4]], [100.0, 50.0]))
    assert best_static_flags(exact, "Intel").index == 4
    near = _study(_shader("a", [rest, [3], [4]],
                          [100.0, 50.0, 50.0 * (1 + 1e-13)]))
    assert mean_speedup_row(near, "Intel")[3] \
        != mean_speedup_row(near, "Intel")[4]
    assert best_static_flags(near, "Intel").index == 4
    for study in (exact, near):
        assert best_static_flags(study, "Intel") \
            is reference_best_static_flags(study, "Intel")


def test_means_add_in_shader_order():
    """The means row adds the shaders left to right: these three speed-ups
    sum to different bits in another order."""
    everything = [list(range(SPACE_SIZE))]
    study = _study(*(_shader(f"s{i}", everything, [100.0], base)
                     for i, base in enumerate((100.1, 100.7, 133.3))))
    speedups = [s.speedup_row("Intel")[0] for s in study.shaders]
    forward = (((0.0 + speedups[0]) + speedups[1]) + speedups[2]) / 3
    backward = (((0.0 + speedups[2]) + speedups[1]) + speedups[0]) / 3
    assert forward != backward
    assert mean_speedup_row(study, "Intel") == [forward] * SPACE_SIZE


def test_a_missing_combination_raises_instead_of_reading_zero():
    """Every reader of a combination that shader "holey" lacks raises
    ``variant_for_flags``'s ``KeyError``; the other combinations read."""
    rest = [i for i in range(SPACE_SIZE) if i != 5]
    study = _study(_shader("a", [list(range(SPACE_SIZE))], [100.0]),
                   _shader("holey", [rest], [80.0]))
    assert study.shaders[1].speedup_row("Intel")[5] is None
    flags = OptimizationFlags.from_index(5)
    for call in (lambda: study.shaders[1].speedup_pct("Intel", flags),
                 lambda: mean_speedup(study, "Intel", flags),
                 lambda: best_static_flags(study, "Intel"),
                 lambda: _study_objective(study, "Intel")(5)):
        with pytest.raises(KeyError, match="holey") as exc:
            call()
        assert str(flags) in str(exc.value)
    assert mean_speedup(study, "Intel", OptimizationFlags.from_index(4)) \
        == 12.5
    assert _study_objective(study, "Intel")(4) == 12.5
