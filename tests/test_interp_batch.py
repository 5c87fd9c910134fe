"""Batching-invariance properties of the lane-batched interpreter.

The :class:`~repro.ir.interp_batch.BatchedInterpreter` must be
observationally indistinguishable from looping the scalar interpreter over
the lanes: a batch of one equals the scalar run; permuting the lane order
permutes only the result rows; splitting a batch into sub-batches changes
nothing; the ``_MAX_STEPS`` budget is charged per lane, never pooled across
the batch.  Each property is exercised on shaders with divergent branches,
data-dependent loops, ``discard``, and texture sampling.
"""

from __future__ import annotations

import random

import pytest

from repro.core import compile_shader
from repro.errors import InterpError
from repro.gpu.platform import all_platforms
from repro.harness.environment import ShaderExecutionEnvironment
from repro.ir import BatchedInterpreter, Interpreter
from repro.passes import OptimizationFlags

#: Divergent branch inside a counted loop: lanes disagree per iteration.
BRANCHY_LOOP = """
out vec4 color;
in vec2 uv;
uniform float gain;

void main()
{
    float acc = 0.0;
    for (int i = 0; i < 8; i = i + 1) {
        if (uv.x > 0.5) {
            acc = acc + uv.x * gain;
        } else {
            acc = acc - uv.y;
        }
    }
    color = vec4(acc, uv.x, uv.y, 1.0);
}
"""

#: Some lanes discard, siblings keep rendering.
DIVERGENT_DISCARD = """
out vec4 color;
in vec2 uv;

void main()
{
    if (uv.x < 0.5) {
        discard;
    }
    color = vec4(uv.x, uv.y, 0.25, 1.0);
}
"""

#: Texture sampling at per-lane coordinates.
TEXTURED = """
out vec4 color;
in vec2 uv;
uniform sampler2D tex;

void main()
{
    vec4 base = texture(tex, uv);
    vec4 shifted = texture(tex, uv * 0.5);
    color = (base + shifted) * 0.5;
}
"""

#: Trip count depends on lane data: uv.x picks how long the loop spins.
DATA_DEPENDENT_LOOP = """
out vec4 color;
in vec2 uv;
uniform float gain;

void main()
{
    float acc = 0.0;
    while (acc < uv.x * 40.0) {
        acc = acc + 0.5 * gain;
    }
    color = vec4(acc, uv.x, 0.0, 1.0);
}
"""

SHADERS = {
    "branchy_loop": BRANCHY_LOOP,
    "divergent_discard": DIVERGENT_DISCARD,
    "textured": TEXTURED,
    "data_dependent_loop": DATA_DEPENDENT_LOOP,
}

UNIFORMS = {"gain": 1.0}

#: Lane inputs chosen to diverge: uv.x straddles both branch conditions.
LANES = [{"uv": (x, y)} for x, y in
         ((0.05, 0.5), (0.9, 0.1), (0.45, 0.8), (0.55, 0.3), (0.7, 0.7))]


def compile_module(source):
    """Front-end + no-op pipeline, the way the harness feeds the interp."""
    return compile_shader(source, OptimizationFlags.none()).module


def scalar_reference(module, lane_inputs):
    """(outputs, stats) per lane from the scalar interpreter loop."""
    outputs, stats = [], []
    for inputs in lane_inputs:
        interp = Interpreter(module, uniforms=UNIFORMS, inputs=inputs)
        outputs.append(interp.run())
        stats.append(interp.stats)
    return outputs, stats


def run_batched(module, lane_inputs):
    batch = BatchedInterpreter(module, uniforms=UNIFORMS, inputs=lane_inputs)
    return batch.run(), batch.stats


def assert_lanes_equal(actual, reference, context=""):
    actual_outputs, actual_stats = actual
    ref_outputs, ref_stats = reference
    assert actual_outputs == ref_outputs, context
    assert len(actual_stats) == len(ref_stats)
    for lane, (a, b) in enumerate(zip(actual_stats, ref_stats)):
        assert a.steps == b.steps, (context, lane)
        assert a.block_visits == b.block_visits, (context, lane)
        assert list(a.block_visits) == list(b.block_visits), \
            f"visit insertion order drifted: {context} lane {lane}"
        assert a.texture_samples == b.texture_samples, (context, lane)


@pytest.mark.parametrize("name", sorted(SHADERS))
def test_full_batch_matches_scalar_loop(name):
    module = compile_module(SHADERS[name])
    assert_lanes_equal(run_batched(module, LANES),
                       scalar_reference(module, LANES), name)


@pytest.mark.parametrize("name", sorted(SHADERS))
def test_batch_of_one_matches_scalar(name):
    module = compile_module(SHADERS[name])
    for inputs in LANES:
        interp = Interpreter(module, uniforms=UNIFORMS, inputs=inputs)
        expected = interp.run()
        outputs, stats = run_batched(module, [inputs])
        assert outputs == [expected]
        assert stats[0].steps == interp.stats.steps
        assert stats[0].block_visits == interp.stats.block_visits


@pytest.mark.parametrize("name", sorted(SHADERS))
def test_lane_permutation_permutes_rows_only(name):
    module = compile_module(SHADERS[name])
    base_outputs, base_stats = run_batched(module, LANES)
    order = list(range(len(LANES)))
    rng = random.Random(7)
    for _ in range(3):
        rng.shuffle(order)
        outputs, stats = run_batched(module, [LANES[i] for i in order])
        assert outputs == [base_outputs[i] for i in order], (name, order)
        for pos, i in enumerate(order):
            assert stats[pos].steps == base_stats[i].steps
            assert stats[pos].block_visits == base_stats[i].block_visits


@pytest.mark.parametrize("name", sorted(SHADERS))
@pytest.mark.parametrize("cut", [1, 2, 4])
def test_sub_batch_split_is_equivalent(name, cut):
    module = compile_module(SHADERS[name])
    whole = run_batched(module, LANES)
    left_outputs, left_stats = run_batched(module, LANES[:cut])
    right_outputs, right_stats = run_batched(module, LANES[cut:])
    assert_lanes_equal((left_outputs + right_outputs,
                        left_stats + right_stats), whole, (name, cut))


def test_divergent_discard_only_silences_discarded_lanes():
    module = compile_module(DIVERGENT_DISCARD)
    outputs, _ = run_batched(module, LANES)
    for inputs, lane_outputs in zip(LANES, outputs):
        if inputs["uv"][0] < 0.5:
            assert lane_outputs == {}
        else:
            assert lane_outputs["color"][0] == inputs["uv"][0]


def test_uniform_broadcast_equals_per_lane_uniforms():
    module = compile_module(BRANCHY_LOOP)
    broadcast, _ = run_batched(module, LANES)
    batch = BatchedInterpreter(module, uniforms=[UNIFORMS] * len(LANES),
                               inputs=LANES)
    assert batch.run() == broadcast


def test_lane_count_mismatch_rejected():
    module = compile_module(BRANCHY_LOOP)
    with pytest.raises(ValueError):
        BatchedInterpreter(module, uniforms=[UNIFORMS] * 2, inputs=LANES)


# ---------------------------------------------------------------------------
# Per-lane step budget
# ---------------------------------------------------------------------------

FAST_LANE = {"uv": (0.05, 0.5)}    # loop exits after a few trips
RUNAWAY_LANE = {"uv": (100.0, 0.5)}  # needs thousands of trips


def test_step_budget_is_per_lane_not_per_batch():
    """Two lanes each within budget must pass even though their *summed*
    step count exceeds it — the budget is charged per lane."""
    module = compile_module(DATA_DEPENDENT_LOOP)
    interp = Interpreter(module, uniforms=UNIFORMS, inputs=FAST_LANE)
    interp.run()
    per_lane_steps = interp.stats.steps
    budget = per_lane_steps + 10
    assert 2 * per_lane_steps > budget, "shader too small to prove anything"

    batch = BatchedInterpreter(module, uniforms=UNIFORMS,
                               inputs=[FAST_LANE, FAST_LANE],
                               max_steps=budget)
    outputs = batch.run()
    assert outputs[0] == outputs[1] != {}
    assert all(stats.steps == per_lane_steps for stats in batch.stats)


def test_runaway_lane_trips_budget_while_siblings_terminate():
    """One lane's data-dependent loop runs away: the scalar interpreter
    raises for that lane, and so must the batched run containing it —
    even though its sibling lanes terminate quickly."""
    module = compile_module(DATA_DEPENDENT_LOOP)
    budget = 200

    with pytest.raises(InterpError, match="step limit"):
        Interpreter(module, uniforms=UNIFORMS, inputs=RUNAWAY_LANE,
                    max_steps=budget).run()
    fast = Interpreter(module, uniforms=UNIFORMS, inputs=FAST_LANE,
                       max_steps=budget)
    assert fast.run() != {}

    batch = BatchedInterpreter(module, uniforms=UNIFORMS,
                               inputs=[FAST_LANE, RUNAWAY_LANE],
                               max_steps=budget)
    with pytest.raises(InterpError, match="step limit"):
        batch.run()


# ---------------------------------------------------------------------------
# Seed-batching invariance at the environment level
# ---------------------------------------------------------------------------


def test_run_many_seed_permutation_permutes_reports():
    env = ShaderExecutionEnvironment(all_platforms()[0])
    seeds = [3, 1, 4, 1, 5]
    base = env.run_many(DIVERGENT_DISCARD, seeds)
    swapped = env.run_many(DIVERGENT_DISCARD, list(reversed(seeds)))
    for a, b in zip(base, reversed(swapped)):
        assert a.measurement == b.measurement
        assert a.true_ns == b.true_ns


def test_run_many_split_into_sub_batches_is_equivalent():
    env = ShaderExecutionEnvironment(all_platforms()[1])
    seeds = [10, 20, 30, 40]
    whole = env.run_many(BRANCHY_LOOP, seeds)
    parts = (env.run_many(BRANCHY_LOOP, seeds[:2])
             + env.run_many(BRANCHY_LOOP, seeds[2:]))
    for a, b in zip(whole, parts):
        assert a.measurement == b.measurement
        assert a.cost == b.cost


# ---------------------------------------------------------------------------
# Hoisted timer sampling
# ---------------------------------------------------------------------------


def test_timer_measure_many_bit_identical_to_measure_loop():
    """measure_many must reproduce measure()'s float stream exactly —
    including drift models — and leave the rng in the identical state."""
    drifty = [p for p in all_platforms() if p.timer.drift_sigma > 0.0]
    steady = [p for p in all_platforms() if p.timer.drift_sigma == 0.0]
    assert drifty and steady, "need both timer families for coverage"
    for platform in drifty + steady:
        timer = platform.timer
        rng_a, rng_b = random.Random(99), random.Random(99)
        expected = [timer.measure(1234.5, rng_a) for _ in range(250)]
        got = timer.measure_many(1234.5, rng_b, 250)
        assert got == expected, platform.name
        assert rng_a.getstate() == rng_b.getstate(), platform.name
