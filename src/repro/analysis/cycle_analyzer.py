"""ARM static shader analysis (paper Fig. 4b).

The paper uses ARM's offline Mali compiler to report "the sum of all cycles
spent on Arithmetic, Load/Store, and Texture operations on the longest
execution path".  We reproduce that with the Mali cost model applied
statically: blocks are weighted by the longest-path execution count
(loops at their static trip count when analyzable, else a default), and only
the arithmetic / load-store / texture categories are summed (no occupancy or
latency modelling — it is a static analyser).
"""

from __future__ import annotations

from typing import Dict

from repro.gpu.isa import OpClass, classify
from repro.ir.cfg import find_natural_loops
from repro.ir.module import Function

_DEFAULT_TRIPS = 4.0

#: Static per-op cycle weights for the three categories ARM's tool reports.
_ARITH = {OpClass.ALU: 1.0, OpClass.MOV: 0.5, OpClass.TRANSCENDENTAL: 3.0,
          OpClass.REDUCTION: 1.5}
_LOAD_STORE = {OpClass.INTERP: 1.0, OpClass.UNIFORM: 0.5,
               OpClass.LOCAL_MEM: 2.0, OpClass.EXPORT: 1.0}
_TEXTURE = {OpClass.TEXTURE: 2.5}


def arm_static_cycles(source: str) -> float:
    """Run the simulated Mali offline analyser on raw GLSL source."""
    from repro.gpu.vendors.arm_mali import ARM

    module = ARM.jit.compile(source)
    return static_cycles(module.function)


def static_cycles(function: Function) -> float:
    """Estimated Mali cycle count of *function*: block costs weighted by loop depth."""
    weights = _block_weights(function)
    total = 0.0
    for block in function.blocks:
        weight = weights.get(block.name, 1.0)
        for instr in block.instrs:
            op = classify(instr)
            for table in (_ARITH, _LOAD_STORE, _TEXTURE):
                if op.op_class in table:
                    total += table[op.op_class] * weight
                    break
    return total


def _block_weights(function: Function) -> Dict[str, float]:
    """Longest-path weights: every block once, loop bodies multiplied by the
    loop's static trip count (nested loops multiply)."""
    weights: Dict[str, float] = {b.name: 1.0 for b in function.blocks}
    for loop in find_natural_loops(function):
        trips = _static_trip_count(function, loop)
        for block in loop.blocks:
            weights[block.name] *= trips
    return weights


def _static_trip_count(function: Function, loop) -> float:
    from repro.passes.unroll import plan_loop

    plan = plan_loop(function, loop, trip_cap=1024)
    if plan is None:
        return _DEFAULT_TRIPS
    return float(plan.trips)
