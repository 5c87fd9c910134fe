"""LunarGlass-style optimization passes over the SSA IR.

The eight command-line flags from the paper (Section III) map to
:class:`repro.passes.flags.OptimizationFlags`;
:func:`repro.passes.manager.run_passes` applies them in a fixed,
deterministic order after the always-on canonical passes (constant
folding, local CSE, trivial DCE), which the shared front end runs.
"""

from repro.passes.flags import (
    ALL_FLAG_NAMES, DEFAULT_LUNARGLASS, FLAG_COUNT, SPACE_SIZE,
    OptimizationFlags, flip_bit, hamming_distance, mutate_index,
    neighbor_indices, popcount, random_index, uniform_crossover,
)
from repro.passes.manager import (
    PASS_ORDER, apply_flag_pass, run_cleanup, run_passes,
)

__all__ = [
    "OptimizationFlags", "ALL_FLAG_NAMES", "DEFAULT_LUNARGLASS",
    "FLAG_COUNT", "SPACE_SIZE", "run_passes",
    "PASS_ORDER", "apply_flag_pass", "run_cleanup",
    "flip_bit", "neighbor_indices", "popcount", "hamming_distance",
    "random_index", "uniform_crossover", "mutate_index",
]
