"""Dead code elimination: the always-on trivial pass and the ADCE flag pass.

The paper observes (Section VI-D-1) that LunarGlass's ADCE flag "in practise
never changes the source output" because LLVM's trivially-dead removal plus
the GLSL extensions already catch everything.  We reproduce that situation:
``trivial_dce`` runs to fixpoint in the always-on pipeline (including dead
stores to never-read array slots), so the liveness-based ``adce`` finds
nothing extra on real shaders — while remaining a genuinely different,
stronger algorithm.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.ir.instructions import Instr, LoadElem, StoreElem
from repro.ir.module import Function


def trivial_dce(function: Function) -> int:
    """Iteratively remove pure instructions with no uses; returns removals.

    Includes dead stores to never-read array slots and dead phi *cycles*
    (an accumulator only feeding itself around a loop).  This matches the
    paper's observation that LLVM's always-on trivially-dead removal (plus
    the GLSL extensions) leaves nothing for the ADCE flag to do.

    Each round is one mark-and-sweep in which a ``StoreElem`` is a root only
    while some ``LoadElem`` of its slot remains, so a store feeding a load
    of its own slot survives.  Removal only ever makes more instructions
    removable, so this reaches the same fixpoint as removing one dead
    instruction at a time; another round is needed only when a sweep drops
    a load, which may leave a store without readers.
    """
    removed = 0
    while True:
        count, dropped_load = _mark_and_sweep(function, store_needs_load=True)
        removed += count
        if not dropped_load:
            return removed


def adce(function: Function) -> int:
    """Aggressive DCE: mark live from roots (side effects + control flow),
    sweep everything else."""
    return _mark_and_sweep(function, store_needs_load=False)[0]


def _mark_and_sweep(function: Function,
                    store_needs_load: bool) -> Tuple[int, bool]:
    """Drop every instruction no root transitively uses.

    Roots are the instructions with side effects, terminators included.
    With *store_needs_load*, a ``StoreElem`` is a root only if the function
    also loads from its slot.  Returns the number of instructions removed
    and whether a ``LoadElem`` was among them.
    """
    index: Dict[int, Instr] = {}
    worklist: List[Instr] = []
    stores: List[StoreElem] = []
    loaded: Set[int] = set()
    for block in function.blocks:
        for instr in block.instrs:
            index[id(instr)] = instr
            if instr.has_side_effects:
                if store_needs_load and isinstance(instr, StoreElem):
                    stores.append(instr)
                else:
                    worklist.append(instr)
            elif isinstance(instr, LoadElem):
                loaded.add(id(instr.slot))
    worklist.extend(store for store in stores if id(store.slot) in loaded)
    live = {id(instr) for instr in worklist}
    while worklist:
        for operand in worklist.pop().operands:
            key = id(operand)
            if key in index and key not in live:
                live.add(key)
                worklist.append(index[key])
    if len(live) == len(index):
        return 0, False

    removed = 0
    dropped_load = False
    for block in function.blocks:
        kept = []
        for instr in block.instrs:
            if id(instr) in live:
                kept.append(instr)
            else:
                instr.block = None
                removed += 1
                dropped_load = dropped_load or isinstance(instr, LoadElem)
        if len(kept) != len(block.instrs):
            block.instrs = kept
    return removed, dropped_load
