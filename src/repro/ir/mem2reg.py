"""Promote scalar/vector slots to SSA registers (classic mem2reg).

Phi placement uses iterated dominance frontiers; renaming walks the dominator
tree.  Array slots are left in memory (LoadElem/StoreElem) — constant folding
resolves const-array accesses after unrolling instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.cfg import compute_dominators, dominance_frontiers
from repro.ir.instructions import Instr, LoadVar, Phi, StoreVar
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Constant, Slot, Undef, Value


def promote_to_ssa(function: Function) -> int:
    """Promote every non-array slot; returns the number promoted."""
    function.remove_unreachable_blocks()
    slots = [s for s in function.slots if not s.is_array]
    if not slots:
        return 0

    idom = compute_dominators(function)
    frontiers = dominance_frontiers(function, idom)

    # Dominator tree children.
    children: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in function.blocks}
    for block in function.blocks:
        parent = idom[block]
        if parent is not None:
            children[parent].append(block)

    # Def blocks of every slot, in one pass.  Each set is filled in
    # instruction order: its iteration order seeds the worklist below, and
    # so the order phis are created in, which the fingerprint ranks.
    def_blocks: Dict[Slot, Set[BasicBlock]] = {slot: set() for slot in slots}
    for instr in function.instructions():
        if isinstance(instr, StoreVar) and instr.block:
            blocks = def_blocks.get(instr.slot)
            if blocks is not None:
                blocks.add(instr.block)

    # Phi placement.
    phi_for: Dict[Phi, Slot] = {}
    for slot in slots:
        worklist = list(def_blocks[slot])
        placed = set()
        while worklist:
            block = worklist.pop()
            for frontier_block in frontiers[block]:
                if frontier_block in placed:
                    continue
                placed.add(frontier_block)
                phi = Phi(slot.ty)
                frontier_block.insert_at_front(phi)
                phi_for[phi] = slot
                if frontier_block not in def_blocks[slot]:
                    worklist.append(frontier_block)

    # Renaming: a preorder walk of the dominator tree on an explicit stack
    # (a long if-chain nests it deeper than Python's recursion limit).  A
    # promoted load only records the value it reads, and a store pushes
    # that value, so the stacks never hold a promoted load; uses are
    # rewritten in one pass at the end.
    stacks: Dict[Slot, List[Value]] = {slot: [] for slot in slots}
    replaced: Dict[int, Value] = {}
    promoted: List[Instr] = []  # keeps the keys of `replaced` alive

    def current(slot: Slot) -> Value:
        if stacks[slot]:
            return stacks[slot][-1]
        # Reading before any write: undef (GLSL leaves it undefined; a zero
        # would hide bugs, Undef keeps them visible in the verifier).
        return Undef(slot.ty)

    # A (block, None) frame renames the block; the (block, pushed) frame it
    # leaves below its children pops what it pushed once they are done.
    frames: List[Tuple[BasicBlock, Optional[List[Slot]]]] = [
        (function.entry, None)]
    while frames:
        block, pushed = frames.pop()
        if pushed is not None:
            for slot in pushed:
                stacks[slot].pop()
            continue
        pushed = []
        kept: List[Instr] = []
        for instr in block.instrs:
            if isinstance(instr, Phi) and instr in phi_for:
                slot = phi_for[instr]
                stacks[slot].append(instr)
                pushed.append(slot)
            elif isinstance(instr, LoadVar) and instr.slot in stacks:
                replaced[id(instr)] = current(instr.slot)
                promoted.append(instr)
                continue
            elif isinstance(instr, StoreVar) and instr.slot in stacks:
                value = instr.value
                stacks[instr.slot].append(replaced.get(id(value), value))
                pushed.append(instr.slot)
                promoted.append(instr)
                continue
            kept.append(instr)
        block.instrs = kept
        for succ in block.successors():
            for phi in succ.phis():
                if phi in phi_for:
                    phi.add_incoming(block, current(phi_for[phi]))
        frames.append((block, pushed))
        frames.extend((child, None) for child in reversed(children[block]))

    for instr in promoted:
        instr.block = None
    function.replace_uses(replaced)

    # Prune trivial phis (single unique incoming value, or self-references).
    _prune_trivial_phis(function)

    function.slots = [s for s in function.slots if s.is_array]
    return len(slots)


def _prune_trivial_phis(function: Function) -> int:
    """Remove phis with one distinct incoming value (or none) until none
    is left; returns how many were removed."""
    pruned = 0
    while True:
        before = pruned
        for block in function.blocks:
            for phi in block.phis():
                distinct = {v for _, v in phi.incoming if v is not phi}
                if len(distinct) == 1:
                    replacement = distinct.pop()
                    function.replace_all_uses(phi, replacement)
                    block.remove(phi)
                    pruned += 1
                elif not distinct:
                    block.remove(phi)
                    pruned += 1
        if pruned == before:
            return pruned
