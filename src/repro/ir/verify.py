"""IR verifier: structural and SSA invariants, run after lowering and after
every pass in tests.

Checks:
- every block ends in exactly one terminator, and only one;
- phi nodes sit at the top of their block and match the predecessor list;
- every instruction operand is a Constant/Undef or an instruction whose
  definition dominates the use (SSA dominance property);
- binary operands agree in type; select/cmp shapes are sane;
- all blocks are reachable from entry.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.errors import IRError
from repro.ir.cfg import compute_dominators, dominates
from repro.ir.instructions import (
    BinOp, Cmp, Instr, Phi, Select, Terminator,
)
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Constant, Undef, Value


def verify_function(function: Function) -> None:
    """Raise :class:`~repro.errors.IRError` on the first violation."""
    if not function.blocks:
        raise IRError("function has no blocks")

    block_set = set(function.blocks)
    preds = function.predecessors()

    # Reachability.
    reachable: Set[BasicBlock] = set()
    stack = [function.entry]
    while stack:
        block = stack.pop()
        if block in reachable:
            continue
        reachable.add(block)
        stack.extend(block.successors())
    for block in function.blocks:
        if block not in reachable:
            raise IRError(f"block {block.name} is unreachable")

    # Block structure.
    defined_in: Dict[Instr, BasicBlock] = {}
    for block in function.blocks:
        if not block.instrs or not isinstance(block.instrs[-1], Terminator):
            raise IRError(f"block {block.name} lacks a terminator")
        seen_non_phi = False
        for index, instr in enumerate(block.instrs):
            if isinstance(instr, Terminator) and index != len(block.instrs) - 1:
                raise IRError(f"terminator mid-block in {block.name}")
            if isinstance(instr, Phi):
                if seen_non_phi:
                    raise IRError(f"phi after non-phi in {block.name}")
            else:
                seen_non_phi = True
            if instr.block is not block:
                raise IRError(f"instruction {instr.name} has stale block link")
            defined_in[instr] = block
        for succ in block.successors():
            if succ not in block_set:
                raise IRError(f"{block.name} branches to foreign block {succ.name}")

    # Phi incoming lists match predecessors.
    for block in function.blocks:
        pred_set = set(preds[block])
        for phi in block.phis():
            incoming_blocks = [b for b, _ in phi.incoming]
            if set(incoming_blocks) != pred_set or len(incoming_blocks) != len(pred_set):
                raise IRError(
                    f"phi {phi.name} in {block.name} has incoming "
                    f"{[b.name for b in incoming_blocks]} but preds "
                    f"{[b.name for b in pred_set]}")

    # SSA dominance.
    idom = compute_dominators(function)
    order: Dict[Instr, int] = {}
    for block in function.blocks:
        for index, instr in enumerate(block.instrs):
            order[instr] = index

    def check_use(user: Instr, operand: Value, use_block: BasicBlock) -> None:
        if isinstance(operand, (Constant, Undef)):
            return
        if not isinstance(operand, Instr):
            raise IRError(f"{user.name} uses non-IR value {operand!r}")
        def_block = defined_in.get(operand)
        if def_block is None:
            raise IRError(
                f"{user.name} uses {operand.name}, which is not in the function")
        if def_block is use_block:
            if order[operand] >= order[user]:
                raise IRError(f"{user.name} uses {operand.name} before definition")
        elif not dominates(idom, def_block, use_block):
            raise IRError(
                f"{user.name} in {use_block.name} not dominated by "
                f"def of {operand.name} in {def_block.name}")

    for block in function.blocks:
        for instr in block.instrs:
            if isinstance(instr, Phi):
                for pred, value in instr.incoming:
                    if isinstance(value, (Constant, Undef)):
                        continue
                    if not isinstance(value, Instr):
                        raise IRError(f"phi {instr.name} has bad incoming {value!r}")
                    def_block = defined_in.get(value)
                    if def_block is None:
                        raise IRError(
                            f"phi {instr.name} incoming {value.name} not in function")
                    if not dominates(idom, def_block, pred):
                        raise IRError(
                            f"phi {instr.name} incoming {value.name} does not "
                            f"dominate predecessor {pred.name}")
            else:
                for operand in instr.operands:
                    check_use(instr, operand, block)

    # Simple type sanity.
    for instr in function.instructions():
        if isinstance(instr, BinOp):
            if instr.lhs.ty != instr.rhs.ty:
                raise IRError(
                    f"{instr.name}: operand types differ "
                    f"({instr.lhs.ty} vs {instr.rhs.ty})")
        if isinstance(instr, Cmp):
            if instr.lhs.ty != instr.rhs.ty:
                raise IRError(f"{instr.name}: compare operand types differ")
        if isinstance(instr, Select):
            if instr.if_true.ty != instr.if_false.ty:
                raise IRError(f"{instr.name}: select arm types differ")
            if instr.cond.ty.kind != "bool":
                raise IRError(f"{instr.name}: select condition is not bool")
