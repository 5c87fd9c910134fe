"""Deep-copy a Function/Module (used to run 256 flag combinations off one
parse+lower instead of re-running the frontend per combination).

Cloning never mutates its source: unreachable blocks are filtered during the
copy rather than removed from the input, so a module shared between trie
states (the "flag disabled" edge reuses its parent verbatim) stays intact
while its siblings clone and diverge.

``preserve_names=True`` carries each instruction's SSA name onto its copy.
The reassociation passes order expression leaves by those names (SSA
creation order), so a mid-pipeline clone must keep them for the copy to
behave byte-identically to continuing on the original; a fresh-name clone
renumbers values in RPO, which is only equivalent when cloning a pristine
front-end module (every variant then gets the *same* renumbering).

Each instruction is copied by the cloner of its class in ``_CLONERS``, and
the value map is keyed by ``id()`` of the original value, so mapping a
constant operand never hashes it.  The unroller copies its loop bodies
through :func:`_clone` with a map of the same kind."""

from __future__ import annotations

from typing import Callable, Dict

from repro.ir.instructions import (
    BinOp, Br, Call, Cmp, CondBr, Construct, Convert, Discard, ExtractElem,
    InsertElem, Instr, LoadElem, LoadGlobal, LoadVar, Phi, Ret, Sample, Select,
    Shuffle, StoreElem, StoreOutput, StoreVar, UnOp,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import Slot, Value


def clone_module(module: Module, preserve_names: bool = False) -> Module:
    """Deep-copy *module* without mutating it (see :func:`clone_function`)."""
    return Module(clone_function(module.function, preserve_names),
                  module.interface, module.version)


def _reachable_blocks(function: Function) -> set:
    reachable = set()
    stack = [function.entry]
    while stack:
        block = stack.pop()
        if block in reachable:
            continue
        reachable.add(block)
        stack.extend(block.successors())
    return reachable


def clone_function(function: Function,
                   preserve_names: bool = False) -> Function:
    """Deep-copy *function*: fresh blocks/instructions with remapped operand
    edges; ``preserve_names`` keeps SSA value names verbatim (the
    compilation trie's requirement for byte-identical emission)."""
    new_fn = Function(function.name)
    block_map: Dict[BasicBlock, BasicBlock] = {}
    slot_map: Dict[Slot, Slot] = {}
    value_map: Dict[int, Value] = {}  # id(original value) -> its copy

    for slot in function.slots:
        clone = Slot(slot.name, slot.ty, slot.array_length)
        clone.const_init = slot.const_init
        clone.is_mutated = slot.is_mutated
        slot_map[slot] = clone
        new_fn.slots.append(clone)

    reachable = _reachable_blocks(function)
    for block in function.blocks:
        if block not in reachable:
            continue
        block_map[block] = new_fn.add_block(BasicBlock(block.name))

    # Pre-create phi shells (they may be used across back edges), then clone
    # the straight-line instructions in reverse postorder so every non-phi
    # definition is cloned before its uses (the RPO property of reducible
    # CFGs: dominators precede the blocks they dominate).
    from repro.ir.cfg import reverse_postorder

    phis: Dict[Phi, Phi] = {}
    for block in function.blocks:
        if block not in reachable:
            continue
        new_block = block_map[block]
        for instr in block.phis():
            new_phi = Phi(instr.ty)
            if preserve_names:
                new_phi.name = instr.name
            new_block.instrs.append(new_phi)
            new_phi.block = new_block
            phis[instr] = new_phi
            value_map[id(instr)] = new_phi

    for block in reverse_postorder(function):
        new_block = block_map[block]
        # The phi shells made above are the copy's only instructions yet,
        # one per phi at the top of the original.
        for instr in block.instrs[len(new_block.instrs):]:
            new_instr = _clone(instr, value_map, block_map, slot_map)
            if preserve_names:
                new_instr.name = instr.name
            new_block.instrs.append(new_instr)
            new_instr.block = new_block
            value_map[id(instr)] = new_instr

    for old_phi, new_phi in phis.items():
        for pred, value in old_phi.incoming:
            if pred not in block_map:  # edge from an unreachable block
                continue
            new_phi.add_incoming(block_map[pred],
                                 value_map.get(id(value), value))

    return new_fn


def _clone(instr: Instr, vm: Dict[int, Value],
           bm: Dict[BasicBlock, BasicBlock], sm: Dict[Slot, Slot]) -> Instr:
    """A copy of *instr* whose operands, targets and slots are mapped
    through *vm* (keyed by ``id()`` of the original value), *bm* and *sm*;
    a value missing from *vm* maps to itself."""
    cloner = _CLONERS.get(type(instr))
    if cloner is None:
        raise AssertionError(f"cannot clone {instr.opcode}")
    return cloner(instr, vm.get, bm, sm)


# One cloner per concrete instruction class but Phi (clone_function and the
# unroller make phi shells themselves).  Each takes the instruction, the
# value map's ``get`` and the block and slot maps.

def _clone_binop(instr, get, bm, sm):
    lhs, rhs = instr.operands
    return BinOp(instr.op, get(id(lhs), lhs), get(id(rhs), rhs))


def _clone_cmp(instr, get, bm, sm):
    lhs, rhs = instr.operands
    return Cmp(instr.op, get(id(lhs), lhs), get(id(rhs), rhs))


def _clone_unop(instr, get, bm, sm):
    operand = instr.operands[0]
    return UnOp(instr.op, get(id(operand), operand))


def _clone_convert(instr, get, bm, sm):
    value = instr.operands[0]
    return Convert(get(id(value), value), instr.ty.kind)


def _clone_select(instr, get, bm, sm):
    cond, if_true, if_false = instr.operands
    return Select(get(id(cond), cond), get(id(if_true), if_true),
                  get(id(if_false), if_false))


def _clone_extract(instr, get, bm, sm):
    vector = instr.operands[0]
    return ExtractElem(get(id(vector), vector), instr.index)


def _clone_insert(instr, get, bm, sm):
    vector, scalar = instr.operands
    return InsertElem(get(id(vector), vector), get(id(scalar), scalar),
                      instr.index)


def _clone_shuffle(instr, get, bm, sm):
    source = instr.operands[0]
    return Shuffle(get(id(source), source), list(instr.mask))


def _clone_construct(instr, get, bm, sm):
    return Construct(instr.ty, [get(id(op), op) for op in instr.operands])


def _clone_call(instr, get, bm, sm):
    return Call(instr.callee, instr.ty,
                [get(id(op), op) for op in instr.operands])


def _clone_sample(instr, get, bm, sm):
    coord = instr.operands[0]
    lod = instr.lod
    return Sample(instr.sampler, instr.sampler_kind, instr.ty,
                  get(id(coord), coord),
                  get(id(lod), lod) if lod is not None else None)


def _clone_load_global(instr, get, bm, sm):
    element = instr.element
    return LoadGlobal(instr.var, instr.ty, instr.kind, column=instr.column,
                      element=(get(id(element), element)
                               if element is not None else None))


def _clone_store_output(instr, get, bm, sm):
    value = instr.operands[0]
    return StoreOutput(instr.var, get(id(value), value))


def _clone_load_var(instr, get, bm, sm):
    return LoadVar(sm[instr.slot])


def _clone_store_var(instr, get, bm, sm):
    value = instr.operands[0]
    return StoreVar(sm[instr.slot], get(id(value), value))


def _clone_load_elem(instr, get, bm, sm):
    index = instr.operands[0]
    return LoadElem(sm[instr.slot], get(id(index), index))


def _clone_store_elem(instr, get, bm, sm):
    index, value = instr.operands
    return StoreElem(sm[instr.slot], get(id(index), index),
                     get(id(value), value))


def _clone_br(instr, get, bm, sm):
    return Br(bm[instr.target])


def _clone_cond_br(instr, get, bm, sm):
    cond = instr.operands[0]
    return CondBr(get(id(cond), cond), bm[instr.if_true], bm[instr.if_false])


def _clone_ret(instr, get, bm, sm):
    return Ret()


def _clone_discard(instr, get, bm, sm):
    return Discard()


_CLONERS: Dict[type, Callable[..., Instr]] = {
    BinOp: _clone_binop,
    Cmp: _clone_cmp,
    UnOp: _clone_unop,
    Convert: _clone_convert,
    Select: _clone_select,
    ExtractElem: _clone_extract,
    InsertElem: _clone_insert,
    Shuffle: _clone_shuffle,
    Construct: _clone_construct,
    Call: _clone_call,
    Sample: _clone_sample,
    LoadGlobal: _clone_load_global,
    StoreOutput: _clone_store_output,
    LoadVar: _clone_load_var,
    StoreVar: _clone_store_var,
    LoadElem: _clone_load_elem,
    StoreElem: _clone_store_elem,
    Br: _clone_br,
    CondBr: _clone_cond_br,
    Ret: _clone_ret,
    Discard: _clone_discard,
}
