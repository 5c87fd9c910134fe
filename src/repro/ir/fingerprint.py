"""Canonical structural fingerprints for IR functions.

The compilation trie (:mod:`repro.core.trie`) walks the fixed pass order as a
binary decision tree and needs to know when two differently-reached IR states
have *converged*: if they agree, their entire subtrees are identical and can
be shared, so each pass runs once per distinct reachable state instead of
once per flag combination.

Convergence must mean "every later pass and the GLSL backend behave
identically", which for this IR is two properties:

1. **structure** — blocks in list order, instructions in block order, operand
   edges, per-instruction payloads (opcodes, types, constants, slot
   references, branch targets, phi incoming lists);
2. **relative value-name order** — the reassociation passes canonically sort
   expression leaves by SSA creation order via ``leaf_order_key``, which
   compares the ``v<counter>`` names numerically.  Two structurally identical
   states whose surviving values were created in different orders can still
   reassociate differently later, so the fingerprint folds in each value's
   rank under that same ordering (ranks are position-relative, never the
   absolute counter values, which differ between clones by construction).

Everything identity-based that passes rely on (``id()``-keyed CSE/GVN maps)
is isomorphic between two states that agree on both properties, so equal
fingerprints imply byte-identical emitted GLSL down every remaining path.
Fingerprints are sha256 digests of a canonical serialization; collisions are
cryptographically negligible.  Nothing is memoized: every call serializes
the IR as it is now, so code that edits IR directly never has to announce
the edit for a later digest to be current.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from repro.ir.instructions import (
    BinOp, Br, Call, Cmp, CondBr, Construct, Convert, Discard, ExtractElem,
    InsertElem, Instr, LoadElem, LoadGlobal, LoadVar, Phi, Ret, Sample, Select,
    Shuffle, StoreElem, StoreOutput, StoreVar, UnOp,
)
from repro.ir.module import BasicBlock, Module
from repro.ir.values import Constant, Undef, Value


def fingerprint_module(module: Module) -> str:
    """A sha256 digest of a module's function that is equal iff two functions
    are structurally identical *and* order their values identically under
    ``leaf_order_key``.

    Interface/version are shared across all trie states of one shader, so
    the function is the identity; a key that mixes states of different
    shaders must add its own interface/version digest.
    """
    function = module.function
    block_num: Dict[BasicBlock, int] = {
        block: number for number, block in enumerate(function.blocks)}
    slot_num: Dict[int, int] = {
        id(slot): number for number, slot in enumerate(function.slots)}
    value_num: Dict[int, int] = {}
    names: List[str] = []
    for block in function.blocks:
        for instr in block.instrs:
            value_num[id(instr)] = len(names)
            names.append(instr.name)

    payload: List[object] = []
    for slot in function.slots:
        payload.append(("slot", slot.name, _ty(slot.ty), slot.array_length,
                        slot.is_mutated,
                        None if slot.const_init is None else
                        tuple(_const(c) for c in slot.const_init)))
    for block in function.blocks:
        payload.append(("block", block_num[block]))
        for instr in block.instrs:
            payload.append(_instr(instr, value_num, block_num, slot_num))

    # Relative creation-order ranks of the surviving values (property 2).
    order = sorted(range(len(names)), key=lambda i: (len(names[i]), names[i]))
    ranks = [0] * len(names)
    for rank, position in enumerate(order):
        ranks[position] = rank
    payload.append(("ranks", tuple(ranks)))

    return hashlib.sha256(repr(payload).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------


def _ty(ty) -> str:
    return f"{ty.kind}{ty.width}"


def _const(const: Constant):
    return ("c", _ty(const.ty), repr(const.value))


def _ref(value: Value, vn: Dict[int, int]):
    """Operand reference: constants/undefs by content, results by number."""
    if isinstance(value, Constant):
        return _const(value)
    if isinstance(value, Undef):
        return ("u", _ty(value.ty))
    number = vn.get(id(value))
    if number is None:
        # A use of a value from an unreachable/removed block; key it by its
        # repr so such (malformed) states at least never merge incorrectly.
        return ("x", repr(value))
    return ("v", number)


def _instr(instr: Instr, vn: Dict[int, int], bn: Dict[BasicBlock, int],
           sn: Dict[int, int]):
    ops = tuple(_ref(op, vn) for op in instr.operands)
    base = (instr.opcode, _ty(instr.ty), ops)
    if isinstance(instr, (BinOp, Cmp, UnOp)):
        return base + (instr.op,)
    if isinstance(instr, (ExtractElem, InsertElem)):
        return base + (instr.index,)
    if isinstance(instr, Shuffle):
        return base + (tuple(instr.mask),)
    if isinstance(instr, Call):
        return base + (instr.callee,)
    if isinstance(instr, Sample):
        return base + (instr.sampler, instr.sampler_kind)
    if isinstance(instr, LoadGlobal):
        return base + (instr.var, instr.kind, instr.column)
    if isinstance(instr, StoreOutput):
        return base + (instr.var,)
    if isinstance(instr, (LoadVar, StoreVar, LoadElem, StoreElem)):
        return base + (sn.get(id(instr.slot), -1),)
    if isinstance(instr, Phi):
        return base + (tuple((bn.get(block, -1), _ref(value, vn))
                             for block, value in instr.incoming),)
    if isinstance(instr, Br):
        return base + (bn.get(instr.target, -1),)
    if isinstance(instr, CondBr):
        return base + (bn.get(instr.if_true, -1), bn.get(instr.if_false, -1))
    if isinstance(instr, (Ret, Discard, Construct, Convert, Select)):
        return base
    return base + (repr(instr),)
