"""Always-on canonicalization: constant folding, peephole simplification,
constant branch resolution.

These correspond to the passes the paper could not toggle ("constant folding,
common sub-expression elimination, and redundant load-store elimination ...
were necessary passes to canonicalize instructions").  Floating-point
identities (``x+0.0``, ``x*1.0``) are deliberately *not* folded here — the
paper attributes them to the Reassociate / FP-Reassociate flag passes, and
strict IEEE semantics forbids ``x+0.0 -> x`` anyway (signed zeros).
"""

from __future__ import annotations

from typing import Optional

from repro.ir.instructions import (
    BinOp, Br, Call, Cmp, CondBr, Construct, Convert, ExtractElem, InsertElem,
    LoadElem, Sample, Select, Shuffle, UnOp,
)
from repro.ir.interp import _apply_builtin, _binop, _cmp, _convert_scalar
from repro.ir.mem2reg import _prune_trivial_phis
from repro.ir.module import Function
from repro.ir.values import Constant, Undef, Value
from repro.passes.dce import trivial_dce

_MAX_ROUNDS = 50


def canonicalize(function: Function) -> bool:
    """Run folding + DCE to fixpoint; returns whether it got there (False
    only when ``_MAX_ROUNDS`` cut it off first)."""
    for round_ in range(_MAX_ROUNDS):
        changed = _fold_round(function)
        changed += _fold_branches(function)
        # Every earlier round ended in DCE, so it has new work only after
        # a fold.
        if changed or not round_:
            changed += trivial_dce(function)
        if not changed:
            return True
    return False


def _fold_round(function: Function) -> int:
    changed = 0
    for block in function.blocks:
        for instr in list(block.instrs):
            replacement = _simplify(instr)
            if replacement is None:
                continue
            changed += 1
            if replacement is instr:
                continue  # simplified in place
            function.replace_all_uses(instr, replacement)
            block.remove(instr)
    return changed


def _fold_branches(function: Function) -> int:
    """CondBr simplification: constant conditions fold to Br (vital after
    full unrolling); negated conditions swap the successors (vital for the
    driver JITs to recognise re-emitted `if (!(cond)) break;` loops)."""
    changed = 0
    for block in list(function.blocks):
        term = block.terminator
        if (isinstance(term, CondBr) and isinstance(term.cond, UnOp)
                and term.cond.op == "not"):
            term.operands[0] = term.cond.operand
            term.if_true, term.if_false = term.if_false, term.if_true
            changed += 1
        if isinstance(term, CondBr) and isinstance(term.cond, Constant):
            taken = term.if_true if term.cond.value else term.if_false
            untaken = term.if_false if term.cond.value else term.if_true
            block.remove(term)
            block.append(Br(taken))
            if untaken is not taken:
                for phi in untaken.phis():
                    phi.remove_incoming(block)
            changed += 1
    if changed:
        function.remove_unreachable_blocks()
        _prune_trivial_phis(function)
    return changed


def _simplify(instr) -> Optional[Value]:
    """Return a replacement value, or None when nothing applies."""
    if isinstance(instr, BinOp):
        return _simplify_binop(instr)
    if isinstance(instr, UnOp):
        operand = instr.operand
        if isinstance(operand, Constant):
            if instr.op == "neg":
                comps = tuple(-c for c in operand.components())
                return Constant(operand.ty, comps if operand.ty.is_vector else comps[0])
            return Constant(operand.ty, not operand.value)
        if isinstance(operand, UnOp) and operand.op == instr.op:
            return operand.operand  # --x -> x, !!x -> x
        return None
    if isinstance(instr, Cmp):
        if isinstance(instr.lhs, Constant) and isinstance(instr.rhs, Constant):
            return Constant.bool_(bool(_cmp(instr.op, instr.lhs.value, instr.rhs.value)))
        return None
    if isinstance(instr, Convert):
        if isinstance(instr.value, Constant):
            source = instr.value
            if source.ty.is_vector:
                comps = tuple(_convert_scalar(c, instr.ty.kind)
                              for c in source.components())
                return Constant(instr.ty, comps)
            return Constant(instr.ty, _convert_scalar(source.value, instr.ty.kind))
        if instr.value.ty.kind == instr.ty.kind:
            return instr.value
        return None
    if isinstance(instr, Select):
        if isinstance(instr.cond, Constant):
            return instr.if_true if instr.cond.value else instr.if_false
        if instr.if_true is instr.if_false:
            return instr.if_true
        return None
    if isinstance(instr, ExtractElem):
        vector = instr.vector
        if isinstance(vector, Constant):
            return Constant(vector.ty.scalar, vector.components()[instr.index])
        if isinstance(vector, Construct):
            return vector.operands[instr.index]
        if isinstance(vector, Shuffle):
            instr.operands[0] = vector.source
            instr.index = vector.mask[instr.index]
            return instr  # mutated in place; signal no replacement
        if isinstance(vector, InsertElem):
            if vector.index == instr.index:
                return vector.scalar
            # extracting a lane the insert did not touch: look through it
            instr.operands[0] = vector.vector
            return instr
        if isinstance(vector, Undef):
            return Constant(vector.ty.scalar,
                            0.0 if vector.ty.kind == "float" else 0)
        return None
    if isinstance(instr, Shuffle):
        source = instr.source
        if isinstance(source, Constant):
            comps = source.components()
            picked = tuple(comps[i] for i in instr.mask)
            if len(picked) == 1:
                return Constant(source.ty.scalar, picked[0])
            return Constant(instr.ty, picked)
        if (len(instr.mask) == source.ty.width
                and instr.mask == list(range(source.ty.width))):
            return source
        if isinstance(source, Shuffle):
            instr.mask = [source.mask[i] for i in instr.mask]
            instr.operands[0] = source.source
            return instr
        return None
    if isinstance(instr, Construct):
        if all(isinstance(op, Constant) for op in instr.operands):
            return Constant(instr.ty, tuple(op.value for op in instr.operands))
        # vecN(v.x, v.y, ..., v.w) -> v
        sources = set()
        indices = []
        for op in instr.operands:
            if isinstance(op, ExtractElem):
                sources.add(id(op.vector))
                indices.append(op.index)
            else:
                return None
        if len(sources) == 1:
            vector = instr.operands[0].vector  # type: ignore[attr-defined]
            if vector.ty == instr.ty and indices == list(range(instr.ty.width)):
                return vector
        return None
    if isinstance(instr, Call):
        if all(isinstance(op, Constant) for op in instr.operands):
            args = [op.value for op in instr.operands]
            try:
                result = _apply_builtin(instr.callee, args, instr.ty.width)
            except Exception:
                return None
            return Constant(instr.ty, result)
        return None
    if isinstance(instr, LoadElem):
        slot = instr.slot
        if slot.const_init is not None and isinstance(instr.index, Constant):
            index = int(instr.index.value)
            if 0 <= index < len(slot.const_init):
                return slot.const_init[index]
        return None
    return None


def _simplify_binop(instr: BinOp) -> Optional[Value]:
    lhs, rhs = instr.lhs, instr.rhs
    if isinstance(lhs, Constant) and isinstance(rhs, Constant):
        result = _binop(instr.op, lhs.value, rhs.value)
        return Constant(instr.ty, result)

    kind = instr.ty.kind
    # Integer/bool identities are safe; float identities belong to the
    # (unsafe) reassociation flag passes per the paper.
    if kind == "int":
        if instr.op == "add":
            if isinstance(rhs, Constant) and rhs.is_zero:
                return lhs
            if isinstance(lhs, Constant) and lhs.is_zero:
                return rhs
        if instr.op == "sub" and isinstance(rhs, Constant) and rhs.is_zero:
            return lhs
        if instr.op == "mul":
            if isinstance(rhs, Constant) and rhs.is_one:
                return lhs
            if isinstance(lhs, Constant) and lhs.is_one:
                return rhs
            if isinstance(rhs, Constant) and rhs.is_zero:
                return rhs
            if isinstance(lhs, Constant) and lhs.is_zero:
                return lhs
        if instr.op == "div" and isinstance(rhs, Constant) and rhs.is_one:
            return lhs
    if kind == "bool":
        for a, b in ((lhs, rhs), (rhs, lhs)):
            if isinstance(a, Constant):
                if instr.op == "and":
                    return b if a.value else a
                if instr.op == "or":
                    return a if a.value else b
        if instr.op in ("and", "or") and lhs is rhs:
            return lhs
    return None
