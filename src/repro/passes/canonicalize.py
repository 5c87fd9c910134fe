"""Always-on canonicalization: constant folding, peephole simplification,
constant branch resolution.

These correspond to the passes the paper could not toggle ("constant folding,
common sub-expression elimination, and redundant load-store elimination ...
were necessary passes to canonicalize instructions").  Floating-point
identities (``x+0.0``, ``x*1.0``) are deliberately *not* folded here — the
paper attributes them to the Reassociate / FP-Reassociate flag passes, and
strict IEEE semantics forbids ``x+0.0 -> x`` anyway (signed zeros).

Each round looks an instruction's rule up in ``_RULES`` by its class (no
concrete instruction class has subclasses), and rewrites the uses of a
replaced instruction through a users index of the round instead of
scanning the whole function once per replaced value (see
:func:`_fold_round`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.ir.instructions import (
    BinOp, Br, Call, Cmp, CondBr, Construct, Convert, ExtractElem, InsertElem,
    Instr, LoadElem, Select, Shuffle, UnOp,
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
    """One sweep of the rules over every instruction; returns the changes.

    A replaced instruction's uses are rewritten through *users*, an index
    of the round from ``id(value)`` to the instructions that use the value,
    built at the round's first replacement.  That rewrites exactly the
    instructions a whole-function scan would at the same point: the
    instructions still in a block that hold the old value.  The removed
    instructions stay alive in *removed* until the round ends, so no
    ``id()`` in the index is reused.
    """
    changed = 0
    users: Optional[Dict[int, List[Instr]]] = None
    removed: List[Instr] = []
    for block in function.blocks:
        for instr in list(block.instrs):
            rule = _RULES.get(type(instr))
            if rule is None:
                continue
            replacement = rule(instr)
            if replacement is None:
                continue
            changed += 1
            if replacement is instr:
                # Simplified in place: index the operands it now uses.
                if users is not None:
                    for operand in instr.operands:
                        users.setdefault(id(operand), []).append(instr)
                continue
            if users is None:
                users = _index_users(function)
            _rewrite_uses(users, instr, replacement)
            block.remove(instr)
            removed.append(instr)
    return changed


def _index_users(function: Function) -> Dict[int, List[Instr]]:
    """``id(value)`` -> the instructions of *function* that use it (one
    entry per operand edge)."""
    users: Dict[int, List[Instr]] = {}
    for block in function.blocks:
        for instr in block.instrs:
            for operand in instr.operands:
                users.setdefault(id(operand), []).append(instr)
    return users


def _rewrite_uses(users: Dict[int, List[Instr]], old: Instr,
                  new: Value) -> None:
    """Rewrite every use of *old* by an instruction still in a block to
    *new*, and index those users under *new*."""
    moved = users.pop(id(old), None)
    if not moved:
        return
    entry = users.setdefault(id(new), [])
    for user in moved:
        if user.block is None:
            continue
        for operand in user.operands:
            if operand is old:
                user.replace_operand(old, new)
                entry.append(user)
                break


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


def _simplify_unop(instr: UnOp) -> Optional[Value]:
    operand = instr.operand
    if isinstance(operand, Constant):
        if instr.op == "neg":
            comps = tuple(-c for c in operand.components())
            return Constant(operand.ty, comps if operand.ty.is_vector else comps[0])
        return Constant(operand.ty, not operand.value)
    if isinstance(operand, UnOp) and operand.op == instr.op:
        return operand.operand  # --x -> x, !!x -> x
    return None


def _simplify_cmp(instr: Cmp) -> Optional[Value]:
    if isinstance(instr.lhs, Constant) and isinstance(instr.rhs, Constant):
        return Constant.bool_(bool(_cmp(instr.op, instr.lhs.value, instr.rhs.value)))
    return None


def _simplify_convert(instr: Convert) -> Optional[Value]:
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


def _simplify_select(instr: Select) -> Optional[Value]:
    if isinstance(instr.cond, Constant):
        return instr.if_true if instr.cond.value else instr.if_false
    if instr.if_true is instr.if_false:
        return instr.if_true
    return None


def _simplify_extract(instr: ExtractElem) -> Optional[Value]:
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


def _simplify_shuffle(instr: Shuffle) -> Optional[Value]:
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


def _simplify_construct(instr: Construct) -> Optional[Value]:
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


def _simplify_call(instr: Call) -> Optional[Value]:
    if all(isinstance(op, Constant) for op in instr.operands):
        args = [op.value for op in instr.operands]
        try:
            result = _apply_builtin(instr.callee, args, instr.ty.width)
        except Exception:
            return None
        return Constant(instr.ty, result)
    return None


def _simplify_load_elem(instr: LoadElem) -> Optional[Value]:
    slot = instr.slot
    if slot.const_init is not None and isinstance(instr.index, Constant):
        index = int(instr.index.value)
        if 0 <= index < len(slot.const_init):
            return slot.const_init[index]
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


#: The simplification rule of each instruction class that has one (no
#: concrete instruction class has subclasses, so ``type(instr)`` finds it).
_RULES: Dict[type, Callable[[Any], Optional[Value]]] = {
    BinOp: _simplify_binop,
    UnOp: _simplify_unop,
    Cmp: _simplify_cmp,
    Convert: _simplify_convert,
    Select: _simplify_select,
    ExtractElem: _simplify_extract,
    Shuffle: _simplify_shuffle,
    Construct: _simplify_construct,
    Call: _simplify_call,
    LoadElem: _simplify_load_elem,
}
