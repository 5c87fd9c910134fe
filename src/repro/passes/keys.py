"""Hashable structural keys for instructions, shared by CSE and GVN.

Each instruction class that may be merged has one key builder in
``_KEYS``, found by ``type(instr)`` (no concrete instruction class has
subclasses); a class without one gets no key.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.ir.instructions import (
    COMMUTATIVE, BinOp, Call, Cmp, Construct, Convert, ExtractElem,
    InsertElem, LoadElem, LoadGlobal, LoadVar, Sample, Select, Shuffle, UnOp,
)
from repro.ir.values import Constant, Undef, Value


def value_key(value: Value):
    """Identity for SSA values; structural equality for constants."""
    build = _VALUE_KEYS.get(type(value))
    return ("v", id(value)) if build is None else build(value)


def instr_key(instr) -> Optional[Tuple]:
    """A structural key, or None when the instruction must not be merged.

    ``LoadVar``/``LoadElem`` are memory reads: they get keys *only* when the
    caller supplies a memory version (CSE does; GVN skips mutable slots).
    """
    build = _KEYS.get(type(instr))
    return None if build is None else build(instr)


def load_key(instr, version: int) -> Optional[Tuple]:
    """Key for slot loads, valid for a specific store version."""
    if isinstance(instr, LoadVar):
        return ("loadvar", id(instr.slot), version)
    if isinstance(instr, LoadElem):
        return ("loadelem", id(instr.slot), value_key(instr.index), version)
    return None


def _operand_keys(instr) -> Tuple:
    return tuple([value_key(op) for op in instr.operands])


def _bin_key(instr: BinOp) -> Tuple:
    lhs, rhs = instr.operands
    lhs, rhs = value_key(lhs), value_key(rhs)
    if instr.op in COMMUTATIVE and rhs < lhs:
        lhs, rhs = rhs, lhs
    return ("bin", instr.op, instr.ty, lhs, rhs)


def _cmp_key(instr: Cmp) -> Tuple:
    lhs, rhs = instr.operands
    return ("cmp", instr.op, value_key(lhs), value_key(rhs))


def _load_global_key(instr: LoadGlobal) -> Tuple:
    element = value_key(instr.element) if instr.element is not None else None
    return ("loadglobal", instr.var, instr.column, element)


def _constant_key(constant: Constant) -> Tuple:
    """``-0.0 == 0.0`` in Python, but GLSL keeps the sign of zero
    (``1.0 / -0.0`` is ``-inf``), so a constant with a zero component
    carries its text, which tells the zeros apart."""
    value = constant.value
    if value == 0 or (value.__class__ is tuple and 0 in value):
        return ("c", constant.ty, value, repr(value))
    return ("c", constant.ty, value)


_VALUE_KEYS: Dict[type, Callable[[Any], Tuple]] = {
    Constant: _constant_key,
    Undef: lambda value: ("undef", value.ty),
}

#: The key builder of each instruction class that may be merged.
_KEYS: Dict[type, Callable[[Any], Tuple]] = {
    BinOp: _bin_key,
    Cmp: _cmp_key,
    UnOp: lambda instr: ("un", instr.op, value_key(instr.operands[0])),
    Convert: lambda instr: ("conv", instr.ty.kind,
                            value_key(instr.operands[0])),
    Select: lambda instr: ("select", _operand_keys(instr)),
    ExtractElem: lambda instr: ("extract", instr.index,
                                value_key(instr.operands[0])),
    InsertElem: lambda instr: ("insert", instr.index,
                               value_key(instr.operands[0]),
                               value_key(instr.operands[1])),
    Shuffle: lambda instr: ("shuffle", tuple(instr.mask),
                            value_key(instr.operands[0])),
    Construct: lambda instr: ("construct", instr.ty, _operand_keys(instr)),
    Call: lambda instr: ("call", instr.callee, instr.ty, _operand_keys(instr)),
    Sample: lambda instr: ("sample", instr.sampler, instr.sampler_kind,
                           _operand_keys(instr)),
    LoadGlobal: _load_global_key,
}
