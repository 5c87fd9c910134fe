"""Instruction set of the SSA IR.

Each instruction is a :class:`~repro.ir.values.Value` (its own result) with an
``operands`` list.  Terminators end basic blocks.  The set mirrors what the
LunarGlass/LLVM-3.4 pipeline needed for GLSL:

==============  ==========================================================
BinOp           add/sub/mul/div/mod + logical and/or on scalars & vectors
Cmp             eq/ne/lt/le/gt/ge producing bool
UnOp            neg / not
Select          cond ? a : b (what the Hoist pass produces)
ExtractElem     single component read v[i] (constant index)
InsertElem      single component write (builds vectors one lane at a time)
Shuffle         single-source swizzle with a constant mask
Construct       build a vector from ``width`` scalar operands
Call            pure math builtin intrinsic (sin, dot, mix, ...)
Sample          texture fetch (kept distinct for the GPU cost models)
LoadGlobal      read a uniform / stage input (pure)
StoreOutput     write a stage output (side effect)
LoadVar et al.  pre-mem2reg slot accesses (arrays keep them forever)
Phi             SSA merge
Br/CondBr/Ret/Discard   terminators
==============  ==========================================================
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.errors import IRError
from repro.ir.types import IRType, BOOL
from repro.ir.values import Slot, Value, fresh_name

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.module import BasicBlock

#: Binary opcodes. "and"/"or" operate on bools.
BINOPS = frozenset({"add", "sub", "mul", "div", "mod", "and", "or", "xor"})
CMPOPS = frozenset({"eq", "ne", "lt", "le", "gt", "ge"})
COMMUTATIVE = frozenset({"add", "mul", "and", "or", "xor", "eq", "ne"})


class Instr(Value):
    """Base instruction."""

    opcode = "instr"
    has_side_effects = False
    is_terminator = False

    def __init__(self, ty: IRType, operands: Sequence[Value]):
        super().__init__(ty)
        self.operands: List[Value] = list(operands)
        self.name = fresh_name()
        self.block: Optional["BasicBlock"] = None

    def replace_operand(self, old: Value, new: Value) -> None:
        self.operands = [new if op is old else op for op in self.operands]

    def replace_operands(self, replaced: Dict[int, Value]) -> None:
        """Rewrite each operand whose ``id()`` is a key of *replaced* to the
        value it maps to."""
        for operand in self.operands:
            new = replaced.get(id(operand))
            if new is not None:
                self.replace_operand(operand, new)

    def short(self) -> str:
        ops = ", ".join(getattr(o, "name", repr(o)) for o in self.operands)
        return f"{self.name} = {self.opcode} {ops}"

    def __repr__(self) -> str:
        return self.short()


class BinOp(Instr):
    """Elementwise binary arithmetic (``add`` / ``sub`` / ``mul`` / ``div`` / ...)."""
    def __init__(self, op: str, lhs: Value, rhs: Value, ty: Optional[IRType] = None):
        if op not in BINOPS:
            raise IRError(f"invalid binary opcode {op!r}")
        super().__init__(ty or lhs.ty, [lhs, rhs])
        self.op = op

    opcode = "bin"

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    @property
    def commutative(self) -> bool:
        return self.op in COMMUTATIVE

    def short(self) -> str:
        return (f"{self.name} = {self.op} "
                f"{getattr(self.lhs, 'name', self.lhs)}, "
                f"{getattr(self.rhs, 'name', self.rhs)}")


class Cmp(Instr):
    """Elementwise comparison producing bools."""
    def __init__(self, op: str, lhs: Value, rhs: Value):
        if op not in CMPOPS:
            raise IRError(f"invalid compare opcode {op!r}")
        super().__init__(BOOL, [lhs, rhs])
        self.op = op

    opcode = "cmp"

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class UnOp(Instr):
    """Elementwise unary op."""
    def __init__(self, op: str, operand: Value):
        if op not in ("neg", "not"):
            raise IRError(f"invalid unary opcode {op!r}")
        super().__init__(operand.ty, [operand])
        self.op = op

    opcode = "un"

    @property
    def operand(self) -> Value:
        return self.operands[0]


class Convert(Instr):
    """Element-wise kind conversion (int<->float, int->bool, ...)."""

    def __init__(self, value: Value, to_kind: str):
        super().__init__(IRType(to_kind, value.ty.width), [value])

    opcode = "convert"

    @property
    def value(self) -> Value:
        return self.operands[0]


class Select(Instr):
    """Elementwise ``cond ? a : b``."""
    def __init__(self, cond: Value, if_true: Value, if_false: Value):
        super().__init__(if_true.ty, [cond, if_true, if_false])

    opcode = "select"

    @property
    def cond(self) -> Value:
        return self.operands[0]

    @property
    def if_true(self) -> Value:
        return self.operands[1]

    @property
    def if_false(self) -> Value:
        return self.operands[2]


class ExtractElem(Instr):
    """Read one lane of a vector."""
    def __init__(self, vector: Value, index: int):
        super().__init__(vector.ty.scalar, [vector])
        self.index = index

    opcode = "extract"

    @property
    def vector(self) -> Value:
        return self.operands[0]


class InsertElem(Instr):
    """Replace one lane of a vector."""
    def __init__(self, vector: Value, scalar: Value, index: int):
        super().__init__(vector.ty, [vector, scalar])
        self.index = index

    opcode = "insert"

    @property
    def vector(self) -> Value:
        return self.operands[0]

    @property
    def scalar(self) -> Value:
        return self.operands[1]


class Shuffle(Instr):
    """Single-source swizzle: result[i] = source[mask[i]]."""

    def __init__(self, source: Value, mask: Sequence[int]):
        mask = list(mask)
        super().__init__(source.ty.with_width(len(mask)) if len(mask) > 1
                         else source.ty.scalar, [source])
        self.mask = mask

    opcode = "shuffle"

    @property
    def source(self) -> Value:
        return self.operands[0]


class Construct(Instr):
    """Build a vector out of ``width`` scalar operands (what Coalesce emits)."""

    def __init__(self, ty: IRType, scalars: Sequence[Value]):
        if len(scalars) != ty.width:
            raise IRError(f"construct needs {ty.width} scalars, got {len(scalars)}")
        super().__init__(ty, scalars)

    opcode = "construct"


class Call(Instr):
    """Pure math intrinsic call (never a user function — those are inlined)."""

    def __init__(self, callee: str, ty: IRType, args: Sequence[Value]):
        super().__init__(ty, args)
        self.callee = callee

    opcode = "call"

    def short(self) -> str:
        ops = ", ".join(getattr(o, "name", repr(o)) for o in self.operands)
        return f"{self.name} = call {self.callee}({ops})"


class Sample(Instr):
    """Texture sample.  ``sampler`` is the uniform's name (an opaque handle)."""

    def __init__(self, sampler: str, sampler_kind: str, ty: IRType,
                 coord: Value, lod: Optional[Value] = None):
        operands = [coord] + ([lod] if lod is not None else [])
        super().__init__(ty, operands)
        self.sampler = sampler
        self.sampler_kind = sampler_kind

    opcode = "sample"

    @property
    def coord(self) -> Value:
        return self.operands[0]

    @property
    def lod(self) -> Optional[Value]:
        return self.operands[1] if len(self.operands) > 1 else None

    def short(self) -> str:
        return f"{self.name} = sample {self.sampler}, {getattr(self.coord, 'name', self.coord)}"


class LoadGlobal(Instr):
    """Read a uniform or stage input.

    ``column`` selects a matrix column (static); array uniforms carry their
    index as the sole operand (``element``), which may be any int Value.
    """

    def __init__(self, var: str, ty: IRType, kind: str, column: Optional[int] = None,
                 element: Optional[Value] = None):
        super().__init__(ty, [element] if element is not None else [])
        self.var = var
        self.kind = kind  # "uniform" | "input"
        self.column = column

    opcode = "loadglobal"

    @property
    def element(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    def short(self) -> str:
        return f"{self.name} = loadglobal {self.var}"


class StoreOutput(Instr):
    """Write a shader output (e.g. the fragment colour)."""
    has_side_effects = True

    def __init__(self, var: str, value: Value):
        super().__init__(value.ty, [value])
        self.var = var

    opcode = "storeoutput"

    @property
    def value(self) -> Value:
        return self.operands[0]

    def short(self) -> str:
        return f"storeoutput {self.var}, {getattr(self.value, 'name', self.value)}"


class LoadVar(Instr):
    """Pre-mem2reg read of a scalar/vector slot."""

    def __init__(self, slot: Slot):
        super().__init__(slot.ty, [])
        self.slot = slot

    opcode = "loadvar"

    def short(self) -> str:
        return f"{self.name} = loadvar {self.slot.name}"


class StoreVar(Instr):
    """Store to a named slot (pre-mem2reg local)."""
    has_side_effects = True

    def __init__(self, slot: Slot, value: Value):
        super().__init__(value.ty, [value])
        self.slot = slot

    opcode = "storevar"

    @property
    def value(self) -> Value:
        return self.operands[0]

    def short(self) -> str:
        return f"storevar {self.slot.name}, {getattr(self.value, 'name', self.value)}"


class LoadElem(Instr):
    """Read ``slot[index]`` from an array slot."""

    def __init__(self, slot: Slot, index: Value):
        super().__init__(slot.ty, [index])
        self.slot = slot

    opcode = "loadelem"

    @property
    def index(self) -> Value:
        return self.operands[0]


class StoreElem(Instr):
    """Store one element of an array slot."""
    has_side_effects = True

    def __init__(self, slot: Slot, index: Value, value: Value):
        super().__init__(value.ty, [index, value])
        self.slot = slot

    opcode = "storeelem"

    @property
    def index(self) -> Value:
        return self.operands[0]

    @property
    def value(self) -> Value:
        return self.operands[1]


class Phi(Instr):
    """SSA phi node: one incoming value per predecessor."""
    def __init__(self, ty: IRType):
        super().__init__(ty, [])
        self.incoming: List[tuple] = []  # (BasicBlock, Value)

    opcode = "phi"

    def add_incoming(self, block: "BasicBlock", value: Value) -> None:
        self.incoming.append((block, value))
        self.operands.append(value)

    def replace_operand(self, old: Value, new: Value) -> None:
        self.incoming = [(b, new if v is old else v) for b, v in self.incoming]
        self._sync_operands()

    def remove_incoming(self, block: "BasicBlock") -> None:
        self.incoming = [(b, v) for b, v in self.incoming if b is not block]
        self._sync_operands()

    def _sync_operands(self) -> None:
        self.operands = [v for _, v in self.incoming]

    def short(self) -> str:
        parts = ", ".join(
            f"[{b.name}: {getattr(v, 'name', v)}]" for b, v in self.incoming)
        return f"{self.name} = phi {parts}"


# ---------------------------------------------------------------------------
# Terminators
# ---------------------------------------------------------------------------


class Terminator(Instr):
    """Base class for block terminators."""
    is_terminator = True
    has_side_effects = True

    def successors(self) -> List["BasicBlock"]:
        return []


class Br(Terminator):
    """Unconditional branch."""
    def __init__(self, target: "BasicBlock"):
        super().__init__(BOOL, [])
        self.target = target

    opcode = "br"

    def successors(self) -> List["BasicBlock"]:
        return [self.target]

    def short(self) -> str:
        return f"br {self.target.name}"


class CondBr(Terminator):
    """Two-way conditional branch."""
    def __init__(self, cond: Value, if_true: "BasicBlock", if_false: "BasicBlock"):
        super().__init__(BOOL, [cond])
        self.if_true = if_true
        self.if_false = if_false

    opcode = "condbr"

    @property
    def cond(self) -> Value:
        return self.operands[0]

    def successors(self) -> List["BasicBlock"]:
        return [self.if_true, self.if_false]

    def short(self) -> str:
        return (f"condbr {getattr(self.cond, 'name', self.cond)}, "
                f"{self.if_true.name}, {self.if_false.name}")


class Ret(Terminator):
    """Function return."""
    def __init__(self):
        super().__init__(BOOL, [])

    opcode = "ret"

    def short(self) -> str:
        return "ret"


class Discard(Terminator):
    """GLSL ``discard`` — kills the fragment (SPIR-V OpKill semantics)."""

    def __init__(self):
        super().__init__(BOOL, [])

    opcode = "discard"

    def short(self) -> str:
        return "discard"


def is_pure(instr: Instr) -> bool:
    """True when the instruction can be removed if its result is unused.

    ``LoadVar``/``LoadElem`` are pure (no side effect); ``Sample`` and
    ``LoadGlobal`` are pure reads in this model too.
    """
    return not instr.has_side_effects
