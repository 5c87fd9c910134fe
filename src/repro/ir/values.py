"""IR value hierarchy: constants, undef, and instruction results.

Instructions (defined in :mod:`repro.ir.instructions`) are themselves values.
Operand edges point directly at :class:`Value` objects; def-use information is
recomputed on demand (shaders are tiny, so this stays fast and keeps mutation
simple for passes).
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple, Union

from repro.errors import IRError
from repro.ir.types import IRType

Number = Union[float, int, bool]

_counter = itertools.count()


def fresh_name(prefix: str = "v") -> str:
    """A globally unique SSA value name with the given prefix."""
    return f"{prefix}{next(_counter)}"


class Value:
    """Anything usable as an operand."""

    ty: IRType

    def __init__(self, ty: IRType):
        self.ty = ty


class Constant(Value):
    """A scalar or vector compile-time constant.

    Scalars store a Python number; vectors store a tuple of numbers of length
    ``ty.width``.  Equality/hash are value-based so constants can key caches.
    """

    def __init__(self, ty: IRType, value):
        super().__init__(ty)
        if ty.is_vector:
            value = tuple(value)
            if len(value) != ty.width:
                raise IRError(f"constant arity mismatch: {value} vs {ty}")
        self.value = value

    # -- convenience constructors ------------------------------------
    @staticmethod
    def float_(x: float) -> "Constant":
        return Constant(IRType("float", 1), float(x))

    @staticmethod
    def int_(x: int) -> "Constant":
        return Constant(IRType("int", 1), int(x))

    @staticmethod
    def bool_(x: bool) -> "Constant":
        return Constant(IRType("bool", 1), bool(x))

    @staticmethod
    def splat(ty: IRType, x: Number) -> "Constant":
        if ty.is_scalar:
            return Constant(ty, x)
        return Constant(ty, tuple(x for _ in range(ty.width)))

    # -- helpers -------------------------------------------------------
    def components(self) -> Tuple[Number, ...]:
        if self.ty.is_vector:
            return tuple(self.value)
        return (self.value,)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.components())

    @property
    def is_one(self) -> bool:
        return all(c == 1 for c in self.components())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Constant)
            and self.ty == other.ty
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.ty, self.value))

    def __repr__(self) -> str:
        return f"const {self.ty} {self.value}"


class Undef(Value):
    """An undefined value (the start of an insert-element chain)."""

    def __repr__(self) -> str:
        return f"undef {self.ty}"


class Slot:
    """A stack slot created by lowering (pre-SSA local variable).

    ``array_length`` is None for plain scalar/vector slots (promotable by
    mem2reg) and an int for array slots (accessed via LoadElem/StoreElem).
    ``const_init`` carries the initializer tuple for immutable const arrays so
    constant folding can resolve constant-index loads after unrolling.
    """

    def __init__(self, name: str, ty: IRType, array_length: Optional[int] = None):
        self.name = name
        self.ty = ty
        self.array_length = array_length
        self.const_init: Optional[Tuple[Constant, ...]] = None
        self.is_mutated = False

    @property
    def is_array(self) -> bool:
        return self.array_length is not None

    def __repr__(self) -> str:
        suffix = f"[{self.array_length}]" if self.is_array else ""
        return f"slot {self.name}:{self.ty}{suffix}"
