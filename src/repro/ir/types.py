"""IR value types: scalars and short vectors of float/int/bool.

Matrices never reach the IR — lowering scalarizes them into column vectors,
which is exactly the LunarGlass artifact the paper describes ("the matrices
are divided up into their individual scalar components").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import IRError


@dataclass(frozen=True)
class IRType:
    """A scalar (width 1) or vector (width 2..4) of a base kind."""

    kind: str  # "float" | "int" | "bool"
    width: int = 1

    def __post_init__(self):
        if self.kind not in ("float", "int", "bool"):
            raise IRError(f"invalid IR type kind {self.kind!r}")
        if not 1 <= self.width <= 4:
            raise IRError(f"invalid IR vector width {self.width}")

    @property
    def is_vector(self) -> bool:
        return self.width > 1

    @property
    def is_scalar(self) -> bool:
        return self.width == 1

    @property
    def scalar(self) -> "IRType":
        return IRType(self.kind, 1)

    def with_width(self, width: int) -> "IRType":
        return IRType(self.kind, width)

    def __str__(self) -> str:
        if self.width == 1:
            return self.kind
        return f"<{self.width} x {self.kind}>"

    def glsl_name(self) -> str:
        """The GLSL spelling of this type (used by the backend)."""
        if self.width == 1:
            return self.kind
        prefix = {"float": "vec", "int": "ivec", "bool": "bvec"}[self.kind]
        return f"{prefix}{self.width}"


FLOAT = IRType("float", 1)
INT = IRType("int", 1)
BOOL = IRType("bool", 1)


def vec(kind: str, width: int) -> IRType:
    """The IR type with *kind* elements and *width* lanes."""
    return IRType(kind, width)
