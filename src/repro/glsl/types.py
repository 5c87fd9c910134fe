"""The GLSL type system used by the parser, lowering, and introspection."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from repro.errors import TypeError_


class ScalarKind(Enum):
    """The scalar element kinds."""
    FLOAT = "float"
    INT = "int"
    UINT = "uint"
    BOOL = "bool"


@dataclass(frozen=True)
class GLSLType:
    """Base class; concrete types below."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class Void(GLSLType):
    """The ``void`` type."""
    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class Scalar(GLSLType):
    """A scalar type (``float`` / ``int`` / ``uint`` / ``bool``)."""
    kind: ScalarKind

    def __str__(self) -> str:
        return self.kind.value


@dataclass(frozen=True)
class Vector(GLSLType):
    """A vector type, e.g. ``vec3`` / ``ivec2`` / ``bvec4``."""
    kind: ScalarKind
    size: int  # 2..4

    def __str__(self) -> str:
        prefix = {
            ScalarKind.FLOAT: "vec",
            ScalarKind.INT: "ivec",
            ScalarKind.UINT: "uvec",
            ScalarKind.BOOL: "bvec",
        }[self.kind]
        return f"{prefix}{self.size}"


@dataclass(frozen=True)
class Matrix(GLSLType):
    """Square float matrix (mat2/mat3/mat4); column-major like GLSL."""

    size: int  # 2..4

    def __str__(self) -> str:
        return f"mat{self.size}"

    @property
    def column_type(self) -> Vector:
        return Vector(ScalarKind.FLOAT, self.size)


@dataclass(frozen=True)
class Sampler(GLSLType):
    """An opaque sampler type, e.g. ``sampler2D`` / ``samplerCube``."""
    name: str  # e.g. "sampler2D"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Struct(GLSLType):
    """A user-declared ``struct`` type: an ordered set of named fields.

    Structs enter through the wild-GLSL ingest front end
    (:mod:`repro.glsl.ingest`); the normalizer flattens every struct value
    into one variable per (recursively scalar/vector/matrix/array) field
    before lowering, so the IR never sees one.
    """

    name: str
    fields: "Tuple[Tuple[str, GLSLType], ...]"

    def __str__(self) -> str:
        return self.name

    def field_type(self, name: str) -> GLSLType:
        """Type of the field called *name* (raises TypeError_ if absent)."""
        for field_name, ty in self.fields:
            if field_name == name:
                return ty
        raise TypeError_(f"struct {self.name} has no field {name!r}")

    @property
    def field_names(self) -> "Tuple[str, ...]":
        return tuple(name for name, _ in self.fields)


@dataclass(frozen=True)
class Array(GLSLType):
    """A sized array of some element type."""
    element: GLSLType
    length: Optional[int]  # None for unsized (sized by initializer)

    def __str__(self) -> str:
        suffix = f"[{self.length}]" if self.length is not None else "[]"
        return f"{self.element}{suffix}"


VOID = Void()
FLOAT = Scalar(ScalarKind.FLOAT)
INT = Scalar(ScalarKind.INT)
UINT = Scalar(ScalarKind.UINT)
BOOL = Scalar(ScalarKind.BOOL)
VEC2 = Vector(ScalarKind.FLOAT, 2)
VEC3 = Vector(ScalarKind.FLOAT, 3)
VEC4 = Vector(ScalarKind.FLOAT, 4)
IVEC2 = Vector(ScalarKind.INT, 2)
IVEC3 = Vector(ScalarKind.INT, 3)
IVEC4 = Vector(ScalarKind.INT, 4)
BVEC2 = Vector(ScalarKind.BOOL, 2)
BVEC3 = Vector(ScalarKind.BOOL, 3)
BVEC4 = Vector(ScalarKind.BOOL, 4)
MAT2 = Matrix(2)
MAT3 = Matrix(3)
MAT4 = Matrix(4)

_BY_NAME = {
    "void": VOID,
    "float": FLOAT,
    "int": INT,
    "uint": UINT,
    "bool": BOOL,
    "vec2": VEC2,
    "vec3": VEC3,
    "vec4": VEC4,
    "ivec2": IVEC2,
    "ivec3": IVEC3,
    "ivec4": IVEC4,
    "uvec2": Vector(ScalarKind.UINT, 2),
    "uvec3": Vector(ScalarKind.UINT, 3),
    "uvec4": Vector(ScalarKind.UINT, 4),
    "bvec2": BVEC2,
    "bvec3": BVEC3,
    "bvec4": BVEC4,
    "mat2": MAT2,
    "mat3": MAT3,
    "mat4": MAT4,
    "sampler2D": Sampler("sampler2D"),
    "sampler3D": Sampler("sampler3D"),
    "samplerCube": Sampler("samplerCube"),
    "sampler2DShadow": Sampler("sampler2DShadow"),
    "sampler2DArray": Sampler("sampler2DArray"),
}


def type_from_name(name: str) -> GLSLType:
    """Look up a basic type by its GLSL name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise TypeError_(f"unknown type name {name!r}")


def scalar_kind_of(ty: GLSLType) -> ScalarKind:
    """The element scalar kind of a scalar/vector/matrix type."""
    if isinstance(ty, Scalar):
        return ty.kind
    if isinstance(ty, Vector):
        return ty.kind
    if isinstance(ty, Matrix):
        return ScalarKind.FLOAT
    raise TypeError_(f"type {ty} has no scalar kind")


def component_count(ty: GLSLType) -> int:
    """Number of scalar components (1 for scalars, n for vecN, n*n for matN)."""
    if isinstance(ty, Scalar):
        return 1
    if isinstance(ty, Vector):
        return ty.size
    if isinstance(ty, Matrix):
        return ty.size * ty.size
    raise TypeError_(f"type {ty} has no component count")


def vector_of(kind: ScalarKind, size: int) -> GLSLType:
    """vecN/ivecN/bvecN constructor; size 1 gives the scalar type."""
    if size == 1:
        return Scalar(kind)
    if 2 <= size <= 4:
        return Vector(kind, size)
    raise TypeError_(f"invalid vector size {size}")


def can_implicitly_convert(src: GLSLType, dst: GLSLType) -> bool:
    """GLSL's implicit conversions: int/uint -> float, element-wise for vectors."""
    if src == dst:
        return True
    if isinstance(src, Scalar) and isinstance(dst, Scalar):
        return src.kind in (ScalarKind.INT, ScalarKind.UINT) and dst.kind == ScalarKind.FLOAT
    if isinstance(src, Vector) and isinstance(dst, Vector) and src.size == dst.size:
        return src.kind in (ScalarKind.INT, ScalarKind.UINT) and dst.kind == ScalarKind.FLOAT
    return False
