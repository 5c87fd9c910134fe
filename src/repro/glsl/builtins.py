"""Builtin GLSL function signatures and return-type resolution.

The table is intentionally rule-based rather than enumerating every overload:
most GLSL builtins are *generic* over ``genType`` (float, vec2, vec3, vec4),
so we classify each builtin by shape and compute the return type from the
argument types.  :func:`resolve_builtin` is used by the parser's type
inference; the IR layer re-uses :data:`BUILTIN_NAMES` for intrinsic emission,
and the interpreter implements the same set numerically.
"""

from __future__ import annotations

from typing import List

from repro.errors import TypeError_
from repro.glsl import types as T

#: Builtins returning their (generic) first argument's type.
_GEN_SAME = frozenset(
    {
        "radians", "degrees", "sin", "cos", "tan", "asin", "acos", "atan",
        "exp", "log", "exp2", "log2", "sqrt", "inversesqrt",
        "abs", "sign", "floor", "ceil", "fract", "round", "trunc",
        "normalize", "pow", "mod", "min", "max", "clamp", "mix", "step",
        "smoothstep", "reflect", "refract", "faceforward", "saturate",
    }
)

#: Builtins reducing a genType to a scalar float.
_GEN_TO_FLOAT = frozenset({"length", "distance", "dot"})

#: Texture sampling builtins (including the legacy ES names).
TEXTURE_BUILTINS = frozenset(
    {"texture", "textureLod", "texture2D", "texture2DLod", "textureCube", "textureProj"}
)

BUILTIN_NAMES = frozenset(
    _GEN_SAME
    | _GEN_TO_FLOAT
    | TEXTURE_BUILTINS
    | {"cross", "transpose", "any", "all", "not", "lessThan", "greaterThan", "equal"}
)


def is_builtin(name: str) -> bool:
    """Whether *name* is a recognized GLSL builtin function."""
    return name in BUILTIN_NAMES


def resolve_builtin(name: str, arg_types: List[T.GLSLType]) -> T.GLSLType:
    """Return type of builtin *name* applied to *arg_types*.

    Raises :class:`~repro.errors.TypeError_` for unknown builtins or argument
    shapes the subset does not support.
    """
    if name in _GEN_SAME:
        if not arg_types:
            raise TypeError_(f"{name}() requires arguments")
        # step(edge, x): the *second* operand carries the genType.
        if name == "step" and len(arg_types) == 2:
            return _shape_like(arg_types[1])
        if name == "smoothstep" and len(arg_types) == 3:
            return _shape_like(arg_types[2])
        return _shape_like(arg_types[0])

    if name in _GEN_TO_FLOAT:
        return T.FLOAT

    if name == "cross":
        return T.VEC3

    if name == "transpose":
        if len(arg_types) == 1 and isinstance(arg_types[0], T.Matrix):
            return arg_types[0]
        raise TypeError_("transpose() requires a matrix argument")

    if name in ("any", "all"):
        return T.BOOL

    if name == "not":
        if len(arg_types) == 1 and isinstance(arg_types[0], T.Vector):
            return arg_types[0]
        raise TypeError_("not() requires a bvec argument")

    if name in ("lessThan", "greaterThan", "equal"):
        if len(arg_types) == 2 and isinstance(arg_types[0], T.Vector):
            return T.Vector(T.ScalarKind.BOOL, arg_types[0].size)
        raise TypeError_(f"{name}() requires vector arguments")

    if name in TEXTURE_BUILTINS:
        if not arg_types or not isinstance(arg_types[0], T.Sampler):
            raise TypeError_(f"{name}() requires a sampler first argument")
        if arg_types[0].name == "sampler2DShadow":
            return T.FLOAT
        return T.VEC4

    raise TypeError_(f"unknown builtin {name!r}")


def _shape_like(ty: T.GLSLType) -> T.GLSLType:
    """Float scalar/vector with the same component count as *ty*."""
    if isinstance(ty, T.Scalar):
        return T.FLOAT
    if isinstance(ty, T.Vector):
        return T.Vector(T.ScalarKind.FLOAT, ty.size)
    raise TypeError_(f"builtin cannot take argument of type {ty}")
