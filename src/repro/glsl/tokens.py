"""Token definitions for the GLSL lexer."""

from __future__ import annotations

from enum import Enum, auto
from typing import NamedTuple


class TokenKind(Enum):
    """Lexical token categories."""
    IDENT = auto()
    KEYWORD = auto()
    TYPE = auto()          # basic type name (float, vec3, mat4, sampler2D, ...)
    INT = auto()
    FLOAT = auto()
    BOOL = auto()
    OP = auto()            # operator or punctuation
    EOF = auto()


#: GLSL keywords relevant to the subset we support.  Type names are kept in a
#: separate set so the parser can distinguish declarations from expressions.
KEYWORDS = frozenset(
    {
        "attribute", "break", "case", "const", "continue", "default",
        "discard", "do", "else", "flat", "for", "highp", "if", "in", "inout",
        "layout", "lowp", "mediump", "out", "precision", "return", "struct",
        "switch", "uniform", "varying", "void", "while",
    }
)

TYPE_NAMES = frozenset(
    {
        "float", "int", "uint", "bool",
        "vec2", "vec3", "vec4",
        "ivec2", "ivec3", "ivec4",
        "uvec2", "uvec3", "uvec4",
        "bvec2", "bvec3", "bvec4",
        "mat2", "mat3", "mat4",
        "sampler2D", "sampler3D", "samplerCube", "sampler2DShadow",
        "sampler2DArray",
    }
)

#: Multi-character operators, longest first so the lexer can greedily match.
MULTI_CHAR_OPS = (
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "^^",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "++", "--", "<<", ">>",
)

SINGLE_CHAR_OPS = frozenset("+-*/%<>=!&|^?:;,.()[]{}~")


def parse_int_literal(text: str) -> int:
    """Value of a GLSL integer literal token (decimal, hex, or octal).

    Accepts the optional ``u``/``U`` suffix.  Mirrors the GLSL spec: a
    ``0x``/``0X`` prefix is hexadecimal, a leading ``0`` is octal, anything
    else decimal.
    """
    body = text.rstrip("uU")
    if body[:2].lower() == "0x":
        return int(body, 16)
    if body.startswith("0") and len(body) > 1:
        return int(body, 8)
    return int(body, 10)


class Token(NamedTuple):
    """A single lexical token with its source position.

    A tuple, so tokens are immutable and compare by value; the lexer builds
    them with ``tuple.__new__`` to skip the Python-level constructor.
    """

    kind: TokenKind
    text: str
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.col})"
