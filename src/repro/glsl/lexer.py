"""Hand-written lexer for the GLSL subset used throughout the library.

The lexer assumes its input has already been preprocessed (no ``#`` directives
remain); :func:`tokenize` raises :class:`~repro.errors.LexerError` if it meets
one, which usually indicates a caller skipped :func:`repro.glsl.preprocess`.
"""

from __future__ import annotations

import re
from typing import List

from repro.errors import LexerError
from repro.glsl.tokens import (
    KEYWORDS,
    MULTI_CHAR_OPS,
    SINGLE_CHAR_OPS,
    TYPE_NAMES,
    Token,
    TokenKind,
)

_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DIGITS = frozenset("0123456789")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
#: The multi-character operators by length.  Matching every 3-character
#: operator before any 2-character one is the longest-first greedy match.
_OPS_3 = frozenset(op for op in MULTI_CHAR_OPS if len(op) == 3)
_OPS_2 = frozenset(op for op in MULTI_CHAR_OPS if len(op) == 2)


def tokenize(source: str) -> List[Token]:
    """Tokenize preprocessed GLSL source into a token list ending with EOF."""
    tokens: List[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def error(message: str) -> LexerError:
        return LexerError(message, line, col)

    while i < n:
        ch = source[i]

        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue

        # Comments (tolerated even post-preprocess).
        follower = source[i + 1 : i + 2] if ch == "/" else ""
        if follower == "/":
            end = source.find("\n", i)
            i = n if end < 0 else end
            continue
        if follower == "*":
            end = source.find("*/", i + 2)
            if end < 0:
                raise error("unterminated block comment")
            skipped = source[i : end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = end + 2
            continue

        if ch == "#":
            raise error("preprocessor directive in lexer input; run preprocess() first")

        if ch in _IDENT_START:
            start = i
            i = _IDENT_RE.match(source, i).end()
            text = source[start:i]
            if text in ("true", "false"):
                kind = TokenKind.BOOL
            elif text in TYPE_NAMES:
                kind = TokenKind.TYPE
            elif text in KEYWORDS:
                kind = TokenKind.KEYWORD
            else:
                kind = TokenKind.IDENT
            tokens.append(Token(kind, text, line, col))
            col += i - start
            continue

        if ch in _DIGITS or (ch == "." and i + 1 < n and source[i + 1] in _DIGITS):
            start = i
            is_float = False
            if ch == "0" and i + 1 < n and source[i + 1] in "xX":
                i += 2
                while i < n and source[i] in _HEX_DIGITS:
                    i += 1
                if i == start + 2:
                    raise error("hexadecimal literal needs at least one digit")
                if i < n and source[i] in "uU":
                    i += 1
                tokens.append(Token(TokenKind.INT, source[start:i], line, col))
                col += i - start
                continue
            while i < n and source[i] in _DIGITS:
                i += 1
            if i < n and source[i] == ".":
                is_float = True
                i += 1
                while i < n and source[i] in _DIGITS:
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j] in _DIGITS:
                    is_float = True
                    i = j
                    while i < n and source[i] in _DIGITS:
                        i += 1
            if i < n and source[i] in "fF" and is_float:
                i += 1
            elif i < n and source[i] in "uU" and not is_float:
                i += 1
            text = source[start:i]
            kind = TokenKind.FLOAT if is_float else TokenKind.INT
            tokens.append(Token(kind, text, line, col))
            col += i - start
            continue

        op = source[i:i + 3]
        if op not in _OPS_3:
            op = op[:2]
            if op not in _OPS_2:
                op = ""
        if op:
            tokens.append(Token(TokenKind.OP, op, line, col))
            i += len(op)
            col += len(op)
            continue

        if ch in SINGLE_CHAR_OPS:
            tokens.append(Token(TokenKind.OP, ch, line, col))
            i += 1
            col += 1
            continue

        raise error(f"unexpected character {ch!r}")

    tokens.append(Token(TokenKind.EOF, "", line, col))
    return tokens
