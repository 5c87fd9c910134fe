"""Regular-expression lexer for the GLSL subset used throughout the library.

One compiled pattern matches a token together with the blanks and comments
in front of it, so the scan costs one regex match per token instead of one
loop iteration per character.  A token's ``col`` is its offset from the
last newline before it: a tab, a ``\\r`` and each character of a block
comment count one column, and a line comment counts none.

The lexer assumes its input has already been preprocessed (no ``#``
directives remain); :func:`tokenize` raises :class:`~repro.errors.LexerError`
if it meets one, which usually indicates a caller skipped
:func:`repro.glsl.preprocess`.
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

_IDENT = TokenKind.IDENT
_INT = TokenKind.INT
_FLOAT = TokenKind.FLOAT
_OP = TokenKind.OP

#: Token kind of every reserved word; any other word is an identifier.
_WORD_KINDS = {
    **{word: TokenKind.KEYWORD for word in KEYWORDS},
    **{word: TokenKind.TYPE for word in TYPE_NAMES},
    "true": TokenKind.BOOL,
    "false": TokenKind.BOOL,
}

#: Operators, longest first, so the first alternative that matches is the
#: greedy match.  A ``/`` that opens a block comment is not an operator:
#: a closed comment was skipped as a blank, so this one never closes.
_OPERATOR = "|".join(
    [re.escape(op) for op in MULTI_CHAR_OPS]
    + [r"/(?!\*)",
       "[" + re.escape("".join(sorted(SINGLE_CHAR_OPS - {"/"}))) + "]"])

#: Blanks and comments, then one token: a word, a float, an int or an
#: operator, each in its own group.  The last group matches a character no
#: token starts with (an error) or the end of the input, so a match never
#: backtracks into the blanks.
_TOKEN_RE = re.compile(
    r"([ \t\r\n]*(?:(?://[^\n]*|/\*.*?\*/)[ \t\r\n]*)*)"
    r"(?:([A-Za-z_][A-Za-z0-9_]*)"
    r"|((?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[fF]?"
    r"|[0-9]+[eE][+-]?[0-9]+[fF]?)"
    r"|(0[xX][0-9a-fA-F]+[uU]?|(?!0[xX])[0-9]+[uU]?)"
    rf"|({_OPERATOR})"
    r"|(.|\Z))",
    re.S)

#: Blanks and comments up to a line comment the input ends in.
_BEFORE_LAST_LINE_COMMENT_RE = re.compile(
    r"(?:[ \t\r\n]+|/\*.*?\*/|//[^\n]*\n)*", re.S)


def tokenize(source: str) -> List[Token]:
    """Tokenize preprocessed GLSL source into a token list ending with EOF."""
    tokens: List[Token] = []
    append = tokens.append
    new = tuple.__new__
    word_kind = _WORD_KINDS.get
    pos = 0
    line = 1
    line_start = -1  # offset of the newline before *pos*
    for blanks, word, real, integer, op, other in _TOKEN_RE.findall(source):
        if blanks:
            if "\n" in blanks:
                line += blanks.count("\n")
                line_start = pos + blanks.rfind("\n")
            pos += len(blanks)
        if op:
            append(new(Token, (_OP, op, line, pos - line_start)))
            pos += len(op)
        elif word:
            append(new(Token, (word_kind(word, _IDENT), word, line,
                               pos - line_start)))
            pos += len(word)
        elif integer:
            append(new(Token, (_INT, integer, line, pos - line_start)))
            pos += len(integer)
        elif real:
            append(new(Token, (_FLOAT, real, line, pos - line_start)))
            pos += len(real)
        elif other:
            raise _error(source, pos, line, pos - line_start)
        else:
            if "//" in blanks:
                # A line comment counts no columns, so EOF after one that
                # ends the input sits where the comment starts.
                pos -= len(blanks) - _BEFORE_LAST_LINE_COMMENT_RE.match(
                    blanks).end()
            break
    append(new(Token, (TokenKind.EOF, "", line, pos - line_start)))
    return tokens


def _error(source: str, pos: int, line: int, col: int) -> LexerError:
    """The error for the text at *pos*, which starts no token."""
    if source.startswith("/*", pos):
        message = "unterminated block comment"
    elif source.startswith("#", pos):
        message = "preprocessor directive in lexer input; run preprocess() first"
    elif source.startswith(("0x", "0X"), pos):
        message = "hexadecimal literal needs at least one digit"
    else:
        message = f"unexpected character {source[pos]!r}"
    return LexerError(message, line, col)
