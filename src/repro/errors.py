"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single type at the API boundary.  Frontend errors carry source
locations; backend/model errors carry the offending entity's name.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class PreprocessorError(ReproError):
    """Raised for malformed preprocessor directives or macro expansion loops."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class LexerError(ReproError):
    """Raised when the lexer meets a character sequence it cannot tokenize."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ParseError(ReproError):
    """Raised on a syntax error while parsing GLSL."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        loc = f"line {line}, col {col}: " if line else ""
        super().__init__(loc + message)
        self.line = line
        self.col = col


class TypeError_(ReproError):
    """Raised on a GLSL type mismatch (named with a trailing underscore to
    avoid shadowing the builtin)."""


class NormalizeError(ReproError):
    """Raised when the wild-GLSL normalizer cannot rewrite a construct into
    the core subset (e.g. struct return types, conditional switch breaks)."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class LoweringError(ReproError):
    """Raised when the AST-to-IR lowering meets an unsupported construct."""


class IRError(ReproError):
    """Raised by the IR verifier or by malformed IR manipulation."""


class InterpError(ReproError):
    """Raised by the reference IR interpreter (e.g. non-terminating loop)."""


class BackendError(ReproError):
    """Raised when the GLSL backend cannot re-structure the CFG."""


class HarnessError(ReproError):
    """Raised by the measurement harness (e.g. interface mismatch)."""
