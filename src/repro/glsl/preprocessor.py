"""A GLSL preprocessor supporting the directives übershaders rely on.

Supported: ``#version``, ``#extension``, ``#pragma`` (recorded/stripped),
``#define`` (object-like and function-like), ``#undef``, ``#ifdef``,
``#ifndef``, ``#if``, ``#elif``, ``#else``, ``#endif``, ``#error``.
Conditional expressions follow C preprocessor semantics: integer literals
(decimal, hex, octal, with ``u``/``l`` suffixes), ``defined(X)``, the usual
arithmetic / bitwise / comparison / logical operators with truncating integer
division, short-circuit ``&&`` / ``||``, and macro substitution.  Directives
inside inactive conditional groups are skipped without being evaluated, so a
``#if`` branch guarded off by an outer conditional may reference macros and
syntax outside our subset (how real drivers survive wild shader soup).

The implementation is line-based and textual, like the preprocessors inside
real GLSL compilers (which operate before tokenization).  The output text is
**line-preserving**: every consumed source line (directive, inactive branch,
or continuation) is replaced by an empty line, so line numbers in downstream
lexer/parser diagnostics refer to the *original* file — essential when the
input is a wild shader we did not author.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import PreprocessorError

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_MAX_EXPANSION_DEPTH = 64


@dataclass
class MacroDef:
    """A single ``#define`` entry."""

    name: str
    body: str
    params: Optional[Tuple[str, ...]] = None  # None => object-like

    @property
    def is_function_like(self) -> bool:
        return self.params is not None


@dataclass
class PreprocessResult:
    """Output of :func:`preprocess`."""

    text: str
    version: Optional[str] = None
    extensions: List[str] = field(default_factory=list)
    macros: Dict[str, MacroDef] = field(default_factory=dict)


def preprocess(source: str, defines: Optional[Dict[str, str]] = None) -> PreprocessResult:
    """Run the preprocessor over *source*.

    ``defines`` supplies predefined object-like macros (the übershader
    specialisation mechanism): mapping name -> replacement text ("" for a bare
    ``#define NAME``).
    """
    macros: Dict[str, MacroDef] = {}
    for name, value in (defines or {}).items():
        macros[name] = MacroDef(name, value)

    result = PreprocessResult(text="", macros=macros)
    out_lines: List[str] = []
    # Stack of (parent_active, this_branch_taken, any_branch_taken_yet)
    cond_stack: List[List[bool]] = []

    last_lineno = 1
    for lineno, raw, span in _logical_lines(_strip_comments(source)):
        last_lineno = lineno + span - 1
        stripped = raw.strip()
        if stripped.startswith("#"):
            _directive(stripped, lineno, macros, cond_stack, result)
            out_lines.extend([""] * span)
            continue
        if _active(cond_stack):
            out_lines.append(_expand_macros(raw, macros, lineno) if macros else raw)
            out_lines.extend([""] * (span - 1))
        else:
            out_lines.extend([""] * span)

    if cond_stack:
        raise PreprocessorError("unterminated #if/#ifdef block", last_lineno)

    while out_lines and not out_lines[-1].strip():
        out_lines.pop()
    result.text = "\n".join(out_lines) + ("\n" if out_lines else "")
    return result


def _strip_comments(source: str) -> str:
    """Remove ``/* */`` and ``//`` comments ahead of directive handling.

    A block comment is replaced by one space (so ``a/*x*/b`` stays two
    tokens) plus every newline it spanned, keeping all subsequent line
    numbers accurate.  An unterminated block comment reports the line the
    comment *opened* on.  Comments can only start at a ``/``, so the scan
    jumps from one ``/`` to the next and copies the text between comments
    as whole slices.
    """
    out: List[str] = []
    kept = 0  # start of the text not yet copied to *out*
    i = source.find("/")
    while i >= 0:
        follower = source[i + 1:i + 2]
        if follower == "*":
            end = source.find("*/", i + 2)
            if end < 0:
                raise PreprocessorError("unterminated block comment",
                                        source.count("\n", 0, i) + 1)
            out.append(source[kept:i])
            out.append(" ")
            out.append("\n" * source.count("\n", i, end + 2))
            kept = i = end + 2
        elif follower == "/":
            out.append(source[kept:i])
            end = source.find("\n", i)
            kept = i = len(source) if end < 0 else end
        else:
            i += 1
        i = source.find("/", i)
    out.append(source[kept:])
    return "".join(out)


def _logical_lines(source: str) -> List[Tuple[int, str, int]]:
    """Split into logical lines, splicing backslash continuations.

    Yields ``(first_lineno, text, span)`` where *span* is how many physical
    lines the logical line covers, so callers can keep output and
    diagnostics aligned with the original file.
    """
    lines = source.split("\n")
    out: List[Tuple[int, str, int]] = []
    buffer = ""
    start = 1
    span = 0
    for number, line in enumerate(lines, start=1):
        if not span:
            start = number
        span += 1
        if line.endswith("\\"):
            buffer += line[:-1] + " "
        else:
            out.append((start, buffer + line, span))
            buffer = ""
            span = 0
    if span:
        out.append((start, buffer, span))
    return out


def _active(cond_stack: Sequence[Sequence[bool]]) -> bool:
    return all(frame[0] and frame[1] for frame in cond_stack)


def _directive(
    line: str,
    lineno: int,
    macros: Dict[str, MacroDef],
    cond_stack: List[List[bool]],
    result: PreprocessResult,
) -> None:
    body = line[1:].strip()
    if not body:
        return
    match = _WORD_RE.match(body)
    if not match:
        if _active(cond_stack):
            raise PreprocessorError(f"malformed directive {line!r}", lineno)
        return  # garbage directives in skipped groups are ignored, per C
    name = match.group(0)
    rest = body[match.end() :].strip()

    if name in ("ifdef", "ifndef"):
        macro = rest.split()[0] if rest else ""
        if not macro:
            raise PreprocessorError(f"#{name} requires a macro name", lineno)
        parent = _active(cond_stack)
        taken = parent and (macro in macros) == (name == "ifdef")
        cond_stack.append([parent, taken, taken])
        return
    if name == "if":
        # C semantics: the condition of a conditional inside an inactive
        # group is *not* evaluated — it may use macros or syntax we cannot
        # handle, and that must not be an error.
        parent = _active(cond_stack)
        taken = parent and bool(_eval_condition(rest, macros, lineno))
        cond_stack.append([parent, taken, taken])
        return
    if name == "elif":
        if not cond_stack:
            raise PreprocessorError("#elif without #if", lineno)
        frame = cond_stack[-1]
        if not frame[0] or frame[2]:
            frame[1] = False  # parent inactive or a branch already taken
        else:
            frame[1] = bool(_eval_condition(rest, macros, lineno))
            frame[2] = frame[1]
        return
    if name == "else":
        if not cond_stack:
            raise PreprocessorError("#else without #if", lineno)
        frame = cond_stack[-1]
        frame[1] = not frame[2]
        frame[2] = True
        return
    if name == "endif":
        if not cond_stack:
            raise PreprocessorError("#endif without #if", lineno)
        cond_stack.pop()
        return

    if not _active(cond_stack):
        return

    if name == "define":
        _define(rest, lineno, macros)
    elif name == "undef":
        if rest:
            macros.pop(rest.split()[0], None)
    elif name == "version":
        result.version = rest
    elif name == "extension":
        result.extensions.append(rest)
    elif name == "pragma":
        pass
    elif name == "error":
        raise PreprocessorError(f"#error {rest}".strip(), lineno)
    else:
        raise PreprocessorError(f"unsupported directive #{name}", lineno)


def _define(rest: str, lineno: int, macros: Dict[str, MacroDef]) -> None:
    match = _WORD_RE.match(rest)
    if not match:
        raise PreprocessorError("#define requires a name", lineno)
    name = match.group(0)
    after = rest[match.end() :]
    if after.startswith("("):
        close = after.find(")")
        if close < 0:
            raise PreprocessorError(f"unterminated parameter list for macro {name}", lineno)
        params = tuple(p.strip() for p in after[1:close].split(",") if p.strip())
        body = after[close + 1 :].strip()
        macros[name] = MacroDef(name, body, params)
    else:
        macros[name] = MacroDef(name, after.strip())


def _expand_macros(text: str, macros: Dict[str, MacroDef], lineno: int, depth: int = 0) -> str:
    if depth > _MAX_EXPANSION_DEPTH:
        raise PreprocessorError("macro expansion too deep (recursive macro?)", lineno)
    out: List[str] = []
    i = 0
    n = len(text)
    changed = False
    while i < n:
        match = _WORD_RE.search(text, i)
        if not match:
            out.append(text[i:])
            break
        out.append(text[i : match.start()])
        word = match.group(0)
        macro = macros.get(word)
        if macro is None:
            out.append(word)
            i = match.end()
            continue
        if macro.is_function_like:
            args, end = _parse_macro_args(text, match.end(), lineno)
            if args is None:  # not a call; leave the identifier alone
                out.append(word)
                i = match.end()
                continue
            if len(args) != len(macro.params or ()):
                raise PreprocessorError(
                    f"macro {word} expects {len(macro.params or ())} args, got {len(args)}",
                    lineno,
                )
            body = macro.body
            for param, arg in zip(macro.params or (), args):
                body = re.sub(rf"\b{re.escape(param)}\b", arg.strip(), body)
            out.append(body)
            i = end
        else:
            out.append(macro.body)
            i = match.end()
        changed = True
    expanded = "".join(out)
    if changed:
        return _expand_macros(expanded, macros, lineno, depth + 1)
    return expanded


def _parse_macro_args(
    text: str, pos: int, lineno: int
) -> Tuple[Optional[List[str]], int]:
    """Parse a parenthesised argument list starting at or after *pos*.

    Returns (args, end_index); args is None when no call parenthesis follows.
    """
    i = pos
    while i < len(text) and text[i] in " \t":
        i += 1
    if i >= len(text) or text[i] != "(":
        return None, pos
    depth = 0
    args: List[str] = []
    current: List[str] = []
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
            if depth > 1:
                current.append(ch)
        elif ch == ")":
            depth -= 1
            if depth == 0:
                args.append("".join(current))
                return ([a for a in args] if any(a.strip() for a in args) else []), i + 1
            current.append(ch)
        elif ch == "," and depth == 1:
            args.append("".join(current))
            current = []
        else:
            current.append(ch)
        i += 1
    raise PreprocessorError("unterminated macro argument list", lineno)


# ---------------------------------------------------------------------------
# #if condition evaluation — a real tokenizer + C-semantics evaluator
# ---------------------------------------------------------------------------

_COND_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<num>0[xX][0-9a-fA-F]+[uUlL]*|\.?\d[\w.]*)
      | (?P<ident>[A-Za-z_]\w*)
      | (?P<op><<|>>|<=|>=|==|!=|&&|\|\||[-+*/%()!~<>&^|?:])
    )""",
    re.VERBOSE,
)

#: Binary operator precedence for conditions, C order, higher binds tighter.
_COND_PREC = {
    "||": 1, "&&": 2,
    "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


def _int_literal(text: str, lineno: int) -> int:
    """Parse a C integer literal (decimal/hex/octal with u/l suffixes)."""
    body = text.rstrip("uUlL")
    try:
        if body[:2].lower() == "0x":
            return int(body, 16)
        if "." in body or ("e" in body.lower() and not body.lower().startswith("0x")):
            raise ValueError("floating constant")
        if body.startswith("0") and len(body) > 1:
            return int(body, 8)
        return int(body, 10)
    except (ValueError, IndexError):
        raise PreprocessorError(
            f"invalid integer constant {text!r} in #if condition", lineno)


class _CondParser:
    """Recursive-descent parser for ``#if`` expressions.

    Builds a small tuple tree so evaluation can short-circuit ``&&`` / ``||``
    and ``?:`` the way C requires (a division in a dead branch must not
    fault).
    """

    def __init__(self, expr: str, lineno: int):
        self.lineno = lineno
        self.tokens: List[str] = []
        self.values: Dict[int, int] = {}
        pos = 0
        while pos < len(expr):
            match = _COND_TOKEN_RE.match(expr, pos)
            if not match:
                if expr[pos:].strip():
                    raise PreprocessorError(
                        f"unexpected {expr[pos:].strip()[0]!r} in #if "
                        f"condition {expr.strip()!r}", lineno)
                break
            if match.group("num") is not None:
                self.values[len(self.tokens)] = _int_literal(
                    match.group("num"), lineno)
                self.tokens.append("<num>")
            elif match.group("ident") is not None:
                # Remaining identifiers evaluate to 0, per the C convention.
                self.values[len(self.tokens)] = 0
                self.tokens.append("<num>")
            else:
                self.tokens.append(match.group("op"))
            pos = match.end()
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def parse(self):
        """Parse the whole condition; raises on trailing tokens."""
        tree = self._ternary()
        if self.peek() is not None:
            raise PreprocessorError(
                f"unexpected {self.peek()!r} in #if condition", self.lineno)
        return tree

    def _ternary(self):
        cond = self._binary(1)
        if self.peek() != "?":
            return cond
        self.pos += 1
        then = self._ternary()
        if self.peek() != ":":
            raise PreprocessorError("expected ':' in #if condition", self.lineno)
        self.pos += 1
        return ("cond", cond, then, self._ternary())

    def _binary(self, min_prec: int):
        left = self._unary()
        while True:
            op = self.peek()
            prec = _COND_PREC.get(op or "")
            if prec is None or prec < min_prec:
                return left
            self.pos += 1
            left = ("bin", op, left, self._binary(prec + 1))

    def _unary(self):
        op = self.peek()
        if op in ("-", "+", "!", "~"):
            self.pos += 1
            return ("un", op, self._unary())
        if op == "(":
            self.pos += 1
            inner = self._ternary()
            if self.peek() != ")":
                raise PreprocessorError(
                    "unbalanced parentheses in #if condition", self.lineno)
            self.pos += 1
            return inner
        if op == "<num>":
            value = self.values[self.pos]
            self.pos += 1
            return ("num", value)
        raise PreprocessorError(
            f"expected an operand in #if condition, found {op!r}", self.lineno)


def _trunc_div(a: int, b: int) -> int:
    """C integer division: truncate toward zero (Python // floors)."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _trunc_mod(a: int, b: int) -> int:
    """C integer remainder: same sign as the dividend."""
    r = abs(a) % abs(b)
    return r if a >= 0 else -r


def _eval_tree(tree, lineno: int) -> int:
    kind = tree[0]
    if kind == "num":
        return tree[1]
    if kind == "un":
        value = _eval_tree(tree[2], lineno)
        if tree[1] == "-":
            return -value
        if tree[1] == "+":
            return value
        if tree[1] == "!":
            return 0 if value else 1
        return ~value  # "~"
    if kind == "cond":
        branch = tree[2] if _eval_tree(tree[1], lineno) else tree[3]
        return _eval_tree(branch, lineno)
    op = tree[1]
    left = _eval_tree(tree[2], lineno)
    if op == "&&":
        return 1 if left and _eval_tree(tree[3], lineno) else 0
    if op == "||":
        return 1 if left or _eval_tree(tree[3], lineno) else 0
    right = _eval_tree(tree[3], lineno)
    if op in ("/", "%"):
        if right == 0:
            raise PreprocessorError("division by zero in #if condition", lineno)
        return _trunc_div(left, right) if op == "/" else _trunc_mod(left, right)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "<<":
        return left << right
    if op == ">>":
        return left >> right
    if op == "&":
        return left & right
    if op == "|":
        return left | right
    if op == "^":
        return left ^ right
    comparisons = {"==": left == right, "!=": left != right,
                   "<": left < right, ">": left > right,
                   "<=": left <= right, ">=": left >= right}
    return 1 if comparisons[op] else 0


def _eval_condition(expr: str, macros: Dict[str, MacroDef], lineno: int) -> int:
    """Evaluate a ``#if`` expression to an integer with C semantics."""
    # Resolve defined(X) / defined X before macro expansion.
    def replace_defined(match: re.Match) -> str:
        name = match.group(1) or match.group(2)
        return "1" if name in macros else "0"

    expr = re.sub(r"defined\s*\(\s*(\w+)\s*\)|defined\s+(\w+)", replace_defined, expr)
    expr = _expand_macros(expr, macros, lineno)
    if not expr.strip():
        raise PreprocessorError("empty #if condition", lineno)
    return _eval_tree(_CondParser(expr, lineno).parse(), lineno)
