"""Parser for the GLSL subset, with type inference.

Statements and declarations are parsed by recursive descent, dispatched on
the leading token; expressions by one precedence-climbing (Pratt) loop:
prefix operators and a primary, then postfix ``[]``, ``.`` and ``++``/``--``,
then binary operators by precedence, left-associative, and lowest of all
the right-associative ``?:``.  The token list ends in enough EOF copies for
the deepest lookahead, so no token access checks bounds.

The parser produces a :class:`repro.glsl.ast.Shader` whose expression nodes
all carry a resolved ``ty``.  Doing inference here keeps the IR lowering free
of guessing: it can rely on ``expr.ty`` everywhere.

Supported surface (the subset real GFXBench-style fragment shaders use, plus
the wild-GLSL widening behind ``repro import``): global ``uniform`` / ``in``
/ ``out`` / ``const`` declarations, layout qualifiers (multiple render
targets), ``struct`` declarations, user function definitions, ``if``/
``else``, ``for``, ``while``, ``do``/``while``, ``switch``, ``return``,
``discard``, ``break``, ``continue``, compound assignment, swizzles and
struct field access, constructors, and sized/unsized arrays whose sizes may
be any constant integer expression (const-folded against declared ``const
int`` values).  ``struct``/``do``/``switch`` parse into dedicated AST nodes
that :mod:`repro.glsl.normalize` rewrites into the core subset before
lowering.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ParseError, TypeError_
from repro.glsl import ast
from repro.glsl import types as T
from repro.glsl.builtins import is_builtin, resolve_builtin
from repro.glsl.lexer import tokenize
from repro.glsl.tokens import Token, TokenKind, parse_int_literal

_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=")

#: Binary operator precedence, higher binds tighter.
_BIN_PREC = {
    "||": 1,
    "^^": 2,
    "&&": 3,
    "==": 4,
    "!=": 4,
    "<": 5,
    ">": 5,
    "<=": 5,
    ">=": 5,
    "+": 6,
    "-": 6,
    "*": 7,
    "/": 7,
    "%": 7,
}

#: Prefix operators; unary ``+`` yields its operand unchanged.
_PREFIX_OPS = frozenset(("-", "+", "!", "++", "--"))
_POSTFIX_OPS = frozenset(("[", ".", "++", "--"))
_PRECISIONS = frozenset(("highp", "mediump", "lowp"))

#: EOF copies after the token list's own EOF: the deepest lookahead is four
#: tokens past the current one (``vec2[4] name`` in ``_starts_declaration``).
_LOOKAHEAD = 4

_EOF = TokenKind.EOF
_IDENT = TokenKind.IDENT
_TYPE = TokenKind.TYPE
_INT = TokenKind.INT
_FLOAT = TokenKind.FLOAT
_BOOL = TokenKind.BOOL

_SWIZZLE_SETS = ("xyzw", "rgba", "stpq")


def parse_shader(source: str) -> ast.Shader:
    """Parse preprocessed GLSL *source* into a typed AST."""
    return _Parser(source).parse()


class _Scope:
    """A lexical scope mapping names to GLSL types (and const int values)."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.names: Dict[str, T.GLSLType] = {}
        self.const_ints: Dict[str, int] = {}

    def lookup(self, name: str) -> Optional[T.GLSLType]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None

    def declare(self, name: str, ty: T.GLSLType) -> None:
        self.names[name] = ty

    def declare_const_int(self, name: str, value: int) -> None:
        """Record a ``const int`` binding for constant-expression folding."""
        self.const_ints[name] = value

    def lookup_const_int(self, name: str) -> Optional[int]:
        """The folded value of a ``const int``, searching enclosing scopes."""
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:  # nearest declaration wins, even if
                return scope.const_ints.get(name)  # it is not const
            scope = scope.parent
        return None


class _Parser:
    def __init__(self, source: str):
        tokens = tokenize(source)
        tokens.extend([tokens[-1]] * _LOOKAHEAD)
        self.tokens = tokens
        self.pos = 0
        self.globals_scope = _Scope()
        self.scope = self.globals_scope
        self.functions: Dict[str, Tuple[T.GLSLType, List[ast.Param]]] = {}
        self.structs: Dict[str, T.Struct] = {}
        self.current_return_type: Optional[T.GLSLType] = None

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def advance(self) -> Token:
        # Callers advance past a token they have matched, never past EOF.
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    # *text* is never empty, so none of these matches EOF (text "").

    def check(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        self.pos += 1
        return tok

    def expect_ident(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not _IDENT:
            raise ParseError(f"expected identifier, found {tok.text!r}", tok.line, tok.col)
        self.pos += 1
        return tok

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def parse(self) -> ast.Shader:
        shader = ast.Shader(version=None)
        while self.peek().kind is not _EOF:
            tok = self.peek()
            if tok.text == "precision":
                self._skip_until(";")
                continue
            if tok.text == "layout":
                self._skip_layout()
                tok = self.peek()
            if tok.text == "struct":
                shader.structs.append(self._struct_decl())
                continue
            if tok.text in ("uniform", "in", "out", "attribute", "varying", "flat"):
                shader.globals.extend(self._global_decl())
                continue
            if tok.text == "const":
                shader.globals.extend(self._global_decl())
                continue
            if tok.kind is _TYPE or tok.text == "void" or self._is_struct_name(tok):
                if self._looks_like_function():
                    shader.functions.append(self._function_def())
                else:
                    shader.globals.extend(self._global_decl())
                continue
            raise ParseError(f"unexpected token {tok.text!r} at top level", tok.line, tok.col)
        return shader

    def _is_struct_name(self, tok: Token) -> bool:
        return tok.kind is _IDENT and tok.text in self.structs

    def _struct_decl(self) -> ast.StructDecl:
        """Parse ``struct Name { type field, ...; ... };``."""
        line = self.peek().line
        self.expect("struct")
        name_tok = self.expect_ident()
        if name_tok.text in self.structs:
            raise ParseError(f"struct {name_tok.text!r} redeclared",
                             name_tok.line, name_tok.col)
        self.expect("{")
        fields: List[Tuple[str, T.GLSLType]] = []
        seen: set = set()
        while not self.check("}"):
            if self.peek().kind is _EOF:
                raise ParseError("unterminated struct declaration", line)
            while self.peek().text in _PRECISIONS:
                self.advance()
            field_base = self._parse_type()
            while True:
                field_tok = self.expect_ident()
                field_ty = field_base
                if self.accept("["):
                    size = self._const_int()
                    self.expect("]")
                    field_ty = T.Array(field_base, size)
                if field_tok.text in seen:
                    raise ParseError(
                        f"duplicate struct field {field_tok.text!r}",
                        field_tok.line, field_tok.col)
                seen.add(field_tok.text)
                fields.append((field_tok.text, field_ty))
                if not self.accept(","):
                    break
            self.expect(";")
        self.expect("}")
        if not fields:
            raise ParseError(f"struct {name_tok.text!r} has no fields", line)
        if not self.check(";"):
            tok = self.peek()
            raise ParseError(
                "struct declarations with trailing instance names are not "
                "supported; declare the instance separately", tok.line, tok.col)
        self.expect(";")
        struct_ty = T.Struct(name_tok.text, tuple(fields))
        self.structs[name_tok.text] = struct_ty
        return ast.StructDecl(ty=struct_ty, line=line)

    def _skip_until(self, text: str) -> None:
        while not self.check(text) and self.peek().kind is not _EOF:
            self.advance()
        self.accept(text)

    def _skip_layout(self) -> None:
        self.expect("layout")
        self.expect("(")
        depth = 1
        while depth and self.peek().kind is not _EOF:
            tok = self.advance()
            if tok.text == "(":
                depth += 1
            elif tok.text == ")":
                depth -= 1

    def _looks_like_function(self) -> bool:
        """TYPE IDENT ( ...  at top level means a function definition."""
        return (
            self.peek(1).kind is _IDENT
            and self.peek(2).text == "("
        )

    def _parse_type(self) -> T.GLSLType:
        tok = self.tokens[self.pos]
        base: T.GLSLType
        if tok.kind is _TYPE:
            self.pos += 1
            base = T.type_from_name(tok.text)
        elif tok.text == "void":
            self.pos += 1
            return T.VOID
        elif self._is_struct_name(tok):
            self.pos += 1
            base = self.structs[tok.text]
        else:
            raise ParseError(f"expected type name, found {tok.text!r}", tok.line, tok.col)
        if self.accept("["):
            if self.check("]"):
                self.advance()
                return T.Array(base, None)
            size = self._const_int()
            self.expect("]")
            return T.Array(base, size)
        return base

    def _const_int(self) -> int:
        """Parse a constant integer expression and fold it to a value.

        Array sizes (and case labels) in real shaders are rarely bare
        literals — ``const int N = 4; float w[N];`` and ``w[N - 1]``-style
        sizes are ubiquitous — so any expression built from integer
        literals, declared ``const int`` names, and integer arithmetic is
        accepted and folded here.
        """
        tok = self.peek()
        expr = self._expression()
        return self._fold_int(expr, tok)

    def _fold_int(self, expr: ast.Expr, tok: Token) -> int:
        value = self._try_fold_int(expr)
        if value is None:
            raise ParseError(
                "expected a constant integer expression (integer literals, "
                "const int names, and integer arithmetic)", tok.line, tok.col)
        return value

    def _try_fold_int(self, expr: ast.Expr) -> Optional[int]:
        """Fold *expr* to an int if it is a constant integer expression."""
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.Ident):
            return self.scope.lookup_const_int(expr.name)
        if isinstance(expr, ast.Unary) and not expr.postfix:
            value = self._try_fold_int(expr.operand)
            if value is None:
                return None
            return -value if expr.op == "-" else value if expr.op == "+" else None
        if isinstance(expr, ast.Binary):
            left = self._try_fold_int(expr.left)
            right = self._try_fold_int(expr.right)
            if left is None or right is None:
                return None
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op in ("/", "%"):
                if right == 0:
                    return None
                # GLSL integer division truncates toward zero, like C.
                quotient = abs(left) // abs(right)
                if expr.op == "/":
                    return quotient if (left < 0) == (right < 0) else -quotient
                remainder = abs(left) % abs(right)
                return remainder if left >= 0 else -remainder
            return None
        return None

    def _global_decl(self) -> List[ast.GlobalDecl]:
        line = self.peek().line
        qualifier: Optional[str] = None
        while self.peek().text in ("flat", "highp", "mediump", "lowp"):
            self.advance()
        if self.peek().text in ("uniform", "in", "out", "const", "attribute", "varying"):
            qualifier = self.advance().text
            if qualifier == "attribute":
                qualifier = "in"
            elif qualifier == "varying":
                qualifier = "in"
        while self.peek().text in _PRECISIONS:
            self.advance()
        ty = self._parse_type()
        decls: List[ast.GlobalDecl] = []
        while True:
            name_tok = self.expect_ident()
            this_ty = ty
            if self.accept("["):
                if self.check("]"):
                    self.advance()
                    this_ty = T.Array(ty, None)
                else:
                    size = self._const_int()
                    self.expect("]")
                    this_ty = T.Array(ty, size)
            init: Optional[ast.Expr] = None
            if self.accept("="):
                init = self._expression()
                if isinstance(this_ty, T.Array) and this_ty.length is None:
                    if isinstance(init, ast.ArrayLiteral):
                        this_ty = T.Array(this_ty.element, len(init.elements))
            self.globals_scope.declare(name_tok.text, this_ty)
            if qualifier == "const" and this_ty == T.INT and init is not None:
                value = self._try_fold_int(init)
                if value is not None:
                    self.globals_scope.declare_const_int(name_tok.text, value)
            decls.append(
                ast.GlobalDecl(qualifier=qualifier, ty=this_ty, name=name_tok.text,
                               init=init, line=line)
            )
            if not self.accept(","):
                break
        self.expect(";")
        return decls

    def _function_def(self) -> ast.FunctionDef:
        line = self.peek().line
        return_type = self._parse_type()
        name = self.expect_ident().text
        self.expect("(")
        params: List[ast.Param] = []
        if not self.check(")"):
            while True:
                qual = "in"
                if self.peek().text in ("in", "out", "inout"):
                    qual = self.advance().text
                while self.peek().text in ("highp", "mediump", "lowp", "const"):
                    self.advance()
                if self.check("void") and self.peek(1).text == ")":
                    self.advance()
                    break
                pty = self._parse_type()
                pname = self.expect_ident().text
                if self.accept("["):
                    size = self._const_int()
                    self.expect("]")
                    pty = T.Array(pty, size)
                params.append(ast.Param(qualifier=qual, ty=pty, name=pname))
                if not self.accept(","):
                    break
        self.expect(")")
        self.functions[name] = (return_type, params)
        outer = self.scope
        self.scope = _Scope(self.globals_scope)
        for param in params:
            self.scope.declare(param.name, param.ty)
        saved_ret = self.current_return_type
        self.current_return_type = return_type
        body = self._block()
        self.current_return_type = saved_ret
        self.scope = outer
        return ast.FunctionDef(return_type=return_type, name=name, params=params,
                               body=body, line=line)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _block(self) -> ast.BlockStmt:
        line = self.peek().line
        self.expect("{")
        outer = self.scope
        self.scope = _Scope(outer)
        body: List[ast.Stmt] = []
        while not self.check("}"):
            if self.peek().kind is _EOF:
                raise ParseError("unterminated block", line)
            body.append(self._statement())
        self.expect("}")
        self.scope = outer
        return ast.BlockStmt(line=line, body=body)

    def _statement(self) -> ast.Stmt:
        parse = _STATEMENTS.get(self.tokens[self.pos].text)
        if parse is not None:
            return parse(self)
        if self._starts_declaration():
            stmt = self._decl_stmt()
            self.expect(";")
            return stmt
        stmt = self._expr_or_assign_stmt()
        self.expect(";")
        return stmt

    def _return_stmt(self) -> ast.ReturnStmt:
        tok = self.advance()
        value = None if self.check(";") else self._expression()
        self.expect(";")
        return ast.ReturnStmt(line=tok.line, value=value)

    def _jump_stmt(self) -> ast.Stmt:
        """``discard;``, ``break;`` or ``continue;``."""
        tok = self.advance()
        self.expect(";")
        return _JUMPS[tok.text](line=tok.line)

    def _starts_declaration(self) -> bool:
        tokens = self.tokens
        pos = self.pos
        tok = tokens[pos]
        if tok.kind is _TYPE:
            # Distinguish `vec3 v = ...;` from constructor `vec3(...)` and
            # array literal `vec3[](...)`.
            nxt = tokens[pos + 1]
            if nxt.kind is _IDENT:
                return True
            if nxt.text == "[":
                # `vec2[] name` (declaration) vs `vec2[](…)` (array literal)
                j = pos + 3 if tokens[pos + 2].kind is _INT else pos + 2
                if tokens[j].text == "]":
                    return tokens[j + 1].kind is _IDENT
            return False
        if tok.text == "const":
            return True
        if tok.text in _PRECISIONS:
            return tokens[pos + 1].kind is _TYPE
        if self._is_struct_name(tok):
            return tokens[pos + 1].kind is _IDENT
        return False

    def _decl_stmt(self) -> ast.DeclStmt:
        line = self.peek().line
        is_const = self.accept("const")
        while self.tokens[self.pos].text in _PRECISIONS:
            self.pos += 1
        base_ty = self._parse_type()
        declarators: List[ast.Declarator] = []
        while True:
            name = self.expect_ident().text
            this_ty = base_ty
            if self.accept("["):
                if self.check("]"):
                    self.advance()
                    this_ty = T.Array(base_ty, None)
                else:
                    size = self._const_int()
                    self.expect("]")
                    this_ty = T.Array(base_ty, size)
            init: Optional[ast.Expr] = None
            if self.accept("="):
                init = self._expression()
                if isinstance(this_ty, T.Array) and this_ty.length is None:
                    if isinstance(init, ast.ArrayLiteral):
                        this_ty = T.Array(this_ty.element, len(init.elements))
                init = self._coerce(init, this_ty)
            self.scope.declare(name, this_ty)
            if is_const and this_ty == T.INT and init is not None:
                value = self._try_fold_int(init)
                if value is not None:
                    self.scope.declare_const_int(name, value)
            declarators.append(ast.Declarator(name=name, ty=this_ty, init=init))
            if not self.accept(","):
                break
        return ast.DeclStmt(line=line, declarators=declarators, is_const=is_const)

    def _expr_or_assign_stmt(self) -> ast.Stmt:
        line = self.peek().line
        expr = self._expression()
        tok = self.peek()
        if tok.text in _ASSIGN_OPS:
            if not isinstance(expr, ast.LValue):
                raise ParseError("invalid assignment target", tok.line, tok.col)
            op = self.advance().text
            value = self._expression()
            if op == "=" and expr.ty is not None:
                value = self._coerce(value, expr.ty)
            return ast.AssignStmt(line=line, target=expr, op=op, value=value)
        return ast.ExprStmt(line=line, expr=expr)

    def _if_stmt(self) -> ast.IfStmt:
        line = self.peek().line
        self.expect("if")
        self.expect("(")
        cond = self._expression()
        self.expect(")")
        then_body = self._stmt_as_block()
        else_body: Optional[ast.BlockStmt] = None
        if self.accept("else"):
            else_body = self._stmt_as_block()
        return ast.IfStmt(line=line, cond=cond, then_body=then_body, else_body=else_body)

    def _stmt_as_block(self) -> ast.BlockStmt:
        if self.check("{"):
            return self._block()
        stmt = self._statement()
        return ast.BlockStmt(line=stmt.line, body=[stmt])

    def _for_stmt(self) -> ast.ForStmt:
        line = self.peek().line
        self.expect("for")
        self.expect("(")
        outer = self.scope
        self.scope = _Scope(outer)
        init: Optional[ast.Stmt] = None
        if not self.check(";"):
            if self._starts_declaration():
                init = self._decl_stmt()
            else:
                init = self._expr_or_assign_stmt()
        self.expect(";")
        cond = None if self.check(";") else self._expression()
        self.expect(";")
        step = None if self.check(")") else self._expr_or_assign_stmt()
        self.expect(")")
        body = self._stmt_as_block()
        self.scope = outer
        return ast.ForStmt(line=line, init=init, cond=cond, step=step, body=body)

    def _while_stmt(self) -> ast.WhileStmt:
        line = self.peek().line
        self.expect("while")
        self.expect("(")
        cond = self._expression()
        self.expect(")")
        body = self._stmt_as_block()
        return ast.WhileStmt(line=line, cond=cond, body=body)

    def _do_while_stmt(self) -> ast.DoWhileStmt:
        line = self.peek().line
        self.expect("do")
        body = self._stmt_as_block()
        self.expect("while")
        self.expect("(")
        cond = self._expression()
        self.expect(")")
        self.expect(";")
        if cond.ty != T.BOOL:
            raise ParseError("do/while condition must be bool", line)
        return ast.DoWhileStmt(line=line, cond=cond, body=body)

    def _switch_stmt(self) -> ast.SwitchStmt:
        line = self.peek().line
        self.expect("switch")
        self.expect("(")
        cond = self._expression()
        self.expect(")")
        if cond.ty not in (T.INT, T.UINT):
            raise ParseError("switch scrutinee must be an integer", line)
        self.expect("{")
        outer = self.scope
        self.scope = _Scope(outer)
        cases: List[ast.SwitchCase] = []
        seen_values: set = set()
        seen_default = False
        while not self.check("}"):
            tok = self.peek()
            if tok.kind is _EOF:
                raise ParseError("unterminated switch statement", line)
            if tok.text == "case":
                self.advance()
                value = self._const_int()
                self.expect(":")
                if value in seen_values:
                    raise ParseError(f"duplicate case label {value}",
                                     tok.line, tok.col)
                seen_values.add(value)
                if cases and not cases[-1].body:
                    # `case 1: case 2:` — merge labels into one group.
                    if cases[-1].values is not None:
                        cases[-1].values.append(value)
                        continue
                cases.append(ast.SwitchCase(values=[value], line=tok.line))
                continue
            if tok.text == "default":
                self.advance()
                self.expect(":")
                if seen_default:
                    raise ParseError("duplicate default label",
                                     tok.line, tok.col)
                seen_default = True
                cases.append(ast.SwitchCase(values=None, line=tok.line))
                continue
            if not cases:
                raise ParseError("statement before first case label in switch",
                                 tok.line, tok.col)
            cases[-1].body.append(self._statement())
        self.expect("}")
        self.scope = outer
        return ast.SwitchStmt(line=line, cond=cond, cases=cases)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _expression(self, min_prec: int = 0) -> ast.Expr:
        """An expression whose binary operators bind at least *min_prec*.

        An operand, then each binary operator of precedence *min_prec* or
        higher with a right operand that binds tighter than it, so equal
        precedences associate left.  At precedence 0 a ``?`` then makes the
        whole the condition of a right-associative ``?:``.
        """
        left = self._unary()
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            prec = _BIN_PREC.get(tok.text)
            if prec is None or prec < min_prec:
                break
            self.pos += 1
            right = self._expression(prec + 1)
            ty, left, right = self._binary_type(tok.text, left, right, tok.line)
            left = ast.Binary(line=tok.line, ty=ty, op=tok.text, left=left, right=right)
        if min_prec or tok.text != "?":
            return left
        self.pos += 1
        then = self._expression()
        self.expect(":")
        otherwise = self._expression()
        then, otherwise = self._unify(then, otherwise)
        return ast.Ternary(line=left.line, ty=then.ty, cond=left, then=then,
                           otherwise=otherwise)

    def _unary(self) -> ast.Expr:
        """Prefix operators, then a primary and its postfix operators."""
        tokens = self.tokens
        tok = tokens[self.pos]
        text = tok.text
        if text in _PREFIX_OPS:
            self.pos += 1
            operand = self._unary()
            if text == "+":
                return operand
            ty = operand.ty
            if text == "!" and ty != T.BOOL:
                raise ParseError("operator ! requires a bool operand", tok.line, tok.col)
            return ast.Unary(line=tok.line, ty=ty, op=text, operand=operand)
        kind = tok.kind
        expr: ast.Expr
        if kind is _IDENT:
            if tokens[self.pos + 1].text == "(":
                expr = self._call()
            else:
                self.pos += 1
                ty = self.scope.lookup(text)
                if ty is None:
                    raise ParseError(f"undeclared identifier {text!r}", tok.line, tok.col)
                expr = ast.Ident(line=tok.line, ty=ty, name=text)
        elif kind is _FLOAT:
            self.pos += 1
            expr = ast.FloatLit(line=tok.line, ty=T.FLOAT, value=float(text.rstrip("fF")))
        elif kind is _INT:
            self.pos += 1
            expr = ast.IntLit(line=tok.line, ty=T.INT, value=parse_int_literal(text))
        elif kind is _BOOL:
            self.pos += 1
            expr = ast.BoolLit(line=tok.line, ty=T.BOOL, value=text == "true")
        elif text == "(":
            self.pos += 1
            expr = self._expression()
            self.expect(")")
        elif kind is _TYPE:
            expr = self._constructor_or_array_literal()
        else:
            raise ParseError(f"unexpected token {text!r} in expression", tok.line, tok.col)
        while True:
            tok = tokens[self.pos]
            text = tok.text
            if text not in _POSTFIX_OPS:
                return expr
            self.pos += 1
            if text == "[":
                index = self._expression()
                self.expect("]")
                expr = ast.Index(line=tok.line, ty=self._index_type(expr, tok),
                                 base=expr, index=index)
            elif text == ".":
                name = self.expect_ident().text
                expr = ast.Member(line=tok.line, ty=self._member_type(expr, name, tok),
                                  base=expr, name=name)
            else:
                expr = ast.Unary(line=tok.line, ty=expr.ty, op=text,
                                 operand=expr, postfix=True)

    def _constructor_or_array_literal(self) -> ast.Expr:
        tok = self.advance()
        base = T.type_from_name(tok.text)
        if self.accept("["):
            length: Optional[int] = None
            if not self.check("]"):
                length = self._const_int()
            self.expect("]")
            self.expect("(")
            elements: List[ast.Expr] = []
            if not self.check(")"):
                while True:
                    elements.append(self._coerce(self._expression(), base))
                    if not self.accept(","):
                        break
            self.expect(")")
            if length is not None and length != len(elements):
                raise ParseError(
                    f"array literal has {len(elements)} elements, expected {length}",
                    tok.line, tok.col)
            return ast.ArrayLiteral(line=tok.line, ty=T.Array(base, len(elements)),
                                    element_type=base, elements=elements)
        self.expect("(")
        args: List[ast.Expr] = []
        if not self.check(")"):
            while True:
                args.append(self._expression())
                if not self.accept(","):
                    break
        self.expect(")")
        self._check_constructor(base, args, tok)
        return ast.Call(line=tok.line, ty=base, callee=tok.text, args=args,
                        is_constructor=True)

    def _check_constructor(self, ty: T.GLSLType, args: List[ast.Expr], tok: Token) -> None:
        if isinstance(ty, T.Sampler):
            raise ParseError("cannot construct a sampler", tok.line, tok.col)
        if not args:
            raise ParseError(f"constructor {ty}() requires arguments", tok.line, tok.col)
        provided = 0
        for arg in args:
            if arg.ty is None or isinstance(arg.ty, (T.Sampler, T.Array, T.Void)):
                raise ParseError(f"invalid constructor argument for {ty}", tok.line, tok.col)
            provided += T.component_count(arg.ty)
        needed = T.component_count(ty)
        if isinstance(ty, T.Scalar):
            return  # scalar cast takes the first component
        if isinstance(ty, T.Matrix) and len(args) == 1 and isinstance(args[0].ty, T.Scalar):
            return  # diagonal constructor mat4(1.0)
        if isinstance(ty, T.Matrix) and len(args) == 1 and isinstance(args[0].ty, T.Matrix):
            return  # matrix from matrix
        if provided == 1:
            return  # splat constructor vec4(0.0)
        if provided < needed:
            raise ParseError(
                f"constructor {ty} needs {needed} components, got {provided}",
                tok.line, tok.col)

    def _call(self) -> ast.Expr:
        name_tok = self.advance()
        name = name_tok.text
        self.expect("(")
        args: List[ast.Expr] = []
        if not self.check(")"):
            while True:
                args.append(self._expression())
                if not self.accept(","):
                    break
        self.expect(")")
        arg_types = [a.ty for a in args]
        if any(t is None for t in arg_types):
            raise ParseError(f"untyped argument to {name}()", name_tok.line, name_tok.col)
        if name in self.structs:
            struct_ty = self.structs[name]
            if len(args) != len(struct_ty.fields):
                raise ParseError(
                    f"constructor {name}() expects {len(struct_ty.fields)} "
                    f"arguments, got {len(args)}",
                    name_tok.line, name_tok.col)
            args = [self._coerce(a, fty)
                    for a, (_, fty) in zip(args, struct_ty.fields)]
            return ast.Call(line=name_tok.line, ty=struct_ty, callee=name,
                            args=args, is_constructor=True)
        if name in self.functions:
            ret, params = self.functions[name]
            if len(args) != len(params):
                raise ParseError(
                    f"{name}() expects {len(params)} arguments, got {len(args)}",
                    name_tok.line, name_tok.col)
            args = [self._coerce(a, p.ty) for a, p in zip(args, params)]
            return ast.Call(line=name_tok.line, ty=ret, callee=name, args=args)
        if is_builtin(name):
            try:
                ret = resolve_builtin(name, [a.ty for a in args])  # type: ignore[misc]
            except TypeError_ as exc:
                raise ParseError(str(exc), name_tok.line, name_tok.col)
            return ast.Call(line=name_tok.line, ty=ret, callee=name, args=args)
        raise ParseError(f"call to undeclared function {name!r}",
                         name_tok.line, name_tok.col)

    # ------------------------------------------------------------------
    # Type inference helpers
    # ------------------------------------------------------------------

    def _coerce(self, expr: ast.Expr, target: T.GLSLType) -> ast.Expr:
        """Insert an implicit int->float conversion where GLSL allows one."""
        if expr.ty == target or expr.ty is None:
            return expr
        if T.can_implicitly_convert(expr.ty, target):
            conv = ast.Call(line=expr.line, ty=target, callee=str(target),
                            args=[expr], is_constructor=True)
            return conv
        # Scalar float broadcasting into a vector initializer is *not*
        # implicit in GLSL, so anything else is a real error.
        raise ParseError(f"cannot convert {expr.ty} to {target}", expr.line)

    def _unify(self, a: ast.Expr, b: ast.Expr) -> Tuple[ast.Expr, ast.Expr]:
        if a.ty == b.ty:
            return a, b
        if a.ty is not None and b.ty is not None:
            if T.can_implicitly_convert(a.ty, b.ty):
                return self._coerce(a, b.ty), b
            if T.can_implicitly_convert(b.ty, a.ty):
                return a, self._coerce(b, a.ty)
        raise ParseError(f"mismatched ternary branches: {a.ty} vs {b.ty}", a.line)

    def _binary_type(
        self, op: str, left: ast.Expr, right: ast.Expr, line: int
    ) -> Tuple[T.GLSLType, ast.Expr, ast.Expr]:
        lt, rt = left.ty, right.ty
        if lt is None or rt is None:
            raise ParseError("untyped operand", line)

        if op in ("&&", "||", "^^"):
            if lt != T.BOOL or rt != T.BOOL:
                raise ParseError(f"operator {op} requires bool operands", line)
            return T.BOOL, left, right

        if op in ("==", "!="):
            left, right = self._unify(left, right)
            return T.BOOL, left, right

        if op in ("<", ">", "<=", ">="):
            left, right = self._unify(left, right)
            if not isinstance(left.ty, T.Scalar):
                raise ParseError(f"operator {op} requires scalar operands", line)
            return T.BOOL, left, right

        if op == "%":
            if lt != T.INT or rt != T.INT:
                raise ParseError("operator % requires int operands", line)
            return T.INT, left, right

        # Arithmetic: +, -, *, /
        return self._arith_type(op, left, right, line)

    def _arith_type(
        self, op: str, left: ast.Expr, right: ast.Expr, line: int
    ) -> Tuple[T.GLSLType, ast.Expr, ast.Expr]:
        lt, rt = left.ty, right.ty
        assert lt is not None and rt is not None

        # Matrix algebra first (float-based only).
        if isinstance(lt, T.Matrix) or isinstance(rt, T.Matrix):
            if op == "*":
                if isinstance(lt, T.Matrix) and isinstance(rt, T.Matrix):
                    if lt.size != rt.size:
                        raise ParseError("matrix size mismatch", line)
                    return lt, left, right
                if isinstance(lt, T.Matrix) and isinstance(rt, T.Vector):
                    if rt.size != lt.size:
                        raise ParseError("matrix*vector size mismatch", line)
                    return rt, left, right
                if isinstance(lt, T.Vector) and isinstance(rt, T.Matrix):
                    if lt.size != rt.size:
                        raise ParseError("vector*matrix size mismatch", line)
                    return lt, left, right
            # mat op scalar / mat +- mat are component-wise
            if isinstance(lt, T.Matrix) and isinstance(rt, T.Matrix):
                if lt != rt:
                    raise ParseError("matrix size mismatch", line)
                return lt, left, right
            mat = lt if isinstance(lt, T.Matrix) else rt
            other = rt if isinstance(lt, T.Matrix) else lt
            if isinstance(other, T.Scalar):
                if other.kind != T.ScalarKind.FLOAT:
                    if other is rt:
                        right = self._coerce(right, T.FLOAT)
                    else:
                        left = self._coerce(left, T.FLOAT)
                return mat, left, right
            raise ParseError(f"invalid matrix operand types {lt} {op} {rt}", line)

        # Promote mixed int/float scalars and vectors.
        lk = T.scalar_kind_of(lt)
        rk = T.scalar_kind_of(rt)
        if lk == T.ScalarKind.BOOL or rk == T.ScalarKind.BOOL:
            raise ParseError(f"arithmetic on bool operands", line)
        if lk != rk:
            if lk in (T.ScalarKind.INT, T.ScalarKind.UINT) and rk == T.ScalarKind.FLOAT:
                left = self._coerce(left, _float_like(lt))
            elif rk in (T.ScalarKind.INT, T.ScalarKind.UINT) and lk == T.ScalarKind.FLOAT:
                right = self._coerce(right, _float_like(rt))
            else:
                raise ParseError(f"mixed operand kinds {lt} {op} {rt}", line)
            lt, rt = left.ty, right.ty
            assert lt is not None and rt is not None

        if isinstance(lt, T.Scalar) and isinstance(rt, T.Scalar):
            return lt, left, right
        if isinstance(lt, T.Vector) and isinstance(rt, T.Vector):
            if lt.size != rt.size:
                raise ParseError(f"vector size mismatch {lt} {op} {rt}", line)
            return lt, left, right
        if isinstance(lt, T.Vector) and isinstance(rt, T.Scalar):
            return lt, left, right
        if isinstance(lt, T.Scalar) and isinstance(rt, T.Vector):
            return rt, left, right
        raise ParseError(f"invalid operand types {lt} {op} {rt}", line)

    def _index_type(self, base: ast.Expr, tok: Token) -> T.GLSLType:
        ty = base.ty
        if isinstance(ty, T.Array):
            return ty.element
        if isinstance(ty, T.Vector):
            return T.Scalar(ty.kind)
        if isinstance(ty, T.Matrix):
            return ty.column_type
        raise ParseError(f"type {ty} is not indexable", tok.line, tok.col)

    def _member_type(self, base: ast.Expr, name: str, tok: Token) -> T.GLSLType:
        """Type of ``base.name`` — struct field access or vector swizzle."""
        if isinstance(base.ty, T.Struct):
            try:
                return base.ty.field_type(name)
            except TypeError_ as exc:
                raise ParseError(str(exc), tok.line, tok.col)
        return self._swizzle_type(base, name, tok)

    def _swizzle_type(self, base: ast.Expr, name: str, tok: Token) -> T.GLSLType:
        ty = base.ty
        if not isinstance(ty, T.Vector):
            raise ParseError(f"swizzle on non-vector type {ty}", tok.line, tok.col)
        if not 1 <= len(name) <= 4:
            raise ParseError(f"invalid swizzle {name!r}", tok.line, tok.col)
        for charset in _SWIZZLE_SETS:
            if all(c in charset for c in name):
                if any(charset.index(c) >= ty.size for c in name):
                    raise ParseError(
                        f"swizzle {name!r} out of range for {ty}", tok.line, tok.col)
                return T.vector_of(ty.kind, len(name))
        raise ParseError(f"invalid swizzle {name!r}", tok.line, tok.col)


#: Statement parsers by leading token; any other statement is a declaration
#: or an expression.
_STATEMENTS = {
    "{": _Parser._block,
    "if": _Parser._if_stmt,
    "for": _Parser._for_stmt,
    "while": _Parser._while_stmt,
    "do": _Parser._do_while_stmt,
    "switch": _Parser._switch_stmt,
    "return": _Parser._return_stmt,
    "discard": _Parser._jump_stmt,
    "break": _Parser._jump_stmt,
    "continue": _Parser._jump_stmt,
}

_JUMPS = {"discard": ast.DiscardStmt, "break": ast.BreakStmt,
          "continue": ast.ContinueStmt}


def swizzle_indices(name: str) -> List[int]:
    """Map a swizzle string like ``"xzy"`` to component indices ``[0, 2, 1]``."""
    for charset in _SWIZZLE_SETS:
        if all(c in charset for c in name):
            return [charset.index(c) for c in name]
    raise ParseError(f"invalid swizzle {name!r}")
