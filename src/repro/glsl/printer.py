"""Render a GLSL AST back to source text.

The printer produces canonical formatting (4-space indents, one statement per
line, minimal parentheses driven by precedence), so printing also serves as a
normalizer: two ASTs print equal iff they are structurally identical.
"""

from __future__ import annotations

from typing import List, Optional

from repro.glsl import ast
from repro.glsl import types as T

_PREC = {
    "||": 1, "^^": 2, "&&": 3,
    "==": 4, "!=": 4,
    "<": 5, ">": 5, "<=": 5, ">=": 5,
    "+": 6, "-": 6,
    "*": 7, "/": 7, "%": 7,
}
_UNARY_PREC = 8


def print_shader(shader: ast.Shader) -> str:
    """Render *shader* to GLSL source."""
    lines: List[str] = []
    if shader.version:
        lines.append(f"#version {shader.version}")
    for struct in shader.structs:
        lines.extend(_struct_decl(struct))
    for decl in shader.globals:
        lines.append(_global_decl(decl))
    for fn in shader.functions:
        lines.append("")
        lines.extend(_function(fn))
    return "\n".join(lines) + "\n"


def format_float(value: float) -> str:
    """GLSL float literal: always contains a decimal point or exponent."""
    if value != value:  # NaN guard; GLSL has no NaN literal
        return "(0.0 / 0.0)"
    if value in (float("inf"), float("-inf")):
        return "(1.0 / 0.0)" if value > 0 else "(-1.0 / 0.0)"
    text = repr(float(value))
    if "e" in text or "E" in text or "." in text:
        return text
    return text + ".0"


def _struct_decl(decl: ast.StructDecl) -> List[str]:
    lines = [f"struct {decl.name}", "{"]
    for field_name, field_ty in decl.ty.fields:
        ty, suffix = _split_array(field_ty)
        lines.append(f"    {ty} {field_name}{suffix};")
    lines.append("};")
    return lines


def _global_decl(decl: ast.GlobalDecl) -> str:
    qual = f"{decl.qualifier} " if decl.qualifier else ""
    ty, suffix = _split_array(decl.ty)
    init = f" = {print_expr(decl.init)}" if decl.init is not None else ""
    return f"{qual}{ty} {decl.name}{suffix}{init};"


def _split_array(ty: T.GLSLType):
    if isinstance(ty, T.Array):
        length = "" if ty.length is None else str(ty.length)
        return str(ty.element), f"[{length}]"
    return str(ty), ""


def _function(fn: ast.FunctionDef) -> List[str]:
    params = ", ".join(
        (f"{p.qualifier} " if p.qualifier != "in" else "") + f"{p.ty} {p.name}"
        for p in fn.params
    )
    lines = [f"{fn.return_type} {fn.name}({params})"]
    lines.extend(_block(fn.body, 0))
    return lines


def _block(block: ast.BlockStmt, indent: int) -> List[str]:
    pad = "    " * indent
    lines = [pad + "{"]
    for stmt in block.body:
        lines.extend(_stmt(stmt, indent + 1))
    lines.append(pad + "}")
    return lines


def _stmt(stmt: ast.Stmt, indent: int) -> List[str]:
    pad = "    " * indent
    if isinstance(stmt, ast.BlockStmt):
        return _block(stmt, indent)
    if isinstance(stmt, ast.DeclStmt):
        prefix = "const " if stmt.is_const else ""
        parts = []
        for decl in stmt.declarators:
            ty, suffix = _split_array(decl.ty)
            init = f" = {print_expr(decl.init)}" if decl.init is not None else ""
            parts.append(f"{prefix}{ty} {decl.name}{suffix}{init};")
        return [pad + " ".join(parts)]
    if isinstance(stmt, ast.AssignStmt):
        return [pad + f"{print_expr(stmt.target)} {stmt.op} {print_expr(stmt.value)};"]
    if isinstance(stmt, ast.ExprStmt):
        return [pad + f"{print_expr(stmt.expr)};"]
    if isinstance(stmt, ast.IfStmt):
        lines = [pad + f"if ({print_expr(stmt.cond)})"]
        lines.extend(_block(stmt.then_body, indent))
        if stmt.else_body is not None:
            lines.append(pad + "else")
            lines.extend(_block(stmt.else_body, indent))
        return lines
    if isinstance(stmt, ast.ForStmt):
        init = _inline_stmt(stmt.init)
        cond = print_expr(stmt.cond) if stmt.cond is not None else ""
        step = _inline_stmt(stmt.step)
        lines = [pad + f"for ({init}; {cond}; {step})"]
        lines.extend(_block(stmt.body, indent))
        return lines
    if isinstance(stmt, ast.WhileStmt):
        lines = [pad + f"while ({print_expr(stmt.cond)})"]
        lines.extend(_block(stmt.body, indent))
        return lines
    if isinstance(stmt, ast.DoWhileStmt):
        lines = [pad + "do"]
        lines.extend(_block(stmt.body, indent))
        lines.append(pad + f"while ({print_expr(stmt.cond)});")
        return lines
    if isinstance(stmt, ast.SwitchStmt):
        lines = [pad + f"switch ({print_expr(stmt.cond)})", pad + "{"]
        for case in stmt.cases:
            if case.values is None:
                lines.append(pad + "default:")
            else:
                for value in case.values:
                    lines.append(pad + f"case {value}:")
            for inner in case.body:
                lines.extend(_stmt(inner, indent + 1))
        lines.append(pad + "}")
        return lines
    if isinstance(stmt, ast.ReturnStmt):
        if stmt.value is None:
            return [pad + "return;"]
        return [pad + f"return {print_expr(stmt.value)};"]
    if isinstance(stmt, ast.BreakStmt):
        return [pad + "break;"]
    if isinstance(stmt, ast.ContinueStmt):
        return [pad + "continue;"]
    if isinstance(stmt, ast.DiscardStmt):
        return [pad + "discard;"]
    raise TypeError(f"unknown statement node {type(stmt).__name__}")


def _inline_stmt(stmt: Optional[ast.Stmt]) -> str:
    if stmt is None:
        return ""
    rendered = _stmt(stmt, 0)
    return rendered[0].rstrip(";")


def print_expr(expr: Optional[ast.Expr], parent_prec: int = 0) -> str:
    """Render an expression with minimal parentheses."""
    if expr is None:
        return ""
    if isinstance(expr, ast.FloatLit):
        return format_float(expr.value)
    if isinstance(expr, ast.IntLit):
        return str(expr.value)
    if isinstance(expr, ast.BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, ast.Ident):
        return expr.name
    if isinstance(expr, ast.Binary):
        prec = _PREC[expr.op]
        left = print_expr(expr.left, prec)
        right = print_expr(expr.right, prec + 1)
        text = f"{left} {expr.op} {right}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(expr, ast.Unary):
        inner = print_expr(expr.operand, _UNARY_PREC)
        if expr.postfix:
            text = f"{inner}{expr.op}"
        else:
            # `-(-u)` must not print as `--u`, a pre-decrement.
            if expr.op[-1] in "+-" and inner.startswith(expr.op[-1]):
                inner = f"({inner})"
            text = f"{expr.op}{inner}"
        return f"({text})" if _UNARY_PREC < parent_prec else text
    if isinstance(expr, ast.Ternary):
        text = (f"{print_expr(expr.cond, 1)} ? {print_expr(expr.then)}"
                f" : {print_expr(expr.otherwise)}")
        return f"({text})"
    if isinstance(expr, ast.Call):
        args = ", ".join(print_expr(a) for a in expr.args)
        return f"{expr.callee}({args})"
    if isinstance(expr, ast.ArrayLiteral):
        elems = ", ".join(print_expr(e) for e in expr.elements)
        return f"{expr.element_type}[]({elems})"
    if isinstance(expr, ast.Index):
        return f"{print_expr(expr.base, _UNARY_PREC + 1)}[{print_expr(expr.index)}]"
    if isinstance(expr, ast.Member):
        return f"{print_expr(expr.base, _UNARY_PREC + 1)}.{expr.name}"
    raise TypeError(f"unknown expression node {type(expr).__name__}")
