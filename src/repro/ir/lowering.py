"""AST -> IR lowering, reproducing LunarGlass's source-to-source artifacts.

Design notes
------------
- **Full inlining.**  Every user-function call is inlined (GPU shader
  compilers do the same); ``return`` anywhere in a callee is supported via a
  return slot plus a continuation block.
- **Matrix scalarization artifact.**  The IR has no matrix type: a ``matN``
  becomes N column-vector values, and matrix algebra expands into per-column
  multiply/add chains — "tens of lines worth of scalarized calculations"
  (paper Section III-C-a).
- **Unnecessary vectorization artifact.**  ``vec * float`` splats the scalar
  into a vector (Construct) before the multiply, exactly like LLVM-based
  LunarGlass (Section III-C-b).
- **Single exit.**  ``main`` gets one exit block holding the StoreOutputs and
  Ret; early returns branch to it, ``discard`` terminates directly.
- Local scalars/vectors become slots (promoted by mem2reg); arrays stay as
  slots with LoadElem/StoreElem; ``const`` arrays carry their initializer for
  later constant folding.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import LoweringError
from repro.glsl import ast
from repro.glsl import types as T
from repro.glsl.builtins import TEXTURE_BUILTINS
from repro.glsl.introspect import shader_interface
from repro.glsl.parser import swizzle_indices
from repro.ir.builder import IRBuilder
from repro.ir.instructions import Phi
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import IRType
from repro.ir.values import Constant, Slot, Undef, Value

#: A lowered matrix rvalue: a list of column-vector Values.
MatrixVal = List[Value]
LoweredVal = Union[Value, MatrixVal]

_GEN_BUILTINS_SPLAT = frozenset(
    {
        "pow", "mod", "min", "max", "clamp", "mix", "step", "smoothstep",
        "atan",
    }
)


def ir_type(ty: T.GLSLType) -> IRType:
    """Map a GLSL scalar/vector type to an IR type."""
    if isinstance(ty, T.Scalar):
        return IRType(_kind(ty.kind), 1)
    if isinstance(ty, T.Vector):
        return IRType(_kind(ty.kind), ty.size)
    raise LoweringError(f"type {ty} has no direct IR equivalent")


def _kind(kind: T.ScalarKind) -> str:
    if kind == T.ScalarKind.FLOAT:
        return "float"
    if kind in (T.ScalarKind.INT, T.ScalarKind.UINT):
        return "int"
    return "bool"


class _Binding:
    """Base class for name bindings in the lowering environment."""


class _SlotBinding(_Binding):
    def __init__(self, slot: Slot):
        self.slot = slot


class _ArrayBinding(_Binding):
    def __init__(self, slot: Slot, element_ty: T.GLSLType):
        self.slot = slot
        self.element_ty = element_ty


class _MatrixBinding(_Binding):
    def __init__(self, columns: List[Slot], size: int):
        self.columns = columns
        self.size = size


class _UniformBinding(_Binding):
    def __init__(self, name: str, ty: T.GLSLType):
        self.name = name
        self.ty = ty


class _InputBinding(_Binding):
    def __init__(self, name: str, ty: T.GLSLType):
        self.name = name
        self.ty = ty


class _SamplerBinding(_Binding):
    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind


class _ConstBinding(_Binding):
    def __init__(self, value: Constant):
        self.value = value


def lower_shader(shader: ast.Shader, version: Optional[str] = None) -> Module:
    """Lower a parsed fragment shader into an IR module."""
    return _Lowerer(shader).lower(version)


class _Lowerer:
    def __init__(self, shader: ast.Shader):
        self.shader = shader
        self.interface = shader_interface(shader)
        self.function = Function("main")
        self.builder = IRBuilder(self.function)
        self.env: Dict[str, _Binding] = {}
        self.output_slots: Dict[str, Slot] = {}
        self.loop_stack: List[Tuple[BasicBlock, BasicBlock]] = []  # (continue, break)
        self._inline_depth = 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def lower(self, version: Optional[str]) -> Module:
        main = self.shader.function("main")
        if main is None:
            raise LoweringError("shader has no main()")

        entry = self.builder.new_block("entry")
        self.builder.set_block(entry)
        self._bind_globals()

        self._lower_block(main.body)
        if not self.builder.terminated:
            self._emit_return()

        self.function.remove_unreachable_blocks()
        return Module(self.function, self.interface, version)

    def _emit_return(self) -> None:
        """Store every output variable and return (one per return site)."""
        for out in self.interface.outputs:
            slot = self.output_slots[out.name]
            value = self.builder.load_var(slot)
            self.builder.store_output(out.name, value)
        self.builder.ret()

    # ------------------------------------------------------------------
    # Globals
    # ------------------------------------------------------------------

    def _bind_globals(self) -> None:
        for decl in self.shader.globals:
            if decl.qualifier == "uniform":
                base = decl.ty
                if isinstance(base, T.Sampler):
                    self.env[decl.name] = _SamplerBinding(decl.name, base.name)
                else:
                    self.env[decl.name] = _UniformBinding(decl.name, base)
            elif decl.qualifier == "in":
                self.env[decl.name] = _InputBinding(decl.name, decl.ty)
            elif decl.qualifier == "out":
                slot = self._make_slot(decl.name, decl.ty)
                if isinstance(slot, Slot) and not slot.is_array:
                    zero = Constant.splat(slot.ty, 0.0 if slot.ty.kind == "float" else 0)
                    self.builder.store_var(slot, zero)
                self.output_slots[decl.name] = slot  # type: ignore[assignment]
                self.env[decl.name] = _SlotBinding(slot)  # type: ignore[arg-type]
            elif decl.qualifier == "const" or decl.qualifier is None:
                if decl.init is None:
                    raise LoweringError(f"global {decl.name} lacks an initializer")
                self._bind_const_global(decl)

    def _bind_const_global(self, decl: ast.GlobalDecl) -> None:
        if isinstance(decl.ty, T.Array):
            values = [self._const_eval(e) for e in decl.init.elements]  # type: ignore[union-attr]
            slot = Slot(decl.name, ir_type(decl.ty.element), len(values))
            slot.const_init = tuple(values)
            self.function.new_slot(slot)
            self.env[decl.name] = _ArrayBinding(slot, decl.ty.element)
        else:
            self.env[decl.name] = _ConstBinding(self._const_eval(decl.init))

    def _make_slot(self, name: str, ty: T.GLSLType) -> Union[Slot, List[Slot]]:
        if isinstance(ty, T.Array):
            slot = Slot(name, ir_type(ty.element), ty.length or 0)
            return self.function.new_slot(slot)
        if isinstance(ty, T.Matrix):
            cols = [
                self.function.new_slot(
                    Slot(f"{name}.col{i}", IRType("float", ty.size)))
                for i in range(ty.size)
            ]
            return cols  # type: ignore[return-value]
        return self.function.new_slot(Slot(name, ir_type(ty)))

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _lower_block(self, block: ast.BlockStmt) -> None:
        # A declaration is visible to the end of its block: the bindings it
        # shadowed come back when the block ends.
        saved_env = dict(self.env)
        for stmt in block.body:
            if self.builder.terminated:
                # Code after return/discard/break is unreachable; skip it the
                # way LLVM's reader drops trailing dead statements.
                break
            self._lower_stmt(stmt)
        self.env = saved_env

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.BlockStmt):
            self._lower_block(stmt)
        elif isinstance(stmt, ast.DeclStmt):
            self._lower_decl(stmt)
        elif isinstance(stmt, ast.AssignStmt):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._lower_expr(stmt.expr)
        elif isinstance(stmt, ast.IfStmt):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.ForStmt):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.ReturnStmt):
            self._lower_return(stmt)
        elif isinstance(stmt, ast.BreakStmt):
            if not self.loop_stack:
                raise LoweringError("break outside loop")
            self.builder.br(self.loop_stack[-1][1])
        elif isinstance(stmt, ast.ContinueStmt):
            if not self.loop_stack:
                raise LoweringError("continue outside loop")
            self.builder.br(self.loop_stack[-1][0])
        elif isinstance(stmt, ast.DiscardStmt):
            self.builder.discard()
        else:
            raise LoweringError(f"unsupported statement {type(stmt).__name__}")

    def _lower_decl(self, stmt: ast.DeclStmt) -> None:
        for decl in stmt.declarators:
            if stmt.is_const and isinstance(decl.ty, T.Array) and decl.init is not None:
                try:
                    values = [self._const_eval(e)
                              for e in decl.init.elements]  # type: ignore[union-attr]
                except LoweringError:
                    values = None
                if values is not None:
                    slot = Slot(decl.name, ir_type(decl.ty.element), len(values))
                    slot.const_init = tuple(values)
                    self.function.new_slot(slot)
                    self.env[decl.name] = _ArrayBinding(slot, decl.ty.element)
                    continue
            binding = self._declare_local(decl.name, decl.ty)
            if decl.init is not None:
                self._store_binding(binding, decl.ty, self._lower_expr(decl.init))

    def _declare_local(self, name: str, ty: T.GLSLType) -> _Binding:
        made = self._make_slot(name, ty)
        if isinstance(ty, T.Array):
            binding: _Binding = _ArrayBinding(made, ty.element)  # type: ignore[arg-type]
        elif isinstance(ty, T.Matrix):
            binding = _MatrixBinding(made, ty.size)  # type: ignore[arg-type]
        else:
            binding = _SlotBinding(made)  # type: ignore[arg-type]
        self.env[name] = binding
        return binding

    def _store_binding(self, binding: _Binding, ty: T.GLSLType,
                       value: LoweredVal) -> None:
        if isinstance(binding, _SlotBinding):
            assert isinstance(value, Value)
            self.builder.store_var(binding.slot, value)
        elif isinstance(binding, _MatrixBinding):
            assert isinstance(value, list)
            for slot, column in zip(binding.columns, value):
                self.builder.store_var(slot, column)
        elif isinstance(binding, _ArrayBinding):
            if not isinstance(value, list):
                raise LoweringError("array initializer must be an array literal")
            for index, element in enumerate(value):
                self.builder.store_elem(binding.slot, Constant.int_(index), element)
        else:
            raise LoweringError("cannot assign to this binding")

    def _lower_assign(self, stmt: ast.AssignStmt) -> None:
        target = stmt.target
        assert target is not None and stmt.value is not None
        if stmt.op == "=":
            value = self._lower_expr(stmt.value)
        else:
            op = {"+=": "add", "-=": "sub", "*=": "mul", "/=": "div"}[stmt.op]
            current = self._lower_expr(target)
            rhs = self._lower_expr(stmt.value)
            value = self._emit_arith(op, current, rhs, target.ty, stmt.value.ty)
        self._store_lvalue(target, value)

    # -- lvalues ------------------------------------------------------------

    def _store_lvalue(self, target: ast.Expr, value: LoweredVal) -> None:
        if isinstance(target, ast.Ident):
            binding = self.env.get(target.name)
            if binding is None:
                raise LoweringError(f"assignment to unknown name {target.name}")
            if isinstance(binding, (_UniformBinding, _InputBinding, _SamplerBinding,
                                    _ConstBinding)):
                raise LoweringError(f"cannot assign to {target.name}")
            self._store_binding(binding, target.ty, value)  # type: ignore[arg-type]
            return
        if isinstance(target, ast.Member):
            base = target.base
            assert isinstance(base, ast.Ident), "swizzle store base must be a variable"
            binding = self.env.get(base.name)
            if not isinstance(binding, _SlotBinding):
                raise LoweringError(f"cannot swizzle-store to {base.name}")
            indices = swizzle_indices(target.name)
            current = self.builder.load_var(binding.slot)
            assert isinstance(value, Value)
            if len(indices) == 1:
                current = self.builder.insert(current, value, indices[0])
            else:
                for lane, component in enumerate(indices):
                    scalar = self.builder.extract(value, lane)
                    current = self.builder.insert(current, scalar, component)
            self.builder.store_var(binding.slot, current)
            return
        if isinstance(target, ast.Index):
            base = target.base
            index = self._lower_expr(target.index)
            assert isinstance(index, Value)
            if isinstance(base, ast.Ident):
                binding = self.env.get(base.name)
                if isinstance(binding, _ArrayBinding):
                    if binding.slot.const_init is not None:
                        raise LoweringError(f"cannot assign to const array {base.name}")
                    assert isinstance(value, Value)
                    self.builder.store_elem(binding.slot, index, value)
                    return
                if isinstance(binding, _SlotBinding) and binding.slot.ty.is_vector:
                    if not isinstance(index, Constant):
                        raise LoweringError(
                            "dynamic index store into a vector is unsupported")
                    current = self.builder.load_var(binding.slot)
                    assert isinstance(value, Value)
                    current = self.builder.insert(current, value, int(index.value))
                    self.builder.store_var(binding.slot, current)
                    return
                if isinstance(binding, _MatrixBinding):
                    if not isinstance(index, Constant):
                        raise LoweringError("dynamic matrix column store unsupported")
                    assert isinstance(value, Value)
                    self.builder.store_var(binding.columns[int(index.value)], value)
                    return
            raise LoweringError("unsupported indexed assignment target")
        raise LoweringError(f"unsupported assignment target {type(target).__name__}")

    # -- control flow -------------------------------------------------------

    def _lower_if(self, stmt: ast.IfStmt) -> None:
        cond = self._lower_expr(stmt.cond)
        assert isinstance(cond, Value)
        then_block = self.builder.new_block("if.then")
        merge_block = self.builder.new_block("if.end")
        else_block = merge_block
        if stmt.else_body is not None:
            else_block = self.builder.new_block("if.else")
        self.builder.cond_br(cond, then_block, else_block)

        self.builder.set_block(then_block)
        self._lower_block(stmt.then_body)
        if not self.builder.terminated:
            self.builder.br(merge_block)

        if stmt.else_body is not None:
            self.builder.set_block(else_block)
            self._lower_block(stmt.else_body)
            if not self.builder.terminated:
                self.builder.br(merge_block)

        self.builder.set_block(merge_block)

    def _lower_for(self, stmt: ast.ForStmt) -> None:
        saved_env = dict(self.env)  # the init's declaration ends with the loop
        if stmt.init is not None:
            self._lower_stmt(stmt.init)
        header = self.builder.new_block("for.header")
        body = self.builder.new_block("for.body")
        step = self.builder.new_block("for.step")
        exit_block = self.builder.new_block("for.end")
        self.builder.br(header)

        self.builder.set_block(header)
        if stmt.cond is not None:
            cond = self._lower_expr(stmt.cond)
            assert isinstance(cond, Value)
            self.builder.cond_br(cond, body, exit_block)
        else:
            self.builder.br(body)

        self.builder.set_block(body)
        self.loop_stack.append((step, exit_block))
        self._lower_block(stmt.body)
        self.loop_stack.pop()
        if not self.builder.terminated:
            self.builder.br(step)

        self.builder.set_block(step)
        if stmt.step is not None:
            self._lower_stmt(stmt.step)
        self.builder.br(header)

        self.builder.set_block(exit_block)
        self.env = saved_env

    def _lower_while(self, stmt: ast.WhileStmt) -> None:
        header = self.builder.new_block("while.header")
        body = self.builder.new_block("while.body")
        exit_block = self.builder.new_block("while.end")
        self.builder.br(header)

        self.builder.set_block(header)
        cond = self._lower_expr(stmt.cond)
        assert isinstance(cond, Value)
        self.builder.cond_br(cond, body, exit_block)

        self.builder.set_block(body)
        self.loop_stack.append((header, exit_block))
        self._lower_block(stmt.body)
        self.loop_stack.pop()
        if not self.builder.terminated:
            self.builder.br(header)

        self.builder.set_block(exit_block)

    def _lower_return(self, stmt: ast.ReturnStmt) -> None:
        if self._inline_depth:
            raise LoweringError(
                "return inside loops of inlined functions is unsupported")
        if stmt.value is not None:
            raise LoweringError("main() cannot return a value")
        self._emit_return()

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _lower_expr(self, expr: ast.Expr) -> LoweredVal:
        if isinstance(expr, ast.FloatLit):
            return Constant.float_(expr.value)
        if isinstance(expr, ast.IntLit):
            return Constant.int_(expr.value)
        if isinstance(expr, ast.BoolLit):
            return Constant.bool_(expr.value)
        if isinstance(expr, ast.Ident):
            return self._lower_ident(expr)
        if isinstance(expr, ast.Binary):
            return self._lower_binary(expr)
        if isinstance(expr, ast.Unary):
            return self._lower_unary(expr)
        if isinstance(expr, ast.Ternary):
            return self._lower_ternary(expr)
        if isinstance(expr, ast.Call):
            return self._lower_call(expr)
        if isinstance(expr, ast.ArrayLiteral):
            return [self._as_value(self._lower_expr(e)) for e in expr.elements]  # type: ignore[return-value]
        if isinstance(expr, ast.Index):
            return self._lower_index(expr)
        if isinstance(expr, ast.Member):
            return self._lower_member(expr)
        raise LoweringError(f"unsupported expression {type(expr).__name__}")

    def _as_value(self, val: LoweredVal) -> Value:
        if isinstance(val, list):
            raise LoweringError("matrix value in scalar/vector context")
        return val

    def _lower_ident(self, expr: ast.Ident) -> LoweredVal:
        binding = self.env.get(expr.name)
        if binding is None:
            raise LoweringError(f"unknown identifier {expr.name}")
        if isinstance(binding, _ConstBinding):
            return binding.value
        if isinstance(binding, _SlotBinding):
            return self.builder.load_var(binding.slot)
        if isinstance(binding, _MatrixBinding):
            return [self.builder.load_var(col) for col in binding.columns]
        if isinstance(binding, _InputBinding):
            return self._load_interface(expr.name, binding.ty, "input")
        if isinstance(binding, _UniformBinding):
            return self._load_interface(expr.name, binding.ty, "uniform")
        if isinstance(binding, _ArrayBinding):
            raise LoweringError(f"array {expr.name} used without an index")
        if isinstance(binding, _SamplerBinding):
            raise LoweringError(f"sampler {expr.name} used outside texture()")
        raise LoweringError(f"cannot read {expr.name}")

    def _load_interface(self, name: str, ty: T.GLSLType, kind: str) -> LoweredVal:
        if isinstance(ty, T.Matrix):
            col_ty = IRType("float", ty.size)
            return [
                self.builder.load_global(name, col_ty, kind, column=i)
                for i in range(ty.size)
            ]
        if isinstance(ty, T.Array):
            raise LoweringError(f"{kind} array {name} used without an index")
        return self.builder.load_global(name, ir_type(ty), kind)

    def _lower_binary(self, expr: ast.Binary) -> LoweredVal:
        op_map = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod"}
        assert expr.left is not None and expr.right is not None
        if expr.op in ("&&", "||", "^^"):
            lhs = self._as_value(self._lower_expr(expr.left))
            rhs = self._as_value(self._lower_expr(expr.right))
            op = {"&&": "and", "||": "or", "^^": "xor"}[expr.op]
            return self.builder.binop(op, lhs, rhs)
        if expr.op in ("==", "!=", "<", ">", "<=", ">="):
            return self._lower_compare(expr)
        if expr.op in op_map:
            lhs = self._lower_expr(expr.left)
            rhs = self._lower_expr(expr.right)
            return self._emit_arith(op_map[expr.op], lhs, rhs,
                                    expr.left.ty, expr.right.ty)
        raise LoweringError(f"unsupported binary operator {expr.op}")

    def _lower_compare(self, expr: ast.Binary) -> Value:
        op = {"==": "eq", "!=": "ne", "<": "lt", ">": "gt",
              "<=": "le", ">=": "ge"}[expr.op]
        lhs = self._as_value(self._lower_expr(expr.left))
        rhs = self._as_value(self._lower_expr(expr.right))
        if lhs.ty.is_vector:
            # Vector ==/!= reduces component-wise with and/or.
            result: Optional[Value] = None
            for lane in range(lhs.ty.width):
                a = self.builder.extract(lhs, lane)
                b = self.builder.extract(rhs, lane)
                piece = self.builder.cmp("eq" if op == "eq" else "ne", a, b)
                if result is None:
                    result = piece
                else:
                    result = self.builder.binop(
                        "and" if op == "eq" else "or", result, piece)
            assert result is not None
            return result
        return self.builder.cmp(op, lhs, rhs)

    def _emit_arith(self, op: str, lhs: LoweredVal, rhs: LoweredVal,
                    lty: Optional[T.GLSLType], rty: Optional[T.GLSLType]) -> LoweredVal:
        # Matrix algebra: scalarized (the LunarGlass artifact).
        l_is_mat = isinstance(lhs, list)
        r_is_mat = isinstance(rhs, list)
        if l_is_mat or r_is_mat:
            return self._matrix_arith(op, lhs, rhs)

        assert isinstance(lhs, Value) and isinstance(rhs, Value)
        # Kind promotion (int -> float).
        if lhs.ty.kind == "int" and rhs.ty.kind == "float":
            lhs = self.builder.convert(lhs, "float")
        elif rhs.ty.kind == "int" and lhs.ty.kind == "float":
            rhs = self.builder.convert(rhs, "float")
        # Width promotion: splat the scalar side (vectorization artifact).
        if lhs.ty.width != rhs.ty.width:
            if lhs.ty.is_scalar:
                lhs = self.builder.splat(lhs, rhs.ty.width)
            elif rhs.ty.is_scalar:
                rhs = self.builder.splat(rhs, lhs.ty.width)
            else:
                raise LoweringError(f"width mismatch {lhs.ty} vs {rhs.ty}")
        return self.builder.binop(op, lhs, rhs)

    def _matrix_arith(self, op: str, lhs: LoweredVal, rhs: LoweredVal) -> LoweredVal:
        if op == "mul":
            if isinstance(lhs, list) and isinstance(rhs, list):
                return self._mat_mat_mul(lhs, rhs)
            if isinstance(lhs, list) and isinstance(rhs, Value) and rhs.ty.is_vector:
                return self._mat_vec_mul(lhs, rhs)
            if isinstance(rhs, list) and isinstance(lhs, Value) and lhs.ty.is_vector:
                return self._vec_mat_mul(lhs, rhs)
            # matrix * scalar
            mat, scalar = (lhs, rhs) if isinstance(lhs, list) else (rhs, lhs)
            assert isinstance(mat, list) and isinstance(scalar, Value)
            splat = self.builder.splat(scalar, mat[0].ty.width)
            return [self.builder.binop("mul", col, splat) for col in mat]
        if op in ("add", "sub") and isinstance(lhs, list) and isinstance(rhs, list):
            return [self.builder.binop(op, a, b) for a, b in zip(lhs, rhs)]
        if op == "div" and isinstance(lhs, list) and isinstance(rhs, Value):
            splat = self.builder.splat(rhs, lhs[0].ty.width)
            return [self.builder.binop("div", col, splat) for col in lhs]
        raise LoweringError(f"unsupported matrix operation {op}")

    def _mat_vec_mul(self, mat: MatrixVal, vec_val: Value) -> Value:
        """m * v = sum_i(col_i * v[i]) — fully scalarized per column."""
        result: Optional[Value] = None
        for i, column in enumerate(mat):
            scalar = self.builder.extract(vec_val, i)
            splat = self.builder.splat(scalar, column.ty.width)
            term = self.builder.binop("mul", column, splat)
            result = term if result is None else self.builder.binop("add", result, term)
        assert result is not None
        return result

    def _vec_mat_mul(self, vec_val: Value, mat: MatrixVal) -> Value:
        """v * m: result[i] = dot(v, col_i) via scalar expansion."""
        width = len(mat)
        lanes: List[Value] = []
        for column in mat:
            acc: Optional[Value] = None
            for lane in range(vec_val.ty.width):
                a = self.builder.extract(vec_val, lane)
                b = self.builder.extract(column, lane)
                prod = self.builder.binop("mul", a, b)
                acc = prod if acc is None else self.builder.binop("add", acc, prod)
            assert acc is not None
            lanes.append(acc)
        return self.builder.construct(IRType("float", width), lanes)

    def _mat_mat_mul(self, a: MatrixVal, b: MatrixVal) -> MatrixVal:
        """(a*b).col_j = a * b.col_j."""
        return [self._mat_vec_mul(a, col) for col in b]

    def _lower_unary(self, expr: ast.Unary) -> LoweredVal:
        assert expr.operand is not None
        if expr.op in ("++", "--"):
            target = expr.operand
            if not isinstance(target, ast.Ident):
                raise LoweringError("++/-- requires a simple variable")
            old = self._as_value(self._lower_expr(target))
            one = (Constant.int_(1) if old.ty.kind == "int" else Constant.float_(1.0))
            new = self.builder.binop("add" if expr.op == "++" else "sub", old, one)
            self._store_lvalue(target, new)
            return old if expr.postfix else new
        operand = self._lower_expr(expr.operand)
        if isinstance(operand, list):
            if expr.op == "-":
                return [self.builder.unop("neg", col) for col in operand]
            raise LoweringError(f"unsupported matrix unary {expr.op}")
        if expr.op == "-":
            return self.builder.unop("neg", operand)
        if expr.op == "!":
            return self.builder.unop("not", operand)
        raise LoweringError(f"unsupported unary operator {expr.op}")

    def _lower_ternary(self, expr: ast.Ternary) -> Value:
        """Ternaries lower to the select form (LLVM's reader does the same
        for side-effect-free arms, which is all GLSL fragment work is)."""
        cond = self._as_value(self._lower_expr(expr.cond))
        then = self._as_value(self._lower_expr(expr.then))
        other = self._as_value(self._lower_expr(expr.otherwise))
        return self.builder.select(cond, then, other)

    def _lower_index(self, expr: ast.Index) -> LoweredVal:
        assert expr.base is not None and expr.index is not None
        base = expr.base
        index = self._as_value(self._lower_expr(expr.index))
        if isinstance(base, ast.Ident):
            binding = self.env.get(base.name)
            if isinstance(binding, _ArrayBinding):
                return self.builder.load_elem(binding.slot, index)
            if isinstance(binding, _MatrixBinding):
                if not isinstance(index, Constant):
                    raise LoweringError("dynamic matrix column read unsupported")
                return self.builder.load_var(binding.columns[int(index.value)])
            if isinstance(binding, _UniformBinding):
                uty = binding.ty
                if isinstance(uty, T.Array):
                    if isinstance(uty.element, T.Matrix):
                        raise LoweringError("arrays of matrices are unsupported")
                    return self.builder.load_global(
                        base.name, ir_type(uty.element), "uniform", element=index)
                if isinstance(uty, T.Matrix):
                    if not isinstance(index, Constant):
                        raise LoweringError("dynamic matrix column read unsupported")
                    return self.builder.load_global(
                        base.name, IRType("float", uty.size), "uniform",
                        column=int(index.value))
        # Fall back: vector component extraction (possibly of a computed vector).
        vec_val = self._as_value(self._lower_expr(base))
        if vec_val.ty.is_vector:
            if isinstance(index, Constant):
                return self.builder.extract(vec_val, int(index.value))
            raise LoweringError("dynamic vector component read unsupported")
        raise LoweringError("unsupported index expression")

    def _lower_member(self, expr: ast.Member) -> Value:
        assert expr.base is not None
        base = self._as_value(self._lower_expr(expr.base))
        indices = swizzle_indices(expr.name)
        if len(indices) == 1:
            return self.builder.extract(base, indices[0])
        return self.builder.shuffle(base, indices)

    # -- calls ----------------------------------------------------------------

    def _lower_call(self, expr: ast.Call) -> LoweredVal:
        if expr.is_constructor:
            return self._lower_constructor(expr)
        if expr.callee in TEXTURE_BUILTINS:
            return self._lower_texture(expr)
        user = self.shader.function(expr.callee)
        if user is not None:
            return self._inline_call(user, expr)
        return self._lower_builtin(expr)

    def _lower_constructor(self, expr: ast.Call) -> LoweredVal:
        target = T.type_from_name(expr.callee)
        args = [self._lower_expr(a) for a in expr.args]

        if isinstance(target, T.Scalar):
            value = self._as_value(args[0])
            if value.ty.is_vector:
                value = self.builder.extract(value, 0)
            return self.builder.convert(value, _kind(target.kind))

        if isinstance(target, T.Vector):
            width = target.size
            kind = _kind(target.kind)
            flat: List[Value] = []
            for arg in args:
                value = self._as_value(arg)
                if value.ty.is_scalar:
                    flat.append(self.builder.convert(value, kind))
                else:
                    for lane in range(value.ty.width):
                        if len(flat) < width:
                            lane_val = self.builder.extract(value, lane)
                            flat.append(self.builder.convert(lane_val, kind))
            if len(flat) == 1:
                return self.builder.splat(flat[0], width)
            if len(flat) < width:
                raise LoweringError(f"constructor {target} missing components")
            return self.builder.construct(IRType(kind, width), flat[:width])

        if isinstance(target, T.Matrix):
            return self._lower_matrix_constructor(target, args)

        raise LoweringError(f"unsupported constructor {expr.callee}")

    def _lower_matrix_constructor(self, target: T.Matrix,
                                  args: List[LoweredVal]) -> MatrixVal:
        size = target.size
        col_ty = IRType("float", size)
        if len(args) == 1 and isinstance(args[0], list):
            source = args[0]
            if len(source) != size:
                raise LoweringError("matrix resize constructors are unsupported")
            return list(source)
        if len(args) == 1 and isinstance(args[0], Value) and args[0].ty.is_scalar:
            scalar = self.builder.convert(args[0], "float")
            zero = Constant.float_(0.0)
            columns: MatrixVal = []
            for j in range(size):
                lanes = [scalar if i == j else zero for i in range(size)]
                columns.append(self.builder.construct(col_ty, lanes))
            return columns
        # N column vectors, or N*N scalars.
        flat: List[Value] = []
        for arg in args:
            value = self._as_value(arg)
            if value.ty.is_scalar:
                flat.append(self.builder.convert(value, "float"))
            else:
                for lane in range(value.ty.width):
                    flat.append(self.builder.extract(value, lane))
        if len(flat) != size * size:
            raise LoweringError(
                f"mat{size} constructor needs {size * size} scalars, got {len(flat)}")
        return [
            self.builder.construct(col_ty, flat[j * size : (j + 1) * size])
            for j in range(size)
        ]

    def _lower_texture(self, expr: ast.Call) -> Value:
        sampler_expr = expr.args[0]
        if not isinstance(sampler_expr, ast.Ident):
            raise LoweringError("texture() sampler must be a uniform name")
        binding = self.env.get(sampler_expr.name)
        if not isinstance(binding, _SamplerBinding):
            raise LoweringError(f"{sampler_expr.name} is not a sampler")
        coord = self._as_value(self._lower_expr(expr.args[1]))
        lod: Optional[Value] = None
        if expr.callee in ("textureLod", "texture2DLod") and len(expr.args) > 2:
            lod = self._as_value(self._lower_expr(expr.args[2]))
        result_ty = (IRType("float", 1) if binding.kind == "sampler2DShadow"
                     else IRType("float", 4))
        return self.builder.sample(binding.name, binding.kind, result_ty, coord, lod)

    def _lower_builtin(self, expr: ast.Call) -> Value:
        name = expr.callee
        args = [self._as_value(self._lower_expr(a)) for a in expr.args]
        assert expr.ty is not None
        result_ty = ir_type(expr.ty)
        if name == "transpose":
            raise LoweringError("transpose of matrix values is unsupported here")
        # Splat scalar args of genType builtins to the result width (the
        # LLVM-operand-uniformity artifact again).
        if name in _GEN_BUILTINS_SPLAT and result_ty.is_vector:
            args = [
                self.builder.splat(a, result_ty.width) if a.ty.is_scalar else a
                for a in args
            ]
        if name == "saturate":
            zero = Constant.splat(result_ty, 0.0)
            one = Constant.splat(result_ty, 1.0)
            return self.builder.call("clamp", result_ty, [args[0], zero, one])
        return self.builder.call(name, result_ty, args)

    # -- inlining --------------------------------------------------------------

    def _inline_call(self, fn: ast.FunctionDef, expr: ast.Call) -> LoweredVal:
        if self._inline_depth > 16:
            raise LoweringError(f"call chain too deep inlining {fn.name} (recursion?)")

        arg_values = [self._lower_expr(a) for a in expr.args]
        saved_env = dict(self.env)
        saved_loops = self.loop_stack
        self.loop_stack = []

        # Bind parameters to fresh slots under their plain names (the whole
        # caller environment is snapshotted and restored around the body).
        for param, arg in zip(fn.params, arg_values):
            binding = self._declare_local(param.name, param.ty)
            if param.qualifier in ("in", "inout"):
                self._store_binding(binding, param.ty, arg)

        # Return machinery.
        ret_slot: Optional[Slot] = None
        if not isinstance(fn.return_type, T.Void):
            if isinstance(fn.return_type, (T.Matrix, T.Array)):
                raise LoweringError("functions returning matrices/arrays unsupported")
            ret_slot = self.function.new_slot(
                Slot(f"{fn.name}.ret", ir_type(fn.return_type)))
        after = self.builder.new_block(f"{fn.name}.after")

        self._inline_depth += 1
        self._lower_inlined_body(fn.body, ret_slot, after)
        self._inline_depth -= 1
        if not self.builder.terminated:
            self.builder.br(after)
        self.builder.set_block(after)

        # Copy out/inout params back to caller lvalues.
        for param, arg_expr in zip(fn.params, expr.args):
            if param.qualifier in ("out", "inout"):
                binding = self.env[param.name]
                value = self._read_binding(binding, param.ty)
                # restore caller env before storing to the caller's lvalue
                callee_env = self.env
                self.env = saved_env
                self._store_lvalue(arg_expr, value)
                saved_env = self.env
                self.env = callee_env

        self.env = saved_env
        self.loop_stack = saved_loops
        if ret_slot is not None:
            return self.builder.load_var(ret_slot)
        return Constant.float_(0.0)  # void call result (never used)

    def _read_binding(self, binding: _Binding, ty: T.GLSLType) -> LoweredVal:
        if isinstance(binding, _SlotBinding):
            return self.builder.load_var(binding.slot)
        if isinstance(binding, _MatrixBinding):
            return [self.builder.load_var(col) for col in binding.columns]
        raise LoweringError("unsupported out-parameter type")

    def _lower_inlined_body(self, body: ast.BlockStmt, ret_slot: Optional[Slot],
                            after: BasicBlock) -> None:
        """Lower a callee body where ``return`` jumps to *after*."""

        def walk(block: ast.BlockStmt) -> None:
            saved_env = dict(self.env)  # scoped as in _lower_block
            for stmt in block.body:
                if self.builder.terminated:
                    break
                if isinstance(stmt, ast.ReturnStmt):
                    if stmt.value is not None:
                        if ret_slot is None:
                            raise LoweringError("void function returns a value")
                        value = self._as_value(self._lower_expr(stmt.value))
                        self.builder.store_var(ret_slot, value)
                    self.builder.br(after)
                    break
                if isinstance(stmt, ast.IfStmt):
                    self._lower_if_inlined(stmt, ret_slot, after, walk)
                elif isinstance(stmt, ast.BlockStmt):
                    walk(stmt)
                else:
                    self._lower_stmt(stmt)
            self.env = saved_env

        walk(body)

    def _lower_if_inlined(self, stmt: ast.IfStmt, ret_slot: Optional[Slot],
                          after: BasicBlock, walk) -> None:
        cond = self._as_value(self._lower_expr(stmt.cond))
        then_block = self.builder.new_block("if.then")
        merge_block = self.builder.new_block("if.end")
        else_block = merge_block
        if stmt.else_body is not None:
            else_block = self.builder.new_block("if.else")
        self.builder.cond_br(cond, then_block, else_block)

        self.builder.set_block(then_block)
        walk(stmt.then_body)
        if not self.builder.terminated:
            self.builder.br(merge_block)

        if stmt.else_body is not None:
            self.builder.set_block(else_block)
            walk(stmt.else_body)
            if not self.builder.terminated:
                self.builder.br(merge_block)

        self.builder.set_block(merge_block)

    # -- constant evaluation -----------------------------------------------------

    def _const_eval(self, expr: Optional[ast.Expr]) -> Constant:
        if expr is None:
            raise LoweringError("missing constant initializer")
        if isinstance(expr, ast.FloatLit):
            return Constant.float_(expr.value)
        if isinstance(expr, ast.IntLit):
            return Constant.int_(expr.value)
        if isinstance(expr, ast.BoolLit):
            return Constant.bool_(expr.value)
        if isinstance(expr, ast.Unary) and expr.op == "-":
            inner = self._const_eval(expr.operand)
            if inner.ty.is_vector:
                return Constant(inner.ty, tuple(-c for c in inner.components()))
            return Constant(inner.ty, -inner.value)
        if isinstance(expr, ast.Ident):
            binding = self.env.get(expr.name)
            if isinstance(binding, _ConstBinding):
                return binding.value
            raise LoweringError(f"{expr.name} is not a compile-time constant")
        if isinstance(expr, ast.Binary):
            lhs = self._const_eval(expr.left)
            rhs = self._const_eval(expr.right)
            return _const_binop(expr.op, lhs, rhs)
        if isinstance(expr, ast.Call) and expr.is_constructor:
            target = T.type_from_name(expr.callee)
            parts: List[float] = []
            for arg in expr.args:
                parts.extend(self._const_eval(arg).components())
            if isinstance(target, T.Scalar):
                value = parts[0]
                if target.kind == T.ScalarKind.FLOAT:
                    return Constant.float_(float(value))
                if target.kind == T.ScalarKind.BOOL:
                    return Constant.bool_(bool(value))
                return Constant.int_(int(value))
            if isinstance(target, T.Vector):
                ty = ir_type(target)
                if len(parts) == 1:
                    return Constant.splat(ty, _cast(parts[0], ty.kind))
                if len(parts) < target.size:
                    raise LoweringError("constant constructor missing components")
                return Constant(ty, tuple(_cast(p, ty.kind) for p in parts[: target.size]))
        raise LoweringError(
            f"expression {type(expr).__name__} is not a compile-time constant")


def _cast(value, kind: str):
    if kind == "float":
        return float(value)
    if kind == "int":
        return int(value)
    return bool(value)


def _const_binop(op: str, lhs: Constant, rhs: Constant) -> Constant:
    import operator

    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": lambda a, b: a / b if b else 0.0}
    if op not in ops:
        raise LoweringError(f"operator {op} not supported in constants")
    fn = ops[op]
    if lhs.ty.is_vector or rhs.ty.is_vector:
        width = max(lhs.ty.width, rhs.ty.width)
        kind = "float" if "float" in (lhs.ty.kind, rhs.ty.kind) else lhs.ty.kind
        a = lhs.components() if lhs.ty.is_vector else lhs.components() * width
        b = rhs.components() if rhs.ty.is_vector else rhs.components() * width
        return Constant(IRType(kind, width),
                        tuple(_cast(fn(x, y), kind) for x, y in zip(a, b)))
    kind = "float" if "float" in (lhs.ty.kind, rhs.ty.kind) else lhs.ty.kind
    return Constant(IRType(kind, 1), _cast(fn(lhs.value, rhs.value), kind))
