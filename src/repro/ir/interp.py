"""Reference interpreter for the IR.

Used by tests to check that every optimization pass preserves shader
semantics (safe passes bit-for-bit modulo float noise, unsafe passes within a
small relative tolerance), and by the harness to derive data-dependent branch
probabilities and loop trip counts.

Values are Python numbers; vectors are tuples.  Division by zero and domain
errors follow GLSL's "undefined but must not crash" rule with deterministic
guards so that original and optimized shaders agree.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import InterpError
from repro.ir.instructions import (
    BinOp, Br, Call, Cmp, CondBr, Construct, Convert, Discard, ExtractElem,
    InsertElem, Instr, LoadElem, LoadGlobal, LoadVar, Phi, Ret, Sample, Select,
    Shuffle, StoreElem, StoreOutput, StoreVar, UnOp,
)
from repro.ir.module import BasicBlock, Module
from repro.ir.textures import ProceduralTexture
from repro.ir.values import Constant, Slot, Undef, Value

Num = Union[float, int, bool]
RtVal = Union[Num, Tuple[Num, ...]]

_BIG = 1.0e30
_MAX_STEPS = 2_000_000


class ExecutionStats:
    """Dynamic counts collected during a run (used for branch profiles)."""

    def __init__(self):
        self.steps = 0
        self.block_visits: Dict[str, int] = {}
        self.texture_samples = 0


class Interpreter:
    """Executes a module's ``main`` for one fragment.

    ``max_steps`` bounds the dynamic instruction count for this one
    fragment (defaults to the module-level ``_MAX_STEPS`` budget); the
    batched interpreter (:mod:`repro.ir.interp_batch`) enforces the same
    budget independently per lane.
    """

    def __init__(self, module: Module,
                 uniforms: Optional[Dict[str, object]] = None,
                 inputs: Optional[Dict[str, RtVal]] = None,
                 textures: Optional[Dict[str, ProceduralTexture]] = None,
                 max_steps: Optional[int] = None):
        self.module = module
        self.uniforms = uniforms or {}
        self.inputs = inputs or {}
        self.textures = textures or {}
        self.max_steps = _MAX_STEPS if max_steps is None else max_steps
        self.stats = ExecutionStats()

    def run(self) -> Dict[str, RtVal]:
        """Execute main; returns outputs (empty dict when discarded)."""
        function = self.module.function
        values: Dict[Value, RtVal] = {}
        arrays: Dict[Slot, List[RtVal]] = {}
        for slot in function.slots:
            if slot.is_array:
                if slot.const_init is not None:
                    arrays[slot] = [c.value for c in slot.const_init]
                else:
                    fill: RtVal = (0.0,) * slot.ty.width if slot.ty.is_vector else 0.0
                    arrays[slot] = [fill] * (slot.array_length or 0)

        outputs: Dict[str, RtVal] = {}
        scalars: Dict[Slot, RtVal] = {}

        block: Optional[BasicBlock] = function.entry
        prev: Optional[BasicBlock] = None
        while block is not None:
            self.stats.block_visits[block.name] = (
                self.stats.block_visits.get(block.name, 0) + 1)

            # Phase 1: evaluate all phis against the incoming edge at once.
            phi_values: List[Tuple[Phi, RtVal]] = []
            for phi in block.phis():
                incoming = None
                for pred, value in phi.incoming:
                    if pred is prev:
                        incoming = value
                        break
                if incoming is None:
                    raise InterpError(
                        f"phi {phi.name} has no incoming for {prev.name if prev else '?'}")
                phi_values.append((phi, self._value(incoming, values)))
            for phi, val in phi_values:
                values[phi] = val

            next_block: Optional[BasicBlock] = None
            for instr in block.non_phi_instrs():
                self.stats.steps += 1
                if self.stats.steps > self.max_steps:
                    raise InterpError("step limit exceeded (infinite loop?)")

                if isinstance(instr, Br):
                    next_block = instr.target
                elif isinstance(instr, CondBr):
                    cond = self._value(instr.cond, values)
                    next_block = instr.if_true if cond else instr.if_false
                elif isinstance(instr, Ret):
                    return outputs
                elif isinstance(instr, Discard):
                    return {}
                elif isinstance(instr, StoreOutput):
                    outputs[instr.var] = self._value(instr.value, values)
                elif isinstance(instr, StoreVar):
                    scalars[instr.slot] = self._value(instr.value, values)
                elif isinstance(instr, LoadVar):
                    values[instr] = scalars.get(
                        instr.slot,
                        (0.0,) * instr.ty.width if instr.ty.is_vector else 0.0)
                elif isinstance(instr, StoreElem):
                    index = int(self._value(instr.index, values))  # type: ignore[arg-type]
                    array = arrays[instr.slot]
                    if 0 <= index < len(array):
                        array[index] = self._value(instr.value, values)
                elif isinstance(instr, LoadElem):
                    index = int(self._value(instr.index, values))  # type: ignore[arg-type]
                    array = arrays[instr.slot]
                    index = min(max(index, 0), len(array) - 1) if array else 0
                    values[instr] = array[index] if array else 0.0
                else:
                    values[instr] = self._eval(instr, values)

            prev, block = block, next_block
        raise InterpError("fell off the CFG without a terminator")

    # ------------------------------------------------------------------

    def _value(self, value: Value, env: Dict[Value, RtVal]) -> RtVal:
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, Undef):
            return (0.0,) * value.ty.width if value.ty.is_vector else 0.0
        try:
            return env[value]
        except KeyError:
            raise InterpError(f"use of unevaluated value {getattr(value, 'name', value)}")

    def _eval(self, instr: Instr, env: Dict[Value, RtVal]) -> RtVal:
        if isinstance(instr, BinOp):
            return _binop(instr.op,
                          self._value(instr.lhs, env), self._value(instr.rhs, env))
        if isinstance(instr, Cmp):
            return _cmp(instr.op,
                        self._value(instr.lhs, env), self._value(instr.rhs, env))
        if isinstance(instr, UnOp):
            operand = self._value(instr.operand, env)
            if instr.op == "neg":
                return _map_unary(operand, lambda x: -x)
            return _map_unary(operand, lambda x: not x)
        if isinstance(instr, Convert):
            target = instr.ty.kind
            return _map_unary(self._value(instr.value, env),
                              lambda x: _convert_scalar(x, target))
        if isinstance(instr, Select):
            cond = self._value(instr.cond, env)
            return (self._value(instr.if_true, env) if cond
                    else self._value(instr.if_false, env))
        if isinstance(instr, ExtractElem):
            vec = self._value(instr.vector, env)
            return vec[instr.index] if isinstance(vec, tuple) else vec
        if isinstance(instr, InsertElem):
            vec = list(_as_tuple(self._value(instr.vector, env), instr.ty.width))
            vec[instr.index] = self._value(instr.scalar, env)  # type: ignore[call-overload]
            return tuple(vec)
        if isinstance(instr, Shuffle):
            src = _as_tuple(self._value(instr.source, env),
                            instr.source.ty.width)
            picked = tuple(src[i] for i in instr.mask)
            return picked if len(picked) > 1 else picked[0]
        if isinstance(instr, Construct):
            return tuple(self._value(op, env) for op in instr.operands)  # type: ignore[misc]
        if isinstance(instr, Call):
            args = [self._value(op, env) for op in instr.operands]
            return _apply_builtin(instr.callee, args, instr.ty.width)
        if isinstance(instr, Sample):
            self.stats.texture_samples += 1
            coords = _as_tuple(self._value(instr.coord, env),
                               instr.coord.ty.width)
            texture = self.textures.get(instr.sampler) or ProceduralTexture(
                seed=_stable_seed(instr.sampler))
            lod = 0.0
            if instr.lod is not None:
                lod = float(self._value(instr.lod, env))  # type: ignore[arg-type]
            if instr.sampler_kind == "sampler2DShadow":
                return texture.sample_shadow([float(c) for c in coords])
            return texture.sample([float(c) for c in coords],
                                  kind=instr.sampler_kind, lod=lod)
        if isinstance(instr, LoadGlobal):
            return self._load_global(instr, env)
        raise InterpError(f"cannot interpret {instr.opcode}")

    def _load_global(self, instr: LoadGlobal, env: Dict[Value, RtVal]) -> RtVal:
        source = self.inputs if instr.kind == "input" else self.uniforms
        if instr.var not in source:
            # Harness default: 0.5 floats (paper Section IV-B).
            return ((0.5,) * instr.ty.width) if instr.ty.is_vector else 0.5
        value = source[instr.var]
        if instr.column is not None:
            value = value[instr.column]  # type: ignore[index]
        if instr.element is not None:
            index = int(self._value(instr.element, env))  # type: ignore[arg-type]
            seq = value  # type: ignore[assignment]
            index = min(max(index, 0), len(seq) - 1)  # type: ignore[arg-type]
            value = seq[index]  # type: ignore[index]
        return value  # type: ignore[return-value]


def _stable_seed(name: str) -> int:
    return sum(ord(c) for c in name) % 17


def _as_tuple(value: RtVal, width: int) -> Tuple[Num, ...]:
    if isinstance(value, tuple):
        return value
    return (value,) * width


def _broadcast(a: RtVal, b: RtVal) -> Tuple[Tuple[Num, ...], Tuple[Num, ...]]:
    at = a if isinstance(a, tuple) else None
    bt = b if isinstance(b, tuple) else None
    width = len(at) if at else (len(bt) if bt else 1)
    return _as_tuple(a, width), _as_tuple(b, width)


def _rebuild(components: Sequence[Num], like_width: int) -> RtVal:
    if like_width == 1:
        return components[0]
    return tuple(components)


def _map_unary(value: RtVal, fn: Callable[[Num], Num]) -> RtVal:
    if isinstance(value, tuple):
        return tuple(fn(c) for c in value)
    return fn(value)


def _binop(op: str, a: RtVal, b: RtVal) -> RtVal:
    at, bt = _broadcast(a, b)
    out: List[Num] = []
    for x, y in zip(at, bt):
        out.append(_scalar_binop(op, x, y))
    return _rebuild(out, len(at))


def _scalar_binop(op: str, x: Num, y: Num) -> Num:
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "div":
        if isinstance(x, float) or isinstance(y, float):
            if y == 0.0:
                return (math.copysign(_BIG, x if x else 1.0)
                        * math.copysign(1.0, y))
            return x / y
        return int(x / y) if y else 0
    if op == "mod":
        if isinstance(x, float) or isinstance(y, float):
            return x - y * math.floor(x / y) if y else 0.0
        return x % y if y else 0
    if op == "and":
        return bool(x) and bool(y)
    if op == "or":
        return bool(x) or bool(y)
    if op == "xor":
        return bool(x) != bool(y)
    raise InterpError(f"unknown binop {op}")


def _cmp(op: str, a: RtVal, b: RtVal) -> bool:
    if op == "eq":
        return a == b
    if op == "ne":
        return a != b
    if op == "lt":
        return a < b  # type: ignore[operator]
    if op == "le":
        return a <= b  # type: ignore[operator]
    if op == "gt":
        return a > b  # type: ignore[operator]
    if op == "ge":
        return a >= b  # type: ignore[operator]
    raise InterpError(f"unknown cmp {op}")


def _convert_scalar(x: Num, kind: str) -> Num:
    if kind == "float":
        return float(x)
    if kind == "int":
        return int(x)
    return bool(x)


# ---------------------------------------------------------------------------
# Builtin math library
# ---------------------------------------------------------------------------


def _safe_pow(x: float, y: float) -> float:
    if x < 0.0:
        x = abs(x)  # GLSL: undefined; deterministic guard
    if x == 0.0 and y <= 0.0:
        return 0.0
    try:
        return math.pow(x, y)
    except OverflowError:
        return _BIG


def _safe_log(x: float) -> float:
    return math.log(x) if x > 0.0 else -_BIG


def _safe_sqrt(x: float) -> float:
    return math.sqrt(x) if x > 0.0 else 0.0


def _length(v: Sequence[float]) -> float:
    return math.sqrt(sum(float(c) * float(c) for c in v))


_UNARY_FLOAT = {
    "radians": math.radians,
    "degrees": math.degrees,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "asin": lambda x: math.asin(max(-1.0, min(1.0, x))),
    "acos": lambda x: math.acos(max(-1.0, min(1.0, x))),
    "exp": lambda x: math.exp(min(x, 80.0)),
    "log": _safe_log,
    "exp2": lambda x: math.pow(2.0, min(x, 120.0)),
    "log2": lambda x: math.log2(x) if x > 0.0 else -_BIG,
    "sqrt": _safe_sqrt,
    "inversesqrt": lambda x: 1.0 / math.sqrt(x) if x > 0.0 else _BIG,
    "abs": abs,
    "sign": lambda x: (x > 0) - (x < 0),
    "floor": math.floor,
    "ceil": math.ceil,
    "fract": lambda x: x - math.floor(x),
    "round": lambda x: float(round(x)),
    "trunc": math.trunc,
}


def _apply_builtin(name: str, args: List[RtVal], result_width: int) -> RtVal:
    if name in _UNARY_FLOAT:
        return _map_unary(args[0], lambda x: float(_UNARY_FLOAT[name](float(x))))

    if name == "atan":
        if len(args) == 1:
            return _map_unary(args[0], lambda x: math.atan(float(x)))
        a, b = _broadcast(args[0], args[1])
        return _rebuild([math.atan2(float(x), float(y)) for x, y in zip(a, b)], len(a))

    if name in ("pow", "mod", "min", "max", "step"):
        a, b = _broadcast(args[0], args[1])
        fn = {
            "pow": lambda x, y: _safe_pow(float(x), float(y)),
            "mod": lambda x, y: _scalar_binop("mod", float(x), float(y)),
            "min": min,
            "max": max,
            "step": lambda edge, x: 0.0 if x < edge else 1.0,
        }[name]
        return _rebuild([fn(x, y) for x, y in zip(a, b)], len(a))

    if name == "clamp":
        width = max(len(a) if isinstance(a, tuple) else 1 for a in args[:3])
        x = _as_tuple(args[0], width)
        lo = _as_tuple(args[1], width)
        hi = _as_tuple(args[2], width)
        return _rebuild([min(max(v, l), h) for v, l, h in zip(x, lo, hi)], width)

    if name == "mix":
        width = max(len(a) if isinstance(a, tuple) else 1 for a in args[:3])
        x = _as_tuple(args[0], width)
        y = _as_tuple(args[1], width)
        a = _as_tuple(args[2], width)
        return _rebuild([xv * (1.0 - av) + yv * av for xv, yv, av in zip(x, y, a)],
                        width)

    if name == "smoothstep":
        width = max(len(a) if isinstance(a, tuple) else 1 for a in args[:3])
        e0 = _as_tuple(args[0], width)
        e1 = _as_tuple(args[1], width)
        x = _as_tuple(args[2], width)
        out = []
        for a0, a1, xv in zip(e0, e1, x):
            span = a1 - a0
            t = (xv - a0) / span if span else 0.0
            t = min(max(t, 0.0), 1.0)
            out.append(t * t * (3.0 - 2.0 * t))
        return _rebuild(out, len(e0))

    if name == "length":
        return _length(_as_tuple(args[0], 1))

    if name == "distance":
        a, b = _broadcast(args[0], args[1])
        return _length([x - y for x, y in zip(a, b)])

    if name == "dot":
        a, b = _broadcast(args[0], args[1])
        return float(sum(float(x) * float(y) for x, y in zip(a, b)))

    if name == "cross":
        a = _as_tuple(args[0], 3)
        b = _as_tuple(args[1], 3)
        return (a[1] * b[2] - a[2] * b[1],
                a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0])

    if name == "normalize":
        v = _as_tuple(args[0], 1)
        n = _length(v)
        if n == 0.0:
            return _rebuild([0.0] * len(v), len(v))
        return _rebuild([float(c) / n for c in v], len(v))

    if name == "reflect":
        i, n = _broadcast(args[0], args[1])
        d = sum(float(x) * float(y) for x, y in zip(n, i))
        return _rebuild([float(x) - 2.0 * d * float(y) for x, y in zip(i, n)], len(i))

    if name == "refract":
        i, n = _broadcast(args[0], args[1])
        eta = float(args[2]) if not isinstance(args[2], tuple) else float(args[2][0])
        d = sum(float(x) * float(y) for x, y in zip(n, i))
        k = 1.0 - eta * eta * (1.0 - d * d)
        if k < 0.0:
            return _rebuild([0.0] * len(i), len(i))
        factor = eta * d + math.sqrt(k)
        return _rebuild([eta * float(x) - factor * float(y) for x, y in zip(i, n)],
                        len(i))

    if name == "faceforward":
        n, i = _broadcast(args[0], args[1])
        _, nref = _broadcast(args[0], args[2])
        d = sum(float(x) * float(y) for x, y in zip(nref, i))
        return _rebuild([float(x) if d < 0 else -float(x) for x in n], len(n))

    if name == "any":
        return any(bool(c) for c in _as_tuple(args[0], 1))
    if name == "all":
        return all(bool(c) for c in _as_tuple(args[0], 1))
    if name == "not":
        return _map_unary(args[0], lambda x: not x)
    if name in ("lessThan", "greaterThan", "equal"):
        a, b = _broadcast(args[0], args[1])
        fn = {"lessThan": lambda x, y: x < y,
              "greaterThan": lambda x, y: x > y,
              "equal": lambda x, y: x == y}[name]
        return tuple(fn(x, y) for x, y in zip(a, b))

    raise InterpError(f"builtin {name!r} not implemented in interpreter")
