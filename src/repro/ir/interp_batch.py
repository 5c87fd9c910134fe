"""Lane-batched reference interpreter: all measurement lanes in one pass.

The scalar :class:`~repro.ir.interp.Interpreter` walks the instruction list
once per fragment; a measurement profiles several sample fragments per
(variant, platform) unit, so the module is traversed — and every
instruction re-dispatched — once per lane.  :class:`BatchedInterpreter`
executes all lanes together: values become fixed-length *lanes* (one entry
per uniform/input sample), straight-line ops map elementwise over the
lanes of a group, and divergent control flow is handled by partitioning
lanes per branch edge — a group that reaches a ``CondBr`` with mixed
conditions splits into one sub-group per taken path, and each sub-group
continues independently (grouped re-execution per taken path).

Semantics are *exactly* the scalar interpreter's: every per-lane value is
produced by the same scalar helper functions (``_binop``, ``_cmp``,
``_apply_builtin``, ...) in the same order, so outputs, per-lane
:class:`~repro.ir.interp.ExecutionStats` (steps, block-visit order and
counts, texture samples), and raised errors are identical to running the
scalar interpreter once per lane.  The per-fragment ``_MAX_STEPS`` budget
is enforced independently per lane: lanes in a group share an identical
execution history (same step count), and a runaway lane isolates itself
into its own group at the first divergent branch, where its budget trips
without charging — or being subsidised by — its terminating siblings.

Groups are scheduled lowest-lane-first, so errors surface with the same
precedence as a scalar loop over the lanes in order.

Each instruction after a block's phis is dispatched on its class: a
value-producing class through ``_VALUE_OPS``, a store or terminator
through ``_STATEMENT_OPS``.  The scalar interpreter keeps its
``isinstance`` chain; it is the oracle ``tests/test_interp_batch.py``
holds this one to.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import InterpError
from repro.ir.instructions import (
    BinOp, Br, Call, Cmp, CondBr, Construct, Convert, Discard, ExtractElem,
    InsertElem, LoadElem, LoadGlobal, LoadVar, Phi, Ret, Sample, Select,
    Shuffle, StoreElem, StoreOutput, StoreVar, UnOp,
)
from repro.ir.interp import (
    ExecutionStats, RtVal, _MAX_STEPS, _apply_builtin, _as_tuple, _binop,
    _cmp, _convert_scalar, _map_unary, _stable_seed,
)
from repro.ir.module import BasicBlock, Module
from repro.ir.textures import ProceduralTexture
from repro.ir.values import Constant, Slot, Undef, Value

LaneEnv = Union[Dict[str, object], Sequence[Dict[str, object]]]


class _Group:
    """A set of lanes with an identical execution history.

    All per-lane state is stored structure-of-arrays: each dict maps an IR
    entity to a list parallel to ``lanes``.  ``steps``, ``visits`` and
    ``tex_samples`` are shared because every member lane has executed the
    exact same instruction sequence.
    """

    __slots__ = ("lanes", "block", "prev", "env", "scalars", "arrays",
                 "outputs", "steps", "visits", "tex_samples")

    def __init__(self, lanes: Tuple[int, ...], block: Optional[BasicBlock],
                 prev: Optional[BasicBlock],
                 env: Dict[Value, List[RtVal]],
                 scalars: Dict[Slot, List[RtVal]],
                 arrays: Dict[Slot, List[List[RtVal]]],
                 outputs: Dict[str, List[RtVal]],
                 steps: int, visits: Dict[str, int], tex_samples: int):
        self.lanes = lanes
        self.block = block
        self.prev = prev
        self.env = env
        self.scalars = scalars
        self.arrays = arrays
        self.outputs = outputs
        self.steps = steps
        self.visits = visits
        self.tex_samples = tex_samples


class BatchedInterpreter:
    """Executes a module's ``main`` for many lanes in one pass.

    ``uniforms`` and ``inputs`` may each be a single dict (broadcast to
    every lane) or a sequence of dicts, one per lane; the lane count is
    inferred from the sequences (or ``lane_count`` when both are
    broadcast).  ``run`` returns one outputs dict per lane (empty for
    discarded lanes) and fills ``stats`` with one
    :class:`~repro.ir.interp.ExecutionStats` per lane.
    """

    def __init__(self, module: Module,
                 uniforms: Optional[LaneEnv] = None,
                 inputs: Optional[LaneEnv] = None,
                 textures: Optional[Dict[str, ProceduralTexture]] = None,
                 lane_count: Optional[int] = None,
                 max_steps: Optional[int] = None):
        self.module = module
        self.textures = textures or {}
        self.max_steps = _MAX_STEPS if max_steps is None else max_steps
        n = lane_count
        for env in (uniforms, inputs):
            if isinstance(env, (list, tuple)):
                if n is not None and n != len(env):
                    raise ValueError(
                        f"lane count mismatch: {n} vs {len(env)} lane dicts")
                n = len(env)
        self.lane_count = 1 if n is None else n
        self._lane_uniforms = self._per_lane(uniforms)
        self._lane_inputs = self._per_lane(inputs)
        self.stats: List[ExecutionStats] = [ExecutionStats()
                                            for _ in range(self.lane_count)]

    def _per_lane(self, env: Optional[LaneEnv]) -> List[Dict[str, object]]:
        if env is None:
            return [{} for _ in range(self.lane_count)]
        if isinstance(env, (list, tuple)):
            return list(env)
        return [env] * self.lane_count

    # ------------------------------------------------------------------

    def run(self) -> List[Dict[str, RtVal]]:
        """Execute main for every lane; returns per-lane outputs dicts."""
        function = self.module.function
        n = self.lane_count
        arrays: Dict[Slot, List[List[RtVal]]] = {}
        for slot in function.slots:
            if slot.is_array:
                if slot.const_init is not None:
                    arrays[slot] = [[c.value for c in slot.const_init]
                                    for _ in range(n)]
                else:
                    fill: RtVal = ((0.0,) * slot.ty.width
                                   if slot.ty.is_vector else 0.0)
                    length = slot.array_length or 0
                    arrays[slot] = [[fill] * length for _ in range(n)]

        results: List[Dict[str, RtVal]] = [{} for _ in range(n)]
        worklist: List[_Group] = [_Group(
            lanes=tuple(range(n)), block=function.entry, prev=None,
            env={}, scalars={}, arrays=arrays, outputs={},
            steps=0, visits={}, tex_samples=0)]
        while worklist:
            # Lowest-lane-first scheduling: the group containing the
            # smallest lane id always runs next, so errors surface in the
            # same order as a scalar loop over the lanes.
            worklist.sort(key=lambda g: g.lanes[0], reverse=True)
            group = worklist.pop()
            worklist.extend(self._run_group(group, results))
        return results

    # ------------------------------------------------------------------

    def _run_group(self, group: _Group,
                   results: List[Dict[str, RtVal]]) -> Tuple[_Group, ...]:
        """Execute *group* until it terminates or splits at a divergent
        branch; returns the child groups (empty when it terminated)."""
        env = group.env
        while True:
            block = group.block
            group.visits[block.name] = group.visits.get(block.name, 0) + 1

            # Phase 1: evaluate all phis against the incoming edge at once.
            phis = block.phis()
            phi_values: List[Tuple[Phi, List[RtVal]]] = []
            for phi in phis:
                incoming = None
                for pred, value in phi.incoming:
                    if pred is group.prev:
                        incoming = value
                        break
                if incoming is None:
                    raise InterpError(
                        f"phi {phi.name} has no incoming for "
                        f"{group.prev.name if group.prev else '?'}")
                phi_values.append((phi, self._values(incoming, group)))
            for phi, vals in phi_values:
                env[phi] = vals

            # Phase 2: the rest of the block, each instruction dispatched on
            # its class.  A statement returns None, the block to branch to,
            # or the groups that continue (empty when this one finished).
            next_block: Optional[BasicBlock] = None
            for instr in block.instrs[len(phis):]:
                group.steps += 1
                if group.steps > self.max_steps:
                    raise InterpError("step limit exceeded (infinite loop?)")
                evaluate = _VALUE_OPS.get(type(instr))
                if evaluate is not None:
                    env[instr] = evaluate(self, instr, group)
                    continue
                execute = _STATEMENT_OPS.get(type(instr))
                if execute is None:
                    raise InterpError(f"cannot interpret {instr.opcode}")
                outcome = execute(self, instr, group, results)
                if outcome is None:
                    continue
                if type(outcome) is tuple:
                    return outcome
                next_block = outcome

            if next_block is None:
                raise InterpError("fell off the CFG without a terminator")
            group.prev, group.block = block, next_block

    # -- statements: stores and terminators -----------------------------

    def _br(self, instr: Br, group: _Group, results) -> BasicBlock:
        return instr.target

    def _cond_br(self, instr: CondBr, group: _Group, results):
        conds = self._values(instr.cond, group)
        if all(conds):
            return instr.if_true
        if not any(conds):
            return instr.if_false
        return self._split(group, group.block, conds, instr)

    def _ret(self, instr: Ret, group: _Group, results) -> Tuple[()]:
        self._finish(group, results, discard=False)
        return ()

    def _discard(self, instr: Discard, group: _Group, results) -> Tuple[()]:
        self._finish(group, results, discard=True)
        return ()

    def _store_output(self, instr: StoreOutput, group: _Group,
                      results) -> None:
        group.outputs[instr.var] = self._values(instr.value, group)

    def _store_var(self, instr: StoreVar, group: _Group, results) -> None:
        group.scalars[instr.slot] = self._values(instr.value, group)

    def _store_elem(self, instr: StoreElem, group: _Group, results) -> None:
        indices = self._values(instr.index, group)
        vals = self._values(instr.value, group)
        lane_arrays = group.arrays[instr.slot]
        for pos, array in enumerate(lane_arrays):
            index = int(indices[pos])  # type: ignore[arg-type]
            if 0 <= index < len(array):
                array[index] = vals[pos]

    def _split(self, group: _Group, block: BasicBlock, conds: List[RtVal],
               instr: CondBr) -> Tuple[_Group, ...]:
        """Partition the group's lanes by branch edge at a divergent
        ``CondBr``; each taken path continues as its own group."""
        taken = [pos for pos, cond in enumerate(conds) if cond]
        not_taken = [pos for pos, cond in enumerate(conds) if not cond]
        children = []
        for positions, target in ((taken, instr.if_true),
                                  (not_taken, instr.if_false)):
            children.append(_Group(
                lanes=tuple(group.lanes[pos] for pos in positions),
                block=target, prev=block,
                env={value: [vals[pos] for pos in positions]
                     for value, vals in group.env.items()},
                scalars={slot: [vals[pos] for pos in positions]
                         for slot, vals in group.scalars.items()},
                # Inner per-lane array lists are partitioned, not copied:
                # each belongs to exactly one lane, hence one child.
                arrays={slot: [arrs[pos] for pos in positions]
                        for slot, arrs in group.arrays.items()},
                outputs={name: [vals[pos] for pos in positions]
                         for name, vals in group.outputs.items()},
                steps=group.steps, visits=dict(group.visits),
                tex_samples=group.tex_samples))
        return tuple(children)

    def _finish(self, group: _Group, results: List[Dict[str, RtVal]],
                discard: bool) -> None:
        for pos, lane in enumerate(group.lanes):
            if not discard:
                results[lane] = {name: vals[pos]
                                 for name, vals in group.outputs.items()}
            stats = self.stats[lane]
            stats.steps = group.steps
            stats.block_visits = dict(group.visits)
            stats.texture_samples = group.tex_samples

    # ------------------------------------------------------------------

    def _values(self, value: Value, group: _Group) -> List[RtVal]:
        if isinstance(value, Constant):
            return [value.value] * len(group.lanes)
        if isinstance(value, Undef):
            fill: RtVal = ((0.0,) * value.ty.width
                           if value.ty.is_vector else 0.0)
            return [fill] * len(group.lanes)
        try:
            return group.env[value]
        except KeyError:
            raise InterpError(
                f"use of unevaluated value {getattr(value, 'name', value)}")

    # -- values: one lane list per instruction -------------------------

    def _load_var(self, instr: LoadVar, group: _Group) -> List[RtVal]:
        vals = group.scalars.get(instr.slot)
        if vals is None:
            fill: RtVal = ((0.0,) * instr.ty.width
                           if instr.ty.is_vector else 0.0)
            vals = [fill] * len(group.lanes)
        return vals

    def _load_elem(self, instr: LoadElem, group: _Group) -> List[RtVal]:
        indices = self._values(instr.index, group)
        lane_arrays = group.arrays[instr.slot]
        out: List[RtVal] = []
        for pos, array in enumerate(lane_arrays):
            index = int(indices[pos])  # type: ignore[arg-type]
            index = (min(max(index, 0), len(array) - 1)
                     if array else 0)
            out.append(array[index] if array else 0.0)
        return out

    def _eval_binop(self, instr: BinOp, group: _Group) -> List[RtVal]:
        op = instr.op
        lhs = self._values(instr.lhs, group)
        rhs = self._values(instr.rhs, group)
        return [_binop(op, x, y) for x, y in zip(lhs, rhs)]

    def _eval_cmp(self, instr: Cmp, group: _Group) -> List[RtVal]:
        op = instr.op
        lhs = self._values(instr.lhs, group)
        rhs = self._values(instr.rhs, group)
        return [_cmp(op, x, y) for x, y in zip(lhs, rhs)]

    def _eval_unop(self, instr: UnOp, group: _Group) -> List[RtVal]:
        operands = self._values(instr.operand, group)
        if instr.op == "neg":
            return [_map_unary(v, lambda x: -x) for v in operands]
        return [_map_unary(v, lambda x: not x) for v in operands]

    def _eval_convert(self, instr: Convert, group: _Group) -> List[RtVal]:
        target = instr.ty.kind
        return [_map_unary(v, lambda x: _convert_scalar(x, target))
                for v in self._values(instr.value, group)]

    def _eval_select(self, instr: Select, group: _Group) -> List[RtVal]:
        conds = self._values(instr.cond, group)
        trues = self._values(instr.if_true, group)
        falses = self._values(instr.if_false, group)
        return [t if c else f for c, t, f in zip(conds, trues, falses)]

    def _eval_extract(self, instr: ExtractElem, group: _Group) -> List[RtVal]:
        index = instr.index
        return [vec[index] if isinstance(vec, tuple) else vec
                for vec in self._values(instr.vector, group)]

    def _eval_insert(self, instr: InsertElem, group: _Group) -> List[RtVal]:
        width = instr.ty.width
        index = instr.index
        vecs = self._values(instr.vector, group)
        scalars = self._values(instr.scalar, group)
        out: List[RtVal] = []
        for vec, scalar in zip(vecs, scalars):
            lane = list(_as_tuple(vec, width))
            lane[index] = scalar  # type: ignore[call-overload]
            out.append(tuple(lane))
        return out

    def _eval_shuffle(self, instr: Shuffle, group: _Group) -> List[RtVal]:
        width = instr.source.ty.width
        mask = instr.mask
        out: List[RtVal] = []
        for vec in self._values(instr.source, group):
            src = _as_tuple(vec, width)
            picked = tuple(src[i] for i in mask)
            out.append(picked if len(picked) > 1 else picked[0])
        return out

    def _eval_construct(self, instr: Construct, group: _Group) -> List[RtVal]:
        columns = [self._values(op, group) for op in instr.operands]
        return [tuple(col[pos] for col in columns)  # type: ignore[misc]
                for pos in range(len(group.lanes))]

    def _eval_call(self, instr: Call, group: _Group) -> List[RtVal]:
        callee = instr.callee
        width = instr.ty.width
        columns = [self._values(op, group) for op in instr.operands]
        return [_apply_builtin(callee, [col[pos] for col in columns], width)
                for pos in range(len(group.lanes))]

    def _eval_sample(self, instr: Sample, group: _Group) -> List[RtVal]:
        group.tex_samples += 1
        coord_width = instr.coord.ty.width
        coords = self._values(instr.coord, group)
        texture = self.textures.get(instr.sampler) or ProceduralTexture(
            seed=_stable_seed(instr.sampler))
        lods: Optional[List[RtVal]] = None
        if instr.lod is not None:
            lods = self._values(instr.lod, group)
        out: List[RtVal] = []
        for pos in range(len(group.lanes)):
            coord = _as_tuple(coords[pos], coord_width)
            if instr.sampler_kind == "sampler2DShadow":
                out.append(texture.sample_shadow(
                    [float(c) for c in coord]))
            else:
                lod = 0.0 if lods is None else float(lods[pos])  # type: ignore[arg-type]
                out.append(texture.sample([float(c) for c in coord],
                                          kind=instr.sampler_kind, lod=lod))
        return out

    def _load_global(self, instr: LoadGlobal, group: _Group) -> List[RtVal]:
        lane_dicts = (self._lane_inputs if instr.kind == "input"
                      else self._lane_uniforms)
        indices: Optional[List[RtVal]] = None
        if instr.element is not None:
            indices = self._values(instr.element, group)
        default: RtVal = (((0.5,) * instr.ty.width)
                          if instr.ty.is_vector else 0.5)
        out: List[RtVal] = []
        for pos, lane in enumerate(group.lanes):
            source = lane_dicts[lane]
            if instr.var not in source:
                # Harness default: 0.5 floats (paper Section IV-B).
                out.append(default)
                continue
            value = source[instr.var]
            if instr.column is not None:
                value = value[instr.column]  # type: ignore[index]
            if indices is not None:
                index = int(indices[pos])  # type: ignore[arg-type]
                seq = value  # type: ignore[assignment]
                index = min(max(index, 0), len(seq) - 1)  # type: ignore[arg-type]
                value = seq[index]  # type: ignore[index]
            out.append(value)  # type: ignore[arg-type]
        return out


#: The handler of each value-producing instruction class, called as
#: ``handler(interpreter, instr, group)``; returns the instruction's lanes.
_VALUE_OPS = {
    BinOp: BatchedInterpreter._eval_binop,
    Cmp: BatchedInterpreter._eval_cmp,
    UnOp: BatchedInterpreter._eval_unop,
    Convert: BatchedInterpreter._eval_convert,
    Select: BatchedInterpreter._eval_select,
    ExtractElem: BatchedInterpreter._eval_extract,
    InsertElem: BatchedInterpreter._eval_insert,
    Shuffle: BatchedInterpreter._eval_shuffle,
    Construct: BatchedInterpreter._eval_construct,
    Call: BatchedInterpreter._eval_call,
    Sample: BatchedInterpreter._eval_sample,
    LoadGlobal: BatchedInterpreter._load_global,
    LoadVar: BatchedInterpreter._load_var,
    LoadElem: BatchedInterpreter._load_elem,
}

#: The handler of each store and terminator class, called as
#: ``handler(interpreter, instr, group, results)`` (see ``_run_group``).
_STATEMENT_OPS = {
    Br: BatchedInterpreter._br,
    CondBr: BatchedInterpreter._cond_br,
    Ret: BatchedInterpreter._ret,
    Discard: BatchedInterpreter._discard,
    StoreOutput: BatchedInterpreter._store_output,
    StoreVar: BatchedInterpreter._store_var,
    StoreElem: BatchedInterpreter._store_elem,
}
