"""Analytical per-fragment cycle model and draw-call time estimation.

``estimate_kernel(function, spec, profile)`` walks the compiled IR, costs
each basic block by ISA class (scalar ISAs pay per lane, the Mali-style
vector ISA pays per issue), weights blocks by the dynamic execution profile,
and applies the occupancy model: register pressure determines resident warp
count, which determines how much texture latency is hidden.

It is two halves.  :func:`kernel_summary` does everything that does not
depend on the GPU: register pressure, the varying-value taint of branch
conditions, block weights and instruction classes.  :meth:`KernelSummary.fold`
costs a summary for one :class:`GPUSpec`.  The measurement path
(:mod:`repro.harness.environment`) builds one summary per distinct driver
output and folds it once per platform.

The absolute scale is calibrated to plausible `GL_TIME_ELAPSED` magnitudes
(hundreds of microseconds for a 500x500 full-screen draw), but the study
reports relative speed-ups, which only depend on the model's structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.gpu.isa import MachineOp, OpClass, classify
from repro.gpu.registers import max_live_scalars
from repro.ir.instructions import CondBr, LoadGlobal, Phi, Sample
from repro.ir.module import Function


@dataclass(frozen=True)
class GPUSpec:
    """Microarchitecture parameters for one platform's shader core."""

    name: str
    isa: str  # "scalar" | "vector"
    # Per-scalar-lane costs (scalar ISA) / per-issue costs (vector ISA).
    alu: float = 1.0
    mov: float = 0.5
    transcendental: float = 4.0
    reduction: float = 1.5       # vector-ISA dot-unit issue cost
    texture_issue: float = 2.0
    texture_latency: float = 100.0
    interp: float = 1.0
    uniform_load: float = 0.5
    local_mem: float = 2.0
    export: float = 2.0
    branch: float = 1.0            # uniform (non-divergent) branch
    divergent_branch: float = 4.0  # extra cost when the condition varies
                                   # per fragment (warp divergence)
    scalar_op_penalty: float = 1.0  # vector ISA: scalar ops waste lanes
    # Occupancy model.
    reg_file: int = 256          # scalar registers per thread-slot budget
    max_warps: int = 16
    warps_full_hiding: int = 8
    reg_overhead: int = 8        # regs consumed by fixed state
    # Instruction cache model (small on mobile).
    icache_ops: int = 4096
    icache_penalty: float = 1.3
    # Machine scale: effective scalar lanes * clock, for ns conversion.
    throughput: float = 1.0e12   # scalar-lane-cycles per second across chip


@dataclass
class CostBreakdown:
    """Cycle accounting for one compiled shader on one GPU."""

    cycles_per_fragment: float = 0.0
    alu_cycles: float = 0.0
    mov_cycles: float = 0.0
    transcendental_cycles: float = 0.0
    texture_cycles: float = 0.0
    memory_cycles: float = 0.0
    branch_cycles: float = 0.0
    registers: int = 0
    occupancy: float = 1.0
    static_ops: int = 0
    by_class: Dict[str, float] = field(default_factory=dict)


def _op_cost(op: MachineOp, spec: GPUSpec) -> float:
    scalar = spec.isa == "scalar"
    width = max(op.width, 1)
    # Vector ISAs pay one issue regardless of width, but scalar-width ops
    # waste the other lanes (and serialize against the vector pipeline).
    waste = spec.scalar_op_penalty if (not scalar and op.width == 1) else 1.0
    if op.op_class == OpClass.ALU:
        return spec.alu * (width if scalar else waste)
    if op.op_class == OpClass.MOV:
        return spec.mov * (width if scalar else waste)
    if op.op_class == OpClass.TRANSCENDENTAL:
        return spec.transcendental * (width if scalar else waste)
    if op.op_class == OpClass.REDUCTION:
        if scalar:
            return spec.alu * (2 * width - 1)
        return spec.reduction
    if op.op_class == OpClass.INTERP:
        return spec.interp * (width if scalar else 1)
    if op.op_class == OpClass.UNIFORM:
        return spec.uniform_load * (width if scalar else 1)
    if op.op_class == OpClass.LOCAL_MEM:
        return spec.local_mem * (width if scalar else 1)
    if op.op_class == OpClass.EXPORT:
        return spec.export
    if op.op_class == OpClass.BRANCH:
        return spec.branch if op.width else spec.branch * 0.25
    if op.op_class == OpClass.PHI:
        return 0.0
    if op.op_class == OpClass.TEXTURE:
        return spec.texture_issue  # latency handled separately
    raise AssertionError(op.op_class)


@dataclass(frozen=True)
class KernelSummary:
    """Everything the cost model derives from a compiled function and its
    profile without a :class:`GPUSpec`, so a summary serves every platform
    whose driver produced the same IR (see :meth:`fold`).

    ``blocks`` has one ``(weight, instruction count, ops)`` entry per block,
    in block order: block names are unique per clone, so a summary never
    refers to them.  ``ops`` pairs each instruction's
    :class:`~repro.gpu.isa.MachineOp` with whether it is a branch on a
    per-fragment condition, and is empty for a block of weight 0, which
    the fold only counts.
    """

    max_live_scalars: int
    blocks: Tuple[Tuple[float, int, Tuple[Tuple[MachineOp, bool], ...]], ...]

    def fold(self, spec: GPUSpec) -> CostBreakdown:
        """The per-fragment cost on *spec*.  Sums in the order the
        instructions appear, so every float equals a per-instruction walk
        of the IR bit for bit."""
        result = CostBreakdown()
        result.registers = self.max_live_scalars + spec.reg_overhead

        warps = max(1, min(spec.max_warps,
                           spec.reg_file // max(result.registers, 1)))
        result.occupancy = min(1.0, warps / spec.warps_full_hiding)
        unhidden = spec.texture_latency * (1.0 - result.occupancy)

        total = 0.0
        for weight, size, ops in self.blocks:
            if weight == 0.0:
                result.static_ops += size
                continue
            block_cost = 0.0
            for op, divergent in ops:
                cost = _op_cost(op, spec)
                if divergent:
                    # Per-fragment condition: warp divergence penalty.
                    cost += spec.divergent_branch
                result.static_ops += 1
                cls = op.op_class
                if cls == OpClass.TEXTURE:
                    cost += unhidden
                    result.texture_cycles += cost * weight
                elif cls == OpClass.TRANSCENDENTAL:
                    result.transcendental_cycles += cost * weight
                elif cls == OpClass.MOV:
                    result.mov_cycles += cost * weight
                elif cls in (OpClass.LOCAL_MEM, OpClass.UNIFORM,
                             OpClass.INTERP):
                    result.memory_cycles += cost * weight
                elif cls == OpClass.BRANCH:
                    result.branch_cycles += cost * weight
                else:
                    result.alu_cycles += cost * weight
                result.by_class[cls.name] = result.by_class.get(
                    cls.name, 0.0) + (cost * weight)
                block_cost += cost
            total += block_cost * weight

        if result.static_ops > spec.icache_ops:
            total *= spec.icache_penalty

        result.cycles_per_fragment = total
        return result


#: One shared ``(op, divergent)`` pair per distinct value, so a summary
#: costs a reference per instruction.
_OP_PAIRS: Dict[Tuple[MachineOp, bool], Tuple[MachineOp, bool]] = {}


def kernel_summary(function: Function,
                   profile: Optional[Dict[str, float]] = None
                   ) -> KernelSummary:
    """Summarize *function* for :meth:`KernelSummary.fold`: register
    pressure, the varying-value taint of branch conditions, and each
    block's weight and classified instructions.

    *profile* maps block names to average dynamic visit counts per fragment
    (from the reference interpreter); a block absent from a supplied
    profile did not execute and weighs 0.  Without a profile every block
    weighs 1.
    """
    varying = _varying_values(function)
    blocks = []
    for block in function.blocks:
        weight = 1.0 if profile is None else profile.get(block.name, 0.0)
        ops = []
        if weight != 0.0:
            for instr in block.instrs:
                pair = (classify(instr), isinstance(instr, CondBr)
                        and id(instr.cond) in varying)
                ops.append(_OP_PAIRS.setdefault(pair, pair))
        blocks.append((weight, len(block.instrs), tuple(ops)))
    return KernelSummary(max_live_scalars(function), tuple(blocks))


def estimate_kernel(function: Function, spec: GPUSpec,
                    profile: Optional[Dict[str, float]] = None) -> CostBreakdown:
    """Estimate per-fragment cost: :func:`kernel_summary` folded for *spec*
    (see there for how *profile* weights blocks)."""
    return kernel_summary(function, profile).fold(spec)


def _varying_values(function: Function) -> set:
    """ids of values that vary per fragment (taint from varyings/textures).

    Loop counters and uniform-derived values stay uniform across a warp, so
    branches on them do not diverge — this is what makes loop back-edges
    cheap while data-dependent branches pay the divergence penalty.
    """
    varying: set = set()
    changed = True
    while changed:
        changed = False
        for instr in function.instructions():
            if id(instr) in varying:
                continue
            tainted = False
            if isinstance(instr, LoadGlobal) and instr.kind == "input":
                tainted = True
            elif isinstance(instr, Sample):
                tainted = True
            elif isinstance(instr, Phi):
                tainted = any(id(v) in varying for _, v in instr.incoming)
            else:
                tainted = any(id(op) in varying for op in instr.operands)
            if tainted:
                varying.add(id(instr))
                changed = True
    return varying


def draw_time_ns(cost: CostBreakdown, spec: GPUSpec, fragments: int) -> float:
    """Convert a per-fragment cycle estimate into nanoseconds per draw call."""
    lane_cycles = cost.cycles_per_fragment * fragments
    return lane_cycles / spec.throughput * 1.0e9
