"""Basic blocks, functions, and modules."""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import IRError
from repro.glsl.introspect import ShaderInterface
from repro.ir.instructions import Instr, Phi, Terminator
from repro.ir.values import Slot, Value

_block_counter = itertools.count()


class BasicBlock:
    """A straight-line instruction sequence ending in one terminator."""
    def __init__(self, name: Optional[str] = None):
        # Names are globally unique: dynamic profiles key on them.
        suffix = next(_block_counter)
        self.name = f"{name}.{suffix}" if name else f"bb{suffix}"
        self.instrs: List[Instr] = []

    # -- structure ------------------------------------------------------
    @property
    def terminator(self) -> Optional[Terminator]:
        if self.instrs and isinstance(self.instrs[-1], Terminator):
            return self.instrs[-1]
        return None

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        return term.successors() if term else []

    def phis(self) -> List[Phi]:
        """The phis, which sit at the top of the block (``insert_at_front``
        keeps them there, and the verifier checks it)."""
        phis: List[Phi] = []
        for instr in self.instrs:
            if type(instr) is not Phi:
                break
            phis.append(instr)  # type: ignore[arg-type]
        return phis

    def non_phi_instrs(self) -> List[Instr]:
        return [i for i in self.instrs if not isinstance(i, Phi)]

    # -- mutation ---------------------------------------------------------
    def append(self, instr: Instr) -> Instr:
        if self.terminator is not None:
            raise IRError(f"appending to terminated block {self.name}")
        instr.block = self
        self.instrs.append(instr)
        return instr

    def insert_before_terminator(self, instr: Instr) -> Instr:
        instr.block = self
        if self.terminator is not None:
            self.instrs.insert(len(self.instrs) - 1, instr)
        else:
            self.instrs.append(instr)
        return instr

    def insert_at_front(self, instr: Instr) -> Instr:
        instr.block = self
        index = 0
        while index < len(self.instrs) and isinstance(self.instrs[index], Phi):
            index += 1
        self.instrs.insert(index, instr)
        return instr

    def remove(self, instr: Instr) -> None:
        self.instrs.remove(instr)
        instr.block = None

    def __repr__(self) -> str:
        return f"BasicBlock({self.name}, {len(self.instrs)} instrs)"


class Function:
    """A single shader entry point (always the fully inlined ``main``)."""

    def __init__(self, name: str = "main"):
        self.name = name
        self.blocks: List[BasicBlock] = []
        self.slots: List[Slot] = []

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError("function has no blocks")
        return self.blocks[0]

    def add_block(self, block: BasicBlock) -> BasicBlock:
        self.blocks.append(block)
        return block

    def new_slot(self, slot: Slot) -> Slot:
        self.slots.append(slot)
        return slot

    # -- analyses ---------------------------------------------------------
    def predecessors(self) -> Dict[BasicBlock, List[BasicBlock]]:
        preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in self.blocks}
        for block in self.blocks:
            for succ in block.successors():
                preds[succ].append(block)
        return preds

    def instructions(self) -> Iterable[Instr]:
        for block in self.blocks:
            yield from block.instrs

    def replace_all_uses(self, old: Value, new: Value) -> int:
        """Rewrite every operand edge old -> new; returns edges rewritten.

        Each call scans the whole function.  The always-on cleanup does not
        call it per value (canonicalization keeps a users index per round,
        local CSE batches through :meth:`replace_uses`); the callers are
        the flag passes (hoist, reassociate, fp_reassociate, div_to_mul,
        coalesce) and the trivial-phi pruning of
        :func:`repro.ir.mem2reg._prune_trivial_phis`.
        """
        count = 0
        for instr in self.instructions():
            if old in instr.operands:
                instr.replace_operand(old, new)
                count += 1
        return count

    def replace_uses(self, replaced: Dict[int, Value]) -> None:
        """:meth:`replace_all_uses` for many values in one pass: rewrite
        every operand whose ``id()`` is a key of *replaced*.

        The caller keeps the replaced values alive until this returns, so
        that no new object can take over one of their ids.
        """
        for instr in self.instructions():
            instr.replace_operands(replaced)

    def remove_unreachable_blocks(self) -> int:
        """Drop blocks unreachable from entry; fix phi incoming lists."""
        reachable = set()
        stack = [self.entry]
        while stack:
            block = stack.pop()
            if block in reachable:
                continue
            reachable.add(block)
            stack.extend(block.successors())
        dead = [b for b in self.blocks if b not in reachable]
        if not dead:
            return 0
        dead_set = set(dead)
        for block in self.blocks:
            if block in dead_set:
                continue
            for phi in block.phis():
                for pred, _ in list(phi.incoming):
                    if pred in dead_set:
                        phi.remove_incoming(pred)
        self.blocks = [b for b in self.blocks if b in reachable]
        return len(dead)

    def dump(self) -> str:
        lines = [f"function {self.name}:"]
        for block in self.blocks:
            lines.append(f"  {block.name}:")
            for instr in block.instrs:
                lines.append(f"    {instr.short()}")
        return "\n".join(lines)


class Module:
    """A compiled shader: one function plus its GLSL interface."""

    def __init__(self, function: Function, interface: ShaderInterface,
                 version: Optional[str] = None):
        self.function = function
        self.interface = interface
        self.version = version
        #: The pipeline steps that changed the source's cleaned module
        #: into this module, in order: unroll rounds ``("unroll", loop
        #: index, trips)``, the ``("cleanup",)`` after the last round, and
        #: each pass ``(name,)`` that changed the IR (set by
        #: :meth:`repro.gpu.jit.VendorJIT.compile`, for a driver or a flag
        #: point); ``None`` on a module no walk compiled.  Equal steps
        #: mean equal IR.
        self.driver_steps: Optional[Tuple[Tuple, ...]] = None

    def dump(self) -> str:
        return self.function.dump()
