"""The Unroll flag: full unrolling of constant-trip-count loops.

LunarGlass description: "Simple loop unrolling for constant loop indices."
A loop qualifies when:

- it has a single latch and its only exit edge leaves from the header;
- the header condition compares an induction phi against a constant;
- the induction phi starts at a constant and steps by a constant each trip;
- the trip count (found by simulating the induction variable) is at most
  :data:`MAX_TRIPS` and body-size * trips is at most :data:`MAX_GROWTH`.

The first three conditions and the trip count do not depend on the
limits, so the choice is split in two: :func:`plan_loop` checks legality
and counts trips up to a cap, and :func:`first_fit` applies the limits.
:func:`unroll` and the vendor JITs' unroll rounds
(:meth:`repro.gpu.jit.VendorJIT.compile`) both choose loops through these
two, so drivers with different limits that pick the same loops agree.

The body blocks are cloned once per iteration (the "large basic blocks"
artifact follows after the always-on cleanup folds the cloned control flow).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.ir.cfg import NaturalLoop, find_natural_loops, reverse_postorder
from repro.ir.clone import _clone
from repro.ir.instructions import (
    BinOp, Br, Cmp, CondBr, Discard, Phi, Ret, Terminator,
)
from repro.ir.interp import _cmp
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Constant, Value

MAX_TRIPS = 64
MAX_GROWTH = 4096  # instructions
#: Loops unrolled per call at most; loops are re-discovered after each.
MAX_ROUNDS = 16


class LoopPlan(NamedTuple):
    """A loop :func:`plan_loop` found unrollable, with what unrolling it
    needs.  ``trips`` and ``body_size`` come first, so a plan passes
    wherever :func:`first_fit` takes a ``(trips, body size)`` pair."""

    trips: int
    body_size: int
    preheader: BasicBlock
    exit_block: BasicBlock
    body_entry: BasicBlock
    latch: BasicBlock


def unroll(function: Function, max_trips: int = MAX_TRIPS,
           max_growth: int = MAX_GROWTH) -> int:
    """Fully unroll every qualifying loop; returns loops unrolled.

    ``max_trips``/``max_growth`` let the simulated vendor JITs model drivers
    with weaker unrolling heuristics than the offline tool.
    """
    unrolled = 0
    # Re-discover loops after each unroll (nested loops change shape).
    for _ in range(MAX_ROUNDS):
        loops = find_natural_loops(function)
        chosen = first_fit((plan_loop(function, loop, max_trips)
                            for loop in loops), max_trips, max_growth)
        if chosen is None:
            break
        index, plan = chosen
        _apply(function, loops[index], plan)
        unrolled += 1
    return unrolled


def first_fit(sizes: Iterable[Optional[Tuple[int, int]]], max_trips: int,
              max_growth: int) -> Optional[Tuple[int, Tuple[int, int]]]:
    """The loop an unroller with these limits takes: ``(index, size)`` of
    the first ``(trips, body size)`` in *sizes* with at most *max_trips*
    trips and at most *max_growth* unrolled instructions, or None.  A
    ``None`` in *sizes* is a loop that cannot be unrolled."""
    for index, size in enumerate(sizes):
        if size is not None and size[0] <= max_trips and \
                size[0] * size[1] <= max_growth:
            return index, size
    return None


def loop_sizes(function: Function,
               trip_cap: int) -> Tuple[Optional[Tuple[int, int]], ...]:
    """``(trips, body size)`` of each loop of ``find_natural_loops`` that
    :func:`plan_loop` can unroll in at most *trip_cap* trips, else None.
    Reads *function* only."""
    return tuple(None if plan is None else (plan.trips, plan.body_size)
                 for plan in (plan_loop(function, loop, trip_cap)
                              for loop in find_natural_loops(function)))


def unroll_round(function: Function, index: int, trips: int) -> None:
    """One round of :func:`unroll`: fully unroll the *index*-th loop of
    ``find_natural_loops``, which :func:`loop_sizes` found to run *trips*
    times."""
    loop = find_natural_loops(function)[index]
    plan = plan_loop(function, loop, trips)
    if plan is None or plan.trips != trips:
        raise AssertionError(f"loop {index} no longer unrolls in {trips} "
                             "trips")
    _apply(function, loop, plan)


def plan_loop(function: Function, loop: NaturalLoop,
              trip_cap: int) -> Optional[LoopPlan]:
    """Check legality and count the trips of *loop*, whatever the limits;
    None when it cannot be unrolled or runs more than *trip_cap* trips."""
    header = loop.header
    if len(loop.latches) != 1:
        return None
    latch = loop.latches[0]

    preds = function.predecessors()
    outside_preds = [p for p in preds[header] if p not in loop.blocks]
    if len(outside_preds) != 1:
        return None
    preheader = outside_preds[0]

    term = header.terminator
    if not isinstance(term, CondBr):
        return None
    if term.if_true in loop.blocks and term.if_false not in loop.blocks:
        exit_block = term.if_false
        body_entry = term.if_true
        exit_when_false = True
    elif term.if_false in loop.blocks and term.if_true not in loop.blocks:
        exit_block = term.if_true
        body_entry = term.if_false
        exit_when_false = False
    else:
        return None

    # The ONLY exit must be the header's (no breaks / returns inside).
    for block in loop.blocks:
        if block is header:
            continue
        for succ in block.successors():
            if succ not in loop.blocks:
                return None
        if isinstance(block.terminator, (Ret, Discard)):
            return None

    # Find the induction phi driving the condition.
    cond = term.cond
    if not isinstance(cond, Cmp):
        return None
    phi, bound = None, None
    if isinstance(cond.lhs, Phi) and cond.lhs.block is header and isinstance(
            cond.rhs, Constant):
        phi, bound, flipped = cond.lhs, cond.rhs, False
    elif isinstance(cond.rhs, Phi) and cond.rhs.block is header and isinstance(
            cond.lhs, Constant):
        phi, bound, flipped = cond.rhs, cond.lhs, True
    else:
        return None

    init = None
    step_value = None
    for pred, value in phi.incoming:
        if pred is preheader:
            init = value
        elif pred is latch:
            step_value = value
    if not isinstance(init, Constant) or step_value is None:
        return None
    if not (isinstance(step_value, BinOp) and step_value.op in ("add", "sub")):
        return None
    if step_value.lhs is phi and isinstance(step_value.rhs, Constant):
        step = step_value.rhs.value
        if step_value.op == "sub":
            step = -step  # type: ignore[operator]
    elif step_value.rhs is phi and isinstance(step_value.lhs, Constant) and \
            step_value.op == "add":
        step = step_value.lhs.value
    else:
        return None
    if step == 0:
        return None

    # Simulate the induction variable to find the trip count.
    trips = 0
    i = init.value
    while trips <= trip_cap:
        taken = _cmp(cond.op, bound.value, i) if flipped else _cmp(
            cond.op, i, bound.value)
        stays = taken if exit_when_false else not taken
        if not stays:
            break
        trips += 1
        i = i + step  # type: ignore[operator]
    else:
        return None
    if trips == 0:
        return None

    # Values escaping the loop must be header phis (anything else would need
    # a final partial header clone; LunarGlass's simple unroller bails too).
    header_phi_set = set(header.phis())
    loop_values = set()
    for block in loop.blocks:
        for instr in block.instrs:
            loop_values.add(id(instr))
    for block in function.blocks:
        if block in loop.blocks:
            continue
        for instr in block.instrs:
            if isinstance(instr, Phi):
                candidates = [v for _, v in instr.incoming]
            else:
                candidates = list(instr.operands)
            for value in candidates:
                if id(value) in loop_values and value not in header_phi_set:
                    return None

    body_size = sum(len(b.instrs) for b in loop.blocks)
    return LoopPlan(trips, body_size, preheader, exit_block, body_entry,
                    latch)


def _apply(function: Function, loop: NaturalLoop, plan: LoopPlan) -> None:
    trips, preheader, exit_block = plan.trips, plan.preheader, plan.exit_block
    body_entry, latch = plan.body_entry, plan.latch
    header = loop.header
    loop_blocks = [b for b in reverse_postorder(function) if b in loop.blocks]
    header_phis = header.phis()

    # phi -> current value at the start of the iteration being cloned.
    current: Dict[Phi, Value] = {}
    for hphi in header_phis:
        for pred, value in hphi.incoming:
            if pred is preheader:
                current[hphi] = value

    def latch_incoming(hphi: Phi) -> Value:
        for pred, value in hphi.incoming:
            if pred is latch:
                return value
        raise AssertionError("phi lacks latch incoming")

    insert_at = function.blocks.index(exit_block)
    prev_tail: BasicBlock = preheader
    prev_tail_target = header  # the branch in prev_tail currently aims here
    # The cloner's maps are complete: slots and blocks outside the trip map
    # to themselves.
    slot_map = {slot: slot for slot in function.slots}
    outside = {block: block for block in function.blocks}

    for _trip in range(trips):
        block_map: Dict[BasicBlock, BasicBlock] = {}
        value_map: Dict[Value, Value] = dict(current)
        new_blocks: List[BasicBlock] = []
        for old in loop_blocks:
            clone = BasicBlock(f"{old.name}.u{_trip}")
            block_map[old] = clone
            new_blocks.append(clone)
        # Branches cloned inside this trip must NOT remap the header: the
        # latch's backedge stays aimed at the original header as a
        # placeholder, redirected to the next trip (or the exit) later.
        branch_map = {**outside, **block_map, header: header}

        # Inner phis (if-merges, nested loop headers) may reference values
        # cloned later in the trip (back edges), so create shells first and
        # patch their incoming lists after the whole trip is cloned.
        inner_phis = []
        for old in loop_blocks:
            if old is header:
                continue  # header phis replaced via value_map
            clone = block_map[old]
            for instr in old.instrs:
                if isinstance(instr, Phi):
                    new_phi = Phi(instr.ty)
                    clone.instrs.append(new_phi)
                    new_phi.block = clone
                    value_map[instr] = new_phi
                    inner_phis.append((instr, new_phi))

        for old in loop_blocks:
            clone = block_map[old]
            for instr in old.instrs:
                if isinstance(instr, Phi):
                    continue
                if old is header and isinstance(instr, Terminator):
                    clone.append(Br(block_map[body_entry]))
                    continue
                new_instr = _clone(instr, value_map, branch_map, slot_map)
                clone.instrs.append(new_instr)
                new_instr.block = clone
                if not isinstance(new_instr, Terminator):
                    value_map[instr] = new_instr

        for old_phi, new_phi in inner_phis:
            for pred, value in old_phi.incoming:
                # Full block_map here (unlike branch targets): an inner-loop
                # header may have the outer header as its predecessor, and
                # that edge now comes from this trip's header clone.
                new_phi.add_incoming(block_map.get(pred, pred),
                                     value_map.get(value, value))

        # Chain the previous tail into this iteration's header clone.
        _redirect(prev_tail, prev_tail_target, block_map[header])
        prev_tail = block_map[latch]
        prev_tail_target = header  # the cloned latch branch still aims at header

        # Advance induction/accumulator values for the next iteration.
        next_values: Dict[Phi, Value] = {}
        for hphi in header_phis:
            incoming = latch_incoming(hphi)
            next_values[hphi] = value_map.get(incoming, incoming)
        current = next_values

        for clone in new_blocks:
            function.blocks.insert(insert_at, clone)
            insert_at += 1

    # After the last iteration, branch to the exit.
    _redirect(prev_tail, prev_tail_target, exit_block)

    # The exit edge used to come from the header: fix exit phis.
    for ephi in exit_block.phis():
        for index, (pred, value) in enumerate(list(ephi.incoming)):
            if pred is header:
                ephi.incoming[index] = (prev_tail, current.get(value, value))
        ephi._sync_operands()

    # Uses of header phis outside the loop now refer to the final
    # iteration's values.  No final value is a header phi, so one
    # simultaneous rewrite is enough (and the loop's own blocks go next).
    function.replace_uses({id(phi): value for phi, value in current.items()})

    # Remove the original loop blocks.
    for block in loop_blocks:
        if block in function.blocks:
            function.blocks.remove(block)
    function.remove_unreachable_blocks()


def _redirect(block: BasicBlock, old_target: BasicBlock,
              new_target: BasicBlock) -> None:
    term = block.terminator
    if isinstance(term, Br) and term.target is old_target:
        term.target = new_target
    elif isinstance(term, CondBr):
        if term.if_true is old_target:
            term.if_true = new_target
        if term.if_false is old_target:
            term.if_false = new_target
