"""Straight-line block merging (a minimal simplifycfg).

Part of the always-on canonical pipeline: after unrolling or constant branch
folding, chains of ``A -> Br -> B`` (B single-pred) merge into one block.
This is what turns a fully unrolled loop into the paper's "very large basic
blocks" and lets local CSE see across former iteration boundaries.
"""

from __future__ import annotations

from repro.ir.instructions import Br, CondBr, Terminator
from repro.ir.mem2reg import _prune_trivial_phis
from repro.ir.module import Function


def merge_straightline_blocks(function: Function) -> int:
    """Merge single-pred/single-succ Br chains and thread empty forwarding
    blocks; returns the number of blocks eliminated plus trivial phis
    pruned."""
    merged = 0
    changed = True
    while changed:
        changed = False
        merged += _prune_trivial_phis(function)
        preds = function.predecessors()
        for block in list(function.blocks):
            term = block.terminator
            if not isinstance(term, Br):
                continue
            target = term.target
            if target is block or target is function.entry:
                continue
            if preds[target] != [block]:
                continue
            if target.phis():
                continue  # trivial phis were pruned; anything left is real
            block.remove(term)
            for instr in list(target.instrs):
                target.remove(instr)
                instr.block = block
                block.instrs.append(instr)
            for succ in block.successors():
                for phi in succ.phis():
                    for i, (pred, value) in enumerate(list(phi.incoming)):
                        if pred is target:
                            phi.incoming[i] = (block, value)
            function.blocks.remove(target)
            merged += 1
            changed = True
            break
        if not changed:
            changed = bool(_thread_empty_blocks(function))
            merged += int(changed)
    return merged


def _thread_empty_blocks(function: Function) -> int:
    """Redirect branches through blocks that contain only `Br target`."""
    preds = function.predecessors()
    for block in list(function.blocks):
        if block is function.entry or len(block.instrs) != 1:
            continue
        term = block.terminator
        if not isinstance(term, Br) or term.target is block:
            continue
        target = term.target
        block_preds = preds[block]
        if not block_preds:
            continue
        # A predecessor that already branches to `target` cannot be threaded
        # when `target` has phis (two incoming entries for one pred).
        if target.phis() and any(target in p.successors() for p in block_preds):
            continue
        for phi in target.phis():
            forwarded = None
            for pred, value in phi.incoming:
                if pred is block:
                    forwarded = value
            if forwarded is None:
                continue
            phi.remove_incoming(block)
            for pred in block_preds:
                phi.add_incoming(pred, forwarded)
        for pred in block_preds:
            pred_term = pred.terminator
            if isinstance(pred_term, Br) and pred_term.target is block:
                pred_term.target = target
            elif isinstance(pred_term, CondBr):
                if pred_term.if_true is block:
                    pred_term.if_true = target
                if pred_term.if_false is block:
                    pred_term.if_false = target
        function.blocks.remove(block)
        return 1
    return 0
