"""Global value numbering (the GVN flag).

Dominator-tree-scoped hash tables: walking the dominator tree depth-first,
an expression available in an ancestor scope replaces any structurally equal
instruction below it.  Memory reads (LoadVar/LoadElem) are skipped — the
always-on local CSE handles those within a block, and cross-block movement
would need a memory dependence analysis LunarGlass did not have either.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.cfg import compute_dominators
from repro.ir.instructions import Instr
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Value
from repro.passes.keys import instr_key


def gvn(function: Function) -> int:
    """Dominator-tree global value numbering: replace dominated
    recomputations with the dominating definition; returns the number of
    replacements."""
    idom = compute_dominators(function)
    children: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in function.blocks}
    for block in function.blocks:
        parent = idom[block]
        if parent is not None:
            children[parent].append(block)

    scopes: List[Dict[Tuple, object]] = []
    # id(merged instruction) -> its dominating twin.  An instruction's
    # operands are rewritten just before it is keyed, which applies every
    # earlier merge it can use; the rest are rewritten in one pass at the
    # end (replace_all_uses per merge would rescan the function each time).
    replaced: Dict[int, Value] = {}
    removed: List[Instr] = []  # keeps the keys of `replaced` alive

    def lookup(key: Tuple):
        for scope in reversed(scopes):
            if key in scope:
                return scope[key]
        return None

    # Preorder walk of the dominator tree on an explicit stack (a long
    # if-chain nests it deeper than Python's recursion limit).  A None
    # entry closes the scope of the block whose subtree just finished.
    pending: List[Optional[BasicBlock]] = [function.entry]
    while pending:
        block = pending.pop()
        if block is None:
            scopes.pop()
            continue
        scopes.append({})
        for instr in list(block.instrs):
            instr.replace_operands(replaced)
            key = instr_key(instr)
            if key is None:
                continue
            existing = lookup(key)
            if existing is None:
                scopes[-1][key] = instr
            else:
                replaced[id(instr)] = existing
                removed.append(instr)
                block.remove(instr)
        pending.append(None)
        pending.extend(reversed(children[block]))
    if removed:
        function.replace_uses(replaced)
    return len(removed)
