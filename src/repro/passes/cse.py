"""Local (per-block) common sub-expression elimination.

Part of the always-on canonical pipeline ("common sub-expression elimination
... necessary passes"), deliberately block-local so the GVN *flag* still has
global work to do, matching LunarGlass's split.

Merged instructions are replaced the way GVN replaces them
(:mod:`repro.passes.gvn`): an instruction's operands are rewritten through
the merges so far just before it is keyed, and the rest of the function is
rewritten in one pass at the end.  A table entry is never itself merged
away and the tables are per block, so one lookup per operand applies every
merge the eager replace-all-uses would have applied by then.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir.instructions import Instr, LoadElem, LoadVar, StoreElem, StoreVar
from repro.ir.module import Function
from repro.ir.values import Value
from repro.passes.keys import instr_key, load_key


def local_cse(function: Function) -> int:
    """Merge structurally identical pure instructions within each block."""
    replaced: Dict[int, Value] = {}
    removed: List[Instr] = []  # keeps the keys of `replaced` alive
    for block in function.blocks:
        table: Dict[Tuple, Instr] = {}
        versions: Dict[int, int] = {}
        for instr in list(block.instrs):
            cls = type(instr)
            if cls is StoreVar or cls is StoreElem:
                versions[id(instr.slot)] = versions.get(id(instr.slot), 0) + 1
                continue
            if replaced:
                instr.replace_operands(replaced)
            if cls is LoadVar or cls is LoadElem:
                key = load_key(instr, versions.get(id(instr.slot), 0))
            else:
                key = instr_key(instr)
            if key is None:
                continue
            existing = table.get(key)
            if existing is None:
                table[key] = instr
            else:
                replaced[id(instr)] = existing
                removed.append(instr)
                block.remove(instr)
    if removed:
        function.replace_uses(replaced)
    return len(removed)
