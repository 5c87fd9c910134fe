"""Shared test helpers: compile shaders, execute them, compare outputs.

Lives in its own module (not conftest.py) so test files can import it
unambiguously — ``benchmarks/conftest.py`` would otherwise shadow
``tests/conftest.py`` under the module name ``conftest`` depending on
collection order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import re
from typing import Dict, List, Optional

from repro.core import VariantSet, compile_shader
from repro.errors import LexerError
from repro.glsl import parse_shader, preprocess
from repro.glsl.tokens import (
    KEYWORDS, MULTI_CHAR_OPS, SINGLE_CHAR_OPS, TYPE_NAMES, Token, TokenKind,
)
from repro.gpu.cost import (
    CostBreakdown, GPUSpec, _op_cost, _varying_values, draw_time_ns,
)
from repro.gpu.isa import OpClass, classify
from repro.gpu.jit import VendorJIT
from repro.gpu.platform import Platform
from repro.gpu.registers import max_live_scalars
from repro.gpu.timing import TimerModel
from repro.harness.environment import SAMPLE_FRAGMENTS, ExecutionReport
from repro.harness.protocol import FRAMES_PER_RUN, REPEATS, Measurement
from repro.harness.uniforms import (
    default_textures, default_uniform_values, fragment_inputs,
)
from repro.ir import (
    Interpreter, emit_glsl, lower_shader, promote_to_ssa, verify_function,
)
from repro.ir.clone import clone_module
from repro.ir.instructions import (
    BinOp, Br, Call, Cmp, CondBr, Construct, Convert, ExtractElem, LoadElem,
    LoadVar, Phi, Select, Shuffle, StoreElem, StoreVar, UnOp,
)
from repro.ir.mem2reg import _prune_trivial_phis
from repro.ir.module import Function, Module
from repro.ir.values import Constant
from repro.passes import (
    ALL_FLAG_NAMES, SPACE_SIZE, OptimizationFlags, canonicalize, run_passes,
)
from repro.passes.coalesce import coalesce
from repro.passes.dce import trivial_dce
from repro.passes.div_to_mul import div_to_mul
from repro.passes.gvn import gvn
from repro.passes.hoist import hoist
from repro.passes.keys import instr_key, load_key
from repro.passes.manager import run_cleanup, run_step
from repro.passes.simplify_cfg import merge_straightline_blocks
from repro.passes.unroll import MAX_ROUNDS, unroll


DEFAULT_ENV = {
    "uniforms": {"ambient": (0.5, 0.4, 0.6, 0.5)},
    "inputs": {"uv": (0.3, 0.7)},
}


def run_source(source: str, flags: Optional[OptimizationFlags] = None,
               uniforms: Optional[Dict] = None, inputs: Optional[Dict] = None):
    """Compile + verify + interpret; returns the outputs dict."""
    compiled = compile_shader(source, flags or OptimizationFlags.none())
    verify_function(compiled.module.function)
    interp = Interpreter(compiled.module, uniforms=uniforms or {},
                         inputs=inputs or {})
    return interp.run()


def assert_outputs_close(a: Dict, b: Dict, tol: float = 1e-6) -> None:
    assert set(a) == set(b), f"output sets differ: {set(a)} vs {set(b)}"
    for key in a:
        va, vb = a[key], b[key]
        ta = va if isinstance(va, tuple) else (va,)
        tb = vb if isinstance(vb, tuple) else (vb,)
        assert len(ta) == len(tb)
        for x, y in zip(ta, tb):
            scale = max(abs(float(x)), abs(float(y)), 1.0)
            assert abs(float(x) - float(y)) <= tol * scale, (key, va, vb)


# ---------------------------------------------------------------------------
# Reference oracles: the slow, obviously-correct paths the fast ones must
# reproduce bit for bit.
# ---------------------------------------------------------------------------


def fresh_frontend(source: str) -> Module:
    """The front end with no memo: preprocess, parse, lower and promote to
    SSA.  The module is new and uncleaned, and shares nothing with
    ``shared_frontend``'s."""
    pp = preprocess(source)
    module = lower_shader(parse_shader(pp.text), version=pp.version)
    promote_to_ssa(module.function)
    return module


def reference_compile(source: str, flags: OptimizationFlags,
                      es: bool = False) -> str:
    """The flag-point oracle: *source* compiled under *flags* on a
    fresh-name clone of a ``fresh_frontend`` module, through the cleanup,
    ``run_passes`` and emission, with no memo, cleaned module or step
    shared."""
    return _reference_point(fresh_frontend(source), flags, es)


def _reference_point(frontend: Module, flags: OptimizationFlags,
                     es: bool) -> str:
    module = clone_module(frontend)
    run_cleanup(module.function)
    run_passes(module, flags)
    return emit_glsl(module, es=es)


def naive_variants(source: str, es: bool = False) -> VariantSet:
    """The variant oracle: ``reference_compile`` under every flag
    combination, from one ``fresh_frontend`` module.  Grouped by emitted
    text in flag-index order."""
    frontend = fresh_frontend(source)
    return VariantSet.from_index_to_text(
        {flags.index: _reference_point(frontend, flags, es)
         for flags in OptimizationFlags.all_combinations()})


#: The passes the stock and the drawn vendor JITs run, by the names
#: ``VendorJIT.passes`` uses.
_DRIVER_PASSES = {"gvn": gvn, "coalesce": coalesce, "div_to_mul": div_to_mul,
                  "hoist": hoist}


def reference_jit_compile(jit: VendorJIT, source: str) -> Module:
    """The driver-JIT oracle: the whole vendor pipeline (cleanup, the
    driver unroll, then each of its passes) on a fresh-name clone of a
    ``fresh_frontend`` module, as the shared front end starts, with no
    memo, cleaned module or step shared."""
    module = clone_module(fresh_frontend(source))
    function = module.function
    run_cleanup(function)
    if jit.unroll_max_trips > 0:
        run_step(function, unroll, max_trips=jit.unroll_max_trips,
                 max_growth=jit.unroll_max_growth)
    for name in jit.passes:
        run_step(function, _DRIVER_PASSES[name])
    return module


def changed_flags(driver_steps) -> int:
    """The flag-index bits of the passes that changed the IR on a flag
    point's walk, read from its ``driver_steps``: an unroll round, and the
    cleanup after the last, are ``unroll``'s."""
    names = {"unroll" if step[0] == "cleanup" else step[0]
             for step in driver_steps}
    return sum(1 << ALL_FLAG_NAMES.index(name) for name in names)


def unroll_rounds(module: Module) -> int:
    """The unroll rounds a driver compile took (``driver_steps``)."""
    return sum(step[0] == "unroll" for step in module.driver_steps)


def unshared_jit_steps(jit: VendorJIT, module: Module) -> int:
    """``jit_pipeline_steps()`` of *jit*'s compile when it shares no step
    with an earlier one: a loop scan per unroll round plus the one that
    ends them, each round and the cleanup after the last, and each of its
    passes.  *module* is that compile's result."""
    rounds = unroll_rounds(module)
    scans = 0
    if jit.unroll_max_trips > 0:
        scans = rounds + (rounds < MAX_ROUNDS)
    return scans + rounds + (rounds > 0) + len(jit.passes)


#: What an ``EvaluationEngine`` holds: its configuration, the result cache,
#: its environments, the digests of the sources it compiled, its work
#: counters and its cancel hook.  None of them keeps a compiled text or IR.
_ENGINE_ATTRIBUTES = {"platforms", "seed", "cache", "_environments",
                      "_compiled", "compile_count", "measure_count",
                      "_cancel_local"}


def assert_engine_keeps_no_store(engine) -> None:
    """The engine keeps no store of its own beside the result cache."""
    assert set(vars(engine)) == _ENGINE_ATTRIBUTES, sorted(vars(engine))


def reference_cost(function: Function, spec: GPUSpec,
                   profile: Optional[Dict[str, float]] = None
                   ) -> CostBreakdown:
    """The cost-model oracle: one walk of the IR that classifies and costs
    each instruction for *spec* as it goes, with no summary in between."""
    result = CostBreakdown()
    result.registers = max_live_scalars(function) + spec.reg_overhead
    varying = _varying_values(function)

    warps = max(1, min(spec.max_warps,
                       spec.reg_file // max(result.registers, 1)))
    result.occupancy = min(1.0, warps / spec.warps_full_hiding)
    unhidden = spec.texture_latency * (1.0 - result.occupancy)

    total = 0.0
    for block in function.blocks:
        if profile is not None:
            weight = profile.get(block.name, 0.0)
        else:
            weight = 1.0
        if weight == 0.0:
            result.static_ops += len(block.instrs)
            continue
        block_cost = 0.0
        for instr in block.instrs:
            op = classify(instr)
            cost = _op_cost(op, spec)
            if isinstance(instr, CondBr) and id(instr.cond) in varying:
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
            elif cls in (OpClass.LOCAL_MEM, OpClass.UNIFORM, OpClass.INTERP):
                result.memory_cycles += cost * weight
            elif cls == OpClass.BRANCH:
                result.branch_cycles += cost * weight
            else:
                result.alu_cycles += cost * weight
            result.by_class[cls.name] = result.by_class.get(cls.name, 0.0) + (
                cost * weight)
            block_cost += cost
        total += block_cost * weight

    if result.static_ops > spec.icache_ops:
        total *= spec.icache_penalty

    result.cycles_per_fragment = total
    return result


def reference_profile(module) -> Dict[str, float]:
    """The profile oracle: one scalar ``Interpreter`` run per sample
    fragment, block visits summed in fragment order and averaged."""
    interface = module.interface
    uniforms = default_uniform_values(interface)
    textures = default_textures(interface)
    totals: Dict[str, float] = {}
    for position in SAMPLE_FRAGMENTS:
        interp = Interpreter(module, uniforms=uniforms,
                             inputs=fragment_inputs(interface, position),
                             textures=textures)
        interp.run()
        for name, count in interp.stats.block_visits.items():
            totals[name] = totals.get(name, 0.0) + count
    return {name: count / len(SAMPLE_FRAGMENTS)
            for name, count in totals.items()}


def reference_protocol(true_ns: float, timer: TimerModel, rng: random.Random,
                       frames: int = FRAMES_PER_RUN,
                       repeats: int = REPEATS) -> Measurement:
    """The protocol oracle: one ``TimerModel.measure`` call per frame."""
    repeat_means = []
    for _ in range(repeats):
        samples = [timer.measure(true_ns, rng) for _ in range(frames)]
        repeat_means.append(sum(samples) / len(samples))
    mean = sum(repeat_means) / len(repeat_means)
    variance = sum((m - mean) ** 2 for m in repeat_means) / max(
        len(repeat_means) - 1, 1)
    return Measurement(mean_ns=mean, std_ns=math.sqrt(variance),
                       repeat_means=tuple(repeat_means))


def reference_measurement(platform: Platform, source: str,
                          seed: int) -> ExecutionReport:
    """The measurement oracle, from scratch: a fresh driver-JIT compile
    (``reference_jit_compile``), the scalar profile
    (``reference_profile``), the per-instruction cost walk
    (``reference_cost``), and the per-frame protocol
    (``reference_protocol``)."""
    module = reference_jit_compile(platform.jit, source)
    cost = reference_cost(module.function, platform.spec,
                          reference_profile(module))
    true_ns = draw_time_ns(cost, platform.spec, platform.fragments_per_draw)

    platform_digest = int.from_bytes(
        hashlib.sha256(platform.name.encode()).digest()[:8], "big")
    rng = random.Random((seed * 1_000_003) ^ platform_digest)
    return ExecutionReport(cost=cost, true_ns=true_ns,
                           measurement=reference_protocol(
                               true_ns, platform.timer, rng),
                           interface=module.interface)


def reference_cleanup(function: Function) -> None:
    """The cleanup oracle: ``run_cleanup`` as the class tables and the
    users index replaced it.  Canonicalization picks each rule through an
    ``isinstance`` chain and rewrites a replaced value's uses with one
    whole-function ``replace_all_uses``, local CSE does the same per merge,
    and branch folding scans the whole block for phis.  Trivial DCE, block
    merging and trivial-phi pruning are shared with ``run_cleanup``.

    Phis sit at the top of their block before and after (nothing in the
    cleanup adds one), so the shared steps' ``phis()``, which stops at the
    first non-phi, reads every phi of the block here too.
    """
    _assert_phis_lead(function)
    settled = _reference_canonicalize(function)
    changed = merge_straightline_blocks(function)
    changed += _reference_local_cse(function)
    if changed or not settled:
        trivial_dce(function)
        _reference_canonicalize(function)
    _assert_phis_lead(function)


def _assert_phis_lead(function: Function) -> None:
    for block in function.blocks:
        phis = [instr for instr in block.instrs if isinstance(instr, Phi)]
        assert block.instrs[:len(phis)] == phis, block.name


def _reference_canonicalize(function: Function) -> bool:
    for round_ in range(canonicalize._MAX_ROUNDS):
        changed = _reference_fold_round(function)
        changed += _reference_fold_branches(function)
        if changed or not round_:
            changed += trivial_dce(function)
        if not changed:
            return True
    return False


def _reference_fold_round(function: Function) -> int:
    changed = 0
    for block in function.blocks:
        for instr in list(block.instrs):
            replacement = _reference_simplify(instr)
            if replacement is None:
                continue
            changed += 1
            if replacement is instr:
                continue  # simplified in place
            function.replace_all_uses(instr, replacement)
            block.remove(instr)
    return changed


def _reference_simplify(instr):
    """The rule of *instr*'s class, found through an ``isinstance`` chain."""
    if isinstance(instr, BinOp):
        return canonicalize._simplify_binop(instr)
    if isinstance(instr, UnOp):
        return canonicalize._simplify_unop(instr)
    if isinstance(instr, Cmp):
        return canonicalize._simplify_cmp(instr)
    if isinstance(instr, Convert):
        return canonicalize._simplify_convert(instr)
    if isinstance(instr, Select):
        return canonicalize._simplify_select(instr)
    if isinstance(instr, ExtractElem):
        return canonicalize._simplify_extract(instr)
    if isinstance(instr, Shuffle):
        return canonicalize._simplify_shuffle(instr)
    if isinstance(instr, Construct):
        return canonicalize._simplify_construct(instr)
    if isinstance(instr, Call):
        return canonicalize._simplify_call(instr)
    if isinstance(instr, LoadElem):
        return canonicalize._simplify_load_elem(instr)
    return None


def _reference_fold_branches(function: Function) -> int:
    changed = 0
    for block in list(function.blocks):
        term = block.terminator
        if (isinstance(term, CondBr) and isinstance(term.cond, UnOp)
                and term.cond.op == "not"):
            term.operands[0] = term.cond.operand
            term.if_true, term.if_false = term.if_false, term.if_true
            changed += 1
        if isinstance(term, CondBr) and isinstance(term.cond, Constant):
            taken = term.if_true if term.cond.value else term.if_false
            untaken = term.if_false if term.cond.value else term.if_true
            block.remove(term)
            block.append(Br(taken))
            if untaken is not taken:
                for phi in [i for i in untaken.instrs if isinstance(i, Phi)]:
                    phi.remove_incoming(block)
            changed += 1
    if changed:
        function.remove_unreachable_blocks()
        _prune_trivial_phis(function)
    return changed


def _reference_local_cse(function: Function) -> int:
    merged = 0
    for block in function.blocks:
        table: Dict[tuple, object] = {}
        versions: Dict[int, int] = {}
        for instr in list(block.instrs):
            if isinstance(instr, (StoreVar, StoreElem)):
                versions[id(instr.slot)] = versions.get(id(instr.slot), 0) + 1
                continue
            if isinstance(instr, (LoadVar, LoadElem)):
                key = load_key(instr, versions.get(id(instr.slot), 0))
            else:
                key = instr_key(instr)
            if key is None:
                continue
            existing = table.get(key)
            if existing is None:
                table[key] = instr
            else:
                function.replace_all_uses(instr, existing)
                block.remove(instr)
                merged += 1
    return merged


# A lexer that loops once per character.  ``reference_tokenize`` is the
# oracle the one-regex lexer must equal token for token (kind, text, line
# and col), and error for error.
_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DIGITS = frozenset("0123456789")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
#: The multi-character operators by length.  Matching every 3-character
#: operator before any 2-character one is the longest-first greedy match.
_OPS_3 = frozenset(op for op in MULTI_CHAR_OPS if len(op) == 3)
_OPS_2 = frozenset(op for op in MULTI_CHAR_OPS if len(op) == 2)


def reference_tokenize(source: str) -> List[Token]:
    """Tokenize preprocessed GLSL source into a token list ending with EOF."""
    tokens: List[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def error(message: str) -> LexerError:
        return LexerError(message, line, col)

    while i < n:
        ch = source[i]

        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue

        # Comments (tolerated even post-preprocess).
        follower = source[i + 1 : i + 2] if ch == "/" else ""
        if follower == "/":
            end = source.find("\n", i)
            i = n if end < 0 else end
            continue
        if follower == "*":
            end = source.find("*/", i + 2)
            if end < 0:
                raise error("unterminated block comment")
            skipped = source[i : end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = end + 2
            continue

        if ch == "#":
            raise error("preprocessor directive in lexer input; run preprocess() first")

        if ch in _IDENT_START:
            start = i
            i = _IDENT_RE.match(source, i).end()
            text = source[start:i]
            if text in ("true", "false"):
                kind = TokenKind.BOOL
            elif text in TYPE_NAMES:
                kind = TokenKind.TYPE
            elif text in KEYWORDS:
                kind = TokenKind.KEYWORD
            else:
                kind = TokenKind.IDENT
            tokens.append(Token(kind, text, line, col))
            col += i - start
            continue

        if ch in _DIGITS or (ch == "." and i + 1 < n and source[i + 1] in _DIGITS):
            start = i
            is_float = False
            if ch == "0" and i + 1 < n and source[i + 1] in "xX":
                i += 2
                while i < n and source[i] in _HEX_DIGITS:
                    i += 1
                if i == start + 2:
                    raise error("hexadecimal literal needs at least one digit")
                if i < n and source[i] in "uU":
                    i += 1
                tokens.append(Token(TokenKind.INT, source[start:i], line, col))
                col += i - start
                continue
            while i < n and source[i] in _DIGITS:
                i += 1
            if i < n and source[i] == ".":
                is_float = True
                i += 1
                while i < n and source[i] in _DIGITS:
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j] in _DIGITS:
                    is_float = True
                    i = j
                    while i < n and source[i] in _DIGITS:
                        i += 1
            if i < n and source[i] in "fF" and is_float:
                i += 1
            elif i < n and source[i] in "uU" and not is_float:
                i += 1
            text = source[start:i]
            kind = TokenKind.FLOAT if is_float else TokenKind.INT
            tokens.append(Token(kind, text, line, col))
            col += i - start
            continue

        op = source[i:i + 3]
        if op not in _OPS_3:
            op = op[:2]
            if op not in _OPS_2:
                op = ""
        if op:
            tokens.append(Token(TokenKind.OP, op, line, col))
            i += len(op)
            col += len(op)
            continue

        if ch in SINGLE_CHAR_OPS:
            tokens.append(Token(TokenKind.OP, ch, line, col))
            i += 1
            col += 1
            continue

        raise error(f"unexpected character {ch!r}")

    tokens.append(Token(TokenKind.EOF, "", line, col))
    return tokens


def ast_shape(node):
    """*node* as nested tuples without its source lines, so two ASTs
    compare equal when they have the same structure."""
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        return (type(node).__name__,) + tuple(
            ast_shape(getattr(node, field.name))
            for field in dataclasses.fields(node) if field.name != "line")
    if isinstance(node, list):
        return tuple(ast_shape(item) for item in node)
    return node


def count_calls(monkeypatch, owner, name: str) -> List[tuple]:
    """Patch ``owner.name`` to record the positional arguments of each
    call, then call through; returns the list the calls land in."""
    calls: List[tuple] = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def assert_report_identical(a: ExecutionReport, b: ExecutionReport,
                            context=None) -> None:
    """Bit-exact ExecutionReport equality (no tolerance)."""
    assert a.measurement.mean_ns == b.measurement.mean_ns, context
    assert a.measurement.std_ns == b.measurement.std_ns, context
    assert a.measurement.repeat_means == b.measurement.repeat_means, context
    assert a.cost == b.cost, context
    assert a.true_ns == b.true_ns, context


# ---------------------------------------------------------------------------
# Analysis oracles: the per-call formulas that the speed-up rows
# (``ShaderResult.speedup_row``) and the corpus-means rows
# (``repro.analysis.flags.mean_speedup_row``) replaced.
# ---------------------------------------------------------------------------


def reference_speedup_pct(shader, platform: str,
                          flags: OptimizationFlags) -> float:
    """One shader's speed-up under *flags*: one variant lookup, one
    division."""
    base = shader.original_times_ns[platform]
    time = shader.variant_for_flags(flags).times_ns[platform]
    return (base / time - 1.0) * 100.0


def reference_mean_speedup(study, platform: str,
                           flags: OptimizationFlags) -> float:
    """The Table I / Fig. 5 metric: a left-to-right loop over the
    shaders."""
    total = 0.0
    for shader in study.shaders:
        total += reference_speedup_pct(shader, platform, flags)
    return total / max(len(study.shaders), 1)


def reference_best_static_flags(study, platform: str) -> OptimizationFlags:
    """Table I's scan: each combination's mean in index order, scores within
    1e-9 tied, ties broken toward fewer enabled flags."""
    best: Optional[OptimizationFlags] = None
    best_score = float("-inf")
    for index in range(SPACE_SIZE):
        flags = OptimizationFlags.from_index(index)
        score = reference_mean_speedup(study, platform, flags)
        better = score > best_score + 1e-9
        tie = abs(score - best_score) <= 1e-9
        if better or (tie and best is not None
                      and len(flags.enabled()) < len(best.enabled())):
            best = flags
            best_score = score
    assert best is not None
    return best


def reference_study_objective(study, platform: str):
    """The report's search objective: the ``sum()`` of the shaders'
    speed-ups over the shader count."""

    def objective(flag_index: int) -> float:
        if not study.shaders:
            return 0.0
        flags = OptimizationFlags.from_index(flag_index)
        total = sum(reference_speedup_pct(s, platform, flags)
                    for s in study.shaders)
        return total / len(study.shaders)

    return objective


def reference_changes_code(study) -> Dict[str, int]:
    """Fig. 8's "changes code" counts: per flag, the shaders in which
    turning it on changes the variant of some combination."""
    counts = dict.fromkeys(ALL_FLAG_NAMES, 0)
    for shader in study.shaders:
        variant_of = {index: variant.variant_id
                      for variant in shader.variants
                      for index in variant.flag_indices}
        for bit, name in enumerate(ALL_FLAG_NAMES):
            mask = 1 << bit
            if any(variant_of[index] != variant_of[index | mask]
                   for index in range(SPACE_SIZE) if not index & mask):
                counts[name] += 1
    return counts
