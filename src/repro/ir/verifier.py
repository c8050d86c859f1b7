"""Structural and SSA verification for the mini-LLVM IR.

Checks the invariants every pass must preserve:

* every block ends in exactly one terminator, and only the last
  instruction is one;
* phis are grouped at block heads and have exactly one incoming entry per
  CFG predecessor;
* every use is dominated by its definition (SSA dominance);
* operand/parent bookkeeping (use lists, parent pointers) is coherent;
* types line up where construction-time checks could be bypassed.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..diagnostics.errors import CompilationError
from .analysis.cfg import reachable_blocks
from .analysis.dominators import dominator_tree
from .instructions import Instruction, Phi
from .module import BasicBlock, Function, Module
from .sidetable import ValueSideTable
from .values import Argument, Constant, Value

__all__ = [
    "VerificationError",
    "verify_module",
    "verify_function",
    "is_recorded_clean",
    "record_clean",
]

#: module -> clean token: the per-function version vector (plus symbol
#: identity) at the moment the module last passed a whole-module verify.
#: It lets a full verify drop *boundary* re-verification — e.g. the adaptor
#: verifying an input module the MLIR lowering verified microseconds
#: earlier.  Any mutation through the IR's APIs bumps a function version
#: and invalidates the token.
_CLEAN_TOKENS: ValueSideTable = ValueSideTable("verified-clean")


def _clean_token(module: Module) -> tuple:
    return (
        tuple((id(fn), fn.version) for fn in module.functions),
        tuple(id(g) for g in module.globals),
    )


def is_recorded_clean(module: Module) -> bool:
    """Whether ``module`` is unchanged since it last passed a full verify."""
    return _CLEAN_TOKENS.get(module) == _clean_token(module)


def record_clean(module: Module) -> None:
    """Record the module's current state as verified-clean.

    Callers other than :func:`verify_module` itself must be able to prove
    whole-module cleanliness — e.g. the pass manager after a narrowed
    flush that covered every function changed since a recorded-clean state.
    """
    _CLEAN_TOKENS.set(module, _clean_token(module))


class VerificationError(CompilationError):
    """Structural/SSA invariant violations (code ``REPRO-VERIFY-001``)."""

    code = "REPRO-VERIFY-001"

    def __init__(self, errors: List[str]):
        super().__init__("\n".join(errors))
        self.errors = errors


def verify_module(
    module: Module,
    functions: Optional[Iterable[str]] = None,
    *,
    assume_clean: bool = False,
) -> None:
    """Verify ``module``.

    ``functions`` limits the (expensive) per-function structural/SSA checks
    to the named functions; the cheap module-level symbol-table checks always
    run over everything.  The pass manager uses this for incremental
    re-verification: after a pass it re-verifies only the functions the
    pass's dirty tracking reports as touched.  ``None`` means verify all.

    ``assume_clean=True`` lets a full verify return immediately when the
    module is byte-for-byte unchanged (per its version vector) since it
    last passed one — for pipeline-boundary verifies of modules another
    stage just checked.  Callers that verify *untrusted* state
    (e.g. after a pass with no dirty-tracking promise) must not set it.
    """
    if assume_clean and functions is None and is_recorded_clean(module):
        return
    errors: List[str] = []
    seen_names = set()
    selected = None if functions is None else set(functions)
    for fn in module.functions:
        if fn.name in seen_names:
            errors.append(f"duplicate function name @{fn.name}")
        seen_names.add(fn.name)
        if selected is None or fn.name in selected:
            errors.extend(_function_errors(fn))
    for g in module.globals:
        if g.name in seen_names:
            errors.append(f"global @{g.name} collides with another symbol")
        seen_names.add(g.name)
    if errors:
        raise VerificationError(errors)
    if selected is None:
        record_clean(module)


def verify_function(fn: Function) -> None:
    errors = _function_errors(fn)
    if errors:
        raise VerificationError(errors)


def _function_errors(fn: Function) -> List[str]:
    errors: List[str] = []
    if fn.is_declaration:
        return errors

    # One structural walk per block: parent pointers, terminator placement,
    # phi grouping, branch targets and use-list coherence.  The coherence
    # check flattens each value's use list into a ``(user id, slot)`` set
    # once and probes it per operand slot, instead of rescanning
    # ``op.uses`` for every slot that references it — the difference
    # between O(uses) and O(uses^2) on high-fanout values like induction
    # variables and loop headers.
    block_ids = {id(b) for b in fn.blocks}
    use_sets: dict = {}
    for block in fn.blocks:
        if block.parent is not fn:
            errors.append(f"block %{block.name}: wrong parent pointer")
        instructions = block.instructions
        if not instructions:
            errors.append(f"block %{block.name}: empty block")
            continue
        term = instructions[-1]
        if not term.is_terminator:
            errors.append(f"block %{block.name}: missing terminator")
        last = len(instructions) - 1
        for i, inst in enumerate(instructions):
            if inst.parent is not block:
                errors.append(f"%{block.name}: instruction {inst!r} wrong parent")
            if inst.is_terminator and i != last:
                errors.append(f"%{block.name}: terminator {inst!r} not at block end")
            if isinstance(inst, Phi) and i > 0 and not isinstance(
                instructions[i - 1], Phi
            ):
                errors.append(f"%{block.name}: phi {inst.ref()} not grouped at head")
            inst_id = id(inst)
            for idx, op in enumerate(inst._operands):
                key = id(op)
                slots = use_sets.get(key)
                if slots is None:
                    slots = {(id(u.user), u.index) for u in op.uses}
                    use_sets[key] = slots
                if (inst_id, idx) not in slots:
                    errors.append(
                        f"use-list broken: {inst!r} operand {idx} not in uses of {op!r}"
                    )
        for succ in term.successors:
            if not isinstance(succ, BasicBlock):
                errors.append(f"%{block.name}: non-block branch target {succ!r}")
            elif id(succ) not in block_ids:
                errors.append(
                    f"%{block.name}: branch to block %{succ.name} outside function"
                )

    # Phi incoming edges match predecessors exactly.
    reachable = reachable_blocks(fn)
    for block in fn.blocks:
        if id(block) not in reachable:
            continue
        preds = [p for p in block.predecessors if id(p) in reachable]
        pred_ids = {id(p) for p in preds}
        for phi in block.phis():
            incoming_ids = [id(b) for _v, b in phi.incoming]
            # Every reachable predecessor needs an edge; extra edges from
            # not-yet-collected unreachable blocks are tolerated (DCE's job).
            if not pred_ids.issubset(set(incoming_ids)):
                errors.append(
                    f"%{block.name}: phi {phi.ref()} incoming blocks "
                    f"{[b.name for _v, b in phi.incoming]} != preds "
                    f"{[p.name for p in preds]}"
                )
            if len(incoming_ids) != len(set(incoming_ids)):
                errors.append(
                    f"%{block.name}: phi {phi.ref()} has duplicate incoming blocks"
                )
            for value, _b in phi.incoming:
                if value.type is not phi.type and not isinstance(value, Constant):
                    errors.append(
                        f"%{block.name}: phi {phi.ref()} incoming type "
                        f"{value.type} != {phi.type}"
                    )

    # SSA dominance of uses.
    if not errors:
        errors.extend(_dominance_errors(fn, reachable))
    return errors


def _dominance_errors(fn: Function, reachable) -> List[str]:
    errors: List[str] = []
    dt = dominator_tree(fn)
    positions = {}
    for block in fn.blocks:
        for i, inst in enumerate(block.instructions):
            positions[id(inst)] = (block, i)

    for block in fn.blocks:
        if id(block) not in reachable:
            continue
        for i, inst in enumerate(block.instructions):
            for op_index, op in enumerate(inst._operands):
                if not isinstance(op, Instruction):
                    continue  # constants/args/blocks always dominate
                if id(op) not in positions:
                    errors.append(
                        f"{inst!r} uses {op!r} which is not in any block of @{fn.name}"
                    )
                    continue
                def_block, def_idx = positions[id(op)]
                if id(def_block) not in reachable:
                    continue  # defs in dead code can't break reachable uses... flag anyway
                if isinstance(inst, Phi):
                    # Use is "at the end of" the incoming block.
                    if op_index % 2 == 0:
                        pred = inst.get_operand(op_index + 1)
                        if isinstance(pred, BasicBlock) and id(pred) in reachable:
                            if not dt.dominates(def_block, pred):
                                errors.append(
                                    f"phi {inst.ref()}: incoming {op.ref()} from "
                                    f"%{pred.name} not dominated by its def in "
                                    f"%{def_block.name}"
                                )
                    continue
                if def_block is block:
                    if def_idx >= i:
                        errors.append(
                            f"{inst.ref()} in %{block.name} uses {op.ref()} "
                            f"defined later in the same block"
                        )
                elif not dt.dominates(def_block, block):
                    errors.append(
                        f"{inst.ref()} in %{block.name} uses {op.ref()} whose "
                        f"def in %{def_block.name} does not dominate it"
                    )
    return errors
