"""CFG traversal orders over :class:`~repro.ir.module.Function` blocks.

Traversal results are cached per function, keyed by ``Function.version``:
every mutation API on blocks, instructions and operands bumps the counter,
so a cache hit is only possible when the function is bit-identical to when
the order was computed.  The cache lives in a weak side table, so it dies
with the function and never pins IR objects.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from ..module import BasicBlock, Function
from ..sidetable import ValueSideTable

__all__ = ["postorder", "reverse_postorder", "reachable_blocks"]

#: fn -> (fn.version, postorder list, reachable-id set)
_CFG_CACHE: ValueSideTable = ValueSideTable("cfg-orders")


def _cached_orders(fn: Function) -> Tuple[List[BasicBlock], Set[int]]:
    cached = _CFG_CACHE.get(fn)
    if cached is not None and cached[0] == fn.version:
        return cached[1], cached[2]
    order = _compute_postorder(fn)
    reach = {id(b) for b in order}
    _CFG_CACHE.set(fn, (fn.version, order, reach))
    return order, reach


def postorder(fn: Function) -> List[BasicBlock]:
    """Depth-first postorder from the entry block (reachable blocks only).

    Iterative to stay safe on deep loop-nest CFGs.  Returns a fresh list;
    callers may reorder/filter it freely.
    """
    return list(_cached_orders(fn)[0])


def _compute_postorder(fn: Function) -> List[BasicBlock]:
    if not fn.blocks:
        return []
    seen: Set[int] = set()
    order: List[BasicBlock] = []
    stack: List[tuple] = [(fn.entry, iter(fn.entry.successors))]
    seen.add(id(fn.entry))
    while stack:
        block, succs = stack[-1]
        advanced = False
        for succ in succs:
            if id(succ) not in seen:
                seen.add(id(succ))
                stack.append((succ, iter(succ.successors)))
                advanced = True
                break
        if not advanced:
            order.append(block)
            stack.pop()
    return order


def reverse_postorder(fn: Function) -> List[BasicBlock]:
    return list(reversed(postorder(fn)))


def reachable_blocks(fn: Function) -> Set[int]:
    """ids of blocks reachable from entry."""
    return set(_cached_orders(fn)[1])
