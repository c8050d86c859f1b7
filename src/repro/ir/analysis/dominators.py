"""Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm."""

from __future__ import annotations

from typing import Dict, List, Optional

from ..module import BasicBlock, Function
from ..sidetable import ValueSideTable
from .cfg import reverse_postorder

__all__ = ["DominatorTree", "dominator_tree"]

#: fn -> (fn.version, DominatorTree) — same invalidation contract as the
#: CFG-order cache: any mutation bumps ``Function.version``.
_DT_CACHE: ValueSideTable = ValueSideTable("dominator-tree")


def dominator_tree(fn: Function) -> "DominatorTree":
    """Return a dominator tree for ``fn``, cached by ``Function.version``.

    Repeated queries on an unmodified function (the verifier after no-op
    passes, CSE followed by Mem2Reg, ...) share one tree.  The tree is
    read-only; callers must not mutate it.
    """
    cached = _DT_CACHE.get(fn)
    if cached is not None and cached[0] == fn.version:
        return cached[1]
    dt = DominatorTree(fn)
    _DT_CACHE.set(fn, (fn.version, dt))
    return dt


class DominatorTree:
    """Immediate-dominator map plus dominance queries and frontiers.

    Only reachable blocks participate; queries on unreachable blocks raise
    ``KeyError`` (callers should run SimplifyCFG or skip them).
    """

    def __init__(self, fn: Function):
        self.function = fn
        self.rpo = reverse_postorder(fn)
        self._rpo_index: Dict[int, int] = {id(b): i for i, b in enumerate(self.rpo)}
        self.idom: Dict[int, Optional[BasicBlock]] = {}
        self._compute()
        self._children: Dict[int, List[BasicBlock]] = {id(b): [] for b in self.rpo}
        for block in self.rpo:
            parent = self.idom[id(block)]
            if parent is not None:
                self._children[id(parent)].append(block)
        # Lazy DFS interval numbering over the dominator tree: ``a dom b``
        # becomes two integer comparisons instead of an idom-chain walk.
        self._intervals: Optional[Dict[int, tuple]] = None

    def _interval_map(self) -> Dict[int, tuple]:
        intervals = self._intervals
        if intervals is None:
            intervals = {}
            counter = 0
            if self.rpo:
                stack: List[tuple] = [(self.rpo[0], False)]
                while stack:
                    block, done = stack.pop()
                    if done:
                        intervals[id(block)] = (intervals[id(block)][0], counter)
                        counter += 1
                        continue
                    intervals[id(block)] = (counter, -1)
                    counter += 1
                    stack.append((block, True))
                    for child in self._children[id(block)]:
                        stack.append((child, False))
            self._intervals = intervals
        return intervals

    def _compute(self) -> None:
        if not self.rpo:
            return
        entry = self.rpo[0]
        idom: Dict[int, Optional[BasicBlock]] = {id(entry): entry}
        changed = True
        while changed:
            changed = False
            for block in self.rpo[1:]:
                preds = [
                    p
                    for p in block.predecessors
                    if id(p) in self._rpo_index and id(p) in idom
                ]
                if not preds:
                    continue
                new_idom = preds[0]
                for p in preds[1:]:
                    new_idom = self._intersect(idom, new_idom, p)
                if idom.get(id(block)) is not new_idom:
                    idom[id(block)] = new_idom
                    changed = True
        self.idom = {id(b): idom.get(id(b)) for b in self.rpo}
        self.idom[id(entry)] = None  # root has no immediate dominator

    def _intersect(self, idom: Dict, a: BasicBlock, b: BasicBlock) -> BasicBlock:
        index = self._rpo_index
        while a is not b:
            while index[id(a)] > index[id(b)]:
                a = idom[id(a)]
            while index[id(b)] > index[id(a)]:
                b = idom[id(b)]
        return a

    # -- queries ------------------------------------------------------------
    def immediate_dominator(self, block: BasicBlock) -> Optional[BasicBlock]:
        return self.idom[id(block)]

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if ``a`` dominates ``b`` (reflexive)."""
        intervals = self._interval_map()
        enter_a, leave_a = intervals[id(a)]
        # Unreachable blocks raise KeyError here, matching the old
        # idom-chain walk's contract.
        return enter_a <= intervals[id(b)][0] < leave_a

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates(a, b)

    def children(self, block: BasicBlock) -> List[BasicBlock]:
        return list(self._children[id(block)])

    def dominance_frontier(self) -> Dict[int, List[BasicBlock]]:
        """Dominance frontiers (Cytron) for all reachable blocks, keyed by id."""
        frontier: Dict[int, List[BasicBlock]] = {id(b): [] for b in self.rpo}
        for block in self.rpo:
            preds = [p for p in block.predecessors if id(p) in self._rpo_index]
            if len(preds) < 2:
                continue
            for pred in preds:
                runner: Optional[BasicBlock] = pred
                while runner is not None and runner is not self.idom[id(block)]:
                    if block not in frontier[id(runner)]:
                        frontier[id(runner)].append(block)
                    runner = self.idom[id(runner)]
        return frontier
