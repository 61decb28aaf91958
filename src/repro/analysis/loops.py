"""Natural-loop detection from back edges of the dominator tree.

Algorithm 1 of the paper weights the cut cost of a candidate region by the
trip count of the innermost loop containing it; :class:`LoopInfo` provides the
loops, their nesting depth and a static trip-count estimate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from .cfg import ControlFlowGraph
from .dominators import DominatorTree

# Static trip-count guess for loops whose bound is not a literal constant;
# LLVM's BlockFrequency uses a similar default weight for loop back edges.
DEFAULT_TRIP_COUNT = 10


class Loop:
    def __init__(self, header: BasicBlock, blocks: Set[BasicBlock]):
        self.header = header
        self.blocks = blocks
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []
        self.trip_count = DEFAULT_TRIP_COUNT

    @property
    def depth(self) -> int:
        depth = 1
        parent = self.parent
        while parent is not None:
            depth += 1
            parent = parent.parent
        return depth

    def contains(self, block: BasicBlock) -> bool:
        return block in self.blocks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Loop header={self.header.name} blocks={len(self.blocks)}>"


class LoopInfo:
    def __init__(self, function: Function,
                 cfg: Optional[ControlFlowGraph] = None,
                 domtree: Optional[DominatorTree] = None):
        self.function = function
        self.cfg = cfg or ControlFlowGraph(function)
        self.domtree = domtree or DominatorTree(function, self.cfg)
        self.loops: List[Loop] = []
        self._block_to_loops: Dict[BasicBlock, List[Loop]] = {}
        self._compute()

    def _compute(self) -> None:
        back_edges = []
        for block in self.domtree.blocks():
            for succ in self.cfg.successors.get(block, []):
                if self.domtree.dominates(succ, block):
                    back_edges.append((block, succ))

        by_header: Dict[BasicBlock, Set[BasicBlock]] = {}
        for tail, header in back_edges:
            body = by_header.setdefault(header, {header})
            # walk predecessors backwards from the latch until the header
            stack = [tail]
            while stack:
                block = stack.pop()
                if block in body:
                    continue
                body.add(block)
                stack.extend(self.cfg.predecessors.get(block, []))

        self.loops = [Loop(header, blocks) for header, blocks in by_header.items()]

        # establish nesting: loop A is a child of the smallest loop strictly
        # containing its header (other than itself)
        for loop in self.loops:
            candidates = [other for other in self.loops
                          if other is not loop and loop.header in other.blocks
                          and loop.blocks <= other.blocks]
            if candidates:
                parent = min(candidates, key=lambda other: len(other.blocks))
                loop.parent = parent
                parent.children.append(loop)

        for loop in self.loops:
            for block in loop.blocks:
                self._block_to_loops.setdefault(block, []).append(loop)

    # -- queries ------------------------------------------------------------------

    def innermost_loop(self, block: BasicBlock) -> Optional[Loop]:
        loops = self._block_to_loops.get(block)
        if not loops:
            return None
        return min(loops, key=lambda loop: len(loop.blocks))

    def loop_depth(self, block: BasicBlock) -> int:
        loop = self.innermost_loop(block)
        return loop.depth if loop is not None else 0

    def in_loop(self, block: BasicBlock) -> bool:
        return bool(self._block_to_loops.get(block))

    def top_level_loops(self) -> List[Loop]:
        return [loop for loop in self.loops if loop.parent is None]
