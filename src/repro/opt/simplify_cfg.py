"""Control-flow graph simplification.

Three cleanups, driven to a fixed point:

* removal of blocks unreachable from the entry;
* merging of a block into its unique predecessor when that predecessor's only
  successor is the block (straight-line merge);
* skipping of empty forwarding blocks (a block containing only an
  unconditional branch).

After Khaos restructures code these cleanups run again and produce block
shapes that differ markedly from the original function — which is exactly the
effect the paper relies on.

The implementation is *incremental*: it removes unreachable blocks
once up front (the other two rewrites never disconnect a block from the
entry), then maintains local successor/predecessor edge lists — with
multiplicity, exactly as :class:`~repro.analysis.cfg.ControlFlowGraph`
reports them — and updates those lists in place after every merge and skip.
No analysis is rebuilt and no ``AnalysisManager.invalidate()`` happens per
change; the driving :class:`~repro.opt.pass_manager.FunctionPass` invalidates
once at the end iff the function changed.

The previous fixed-point implementation — which re-fetched the CFG after
every single rewrite — is the reference semantics in ``tests/oracles.py``:
it is differential-tested against this one
(``tests/test_simplify_cfg_incremental.py``) and must reproduce the quick
figure 8 golden.  Merges take priority over skips in both implementations,
so they reach the same normal form block-for-block.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from ..analysis.manager import AnalysisManager
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Branch, CondBranch, Switch, Terminator
from .pass_manager import FunctionPass


def _retarget_terminator(term: Optional[Terminator], old: BasicBlock,
                         new: BasicBlock) -> None:
    """Replace every edge ``term -> old`` with ``term -> new``."""
    if isinstance(term, Branch):
        if term.target is old:
            term.target = new
    elif isinstance(term, CondBranch):
        if term.true_target is old:
            term.true_target = new
        if term.false_target is old:
            term.false_target = new
    elif isinstance(term, Switch):
        if term.default_target is old:
            term.default_target = new
        term.cases = [(c, new if t is old else t) for c, t in term.cases]


class SimplifyCFG(FunctionPass):
    name = "simplify-cfg"
    preserves = ()  # restructures the block graph wholesale

    def run_on_function(self, function: Function,
                        analyses: Optional[AnalysisManager] = None) -> bool:
        blocks = function.blocks
        if not blocks:
            return False
        changed = False

        # unreachable removal, once: merges transfer edges and skips reroute
        # them, so neither ever disconnects a block from the entry
        entry = blocks[0]
        reachable = {entry}
        stack = [entry]
        while stack:
            for succ in stack.pop().successors():
                if succ not in reachable:
                    reachable.add(succ)
                    stack.append(succ)
        if len(reachable) != len(blocks):
            for block in [b for b in blocks if b not in reachable]:
                function.remove_block(block)
            changed = True

        # local edge lists, with multiplicity (a condbr whose two targets
        # coincide contributes two entries, matching ControlFlowGraph)
        succs: Dict[BasicBlock, List[BasicBlock]] = {
            b: list(b.successors()) for b in function.blocks}
        preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in function.blocks}
        for block in function.blocks:
            for succ in succs[block]:
                preds[succ].append(block)

        # two worklists so merges keep global priority over skips, mirroring
        # the fixed-point reference (merge wherever possible, then one skip,
        # then re-check merges)
        merge_q = deque(function.blocks)
        merge_set = set(merge_q)
        skip_q = deque(function.blocks)
        skip_set = set(skip_q)

        def enqueue(block: BasicBlock) -> None:
            if block.parent is not function:
                return
            if block not in merge_set:
                merge_q.append(block)
                merge_set.add(block)
            if block not in skip_set:
                skip_q.append(block)
                skip_set.add(block)

        while merge_q or skip_q:
            while merge_q:
                block = merge_q.popleft()
                merge_set.discard(block)
                if block.parent is not function:
                    continue
                merged = False
                while True:
                    block_succs = succs[block]
                    if len(block_succs) != 1:
                        break
                    succ = block_succs[0]
                    if (succ is entry or succ is block
                            or len(preds[succ]) != 1):
                        break
                    # merge succ into block
                    block.remove(block.terminator)
                    for inst in list(succ.instructions):
                        succ.remove(inst)
                        block.append(inst)
                    function.remove_block(succ)
                    inherited = succs.pop(succ)
                    succs[block] = inherited
                    del preds[succ]
                    for s in inherited:
                        s_preds = preds[s]
                        for i, p in enumerate(s_preds):
                            if p is succ:
                                s_preds[i] = block
                    changed = True
                    merged = True
                    for s in inherited:
                        enqueue(s)
                if merged and block not in skip_set:
                    # the merged block may now hold only a branch
                    skip_q.append(block)
                    skip_set.add(block)

            while skip_q:
                block = skip_q.popleft()
                skip_set.discard(block)
                if block.parent is not function or block is entry:
                    continue
                if len(block.instructions) != 1:
                    continue
                term = block.terminator
                if not isinstance(term, Branch) or term.target is block:
                    continue
                target = term.target
                block_preds = preds.pop(block)
                seen_ids = set()
                unique_preds: List[BasicBlock] = []
                for p in block_preds:
                    if id(p) not in seen_ids:
                        seen_ids.add(id(p))
                        unique_preds.append(p)
                for p in unique_preds:
                    _retarget_terminator(p.terminator, block, target)
                    p_succs = succs[p]
                    for i, s in enumerate(p_succs):
                        if s is block:
                            p_succs[i] = target
                preds[target] = ([p for p in preds[target] if p is not block]
                                 + block_preds)
                del succs[block]
                function.remove_block(block)
                changed = True
                enqueue(target)
                for p in unique_preds:
                    enqueue(p)
                break  # give merges priority again after every skip

        return changed
