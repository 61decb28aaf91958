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

The default implementation is *incremental*: it removes unreachable blocks
once up front (the other two rewrites never disconnect a block from the
entry), then maintains local successor/predecessor edge lists — with
multiplicity, exactly as :class:`~repro.analysis.cfg.ControlFlowGraph`
reports them — and updates those lists in place after every merge and skip.
No analysis is rebuilt and no ``AnalysisManager.invalidate()`` happens per
change; the driving :class:`~repro.opt.pass_manager.FunctionPass` invalidates
once at the end iff the function changed.

The previous fixed-point implementation — which re-fetched the CFG after
every single rewrite — is kept as the reference semantics behind
``SimplifyCFG(legacy=True)`` or ``REPRO_SIMPLIFY_CFG=legacy`` and is
differential-tested against the incremental one
(``tests/test_simplify_cfg_incremental.py``).  Merges take priority over
skips in both implementations, so they reach the same normal form
block-for-block.
"""

from __future__ import annotations

import os
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


def _retarget(function: Function, old: BasicBlock, new: BasicBlock) -> None:
    for block in function.blocks:
        _retarget_terminator(block.terminator, old, new)


def _legacy_from_env() -> bool:
    """Does ``REPRO_SIMPLIFY_CFG`` select the legacy reference path?

    Unset or empty selects the incremental path; any value but
    ``incremental`` or ``legacy`` raises, so a typo in a reference run can
    never quietly compare the fast path with itself.
    """
    value = os.environ.get("REPRO_SIMPLIFY_CFG", "")
    if value not in ("", "incremental", "legacy"):
        raise ValueError(f"REPRO_SIMPLIFY_CFG must be 'incremental' or "
                         f"'legacy', got {value!r}")
    return value == "legacy"


class SimplifyCFG(FunctionPass):
    name = "simplify-cfg"
    preserves = ()  # restructures the block graph wholesale

    def __init__(self, legacy: Optional[bool] = None):
        if legacy is None:
            legacy = _legacy_from_env()
        self.legacy = legacy

    def run_on_function(self, function: Function,
                        analyses: Optional[AnalysisManager] = None) -> bool:
        if self.legacy:
            return self._run_legacy(function, analyses)
        return self._run_incremental(function)

    # -- incremental implementation ------------------------------------------------

    @staticmethod
    def _run_incremental(function: Function) -> bool:
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
        # the legacy fixed point (merge wherever possible, then one skip,
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

    # -- legacy fixed-point implementation (reference semantics) -------------------

    def _run_legacy(self, function: Function,
                    analyses: Optional[AnalysisManager] = None) -> bool:
        analyses = analyses if analyses is not None else AnalysisManager()
        changed = False
        while True:
            local = (self._remove_unreachable(function, analyses)
                     or self._merge_straight_line(function, analyses)
                     or self._skip_forwarding_blocks(function, analyses))
            if not local:
                break
            changed = True
        return changed

    @staticmethod
    def _remove_unreachable(function: Function,
                            analyses: AnalysisManager) -> bool:
        cfg = analyses.cfg(function)
        dead = cfg.unreachable_blocks()
        for block in dead:
            function.remove_block(block)
        if dead:
            analyses.invalidate(function)
        return bool(dead)

    @staticmethod
    def _merge_straight_line(function: Function,
                             analyses: AnalysisManager) -> bool:
        cfg = analyses.cfg(function)
        for block in function.blocks:
            succs = cfg.successors.get(block, [])
            if len(succs) != 1:
                continue
            succ = succs[0]
            if succ is function.entry_block or succ is block:
                continue
            if len(cfg.predecessors.get(succ, [])) != 1:
                continue
            # merge succ into block
            term = block.terminator
            block.remove(term)
            for inst in list(succ.instructions):
                succ.remove(inst)
                block.append(inst)
            function.remove_block(succ)
            analyses.invalidate(function)
            return True
        return False

    @staticmethod
    def _skip_forwarding_blocks(function: Function,
                                analyses: AnalysisManager) -> bool:
        for block in function.blocks:
            if block is function.entry_block:
                continue
            if len(block.instructions) != 1:
                continue
            term = block.terminator
            if not isinstance(term, Branch):
                continue
            target = term.target
            if target is block:
                continue
            _retarget(function, block, target)
            function.remove_block(block)
            analyses.invalidate(function)
            return True
        return False
