"""Caching analysis manager.

Every pass in the obfuscate→optimize→measure pipeline used to rebuild its
analyses (:class:`ControlFlowGraph`, :class:`DominatorTree`, :class:`DefUse`,
:class:`LoopInfo`, :class:`BlockFrequency`, :class:`CallGraph`) from scratch
at every query site.  :class:`AnalysisManager` makes construction explicit and
shared: consumers *fetch* analyses, passes *invalidate* what they clobber and
*declare* what they preserve (see :attr:`repro.opt.pass_manager.Pass.preserves`).

Invalidation is explicit and per-function:

* ``invalidate(function)`` drops every cached analysis of ``function``;
* ``invalidate(function, preserve=("cfg", "domtree"))`` keeps the named
  analyses (used by passes that mutate instructions but not the block graph);
* ``invalidate_module(module)`` drops the module's call graph plus every
  cached analysis of the module's functions;
* ``invalidate_all()`` empties the cache.

Every invalidation also moves the function's *change stamp*
(:meth:`AnalysisManager.stamp`): ``invalidate()`` moves it, ``PRESERVE_ALL``
included, ``invalidate_module()`` moves it for every function of the
module, and ``invalidate_all()`` for every function.  A pass that found
nothing to change in a function records the stamp
(:meth:`AnalysisManager.settle`); while the stamp has not moved since,
:meth:`AnalysisManager.settled` tells the next run of that pass that the
function is the one it already left unchanged, so
:class:`~repro.opt.pass_manager.FunctionPass` skips it.

A manager constructed with ``verify_invalidation=True`` snapshots a structural
fingerprint of the function when an analysis is first built and re-checks it
on every cache hit; a pass that mutated the function without invalidating is
then caught immediately with :class:`StaleAnalysisError` instead of silently
computing on stale data.  The fingerprint covers the block list, per-block
instruction counts, terminators and successor edges — in-place operand rewrites
that leave the instruction list intact are intentionally out of scope (they do
not affect any of the structural analyses cached here except ``defuse``, whose
consumers invalidate on any change).
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple, Union

from ..ir.function import Function
from ..ir.module import Module
from .block_frequency import BlockFrequency
from .callgraph import CallGraph
from .cfg import ControlFlowGraph
from .defuse import DefUse
from .dominators import DominatorTree
from .loops import LoopInfo

#: Names accepted by ``invalidate(..., preserve=...)`` and ``Pass.preserves``.
ANALYSIS_NAMES = ("cfg", "domtree", "defuse", "loops", "block_frequency")

#: Sentinel for passes that preserve every analysis (pure queries).
PRESERVE_ALL = "all"


class StaleAnalysisError(RuntimeError):
    """A cached analysis was fetched after its function changed underneath it."""


class AnalysisManager:
    """Per-function analysis cache with explicit invalidation."""

    def __init__(self, verify_invalidation: bool = False):
        self.verify_invalidation = verify_invalidation
        self._functions: Dict[Function, Dict[str, object]] = {}
        self._fingerprints: Dict[Function, Tuple] = {}
        self._callgraphs: Dict[Module, CallGraph] = {}
        # change stamps: the last stamp handed out, each function's latest,
        # and that of every function not invalidated since invalidate_all()
        self._clock = 0
        self._stamps: Dict[Function, int] = {}
        self._floor = 0
        self._settled: Dict[Tuple[object, Function], int] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # -- fetchers -----------------------------------------------------------------

    def cfg(self, function: Function) -> ControlFlowGraph:
        return self._get(function, "cfg",
                         lambda: ControlFlowGraph(function))

    def domtree(self, function: Function) -> DominatorTree:
        return self._get(function, "domtree",
                         lambda: DominatorTree(function, self.cfg(function)))

    def defuse(self, function: Function) -> DefUse:
        return self._get(function, "defuse", lambda: DefUse(function))

    def loops(self, function: Function) -> LoopInfo:
        return self._get(function, "loops",
                         lambda: LoopInfo(function, self.cfg(function),
                                          self.domtree(function)))

    def block_frequency(self, function: Function) -> BlockFrequency:
        return self._get(function, "block_frequency",
                         lambda: BlockFrequency(function, self.cfg(function),
                                                self.loops(function)))

    def cached(self, function: Function, name: str, builder):
        """Public per-function cache slot for non-core artifacts.

        The static verifier parks its per-tier results here under
        ``verify:<tier>`` pseudo-names, giving warm re-verification
        dictionary-hit cost.  Entries share the invalidation lifecycle of
        the real analyses: any ``invalidate(function, ...)`` drops them
        unless the caller's ``preserve`` names them explicitly (passes
        never do), and the ``verify_invalidation`` fingerprint check
        applies on hits.  ``builder`` takes no arguments and must not
        return ``None`` (``None`` is the cache-miss sentinel).
        """
        return self._get(function, name, builder)

    def callgraph(self, module: Module) -> CallGraph:
        graph = self._callgraphs.get(module)
        if graph is None:
            self.misses += 1
            graph = CallGraph(module)
            self._callgraphs[module] = graph
        else:
            self.hits += 1
        return graph

    # -- change stamps ------------------------------------------------------------

    def stamp(self, function: Function) -> int:
        """``function``'s change stamp: it moves whenever ``function`` is
        invalidated, and only then (module docstring)."""
        return self._stamps.get(function, self._floor)

    def settle(self, function: Function, key: object) -> None:
        """Record that ``key`` (a pass class) left ``function`` unchanged."""
        self._settled[key, function] = self.stamp(function)

    def settled(self, function: Function, key: object) -> bool:
        """True when ``key`` left ``function`` unchanged and nothing has
        invalidated it since."""
        return self._settled.get((key, function)) == self.stamp(function)

    def _touch(self, function: Function) -> None:
        self._clock += 1
        self._stamps[function] = self._clock

    # -- invalidation -------------------------------------------------------------

    def invalidate(self, function: Function,
                   preserve: Union[str, Iterable[str]] = ()) -> None:
        """Drop ``function``'s cached analyses, keeping those in ``preserve``;
        either way its change stamp moves."""
        self.invalidations += 1
        self._touch(function)
        if preserve == PRESERVE_ALL:
            # "everything is still valid" implies the structure did not
            # change, so the recorded fingerprint intentionally stays: a pass
            # that restructures a function while claiming PRESERVE_ALL is
            # caught by the verify mode instead of silently trusted
            return
        kept = set(preserve)
        entry = self._functions.get(function)
        if entry is not None:
            if kept:
                for name in list(entry):
                    if name not in kept:
                        del entry[name]
                if not entry:
                    del self._functions[function]
            else:
                del self._functions[function]
        self._refingerprint(function)

    def invalidate_module(self, module: Module,
                          preserve: Union[str, Iterable[str]] = ()) -> None:
        """Drop the module's call graph plus all of its functions' analyses.

        Functions already detached from their module (``module is None`` —
        e.g. removed by dead-function elimination or fusion just before this
        call) are purged too, so their cached analyses cannot leak.  Every
        function of the module gets a new change stamp, cached or not.
        """
        self.invalidate_callgraph(module)
        for function in list(self._functions):
            if function.module is module or function.module is None:
                self.invalidate(function, preserve=preserve)
        for function in module.functions.values():
            self._touch(function)

    def invalidate_callgraph(self, module: Module) -> None:
        """Drop the module's call graph only: for a pass that changed some
        functions' calls and invalidated those functions itself."""
        self._callgraphs.pop(module, None)

    def invalidate_all(self) -> None:
        self._functions.clear()
        self._fingerprints.clear()
        self._callgraphs.clear()
        self._stamps.clear()
        self._clock += 1
        self._floor = self._clock
        self.invalidations += 1

    # -- internals ----------------------------------------------------------------

    def _get(self, function: Function, name: str, builder):
        entry = self._functions.get(function)
        if entry is None:
            entry = {}
            self._functions[function] = entry
        analysis = entry.get(name)
        if analysis is not None:
            self.hits += 1
            if self.verify_invalidation:
                self._check_fingerprint(function)
            return analysis
        self.misses += 1
        if self.verify_invalidation and entry:
            # other analyses of this function are cached: the structure they
            # were computed against must still be current
            self._check_fingerprint(function)
        analysis = builder()
        # nested fetches inside builder() may have replaced the entry dict
        entry = self._functions.setdefault(function, entry)
        entry[name] = analysis
        if self.verify_invalidation and function not in self._fingerprints:
            self._fingerprints[function] = self._fingerprint(function)
        return analysis

    def _refingerprint(self, function: Function) -> None:
        if not self.verify_invalidation:
            return
        if function in self._functions:
            self._fingerprints[function] = self._fingerprint(function)
        else:
            self._fingerprints.pop(function, None)

    def _check_fingerprint(self, function: Function) -> None:
        recorded = self._fingerprints.get(function)
        if recorded is not None and recorded != self._fingerprint(function):
            raise StaleAnalysisError(
                f"function @{function.name} changed since its analyses were "
                f"cached; the mutating pass must call invalidate()")

    @staticmethod
    def _fingerprint(function: Function) -> Tuple:
        return tuple(
            (block, len(block.instructions), block.terminator,
             tuple(block.successors()))
            for block in function.blocks)
