"""Modules and programs.

A :class:`Module` corresponds to one translation unit / shared object; a
:class:`Program` is a set of modules plus the name of its entry function.
``Program.link()`` merges all modules into one (the paper compiles its test
suites "under O2 with link-time optimization", i.e. whole-program), while
keeping the notion of the original module boundary available for the fusion
trampoline mechanism.

Cloning and linking are both *one-pass*: a single ``value_map`` (``id(old
value) -> new value``) is threaded through every module, so cross-module
references — a call in one module whose callee :class:`Function` object lives
in another — resolve directly while bodies are cloned.  Nothing is patched up
afterwards by name.
"""

from __future__ import annotations

import copy
import os
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .basicblock import BasicBlock
from .function import Function, Linkage
from .instructions import Branch, CondBranch, Switch
from .types import FunctionType
from .values import GlobalVariable, Value


class Module:
    """A single translation unit: functions plus global variables."""

    def __init__(self, name: str):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}
        self.metadata: Dict[str, object] = {}

    # -- functions ----------------------------------------------------------------

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise ValueError(f"duplicate function {function.name!r} in {self.name}")
        function.module = self
        self.functions[function.name] = function
        return function

    def get_function(self, name: str) -> Optional[Function]:
        return self.functions.get(name)

    def remove_function(self, name: str) -> None:
        function = self.functions.pop(name, None)
        if function is None:
            raise KeyError(
                f"no function named {name!r} in module {self.name!r}")
        function.module = None

    def declare_function(self, name: str, ftype: FunctionType) -> Function:
        """Get-or-create an external declaration (e.g. a libc routine)."""
        existing = self.functions.get(name)
        if existing is not None:
            if existing.ftype != ftype:
                raise TypeError(
                    f"function {name!r} re-declared in {self.name!r} with type "
                    f"{ftype}, but it already has type {existing.ftype}")
            return existing
        function = Function(name, ftype, linkage=Linkage.EXTERNAL)
        return self.add_function(function)

    def defined_functions(self) -> List[Function]:
        return [f for f in self.functions.values() if not f.is_declaration]

    # -- globals ------------------------------------------------------------------

    def add_global(self, variable: GlobalVariable) -> GlobalVariable:
        if variable.name in self.globals:
            raise ValueError(f"duplicate global {variable.name!r} in {self.name}")
        variable.module = self
        self.globals[variable.name] = variable
        return variable

    def get_global(self, name: str) -> Optional[GlobalVariable]:
        return self.globals.get(name)

    # -- traversal / cloning ------------------------------------------------------

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())

    def clone(self) -> "Module":
        """Deep copy of the module with all cross-references remapped."""
        value_map: Dict[int, Value] = {}
        new_module = _clone_module_shell(self, value_map)
        _clone_module_bodies(self, value_map)
        return new_module

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Module {self.name} ({len(self.functions)} functions)>"


def _clone_global(variable: GlobalVariable,
                  name: Optional[str] = None) -> GlobalVariable:
    return GlobalVariable(name if name is not None else variable.name,
                          variable.value_type,
                          initializer=copy.deepcopy(variable.initializer),
                          constant=variable.constant)


def _clone_function_shell(function: Function,
                          name: Optional[str] = None) -> Function:
    """An empty copy of ``function``: signature, linkage and attributes only."""
    new_f = Function(name if name is not None else function.name,
                     function.ftype,
                     param_names=[a.name for a in function.args],
                     linkage=function.linkage)
    new_f.attributes = dict(function.attributes)
    new_f.eh_pairs = list(function.eh_pairs)
    return new_f


def _map_function(function: Function, new_f: Function,
                  value_map: Dict[int, Value]) -> None:
    value_map[id(function)] = new_f
    for old_arg, new_arg in zip(function.args, new_f.args):
        value_map[id(old_arg)] = new_arg


def _clone_module_shell(module: Module, value_map: Dict[int, Value]) -> Module:
    """Clone globals and function shells, registering everything in ``value_map``."""
    new_module = Module(module.name)
    new_module.metadata = dict(module.metadata)
    for g in module.globals.values():
        new_g = _clone_global(g)
        new_module.add_global(new_g)
        value_map[id(g)] = new_g
    for f in module.functions.values():
        new_f = _clone_function_shell(f)
        new_module.add_function(new_f)
        _map_function(f, new_f, value_map)
    return new_module


def _clone_module_bodies(module: Module, value_map: Dict[int, Value]) -> None:
    for f in module.functions.values():
        if not f.is_declaration:
            clone_function_body(f, value_map[id(f)], value_map)


def clone_function_body(source: Function, target: Function,
                        value_map: Dict[int, Value]) -> None:
    """Copy ``source``'s blocks into the (empty) ``target`` function.

    ``value_map`` maps ``id(old value) -> new value`` and is extended with the
    cloned instructions and blocks; it must already contain mappings for the
    arguments of ``source`` and for any global/function referenced.
    """
    block_map: Dict[int, BasicBlock] = {}
    for block in source.blocks:
        new_block = BasicBlock(block.name, parent=target)
        target.blocks.append(new_block)
        block_map[id(block)] = new_block
        value_map[id(block)] = new_block

    # first pass: create every instruction clone so that forward references
    # (an operand defined in a block that appears later in the list) resolve
    new_instructions = []
    for block in source.blocks:
        new_block = block_map[id(block)]
        for inst in block.instructions:
            new_inst = inst.clone_shallow()
            new_inst.name = inst.name
            new_block.append(new_inst)
            value_map[id(inst)] = new_inst
            new_instructions.append(new_inst)

    # second pass: remap operands and branch targets
    for new_inst in new_instructions:
        for i, op in enumerate(new_inst.operands):
            mapped = value_map.get(id(op))
            if mapped is not None:
                new_inst.operands[i] = mapped
        if isinstance(new_inst, Branch):
            new_inst.target = block_map[id(new_inst.target)]
        elif isinstance(new_inst, CondBranch):
            new_inst.true_target = block_map[id(new_inst.true_target)]
            new_inst.false_target = block_map[id(new_inst.false_target)]
        elif isinstance(new_inst, Switch):
            new_inst.default_target = block_map[id(new_inst.default_target)]
            new_inst.cases = [(c, block_map[id(t)]) for c, t in new_inst.cases]


def _globals_equivalent(a: GlobalVariable, b: GlobalVariable) -> bool:
    return (a.value_type == b.value_type and a.constant == b.constant
            and a.initializer == b.initializer)


def _suffixed_name(taken, base: str, suffix: str) -> str:
    """``base.suffix``, uniquified against ``taken`` (a name container)."""
    candidate = f"{base}.{suffix}"
    counter = 1
    while candidate in taken:
        counter += 1
        candidate = f"{base}.{suffix}.{counter}"
    return candidate


class Program:
    """A set of modules plus an entry point, the unit the evaluation runs on."""

    def __init__(self, name: str, modules: Optional[Iterable[Module]] = None,
                 entry: str = "main"):
        self.name = name
        self.modules: List[Module] = list(modules or [])
        self.entry = entry
        self.metadata: Dict[str, object] = {}

    def add_module(self, module: Module) -> Module:
        self.modules.append(module)
        return module

    def all_functions(self) -> List[Function]:
        return [f for m in self.modules for f in m.functions.values()]

    def defined_functions(self) -> List[Function]:
        return [f for m in self.modules for f in m.defined_functions()]

    def find_function(self, name: str) -> Optional[Function]:
        for module in self.modules:
            f = module.get_function(name)
            if f is not None and not f.is_declaration:
                return f
        for module in self.modules:
            f = module.get_function(name)
            if f is not None:
                return f
        return None

    def clone(self) -> "Program":
        """Deep copy of the whole program in one pass.

        A single ``value_map`` spans every module, so a reference from one
        module to a function or global of another resolves to the *cloned*
        object directly while bodies are copied — the clone never aliases the
        source program.
        """
        value_map: Dict[int, Value] = {}
        new_modules = [_clone_module_shell(m, value_map) for m in self.modules]
        for module in self.modules:
            _clone_module_bodies(module, value_map)
        cloned = Program(self.name, new_modules, entry=self.entry)
        cloned.metadata = dict(self.metadata)
        return cloned

    def restart_name_counters(self) -> "Program":
        """Restart every function's block-name counter; returns the program.

        The counter is the one piece of state :meth:`clone` does not carry
        over, so a program its owner transforms in place, after this call,
        names new blocks exactly as its clone would.
        """
        for function in self.all_functions():
            function._name_counter = 0
        return self

    def link(self, in_place: bool = False) -> "Program":
        """Merge every module into a single linked module (LTO-style).

        Symbol resolution follows the usual linker rules:

        * declarations collapse onto the definition of the same name (or onto
          one shared declaration if no module defines it);
        * at most one non-internal definition of a name may exist — a clash
          between two external definitions raises a duplicate-symbol error;
        * internal definitions whose name is also claimed by another module
          are renamed with a module suffix, and their call sites (which
          reference the function object, not the name) follow the rename;
        * same-named globals collapse only when value type, constancy and
          initializer agree; otherwise the later ones are renamed with a
          module suffix, mirroring the internal-function rename path.

        The original module of each function is recorded in its
        ``attributes["origin_module"]`` so that the fusion pass can still
        apply its cross-module trampoline rule.  Like :meth:`clone`, linking
        is one pass over the IR: a shared ``value_map`` carries every
        resolution, so no post-hoc by-name operand rewriting is needed.

        A program of at most one module is linked as a clone of itself;
        with ``in_place`` (for a caller that owns the program and reads it
        no more) it is linked as itself, in the state its clone would have
        (:meth:`restart_name_counters`).  A multi-module program is always
        merged into a new one.
        """
        if len(self.modules) <= 1:
            linked_single = (self.restart_name_counters() if in_place
                             else self.clone())
            for module in linked_single.modules:
                for f in module.functions.values():
                    f.attributes.setdefault("origin_module", module.name)
            _post_link_verify(linked_single)
            return linked_single

        merged = Module(f"{self.name}.linked")
        value_map: Dict[int, Value] = {}

        # -- resolve function symbols up front ------------------------------------
        claimants: Dict[str, List[Tuple[Module, Function]]] = {}
        for module in self.modules:
            for f in module.functions.values():
                claimants.setdefault(f.name, []).append((module, f))

        # per name: which function keeps the base name (the "keeper"), and
        # which internal definitions must be renamed
        keepers: Dict[str, Function] = {}
        renames: Dict[int, str] = {}
        reserved = set(claimants)
        for name, group in claimants.items():
            definitions = [(m, f) for m, f in group if not f.is_declaration]
            if not definitions:
                keepers[name] = group[0][1]
                continue
            external_defs = [(m, f) for m, f in definitions
                             if f.linkage != Linkage.INTERNAL]
            if len(external_defs) > 1:
                where = ", ".join(m.name for m, _ in external_defs)
                raise ValueError(
                    f"duplicate symbol {name!r}: defined with external "
                    f"linkage in modules {where}")
            keeper = external_defs[0][1] if external_defs else definitions[0][1]
            keepers[name] = keeper
            for m, f in definitions:
                if f is keeper:
                    continue
                new_name = _suffixed_name(reserved, name, m.name)
                reserved.add(new_name)
                renames[id(f)] = new_name

        # -- place globals and function shells in encounter order ------------------
        placed_globals: Dict[str, GlobalVariable] = {}
        for module in self.modules:
            for g in module.globals.values():
                first = placed_globals.get(g.name)
                if first is not None and _globals_equivalent(first, g):
                    value_map[id(g)] = merged.globals[first.name]
                    continue
                if first is None:
                    name = g.name
                    placed_globals[name] = g
                else:
                    name = _suffixed_name(merged.globals, g.name, module.name)
                new_g = _clone_global(g, name)
                merged.add_global(new_g)
                value_map[id(g)] = new_g

        definition_shells: List[Tuple[Function, Function]] = []
        for module in self.modules:
            for f in module.functions.values():
                keeper = keepers[f.name]
                if f.is_declaration:
                    if f is keeper:
                        shell = _clone_function_shell(f)
                        shell.attributes.setdefault("origin_module", module.name)
                        merged.add_function(shell)
                    continue
                shell = _clone_function_shell(f, renames.get(id(f), f.name))
                shell.attributes.setdefault("origin_module", module.name)
                merged.add_function(shell)
                _map_function(f, shell, value_map)
                definition_shells.append((f, shell))
        # declarations resolve to whatever claimed their name, after every
        # shell exists (the keeper definition may sit in a later module)
        for module in self.modules:
            for f in module.functions.values():
                if f.is_declaration:
                    keeper = keepers[f.name]
                    target = (value_map[id(keeper)] if id(keeper) in value_map
                              else merged.functions[keeper.name])
                    value_map[id(f)] = target

        # -- clone bodies through the shared value map ------------------------------
        for source, shell in definition_shells:
            clone_function_body(source, shell, value_map)

        linked = Program(self.name, [merged], entry=self.entry)
        linked.metadata = dict(self.metadata)
        linked.metadata["linked"] = True
        _post_link_verify(linked)
        return linked

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Program {self.name} ({len(self.modules)} modules)>"


def _post_link_verify(program: "Program") -> None:
    """Verify a freshly linked program when ``REPRO_VERIFY_IR`` is set.

    Opt-in rather than always-on: ``link()`` sits on the hot path of every
    obfuscate/measure cycle, and a structural sweep of a large program is
    not free.  Lazy import — the verifier lives above this module.
    """
    tier = os.environ.get("REPRO_VERIFY_IR")
    if not tier:
        return
    from .verifier import assert_valid
    assert_valid(program, tier=tier)
