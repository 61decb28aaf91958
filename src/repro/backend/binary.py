"""The ``Binary`` container produced by the backend.

A :class:`Binary` is what the diffing tools in :mod:`repro.diffing` consume:
a set of :class:`BinaryFunction` objects, each with labelled machine blocks,
a control-flow graph, direct call targets and a size; plus an optional symbol
table (the paper compares *un-stripped* binaries, which is what lets BinDiff
exploit function names).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .isa import MachineBlock, MachineInstruction


@dataclass
class BinaryFunction:
    name: str
    blocks: List[MachineBlock] = field(default_factory=list)
    exported: bool = False

    # -- derived features ---------------------------------------------------------

    def instructions(self) -> List[MachineInstruction]:
        return [inst for block in self.blocks for inst in block.instructions]

    @property
    def instruction_count(self) -> int:
        return sum(len(b.instructions) for b in self.blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def edge_count(self) -> int:
        return sum(len(b.successors) for b in self.blocks)

    @property
    def size(self) -> int:
        return sum(b.size for b in self.blocks)

    def call_targets(self) -> List[str]:
        return [inst.call_target for inst in self.instructions()
                if inst.call_target is not None]

    @property
    def call_count(self) -> int:
        return sum(1 for inst in self.instructions() if inst.opcode == "call")

    def successors_of(self, label: str) -> List[str]:
        for block in self.blocks:
            if block.label == label:
                return list(block.successors)
        return []

    def block_map(self) -> Dict[str, MachineBlock]:
        return {b.label: b for b in self.blocks}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<BinaryFunction {self.name} blocks={self.block_count} "
                f"insts={self.instruction_count}>")


@dataclass
class Binary:
    name: str
    functions: List[BinaryFunction] = field(default_factory=list)
    stripped: bool = False
    metadata: Dict[str, object] = field(default_factory=dict)

    def function_names(self) -> List[str]:
        return [f.name for f in self.functions]

    def get_function(self, name: str) -> Optional[BinaryFunction]:
        for f in self.functions:
            if f.name == name:
                return f
        return None

    @property
    def total_size(self) -> int:
        return sum(f.size for f in self.functions)

    @property
    def total_instructions(self) -> int:
        return sum(f.instruction_count for f in self.functions)

    def call_graph_edges(self) -> List[Tuple[str, str]]:
        edges: List[Tuple[str, str]] = []
        defined = {f.name for f in self.functions}
        for f in self.functions:
            for target in f.call_targets():
                if target in defined:
                    edges.append((f.name, target))
        return edges

    def callers_of(self, name: str) -> Set[str]:
        return {caller for caller, callee in self.call_graph_edges()
                if callee == name}

    def callees_of(self, name: str) -> Set[str]:
        return {callee for caller, callee in self.call_graph_edges()
                if caller == name}

    def callee_map(self) -> Dict[str, Set[str]]:
        """:meth:`callees_of` every function, from one pass over the edges.

        Each set is filled in edge order, as :meth:`callees_of` fills it.
        """
        callees: Dict[str, Set[str]] = {f.name: set() for f in self.functions}
        for caller, callee in self.call_graph_edges():
            callees[caller].add(callee)
        return callees

    def content_digest(self) -> str:
        """A stable SHA-256 fingerprint of the machine code.

        Covers every function's blocks, instructions (opcode, operands, call
        and jump targets) and CFG edges in their on-disk order — two binaries
        with the same digest are the same program, independently of object
        identity.  Used to assert that artifact-store round trips (pickle →
        disk → unpickle, possibly in another process) preserve lowered
        binaries exactly.
        """
        hasher = hashlib.sha256()
        hasher.update(f"binary\x00{self.name}\x00{self.stripped}\n".encode())
        for function in self.functions:
            hasher.update(
                f"fn\x00{function.name}\x00{function.exported}\n".encode())
            for block in function.blocks:
                hasher.update(f"bb\x00{block.label}\x00"
                              f"{','.join(block.successors)}\n".encode())
                for inst in block.instructions:
                    hasher.update(
                        f"in\x00{inst.opcode}\x00{','.join(inst.operands)}"
                        f"\x00{inst.call_target or ''}"
                        f"\x00{inst.jump_target or ''}\n".encode())
        return hasher.hexdigest()

    def strip(self) -> "Binary":
        """Return a copy with anonymised function names (symbol table removed)."""
        renamed: List[BinaryFunction] = []
        mapping: Dict[str, str] = {}
        for i, f in enumerate(self.functions):
            mapping[f.name] = f"sub_{0x401000 + i * 0x40:x}"
        for f in self.functions:
            new_blocks = []
            for block in f.blocks:
                new_block = MachineBlock(block.label, list(block.instructions),
                                         list(block.successors))
                new_instructions = []
                for inst in new_block.instructions:
                    if inst.call_target in mapping:
                        inst = MachineInstruction(
                            inst.opcode, inst.operands,
                            call_target=mapping[inst.call_target],
                            jump_target=inst.jump_target)
                    new_instructions.append(inst)
                new_block.instructions = new_instructions
                new_blocks.append(new_block)
            renamed.append(BinaryFunction(mapping[f.name], new_blocks,
                                          exported=f.exported))
        stripped = Binary(self.name, renamed, stripped=True,
                          metadata=dict(self.metadata))
        stripped.metadata["strip_mapping"] = mapping
        return stripped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Binary {self.name} functions={len(self.functions)} "
                f"size={self.total_size}>")
