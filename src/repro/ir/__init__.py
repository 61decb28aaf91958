"""The reproduction IR: types, values, instructions, functions and modules.

This package is the substrate every other component builds on: the workload
generators construct programs with :class:`IRBuilder`, the Khaos passes and
the baseline obfuscators transform them, the optimizer cleans them up, the
backend lowers them to binaries for the diffing tools, and the interpreter
executes them to measure runtime overhead.
"""

from .types import (ArrayType, FloatType, FunctionType, IntType, PointerType,
                    Type, VoidType, VOID, I1, I8, I16, I32, I64, F32, F64,
                    compatible_type, compress_parameter_lists, pointer_to)
from .values import (Argument, Constant, GlobalVariable, NullPointer,
                     UndefValue, Value, bool_const, float_const, int_const)
from .instructions import (Alloca, BinaryOp, Branch, Call, Cast, Compare,
                           CondBranch, GetElementPtr, Instruction, Load, Ret,
                           Select, Store, Switch, Terminator, Unreachable,
                           BINARY_OPS, ICMP_PREDICATES)
from .basicblock import BasicBlock
from .function import Function, Linkage
from .module import Module, Program, clone_function_body
from .builder import IRBuilder, create_function
from .printer import function_to_str, instruction_to_str, module_to_str
from .verifier import VerificationError, assert_valid

__all__ = [
    "ArrayType", "FloatType", "FunctionType", "IntType", "PointerType", "Type",
    "VoidType", "VOID", "I1", "I8", "I16", "I32", "I64", "F32", "F64",
    "compatible_type", "compress_parameter_lists", "pointer_to",
    "Argument", "Constant", "GlobalVariable", "NullPointer", "UndefValue",
    "Value", "bool_const", "float_const", "int_const",
    "Alloca", "BinaryOp", "Branch", "Call", "Cast", "Compare", "CondBranch",
    "GetElementPtr", "Instruction", "Load", "Ret", "Select", "Store", "Switch",
    "Terminator", "Unreachable", "BINARY_OPS", "ICMP_PREDICATES",
    "BasicBlock", "Function", "Linkage", "Module", "Program",
    "clone_function_body", "IRBuilder", "create_function",
    "function_to_str", "instruction_to_str", "module_to_str",
    "VerificationError", "assert_valid",
]
