"""A small RISC-like instruction set used as the guest ISA for the DBT.

The paper's experiments ran IA-32 binaries under DynamoRIO.  Offline we
substitute a compact register ISA that is easy to interpret, easy to
generate synthetically, and rich enough to produce realistic basic-block
and superblock structure: variable-length encodings, conditional branches,
indirect jumps, calls and returns.

Public surface:

* :class:`~repro.isa.instructions.Instruction` and the opcode tables.
* :class:`~repro.isa.program.Program` — a laid-out code image.
* :func:`~repro.isa.assembler.assemble` — text assembler.
* :class:`~repro.isa.cfg.ControlFlowGraph` — basic-block extraction.
* :class:`~repro.isa.interpreter.Interpreter` — the executor: decodes
  each program once, runs it through ``run_steps(n)``, and counts
  instructions (our stand-in for hardware counters).
"""

from repro.isa.instructions import (
    Instruction,
    Opcode,
    ALU_OPCODES,
    BRANCH_OPCODES,
    CONTROL_OPCODES,
    MEMORY_OPCODES,
    instruction_size,
)
from repro.isa.program import Program, ProgramError
from repro.isa.assembler import assemble, AssemblerError
from repro.isa.disassembler import disassemble
from repro.isa.cfg import BasicBlock, ControlFlowGraph, build_cfg
from repro.isa.interpreter import Interpreter, MachineState, ExecutionLimitExceeded

__all__ = [
    "Instruction",
    "Opcode",
    "ALU_OPCODES",
    "BRANCH_OPCODES",
    "CONTROL_OPCODES",
    "MEMORY_OPCODES",
    "instruction_size",
    "Program",
    "ProgramError",
    "assemble",
    "AssemblerError",
    "disassemble",
    "BasicBlock",
    "ControlFlowGraph",
    "build_cfg",
    "Interpreter",
    "MachineState",
    "ExecutionLimitExceeded",
]
