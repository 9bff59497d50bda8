"""The reference interpreter for the guest ISA.

This is the "interpretation" stage of Figure 1 in the paper: the slow
path a dynamic optimization system falls back to before code is cached.
It executes instructions, counts executed instructions (our stand-in for
a hardware instruction counter), and exposes the machine state so the
DBT runtime can intercept execution at block boundaries.

Decoded form
------------
A :class:`~repro.isa.program.Program` is decoded once, on its first
run, and the result is cached on the program (``Program.decoded``).
Each instruction address maps to one handler ``(registers, state) ->
next_pc`` holding everything the instruction needs as plain integers:
register-file indices, label targets resolved to addresses, the masked
immediate and the fall-through pc.  These handlers are the ISA's only
definition of its semantics.  :meth:`Interpreter.run_steps` is the one
entry point that runs them; ``step``, ``run`` and ``run_block`` are
built on it.

Semantics notes
---------------
* Registers are 64-bit two's-complement values; ``r0`` is a normal
  register (not hardwired to zero).  The register file holds each value
  as an unsigned word; ``MachineState.read_register`` gives it signed.
* Immediates are 64-bit words, like register values.
* Memory is a sparse byte-addressed word store: ``mem[addr]`` holds one
  64-bit value; unwritten locations read as zero.  An address is the
  signed base register plus the offset.
* ``CALL`` pushes the return address on an internal return stack and
  ``RET`` pops it — guest programs need not manage a stack pointer.
  ``RET`` with an empty return stack halts (models returning from main).
* ``DIV`` by zero yields zero rather than trapping, keeping synthetic
  programs total.
* A control transfer to an address that is not an instruction start
  executes (and is counted); fetching from the bad address then raises
  :class:`~repro.isa.program.ProgramError`, leaving the pc on it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable

from repro.isa.instructions import (
    Instruction,
    NUM_REGISTERS,
    Opcode,
    is_register,
    register_index,
)
from repro.isa.program import Program, ProgramError

_WORD_MASK = (1 << 64) - 1
_SIGN_BIT = 1 << 63

#: One decoded instruction: ``handler(registers, state) -> next_pc``.
Handler = Callable[[list, "MachineState"], int]


def _to_signed(value: int) -> int:
    value &= _WORD_MASK
    return value - (1 << 64) if value & _SIGN_BIT else value


class ExecutionLimitExceeded(Exception):
    """Raised when a run exceeds its instruction budget (runaway guest)."""


@dataclass
class MachineState:
    """The complete architectural state of the guest machine."""

    pc: int = 0
    registers: list[int] = field(default_factory=lambda: [0] * NUM_REGISTERS)
    memory: dict[int, int] = field(default_factory=dict)
    return_stack: list[int] = field(default_factory=list)
    halted: bool = False

    def read_register(self, name: str) -> int:
        return _to_signed(self.registers[register_index(name)])

    def write_register(self, name: str, value: int) -> None:
        self.registers[register_index(name)] = value & _WORD_MASK

    def read_memory(self, address: int) -> int:
        return _to_signed(self.memory.get(address, 0))

    def write_memory(self, address: int, value: int) -> None:
        self.memory[address] = value & _WORD_MASK


class Interpreter:
    """Executes a :class:`~repro.isa.program.Program`, maintaining an
    instruction count.

    Parameters
    ----------
    program:
        The code image to execute.
    state:
        Optional pre-built machine state (for resuming); defaults to a
        fresh state positioned at the program entry.
    """

    def __init__(self, program: Program, state: MachineState | None = None) -> None:
        self.program = program
        self.state = state or MachineState(pc=program.entry_address)
        self.instruction_count = 0

    # -- Execution --------------------------------------------------------

    def run_steps(self, n: int) -> int:
        """Execute up to *n* instructions, stopping early after one that
        halts; return how many ran (0 on a halted machine).

        Raises
        ------
        ProgramError
            If the pc is not an instruction start.  The instructions
            before the fault stay executed and counted.
        """
        state = self.state
        handlers = decode(self.program)
        registers = state.registers
        pc = state.pc
        executed = 0
        try:
            while executed < n and not state.halted:
                try:
                    handler = handlers[pc]
                except KeyError:
                    raise ProgramError(
                        f"address {pc:#x} is not an instruction start"
                    ) from None
                pc = handler(registers, state)
                executed += 1
        finally:
            state.pc = pc
            self.instruction_count += executed
        return executed

    def step(self) -> Instruction:
        """Execute one instruction; return it."""
        pc = self.state.pc
        if not self.run_steps(1):
            raise RuntimeError("machine is halted")
        return self.program.fetch(pc)

    def run(self, max_instructions: int = 10_000_000) -> int:
        """Run until ``HALT`` (or final ``RET``); return instructions executed.

        Raises
        ------
        ExecutionLimitExceeded
            If the budget is exhausted before the program halts.
        """
        executed = self.run_steps(max_instructions)
        if not self.state.halted:
            raise ExecutionLimitExceeded(
                f"exceeded {max_instructions} instructions in "
                f"{self.program.name}"
            )
        return executed

    def run_block(self, stop_addresses: set[int],
                  max_instructions: int = 1_000_000) -> int:
        """Run until the PC lands on any address in *stop_addresses*.

        Returns the number of instructions executed.  Stops immediately
        if already at a stop address *after* executing at least one
        instruction, or when the machine halts.
        """
        executed = 0
        state = self.state
        while not state.halted:
            if executed >= max_instructions:
                raise ExecutionLimitExceeded(
                    f"exceeded {max_instructions} instructions in a block run"
                )
            executed += self.run_steps(1)
            if state.pc in stop_addresses:
                break
        return executed


# -- Decoding -----------------------------------------------------------------


def decode(program: Program) -> dict[int, Handler]:
    """Return *program*'s address -> handler map, decoding it on first use."""
    handlers = program.decoded
    if handlers is None:
        handlers = program.decoded = {
            address: _decode(instruction, address + instruction.size,
                             program.resolve)
            for address, instruction in program.iter_addressed()
        }
    return handlers


def _decode(instruction: Instruction, fall_through: int,
            resolve: Callable[[str], int]) -> Handler:
    opcode = instruction.opcode
    operands = instruction.operands

    if opcode in _ALU_OPS:
        op = _ALU_OPS[opcode]
        dst, src1, src2 = operands
        d, a = register_index(dst), register_index(src1)
        if is_register(src2):
            b = register_index(src2)

            def alu(registers, state):
                registers[d] = op(registers[a], registers[b]) & _WORD_MASK
                return fall_through
            return alu
        imm = src2 & _WORD_MASK

        def alu_imm(registers, state):
            registers[d] = op(registers[a], imm) & _WORD_MASK
            return fall_through
        return alu_imm

    if opcode is Opcode.MOV:
        d, s = map(register_index, operands)

        def mov(registers, state):
            registers[d] = registers[s]
            return fall_through
        return mov

    if opcode is Opcode.MOVI:
        d, imm = register_index(operands[0]), operands[1] & _WORD_MASK

        def movi(registers, state):
            registers[d] = imm
            return fall_through
        return movi

    if opcode is Opcode.LOAD or opcode is Opcode.STORE:
        reg, base, offset = operands
        r, b = register_index(reg), register_index(base)
        # signed(word) == (word ^ SIGN) - SIGN, so fold -SIGN into the
        # offset: the address is (word ^ SIGN) + bias.
        bias = offset - _SIGN_BIT

        if opcode is Opcode.LOAD:
            def load(registers, state):
                registers[r] = state.memory.get(
                    (registers[b] ^ _SIGN_BIT) + bias, 0)
                return fall_through
            return load

        def store(registers, state):
            state.memory[(registers[b] ^ _SIGN_BIT) + bias] = registers[r]
            return fall_through
        return store

    if opcode in _BRANCH_PREDICATES:
        taken = _BRANCH_PREDICATES[opcode]
        src1, src2, label = operands
        a, b = register_index(src1), register_index(src2)
        target = resolve(label)

        # Flipping the sign bit makes unsigned word order signed order.
        def branch(registers, state):
            if taken(registers[a] ^ _SIGN_BIT, registers[b] ^ _SIGN_BIT):
                return target
            return fall_through
        return branch

    if opcode is Opcode.JMP:
        target = resolve(operands[0])
        return lambda registers, state: target

    if opcode is Opcode.JMPR:
        r = register_index(operands[0])
        return lambda registers, state: registers[r]

    if opcode is Opcode.CALL:
        target = resolve(operands[0])

        def call(registers, state):
            state.return_stack.append(fall_through)
            return target
        return call

    if opcode is Opcode.RET:
        def ret(registers, state):
            if state.return_stack:
                return state.return_stack.pop()
            state.halted = True
            return fall_through
        return ret

    if opcode is Opcode.HALT:
        def halt(registers, state):
            state.halted = True
            return fall_through
        return halt

    if opcode is Opcode.NOP:
        return lambda registers, state: fall_through

    raise NotImplementedError(opcode)  # pragma: no cover - all handled


def _div(lhs: int, rhs: int) -> int:
    """Signed division truncating toward zero; by zero yields zero."""
    lhs, rhs = _to_signed(lhs), _to_signed(rhs)
    if rhs == 0:
        return 0
    quotient = abs(lhs) // abs(rhs)
    return -quotient if (lhs < 0) != (rhs < 0) else quotient


#: ALU opcode -> operation on two unsigned words; the handler masks the
#: result.  Two's-complement add, sub, mul and the bitwise ops agree
#: with their signed forms modulo 2**64.
_ALU_OPS = {
    Opcode.ADD: operator.add,
    Opcode.SUB: operator.sub,
    Opcode.MUL: operator.mul,
    Opcode.DIV: _div,
    Opcode.AND: operator.and_,
    Opcode.OR: operator.or_,
    Opcode.XOR: operator.xor,
    Opcode.SHL: lambda a, b: a << (b & 63),
    Opcode.SHR: lambda a, b: a >> (b & 63),
}

_BRANCH_PREDICATES = {
    Opcode.BEQ: operator.eq,
    Opcode.BNE: operator.ne,
    Opcode.BLT: operator.lt,
    Opcode.BGE: operator.ge,
}
