"""Property-based checks of the assembler/interpreter against an oracle.

Random straight-line ALU programs are generated as text, assembled, and
executed; the result is compared against a direct Python evaluation of
the same operation sequence.  Random programs over every opcode, with
branches, calls and indirect jumps, are compared against a test-local
reference evaluator, and ``run_steps(n)`` against ``n`` single steps.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.assembler import assemble
from repro.isa.cfg import build_cfg
from repro.isa.instructions import Instruction, Opcode
from repro.isa.interpreter import Interpreter
from repro.isa.program import Program, ProgramError

_REGISTERS = [f"r{i}" for i in range(1, 8)]
_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
}

_WORD = 1 << 64
_SIGN = 1 << 63


def _wrap(value):
    value %= _WORD
    return value - _WORD if value & _SIGN else value


@st.composite
def _alu_programs(draw):
    """A list of (op, dst, src, imm) steps over a small register file."""
    steps = draw(st.lists(
        st.tuples(
            st.sampled_from(sorted(_OPS)),
            st.sampled_from(_REGISTERS),
            st.sampled_from(_REGISTERS),
            st.integers(-100, 100),
        ),
        min_size=1, max_size=40,
    ))
    seeds = draw(st.lists(st.integers(-1000, 1000),
                          min_size=len(_REGISTERS),
                          max_size=len(_REGISTERS)))
    return steps, seeds


class TestAssembledAluPrograms:
    @given(_alu_programs())
    @settings(max_examples=60, deadline=None)
    def test_matches_python_oracle(self, case):
        steps, seeds = case
        lines = [f"movi {reg}, {seed}"
                 for reg, seed in zip(_REGISTERS, seeds)]
        registers = dict(zip(_REGISTERS, seeds))
        for op, dst, src, imm in steps:
            lines.append(f"{op} {dst}, {src}, {imm}")
            registers[dst] = _wrap(_OPS[op](registers[src], imm))
        lines.append("halt")
        program = assemble("\n".join(lines))
        interpreter = Interpreter(program)
        interpreter.run()
        for reg, expected in registers.items():
            assert interpreter.state.read_register(reg) == expected

    @given(_alu_programs())
    @settings(max_examples=30, deadline=None)
    def test_straight_line_code_is_one_basic_block(self, case):
        steps, seeds = case
        lines = [f"movi {reg}, {seed}"
                 for reg, seed in zip(_REGISTERS, seeds)]
        lines.extend(f"{op} {dst}, {src}, {imm}"
                     for op, dst, src, imm in steps)
        lines.append("halt")
        program = assemble("\n".join(lines))
        cfg = build_cfg(program)
        assert len(cfg) == 1
        assert cfg.entry.size_bytes == program.size_bytes

    @given(_alu_programs())
    @settings(max_examples=30, deadline=None)
    def test_instruction_count_equals_program_length(self, case):
        steps, seeds = case
        lines = [f"movi {reg}, {seed}"
                 for reg, seed in zip(_REGISTERS, seeds)]
        lines.extend(f"{op} {dst}, {src}, {imm}"
                     for op, dst, src, imm in steps)
        lines.append("halt")
        program = assemble("\n".join(lines))
        interpreter = Interpreter(program)
        interpreter.run()
        assert interpreter.instruction_count == len(program)


# -- Every opcode against a reference evaluator --------------------------------

_ORACLE_REGISTERS = ["r0", "r1", "r2", "r3", "r31"]
_INTERESTING = [0, 1, -1, 2, -2, 7, -7, 63, 64, 65, 100, 127, -128,
                _SIGN, -_SIGN, _SIGN - 1, _WORD - 1, _WORD + 3]
_ALU_NAMES = ["add", "sub", "mul", "div", "and", "or", "xor", "shl", "shr"]
_BRANCH_NAMES = ["beq", "bne", "blt", "bge"]
_BUDGET = 300


def _reference_run(program, budget):
    """Execute *program* for up to *budget* instructions, the obvious way.

    Registers hold signed values; every immediate and result is wrapped
    to a signed 64-bit word.  Returns the final state as a dict, with
    ``fault`` set when the pc left the instruction starts.
    """
    by_address = dict(program.iter_addressed())
    labels = program.labels
    regs = [0] * 32
    memory = {}
    stack = []
    pc = program.entry_address
    halted = fault = False
    count = 0

    def value(operand):
        if isinstance(operand, str):
            return regs[int(operand[1:])]
        return _wrap(operand)

    while count < budget and not halted:
        if pc not in by_address:
            fault = True
            break
        instruction = by_address[pc]
        name = instruction.opcode.value
        ops = instruction.operands
        next_pc = pc + instruction.size
        if name in _ALU_NAMES:
            a, b = value(ops[1]), value(ops[2])
            if name == "div":
                result = 0 if b == 0 else int(Fraction(a, b))
            elif name == "shl":
                result = a * 2 ** (b % 64)
            elif name == "shr":
                result = (a % _WORD) // 2 ** (b % 64)
            else:
                result = _OPS[name](a, b)
            regs[int(ops[0][1:])] = _wrap(result)
        elif name in ("mov", "movi"):
            regs[int(ops[0][1:])] = value(ops[1])
        elif name == "load":
            address = value(ops[1]) + ops[2]
            regs[int(ops[0][1:])] = memory.get(address, 0)
        elif name == "store":
            memory[value(ops[1]) + ops[2]] = value(ops[0])
        elif name in _BRANCH_NAMES:
            a, b = value(ops[0]), value(ops[1])
            taken = {"beq": a == b, "bne": a != b,
                     "blt": a < b, "bge": a >= b}[name]
            if taken:
                next_pc = labels[ops[2]]
        elif name == "jmp":
            next_pc = labels[ops[0]]
        elif name == "jmpr":
            next_pc = value(ops[0]) % _WORD
        elif name == "call":
            stack.append(next_pc)
            next_pc = labels[ops[0]]
        elif name == "ret":
            if stack:
                next_pc = stack.pop()
            else:
                halted = True
        elif name == "halt":
            halted = True
        else:
            assert name == "nop", name
        pc = next_pc
        count += 1
    return {"registers": regs, "memory": memory, "pc": pc,
            "halted": halted, "instruction_count": count, "fault": fault}


def _observed(interpreter, fault):
    state = interpreter.state
    return {
        "registers": [state.read_register(f"r{i}") for i in range(32)],
        "memory": {address: state.read_memory(address)
                   for address in state.memory},
        "pc": state.pc,
        "halted": state.halted,
        "instruction_count": interpreter.instruction_count,
        "fault": fault,
    }


def _run_steps(interpreter, n):
    try:
        interpreter.run_steps(n)
    except ProgramError:
        return True
    return False


@st.composite
def _any_programs(draw):
    """Programs over every opcode, with a label on every instruction.

    ``jmpr`` is preceded by a ``movi`` of an instruction address, moved
    off the instruction start some of the time so the jump faults.
    """
    regs = st.sampled_from(_ORACLE_REGISTERS)
    imms = st.one_of(st.sampled_from(_INTERESTING),
                     st.integers(-(1 << 64), 1 << 65))
    count = draw(st.integers(1, 30))
    label = st.integers(0, count - 1).map(lambda index: f"L{index}")
    recipes = []
    for _ in range(count):
        kind = draw(st.sampled_from(
            _ALU_NAMES + _BRANCH_NAMES
            + ["mov", "movi", "load", "store", "jmp", "jmpr", "call",
               "ret", "nop", "halt"]))
        if kind in _ALU_NAMES:
            src2 = draw(st.one_of(regs, imms))
            recipes.append((kind, (draw(regs), draw(regs), src2)))
        elif kind in _BRANCH_NAMES:
            recipes.append((kind, (draw(regs), draw(regs), draw(label))))
        elif kind == "mov":
            recipes.append((kind, (draw(regs), draw(regs))))
        elif kind == "movi":
            recipes.append((kind, (draw(regs), draw(imms))))
        elif kind in ("load", "store"):
            recipes.append((kind, (draw(regs), draw(regs),
                                   draw(st.integers(-64, 64)))))
        elif kind in ("jmp", "call"):
            recipes.append((kind, (draw(label),)))
        elif kind == "jmpr":
            reg = draw(regs)
            target = draw(st.integers(0, count - 1))
            skew = draw(st.sampled_from([0, 0, 0, 1]))
            recipes.append(("movi-address", (reg, target, skew)))
            recipes.append((kind, (reg,)))
        else:
            recipes.append((kind, ()))
    seeds = draw(st.lists(imms, min_size=len(_ORACLE_REGISTERS),
                          max_size=len(_ORACLE_REGISTERS)))
    prologue = [("movi", (reg, seed))
                for reg, seed in zip(_ORACLE_REGISTERS, seeds)]
    return _build(prologue + recipes, len(prologue))


def _build(recipes, first_label):
    """Lay *recipes* out; label ``Lk`` is instruction ``first_label + k``.

    A ``movi`` is the same size whatever its immediate, so a first
    layout with placeholder immediates fixes every address.
    """
    def instructions(address_of):
        for kind, operands in recipes:
            if kind == "movi-address":
                reg, target, skew = operands
                yield Instruction(Opcode.MOVI, (reg, address_of(target)
                                                + skew))
            else:
                yield Instruction(Opcode(kind), operands)

    labels = {f"L{k}": first_label + k
              for k in range(len(recipes) - first_label)}
    draft = Program(list(instructions(lambda target: 0)), labels)
    return Program(list(instructions(
        lambda target: draft.address_of_index(labels[f"L{target}"]))),
        labels)


#: Directed programs: every case the random search might take long to
#: find.  Each runs to completion through the same comparison.
_DIRECTED = {
    "register src2": "movi r1, 9\nmovi r2, -4\nadd r3, r1, r2\n"
                     "sub r4, r2, r1\nmul r5, r1, r2\nand r6, r1, r2\n"
                     "or r7, r1, r2\nxor r8, r1, r2\nhalt",
    "div by zero": "movi r1, 9\ndiv r2, r1, r0\ndiv r3, r1, 0\nhalt",
    "div negative": "movi r1, -7\nmovi r2, 2\ndiv r3, r1, r2\n"
                    "div r4, r2, r1\ndiv r5, r1, -2\nmovi r6, -7\n"
                    "div r7, r1, r6\nhalt",
    "div overflow": f"movi r1, {-_SIGN}\ndiv r2, r1, -1\nhalt",
    "shift 63 and beyond": "movi r1, -3\nshl r2, r1, 63\nshr r3, r1, 63\n"
                           "shl r4, r1, 64\nshr r5, r1, 64\n"
                           "shl r6, r1, 65\nshr r7, r1, 200\n"
                           "movi r8, 70\nshr r9, r1, r8\nshl r10, r1, r8\n"
                           "halt",
    "negative base": "movi r1, -100\nmovi r2, 42\nstore r2, r1, -8\n"
                     "load r3, r1, -8\nload r4, r1, 8\nhalt",
    "branches taken": "movi r1, 1\nmovi r2, 2\nbeq r1, r1, a\nhalt\n"
                      "a: bne r1, r2, b\nhalt\nb: blt r1, r2, c\nhalt\n"
                      "c: bge r2, r1, d\nhalt\nd: movi r9, 1\nhalt",
    "branches not taken": "movi r1, 1\nmovi r2, 2\nbeq r1, r2, x\n"
                          "bne r1, r1, x\nblt r2, r1, x\nbge r1, r2, x\n"
                          "movi r9, 1\nhalt\nx: movi r9, 2\nhalt",
    "signed compare": f"movi r1, -1\nmovi r2, 1\nblt r1, r2, y\nhalt\n"
                      f"y: movi r3, {_SIGN - 1}\nmovi r4, {-_SIGN}\n"
                      "bge r3, r4, z\nhalt\nz: movi r9, 1\nhalt",
    "backward branch": "movi r1, 5\nloop: sub r1, r1, 1\n"
                       "bne r1, r0, loop\nhalt",
    "jmp": "jmp over\nmovi r1, 1\nover: movi r2, 2\nhalt",
    # movi at 0, jmpr at 5, movi at 7, halt at 12, mov at 13.
    "jmpr, mov, nop": "movi r1, 13\njmpr r1\nmovi r2, 1\nhalt\n"
                      "mov r3, r1\nnop\nhalt",
    "call and ret": "call f\nmovi r2, 2\nhalt\nf: call g\nret\n"
                    "g: movi r1, 1\nret",
    "ret on empty stack halts": "movi r1, 3\nret\nmovi r1, 4\nhalt",
}


class TestEveryOpcodeMatchesReference:
    @given(_any_programs())
    @settings(max_examples=150, deadline=None)
    def test_random_programs(self, program):
        interpreter = Interpreter(program)
        fault = _run_steps(interpreter, _BUDGET)
        assert _observed(interpreter, fault) == _reference_run(
            program, _BUDGET)

    @pytest.mark.parametrize("name", sorted(_DIRECTED))
    def test_directed_programs(self, name):
        program = assemble(_DIRECTED[name])
        interpreter = Interpreter(program)
        fault = _run_steps(interpreter, _BUDGET)
        expected = _reference_run(program, _BUDGET)
        assert expected["halted"] and not expected["fault"]
        assert _observed(interpreter, fault) == expected

    def test_every_opcode_is_exercised(self):
        used = {instruction.opcode
                for source in _DIRECTED.values()
                for instruction in assemble(source).instructions}
        assert used == set(Opcode)


class TestRunStepsEqualsSteps:
    @given(_any_programs(), st.integers(0, 60))
    @settings(max_examples=100, deadline=None)
    def test_run_steps_is_n_single_steps(self, program, n):
        batched = Interpreter(program)
        try:
            executed = batched.run_steps(n)
            batched_fault = False
        except ProgramError:
            executed = None
            batched_fault = True
        stepped = Interpreter(program)
        stepped_fault = False
        for _ in range(n):
            if stepped.state.halted:
                break
            try:
                stepped.step()
            except ProgramError:
                stepped_fault = True
                break
        assert _observed(batched, batched_fault) == _observed(
            stepped, stepped_fault)
        if executed is not None:
            assert executed == stepped.instruction_count

    def test_halt_in_the_middle_of_a_block(self):
        program = assemble("movi r1, 1\nhalt\nmovi r1, 2\nmovi r1, 3\nhalt")
        interpreter = Interpreter(program)
        assert interpreter.run_steps(4) == 2
        assert interpreter.state.halted
        assert interpreter.state.pc == program.address_of_index(2)
        assert interpreter.state.read_register("r1") == 1
        assert interpreter.run_steps(4) == 0
        assert interpreter.instruction_count == 2
