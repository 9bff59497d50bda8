"""Unit and property tests for the reference interpreter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.assembler import assemble
from repro.isa.interpreter import ExecutionLimitExceeded, Interpreter
from repro.isa.program import ProgramError


def _run(source, entry=None, max_instructions=100_000):
    interpreter = Interpreter(assemble(source, entry=entry))
    interpreter.run(max_instructions)
    return interpreter


class TestArithmetic:
    @pytest.mark.parametrize(
        "op, lhs, rhs, expected",
        [
            ("add", 7, 5, 12),
            ("sub", 7, 5, 2),
            ("mul", 7, 5, 35),
            ("div", 7, 5, 1),
            ("div", -7, 5, -1),  # truncates toward zero
            ("and", 0b1100, 0b1010, 0b1000),
            ("or", 0b1100, 0b1010, 0b1110),
            ("xor", 0b1100, 0b1010, 0b0110),
            ("shl", 3, 4, 48),
            ("shr", 48, 4, 3),
        ],
    )
    def test_alu_semantics(self, op, lhs, rhs, expected):
        interp = _run(f"movi r1, {lhs}\nmovi r2, {rhs}\n{op} r3, r1, r2\nhalt")
        assert interp.state.read_register("r3") == expected

    def test_immediate_operand(self):
        interp = _run("movi r1, 10\nadd r2, r1, 32\nhalt")
        assert interp.state.read_register("r2") == 42

    def test_div_by_zero_yields_zero(self):
        interp = _run("movi r1, 9\nmovi r2, 0\ndiv r3, r1, r2\nhalt")
        assert interp.state.read_register("r3") == 0

    def test_sixty_four_bit_wraparound(self):
        interp = _run(
            "movi r1, 1\nmovi r2, 63\nshl r3, r1, r2\n"
            "add r4, r3, r3\nhalt"
        )
        # 2^63 + 2^63 wraps to zero in 64-bit arithmetic.
        assert interp.state.read_register("r4") == 0

    def test_negative_values_are_signed(self):
        interp = _run("movi r1, 0\nsub r2, r1, 5\nhalt")
        assert interp.state.read_register("r2") == -5


class TestControlFlow:
    @pytest.mark.parametrize(
        "op, lhs, rhs, taken",
        [
            ("beq", 5, 5, True),
            ("beq", 5, 6, False),
            ("bne", 5, 6, True),
            ("bne", 5, 5, False),
            ("blt", 4, 5, True),
            ("blt", 5, 5, False),
            ("bge", 5, 5, True),
            ("bge", 4, 5, False),
        ],
    )
    def test_branch_predicates(self, op, lhs, rhs, taken):
        interp = _run(
            f"movi r1, {lhs}\nmovi r2, {rhs}\n{op} r1, r2, yes\n"
            "movi r3, 0\nhalt\nyes: movi r3, 1\nhalt"
        )
        assert interp.state.read_register("r3") == (1 if taken else 0)

    def test_loop_executes_expected_count(self):
        interp = _run(
            "movi r1, 0\nmovi r2, 10\n"
            "loop: add r1, r1, 1\nblt r1, r2, loop\nhalt"
        )
        assert interp.state.read_register("r1") == 10

    def test_call_and_ret(self):
        interp = _run("call fn\nmovi r2, 2\nhalt\nfn: movi r1, 1\nret")
        assert interp.state.read_register("r1") == 1
        assert interp.state.read_register("r2") == 2

    def test_nested_calls(self):
        interp = _run(
            "call a\nhalt\n"
            "a: call b\nadd r1, r1, 1\nret\n"
            "b: movi r1, 10\nret"
        )
        assert interp.state.read_register("r1") == 11

    def test_ret_from_top_level_halts(self):
        interp = _run("movi r1, 3\nret")
        assert interp.state.halted
        assert interp.state.read_register("r1") == 3

    def test_indirect_jump(self):
        source = "movi r1, TARGET\njmpr r1\nnop\nend: movi r2, 9\nhalt"
        program = assemble(source.replace("TARGET", "0"))
        target = program.resolve("end")
        interp = _run(source.replace("TARGET", str(target)))
        assert interp.state.read_register("r2") == 9


class TestMemory:
    def test_store_then_load(self):
        interp = _run(
            "movi r1, 4096\nmovi r2, 77\nstore r2, r1, 8\n"
            "load r3, r1, 8\nhalt"
        )
        assert interp.state.read_register("r3") == 77

    def test_unwritten_memory_reads_zero(self):
        interp = _run("movi r1, 512\nload r2, r1, 0\nhalt")
        assert interp.state.read_register("r2") == 0

    def test_negative_offset(self):
        interp = _run(
            "movi r1, 100\nmovi r2, 5\nstore r2, r1, -4\n"
            "movi r3, 96\nload r4, r3, 0\nhalt"
        )
        assert interp.state.read_register("r4") == 5


class TestExecutionControl:
    def test_instruction_count(self):
        interp = _run("movi r1, 1\nmovi r2, 2\nhalt")
        assert interp.instruction_count == 3

    def test_budget_enforced(self):
        with pytest.raises(ExecutionLimitExceeded):
            _run("loop: jmp loop", max_instructions=100)

    def test_step_after_halt_rejected(self):
        interp = _run("halt")
        with pytest.raises(RuntimeError):
            interp.step()

    def test_run_block_stops_at_address(self):
        program = assemble("movi r1, 1\nmid: movi r2, 2\nhalt")
        interpreter = Interpreter(program)
        stop = {program.resolve("mid")}
        executed = interpreter.run_block(stop)
        assert executed == 1
        assert interpreter.state.pc == program.resolve("mid")


_ADVANCES = {
    "run": lambda interpreter: interpreter.run(),
    "run_steps": lambda interpreter: interpreter.run_steps(10),
    "step": lambda interpreter: [interpreter.step() for _ in range(4)],
    "run_block": lambda interpreter: interpreter.run_block({8}),
}


class TestFaultPath:
    """A jump into the middle of an instruction raises ``ProgramError``
    when the next instruction is fetched.  The jump itself has executed:
    it is counted, and the pc holds the bad address."""

    @pytest.mark.parametrize("advance", sorted(_ADVANCES))
    @pytest.mark.parametrize("target, pc", [(3, 3), (-1, (1 << 64) - 1)])
    def test_jmpr_off_an_instruction_start(self, target, pc, advance):
        # movi at 0 (5 bytes), nop at 5, jmpr at 6, halt at 8.
        program = assemble(f"movi r1, {target}\nnop\njmpr r1\nhalt")
        interpreter = Interpreter(program)
        with pytest.raises(ProgramError):
            _ADVANCES[advance](interpreter)
        assert interpreter.state.pc == pc
        assert interpreter.instruction_count == 3
        assert not interpreter.state.halted
        # The fault is sticky: the next attempt fails the same way.
        with pytest.raises(ProgramError):
            interpreter.step()
        assert interpreter.state.pc == pc
        assert interpreter.instruction_count == 3


class TestPropertyBased:
    @given(a=st.integers(-1000, 1000), b=st.integers(-1000, 1000))
    @settings(max_examples=30, deadline=None)
    def test_add_then_sub_is_identity(self, a, b):
        interp = _run(
            f"movi r1, {a}\nmovi r2, {b}\n"
            "add r3, r1, r2\nsub r4, r3, r2\nhalt"
        )
        assert interp.state.read_register("r4") == a

    @given(value=st.integers(-(2**40), 2**40))
    @settings(max_examples=30, deadline=None)
    def test_store_load_round_trip(self, value):
        interp = _run(
            f"movi r1, 64\nmovi r2, {value}\n"
            "store r2, r1, 0\nload r3, r1, 0\nhalt"
        )
        assert interp.state.read_register("r3") == value
