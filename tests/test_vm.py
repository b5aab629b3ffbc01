"""Tests for repro.vm: ISA, programs, machine, compiler, optimizer."""

import pytest

from repro.apps.fir import FirSpec, fir_graph, fir_reference, make_input_streams
from repro.arch.alu import FaultableALU
from repro.arch.cell import effective_faulty_cells
from repro.codesign.sck_transform import enrich_with_sck
from repro.errors import CompilationError, SimulationError
from repro.vm.compiler import ERROR_FLAG_ADDR, compile_dfg
from repro.vm.isa import CYCLE_COST, Instruction, Opcode
from repro.vm.machine import Machine
from repro.vm.optimizer import optimize
from repro.vm.program import ProgramBuilder


class TestIsaAndProgram:
    def test_every_opcode_has_cost(self):
        for opcode in Opcode:
            assert opcode in CYCLE_COST

    def test_register_range_checked(self):
        with pytest.raises(CompilationError):
            Instruction(Opcode.ADD, rd=32, ra=0, rb=1)

    def test_labels_resolve(self):
        builder = ProgramBuilder("t")
        builder.label("start").ldi(4, 1).jmp("end").label("end").halt()
        program = builder.build()
        assert program.resolve("end") == 2

    def test_undefined_label_rejected(self):
        builder = ProgramBuilder("t")
        builder.jmp("nowhere")
        with pytest.raises(CompilationError):
            builder.build()

    def test_duplicate_label_rejected(self):
        builder = ProgramBuilder("t")
        builder.label("x")
        with pytest.raises(CompilationError):
            builder.label("x")

    def test_image_size_model(self):
        builder = ProgramBuilder("t", uses_sck_template=True)
        builder.halt()
        program = builder.build()
        plain = ProgramBuilder("t2").halt().build()
        assert program.image_bytes - plain.image_bytes == 4096

    def test_listing(self):
        program = ProgramBuilder("t").label("loop").ldi(4, 7).halt().build()
        listing = program.listing()
        assert "loop:" in listing and "ldi r4 7" in listing


class TestMachine:
    def test_arithmetic_program(self):
        builder = ProgramBuilder("calc")
        builder.ldi(4, 20).ldi(5, 22).add(6, 4, 5).mul(7, 6, 4).halt()
        result = Machine(16).run(builder.build())
        assert result.registers[6] == 42
        assert result.registers[7] == 840
        assert result.halted

    def test_memory_and_branches(self):
        builder = ProgramBuilder("loop")
        # sum mem[100..104] into r5
        builder.ldi(4, 0).ldi(5, 0).ldi(6, 5)
        builder.label("top")
        builder.ld(7, 4, offset=100).add(5, 5, 7).inc(4).blt(4, 6, "top")
        builder.st(4, 5, offset=200).halt()
        memory = {100 + i: i + 1 for i in range(5)}
        result = Machine(16).run(builder.build(), memory)
        assert result.memory[205] == 15

    def test_cycle_counting(self):
        builder = ProgramBuilder("t")
        builder.ldi(4, 1).mul(5, 4, 4).halt()
        result = Machine(16).run(builder.build())
        assert result.cycles == CYCLE_COST[Opcode.LDI] + CYCLE_COST[Opcode.MUL] + CYCLE_COST[Opcode.HALT]

    def test_boolean_width_rejected(self):
        with pytest.raises(SimulationError, match="got bool"):
            Machine(True)
        # Also beside a 1-bit ALU, which ``True == 1`` used to satisfy.
        with pytest.raises(SimulationError, match="got bool"):
            Machine(True, alu=FaultableALU(1))

    def test_runaway_guard(self):
        builder = ProgramBuilder("spin")
        builder.label("top").jmp("top")
        with pytest.raises(SimulationError):
            Machine(16, max_steps=100).run(builder.build())

    def test_faulty_alu_corrupts_software(self):
        builder = ProgramBuilder("t")
        builder.ldi(4, 19).ldi(5, 23).add(6, 4, 5).halt()
        alu = FaultableALU(16)
        alu.inject_fault("adder", effective_faulty_cells()[1], position=1)
        faulty = Machine(16, alu=alu).run(builder.build())
        clean = Machine(16).run(builder.build())
        assert clean.registers[6] == 42
        # The specific fault may or may not hit this operand pair; at
        # least the machine ran to completion either way.
        assert faulty.halted

    def test_division_semantics(self):
        builder = ProgramBuilder("d")
        builder.ldi(4, -7).ldi(5, 2).div(6, 4, 5).mod(7, 4, 5).halt()
        result = Machine(16).run(builder.build())
        assert result.registers[6] == -3
        assert result.registers[7] == -1


class TestCompiler:
    def make_fir(self, samples):
        spec = FirSpec()
        graph = fir_graph(spec)
        program, memory_map = compile_dfg(graph, len(samples))
        memory = {}
        for name, stream in make_input_streams(samples, spec).items():
            base = memory_map.stream_for_input(name)
            for k, v in enumerate(stream):
                memory[base + k] = v
        return spec, graph, program, memory_map, memory

    def test_fir_outputs_match_reference(self):
        samples = [1, -2, 3, 5, 0, -7, 4, 2]
        spec, graph, program, memory_map, memory = self.make_fir(samples)
        result = Machine(16).run(program, memory)
        base = memory_map.stream_for_output("y")
        outputs = [result.memory.get(base + k, 0) for k in range(len(samples))]
        assert outputs == fir_reference(samples, spec)

    def test_error_flag_clean_without_faults(self):
        samples = [1, 2, 3, 4]
        graph = enrich_with_sck(fir_graph())
        program, memory_map = compile_dfg(graph, len(samples))
        memory = {}
        for name, stream in make_input_streams(samples).items():
            base = memory_map.stream_for_input(name)
            for k, v in enumerate(stream):
                memory[base + k] = v
        result = Machine(16).run(program, memory)
        assert result.memory.get(ERROR_FLAG_ADDR, 0) == 0

    def test_error_flag_raised_under_fault(self):
        samples = list(range(1, 17))
        graph = enrich_with_sck(fir_graph())
        program, memory_map = compile_dfg(graph, len(samples))
        memory = {}
        for name, stream in make_input_streams(samples).items():
            base = memory_map.stream_for_input(name)
            for k, v in enumerate(stream):
                memory[base + k] = v
        raised = 0
        for cell in effective_faulty_cells()[:12]:
            alu = FaultableALU(16)
            alu.inject_fault("adder", cell, position=3)
            result = Machine(16, alu=alu).run(program, dict(memory))
            golden = Machine(16).run(program, dict(memory))
            base = memory_map.stream_for_output("y")
            wrong = any(
                result.memory.get(base + k, 0) != golden.memory.get(base + k, 0)
                for k in range(len(samples))
            )
            if result.memory.get(ERROR_FLAG_ADDR, 0):
                raised += 1
            elif wrong:
                pytest.fail(f"silent corruption escaped for {cell.fault.describe()}")
        assert raised > 0

    def test_sck_template_flag_detected(self):
        plain, _ = compile_dfg(fir_graph(), 4)
        checked, _ = compile_dfg(enrich_with_sck(fir_graph()), 4)
        assert not plain.uses_sck_template
        assert checked.uses_sck_template

    def test_bad_sample_count(self):
        with pytest.raises(CompilationError):
            compile_dfg(fir_graph(), 0)


class TestOptimizer:
    def _run(self, program, memory=None):
        return Machine(16).run(program, memory or {})

    def test_cse_removes_recomputation(self):
        builder = ProgramBuilder("t")
        builder.ldi(4, 3).ldi(5, 4)
        builder.add(6, 4, 5).add(7, 4, 5)  # same expression twice
        builder.st(2, 6, offset=10).st(2, 7, offset=11).halt()
        before = builder.build()
        after = optimize(before)
        adds = [i for i in after.instructions if i.opcode is Opcode.ADD]
        assert len(adds) == 1  # second ADD collapsed to a MOV
        assert self._run(after).memory[10] == 7
        assert self._run(after).memory[11] == 7

    def test_dce_removes_dead_code(self):
        builder = ProgramBuilder("t")
        builder.ldi(4, 3).ldi(5, 4).add(6, 4, 5)  # r6 never used
        builder.ldi(7, 9).st(2, 7, offset=10).halt()
        after = optimize(builder.build())
        opcodes = [i.opcode for i in after.instructions]
        assert Opcode.ADD not in opcodes

    def test_checks_survive_default_pipeline(self):
        """Paper 5.1: redundant check operations are not simplified."""
        graph = enrich_with_sck(fir_graph())
        program, _ = compile_dfg(graph, 16)
        optimized = optimize(program)
        counts_before = sum(
            1 for i in program.instructions if i.opcode is Opcode.CMPNE
        )
        counts_after = sum(
            1 for i in optimized.instructions if i.opcode is Opcode.CMPNE
        )
        assert counts_after == counts_before
        # Size shrink, if any, stays marginal (the paper: "almost
        # unmodified").
        assert len(optimized.instructions) > 0.85 * len(program.instructions)

    def test_algebraic_mode_destroys_checks(self):
        """An over-aggressive compiler folds (a+b)-a -> b, nullifying
        the inverse-operation check."""
        builder = ProgramBuilder("t")
        builder.ldi(4, 3).ldi(5, 4)
        builder.add(6, 4, 5)      # ris = a + b
        builder.sub(7, 6, 4)      # chk = ris - a
        builder.cmpne(8, 7, 5)    # err = chk != b
        builder.st(2, 8, offset=10).st(2, 6, offset=11).halt()
        aggressive = optimize(builder.build(), algebraic=True)
        opcodes = [i.opcode for i in aggressive.instructions]
        assert Opcode.SUB not in opcodes
        assert Opcode.CMPNE not in opcodes
        result = self._run(aggressive)
        assert result.memory[10] == 0  # constant-folded "no error"
        assert result.memory[11] == 7

    def test_optimized_program_equivalent(self):
        samples = [5, -3, 8, 1, 0, 2]
        spec = FirSpec()
        graph = fir_graph(spec)
        program, memory_map = compile_dfg(graph, len(samples))
        memory = {}
        for name, stream in make_input_streams(samples, spec).items():
            base = memory_map.stream_for_input(name)
            for k, v in enumerate(stream):
                memory[base + k] = v
        plain = Machine(16).run(program, dict(memory))
        optimized = Machine(16).run(optimize(program), dict(memory))
        base = memory_map.stream_for_output("y")
        for k in range(len(samples)):
            assert plain.memory.get(base + k) == optimized.memory.get(base + k)
        assert optimized.cycles <= plain.cycles
