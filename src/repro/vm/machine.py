"""The monoprocessor VM interpreter.

Arithmetic instructions route through a
:class:`~repro.arch.alu.FaultableALU`, so a fault injected into the
machine's adder/multiplier/divider corrupts software results exactly as
the cell-level units would -- and, crucially, the *checking*
instructions of an SCK-compiled program run on that same faulty unit,
reproducing the paper's monoprocessor worst case.

Comparators and flag logic (CMPNE/OR/AND/XOR, branches) are not routed
through the faultable units: the fault model targets the arithmetic
functional units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.arch.alu import FaultableALU
from repro.arch.bitops import check_width, wrap_signed
from repro.errors import SimulationError
from repro.vm.isa import NUM_REGISTERS, Opcode
from repro.vm.program import Program

#: Nominal core frequency used to convert cycles to seconds in the
#: software estimate (a late-1990s embedded core, matching the paper's
#: multi-second FIR runs).
DEFAULT_CLOCK_HZ = 100_000_000


@dataclass
class ExecutionResult:
    """Outcome of one program run."""

    cycles: int
    instructions: int
    registers: List[int]
    memory: Dict[int, int]
    halted: bool

    def seconds(self, clock_hz: int = DEFAULT_CLOCK_HZ) -> float:
        return self.cycles / clock_hz


class Machine:
    """A monoprocessor with a faultable ALU.

    Args:
        width: fixed integer width of the datapath.
        alu: optionally a pre-configured (e.g. faulty) ALU.
        max_steps: runaway guard for unbounded loops.
    """

    def __init__(
        self,
        width: int = 16,
        alu: Optional[FaultableALU] = None,
        max_steps: int = 10_000_000,
    ) -> None:
        width = check_width(width)
        if alu is not None and alu.width != width:
            raise SimulationError(
                f"ALU width {alu.width} != machine width {width}"
            )
        self.width = width
        self.alu = alu if alu is not None else FaultableALU(width)
        self.max_steps = max_steps
        self._half = 1 << (self.alu.width - 1)

    # ------------------------------------------------------------------
    def run(
        self,
        program: Program,
        memory: Optional[Dict[int, int]] = None,
    ) -> ExecutionResult:
        """Execute ``program`` until HALT; returns the final state."""
        regs = [0] * NUM_REGISTERS
        mem: Dict[int, int] = dict(memory or {})
        pc = 0
        cycles = 0
        steps = 0
        code = program.instructions
        half = self._half
        wrap = lambda v: wrap_signed(int(v), half)  # noqa: E731

        while 0 <= pc < len(code):
            steps += 1
            if steps > self.max_steps:
                raise SimulationError(
                    f"program {program.name!r} exceeded {self.max_steps} steps"
                )
            ins = code[pc]
            cycles += ins.cycles
            op = ins.opcode
            next_pc = pc + 1
            if op is Opcode.HALT:
                return ExecutionResult(cycles, steps, regs, mem, True)
            if op is Opcode.LDI:
                regs[ins.rd] = wrap(ins.imm)
            elif op is Opcode.MOV:
                regs[ins.rd] = regs[ins.ra]
            elif op is Opcode.LD:
                address = regs[ins.ra] + (ins.imm or 0)
                regs[ins.rd] = wrap(mem.get(address, 0))
            elif op is Opcode.ST:
                address = regs[ins.ra] + (ins.imm or 0)
                mem[address] = regs[ins.rb]
            elif op is Opcode.ADD:
                regs[ins.rd] = int(self.alu.add(regs[ins.ra], regs[ins.rb]))
            elif op is Opcode.SUB:
                regs[ins.rd] = int(self.alu.sub(regs[ins.ra], regs[ins.rb]))
            elif op is Opcode.NEG:
                regs[ins.rd] = int(self.alu.neg(regs[ins.ra]))
            elif op is Opcode.MUL:
                regs[ins.rd] = int(self.alu.mul(regs[ins.ra], regs[ins.rb]))
            elif op is Opcode.DIV:
                regs[ins.rd] = int(self.alu.div(regs[ins.ra], regs[ins.rb]))
            elif op is Opcode.MOD:
                regs[ins.rd] = int(self.alu.mod(regs[ins.ra], regs[ins.rb]))
            elif op is Opcode.CMPNE:
                regs[ins.rd] = int(regs[ins.ra] != regs[ins.rb])
            elif op is Opcode.OR:
                regs[ins.rd] = wrap(regs[ins.ra] | regs[ins.rb])
            elif op is Opcode.AND:
                regs[ins.rd] = wrap(regs[ins.ra] & regs[ins.rb])
            elif op is Opcode.XOR:
                regs[ins.rd] = wrap(regs[ins.ra] ^ regs[ins.rb])
            elif op is Opcode.BEQ:
                if regs[ins.ra] == regs[ins.rb]:
                    next_pc = program.resolve(ins.label)
            elif op is Opcode.BNE:
                if regs[ins.ra] != regs[ins.rb]:
                    next_pc = program.resolve(ins.label)
            elif op is Opcode.BLT:
                if regs[ins.ra] < regs[ins.rb]:
                    next_pc = program.resolve(ins.label)
            elif op is Opcode.JMP:
                next_pc = program.resolve(ins.label)
            elif op is Opcode.INC:
                regs[ins.rd] = wrap(regs[ins.rd] + 1)
            else:  # pragma: no cover - enum is exhaustive
                raise SimulationError(f"unimplemented opcode {op}")
            pc = next_pc
        return ExecutionResult(cycles, steps, regs, mem, False)
