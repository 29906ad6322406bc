"""The tracing functional simulator.

:class:`Machine` interprets an assembled program and, in tracing mode,
yields one :class:`DynInst` per executed instruction with full
dependence information (which dynamic instruction produced each
consumed value).  Execution is deterministic: running the same program
on the same inputs twice produces identical traces, which the analysis
relies on for its two-pass (profile, then analyse) structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.program import Program
from repro.cpu.alu import ALU_FUNCS, BRANCH_FUNCS
from repro.obs import get_recorder
from repro.cpu.memory import Memory
from repro.cpu.trace import DynInst, Source
from repro.errors import SimError
from repro.isa.layout import (
    DATA_BASE,
    INPUT_BASE,
    INPUT_FLOAT_BASE,
    INPUT_FLOAT_LEN_ADDR,
    INPUT_LEN_ADDR,
    STACK_TOP,
    SYS_EXIT,
    SYS_PRINT_CHAR,
    SYS_PRINT_FLOAT,
    SYS_PRINT_INT,
    WORD_MASK,
    to_signed,
)
from repro.isa.opcodes import Category, opcode_spec
from repro.isa.registers import REG_A0, REG_GP, REG_RA, REG_SP, REG_V0, fp_reg

_NO_PRODUCER = (None, None)

#: ``Source``'s tuple constructor without the NamedTuple signature's
#: argument binding: the traced step builds its per-instruction arcs
#: as ``_new(Source, (value, producer, producer_pc, is_mem, loc))``.
_new = tuple.__new__


@dataclass(slots=True)
class MachineResult:
    """Summary of a completed (or aborted) run."""

    instructions: int
    exit_code: int
    output: str
    halted: bool


@dataclass(slots=True)
class _Decoded:
    """Per-instruction execution record precomputed for speed."""

    op: str
    category: Category
    dest: int | None
    src1: int | None
    src2: int | None
    imm: int | None
    target: int | None
    has_imm: bool
    func: object  # ALU or branch semantic function, or None


class Machine:
    """Functional simulator over an assembled :class:`Program`.

    Args:
        program: the assembled program.
        input_words: synthetic integer program input, loaded at
            :data:`INPUT_BASE` as ``D`` data.
        input_floats: synthetic floating-point program input, loaded at
            :data:`INPUT_FLOAT_BASE` as ``D`` data.
        max_instructions: hard cap on executed instructions.
        tracing: when True (default), :meth:`trace` yields
            :class:`DynInst` records and producer maps are maintained.
    """

    def __init__(
        self,
        program: Program,
        input_words=None,
        input_floats=None,
        max_instructions: int = 50_000_000,
        tracing: bool = True,
    ):
        self.program = program
        self.max_instructions = max_instructions
        self.tracing = tracing
        self.regs: list[int | float] = [0] * 32 + [0.0] * 32
        self.reg_prod: list[tuple[int | None, int | None]] = (
            [_NO_PRODUCER] * 64
        )
        self.memory = Memory()
        self.pc = program.entry
        self.uid = 0
        self.static_counts = [0] * len(program.instructions)
        self.halted = False
        self.exit_code = 0
        self._out: list[str] = []
        self._sentinel = len(program.instructions)
        self.regs[REG_SP] = STACK_TOP
        self.regs[REG_GP] = DATA_BASE
        self.regs[REG_RA] = self._sentinel
        self._decoded = [self._decode(instr) for instr in program.instructions]
        self._load_data(program)
        self._load_inputs(input_words or [], input_floats or [])

    # ------------------------------------------------------------------
    # Setup.
    # ------------------------------------------------------------------

    @staticmethod
    def _decode(instr) -> _Decoded:
        spec = opcode_spec(instr.op)
        category = spec.category
        if category is Category.ALU:
            func = ALU_FUNCS[instr.op]
        elif category is Category.BRANCH:
            func = BRANCH_FUNCS[instr.op]
        else:
            func = None
        reads_zero = instr.src1 == 0 or instr.src2 == 0
        no_inputs = instr.src1 is None and instr.src2 is None
        has_imm = spec.uses_imm or reads_zero or (
            no_inputs and category in (Category.ALU, Category.CALL)
        )
        return _Decoded(
            op=instr.op,
            category=category,
            dest=instr.dest,
            src1=instr.src1,
            src2=instr.src2,
            imm=instr.imm,
            target=instr.target,
            has_imm=has_imm,
            func=func,
        )

    def _load_data(self, program: Program) -> None:
        for item in program.data:
            if item.is_float:
                self.memory.write_float(item.addr, item.value)
            elif item.size == 4:
                self.memory.write_word(item.addr, int(item.value) & WORD_MASK)
            elif item.size == 2:
                self.memory.write_half(item.addr, int(item.value))
            else:
                self.memory.write_byte(item.addr, int(item.value))

    def _load_inputs(self, input_words, input_floats) -> None:
        self.memory.write_word(INPUT_LEN_ADDR, len(input_words))
        for index, word in enumerate(input_words):
            self.memory.write_word(INPUT_BASE + 4 * index, word & WORD_MASK)
        self.memory.write_word(INPUT_FLOAT_LEN_ADDR, len(input_floats))
        for index, value in enumerate(input_floats):
            self.memory.write_float(INPUT_FLOAT_BASE + 8 * index, value)

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def trace(self):
        """Yield one :class:`DynInst` per executed instruction."""
        if not self.tracing:
            raise SimError("machine was created with tracing disabled")
        limit = self.max_instructions
        started = self.uid
        step = self.step
        try:
            while not self.halted:
                if self.uid >= limit:
                    raise SimError(
                        f"instruction limit exceeded ({limit} instructions)"
                    )
                record = step()
                if record is not None:
                    yield record
        finally:
            # Interpreter-loop accounting: fires once per consumed
            # trace, including truncated (islice'd) ones at close time.
            recorder = get_recorder()
            recorder.count("sim.instructions", self.uid - started)
            recorder.count("sim.traces", 1)

    def run(self) -> MachineResult:
        """Run to completion without yielding trace records."""
        limit = self.max_instructions
        started = self.uid
        while not self.halted:
            if self.uid >= limit:
                raise SimError(
                    f"instruction limit exceeded ({limit} instructions)"
                )
            self.step()
        recorder = get_recorder()
        recorder.count("sim.instructions", self.uid - started)
        recorder.count("sim.runs", 1)
        return self.result()

    def result(self) -> MachineResult:
        """Summarise the run so far."""
        return MachineResult(
            instructions=self.uid,
            exit_code=self.exit_code,
            output="".join(self._out),
            halted=self.halted,
        )

    @property
    def output(self) -> str:
        """Everything the program printed so far."""
        return "".join(self._out)

    def step(self) -> DynInst | None:
        """Execute one instruction; return its trace record if tracing."""
        pc = self.pc
        if pc == self._sentinel:
            self.halted = True
            return None
        if not 0 <= pc < self._sentinel:
            raise SimError(f"program counter out of range: {pc}")
        ins = self._decoded[pc]
        self.static_counts[pc] += 1
        uid = self.uid
        self.uid = uid + 1
        category = ins.category
        regs = self.regs
        reg_prod = self.reg_prod
        tracing = self.tracing
        srcs: list[Source] = []
        out = None
        passthrough = None
        taken = None
        target = ins.target
        next_pc = pc + 1

        if category is Category.ALU:
            src1, src2 = ins.src1, ins.src2
            a = 0
            b = ins.imm if ins.imm is not None else 0
            if src1:
                a = regs[src1]
                if tracing:
                    srcs.append(
                        _new(Source, (a, *reg_prod[src1], False, src1)))
            if src2 is not None and src2:
                b = regs[src2]
                if tracing:
                    srcs.append(
                        _new(Source, (b, *reg_prod[src2], False, src2)))
            out = ins.func(a, b)
            dest = ins.dest
            if dest:
                regs[dest] = out
                if tracing:
                    reg_prod[dest] = (uid, pc)
        elif category is Category.LOAD:
            out, passthrough = self._do_load(ins, uid, pc, srcs)
        elif category is Category.STORE:
            out, passthrough = self._do_store(ins, uid, pc, srcs)
        elif category is Category.BRANCH:
            src1, src2 = ins.src1, ins.src2
            a = regs[src1] if src1 else 0
            b = regs[src2] if src2 is not None and src2 else 0
            if tracing:
                if src1:
                    srcs.append(
                        _new(Source, (a, *reg_prod[src1], False, src1)))
                if src2 is not None and src2:
                    srcs.append(
                        _new(Source, (b, *reg_prod[src2], False, src2)))
            taken = ins.func(a, b)
            if taken:
                next_pc = ins.target
        elif category is Category.JUMP:
            next_pc = ins.target
        elif category is Category.CALL:
            out = pc + 1
            regs[REG_RA] = out
            if tracing:
                reg_prod[REG_RA] = (uid, pc)
            next_pc = ins.target
        elif category is Category.JUMP_REG:
            src1 = ins.src1
            tgt = regs[src1]
            if tracing:
                srcs.append(_new(Source, (tgt, *reg_prod[src1], False, src1)))
            if not 0 <= tgt <= self._sentinel:
                raise SimError(f"indirect jump to bad target: {tgt}")
            out = tgt
            passthrough = 0
            target = tgt
            if ins.dest is not None:  # jalr
                regs[REG_RA] = pc + 1
                if tracing:
                    reg_prod[REG_RA] = (uid, pc)
            next_pc = tgt
        elif category is Category.SYSCALL:
            self._do_syscall(ins, srcs)
        # Category.NOP: nothing to do.

        self.pc = next_pc
        if not tracing:
            return None
        # Positional: DynInst's field order (uid, pc, op, category,
        # has_imm, srcs, out, passthrough, taken, target).
        return DynInst(uid, pc, ins.op, category, ins.has_imm, tuple(srcs),
                       out, passthrough, taken, target)

    def _do_load(self, ins, uid, pc, srcs):
        regs = self.regs
        memory = self.memory
        src1 = ins.src1
        base = regs[src1] if src1 else 0
        addr = (base + ins.imm) & WORD_MASK
        tracing = self.tracing
        if tracing and src1:
            srcs.append(
                _new(Source, (base, *self.reg_prod[src1], False, src1)))
        op = ins.op
        if op == "lw":
            value = memory.read_word(addr)
        elif op == "lb":
            value = memory.read_byte(addr)
            if value & 0x80:
                value = (value - 0x100) & WORD_MASK
        elif op == "lbu":
            value = memory.read_byte(addr)
        elif op == "lh":
            value = memory.read_half(addr)
            if value & 0x8000:
                value = (value - 0x1_0000) & WORD_MASK
        elif op == "lhu":
            value = memory.read_half(addr)
        else:  # l.d
            value = memory.read_float(addr)
        if tracing:
            if op == "l.d":
                producer = memory.float_producer(addr)
            else:
                producer = memory.producer(addr)
            srcs.append(
                _new(Source, (value, *(producer or _NO_PRODUCER), True, addr)))
        dest = ins.dest
        if dest:
            regs[dest] = value
            if tracing:
                self.reg_prod[dest] = (uid, pc)
        return value, len(srcs) - 1 if tracing else None

    def _do_store(self, ins, uid, pc, srcs):
        regs = self.regs
        memory = self.memory
        src1, src2 = ins.src1, ins.src2
        base = regs[src1] if src1 else 0
        addr = (base + ins.imm) & WORD_MASK
        tracing = self.tracing
        if tracing and src1:
            srcs.append(
                _new(Source, (base, *self.reg_prod[src1], False, src1)))
        data = regs[src2] if src2 else (0.0 if ins.op == "s.d" else 0)
        passthrough = None
        if tracing and src2:
            passthrough = len(srcs)
            srcs.append(
                _new(Source, (data, *self.reg_prod[src2], False, src2)))
        op = ins.op
        if op == "sw":
            memory.write_word(addr, data)
            out = data & WORD_MASK
        elif op == "sb":
            memory.write_byte(addr, data)
            out = data & 0xFF
        elif op == "sh":
            memory.write_half(addr, data)
            out = data & 0xFFFF
        else:  # s.d
            memory.write_float(addr, data)
            out = data
        if tracing:
            if op == "s.d":
                memory.set_float_producer(addr, uid, pc)
            else:
                memory.set_producer(addr, uid, pc)
        return out, passthrough

    def _do_syscall(self, ins, srcs) -> None:
        if ins.op == "halt":
            self.halted = True
            return
        regs = self.regs
        tracing = self.tracing
        code = regs[REG_V0]
        if tracing:
            srcs.append(Source(code, *self.reg_prod[REG_V0], False, REG_V0))
        if code == SYS_PRINT_INT:
            if tracing:
                srcs.append(Source(regs[REG_A0], *self.reg_prod[REG_A0], False, REG_A0))
            self._out.append(str(to_signed(regs[REG_A0])))
        elif code == SYS_PRINT_CHAR:
            if tracing:
                srcs.append(Source(regs[REG_A0], *self.reg_prod[REG_A0], False, REG_A0))
            self._out.append(chr(regs[REG_A0] & 0xFF))
        elif code == SYS_PRINT_FLOAT:
            f12 = fp_reg(12)
            if tracing:
                srcs.append(Source(regs[f12], *self.reg_prod[f12], False, f12))
            self._out.append(f"{regs[f12]:g}")
        elif code == SYS_EXIT:
            if tracing:
                srcs.append(Source(regs[REG_A0], *self.reg_prod[REG_A0], False, REG_A0))
            self.exit_code = to_signed(regs[REG_A0])
            self.halted = True
        else:
            raise SimError(f"unknown syscall code: {code}")


def run_program(
    program: Program,
    input_words=None,
    input_floats=None,
    max_instructions: int = 50_000_000,
) -> MachineResult:
    """Assemble-and-go convenience: run ``program`` without tracing."""
    machine = Machine(
        program,
        input_words=input_words,
        input_floats=input_floats,
        max_instructions=max_instructions,
        tracing=False,
    )
    return machine.run()
