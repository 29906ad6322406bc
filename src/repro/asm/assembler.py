"""Two-pass assembler driver.

Pass one parses lines, expands pseudo-instructions, lays out the data
segment and binds labels.  Pass two resolves symbols and decodes each
instruction into a :class:`repro.isa.Instruction`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.operands import (
    parse_hilo,
    parse_int,
    parse_mem_operand,
    parse_register,
    parse_symbol_ref,
    split_operands,
    try_parse_int,
    unescape_string,
)
from repro.asm.program import DataItem, Program
from repro.asm.pseudo import RawInstr, expand
from repro.errors import AsmError
from repro.isa.instruction import Instruction
from repro.isa.layout import DATA_BASE
from repro.isa.opcodes import OPCODES, Format
from repro.isa.registers import REG_RA, is_fp_reg
from repro.obs import get_recorder

_SHIFT_OPS = {"sll", "srl", "sra"}
_SIGNED_IMM_OPS = {"addi", "addiu", "slti"}
_UNSIGNED_IMM_OPS = {"andi", "ori", "xori", "sltiu", "lui"}


@dataclass(slots=True)
class _PendingData:
    addr: int
    size: int
    value: object  # int, float, or symbol-reference string
    is_float: bool
    line: int | None


class _Assembler:
    def __init__(self, source: str, entry_label: str):
        self.source = source
        self.entry_label = entry_label
        self.raw: list[RawInstr] = []
        self.labels: dict[str, int] = {}
        self.symbols: dict[str, int] = {}
        self.pending_data: list[_PendingData] = []
        self.segment = "text"
        self.cursor = DATA_BASE
        self.pending_labels: list[tuple[str, int | None]] = []

    # ------------------------------------------------------------------
    # Pass one: parse, expand, lay out.
    # ------------------------------------------------------------------

    def run(self) -> Program:
        for line_no, line in enumerate(self.source.splitlines(), start=1):
            self._parse_line(line, line_no)
        self._bind_pending(self.cursor)
        instructions = [self._decode(raw) for raw in self.raw]
        data = [self._resolve_data(item) for item in self.pending_data]
        entry = self.labels.get(self.entry_label)
        if entry is None:
            entry = self.labels.get("main", 0)
        return Program(
            instructions=instructions,
            data=data,
            labels=dict(self.labels),
            symbols=dict(self.symbols),
            entry=entry,
            source=self.source,
        )

    def _parse_line(self, line: str, line_no: int) -> None:
        line = _strip_comment(line)
        while True:
            line = line.strip()
            colon = _label_split(line)
            if colon is None:
                break
            name, line = colon
            self._define_label(name, line_no)
        if not line:
            return
        if line.startswith("."):
            self._directive(line, line_no)
            return
        parts = line.split(None, 1)
        op = parts[0]
        operand_text = parts[1] if len(parts) > 1 else ""
        raw = RawInstr(op, split_operands(operand_text), line=line_no, text=line)
        if op not in OPCODES:
            expanded = expand(raw)
            if len(expanded) == 1 and expanded[0] is raw:
                raise AsmError(f"unknown opcode: {op!r}", line_no)
            self.raw.extend(expanded)
        else:
            self.raw.extend(expand(raw))

    def _define_label(self, name: str, line_no: int) -> None:
        if name in self.labels or name in self.symbols:
            raise AsmError(f"duplicate label: {name!r}", line_no)
        if self.segment == "text":
            self.labels[name] = len(self.raw)
        else:
            self.pending_labels.append((name, line_no))

    def _bind_pending(self, addr: int) -> None:
        for name, line_no in self.pending_labels:
            if name in self.symbols or name in self.labels:
                raise AsmError(f"duplicate label: {name!r}", line_no)
            self.symbols[name] = addr
        self.pending_labels.clear()

    def _align(self, boundary: int) -> None:
        remainder = self.cursor % boundary
        if remainder:
            self.cursor += boundary - remainder

    def _emit_data(self, size, value, is_float, line_no) -> None:
        self._align(size)
        self._bind_pending(self.cursor)
        self.pending_data.append(
            _PendingData(self.cursor, size, value, is_float, line_no)
        )
        self.cursor += size

    def _directive(self, line: str, line_no: int) -> None:
        parts = line.split(None, 1)
        name = parts[0]
        rest = parts[1].strip() if len(parts) > 1 else ""
        if name == ".text":
            self.segment = "text"
        elif name == ".data":
            self.segment = "data"
        elif name in (".word", ".half", ".byte"):
            size = {".word": 4, ".half": 2, ".byte": 1}[name]
            for item in split_operands(rest):
                value = try_parse_int(item)
                self._emit_data(size, value if value is not None else item,
                                False, line_no)
        elif name == ".double":
            for item in split_operands(rest):
                try:
                    value = float(item)
                except ValueError:
                    raise AsmError(
                        f"invalid float literal: {item!r}", line_no
                    ) from None
                self._emit_data(8, value, True, line_no)
        elif name == ".space":
            self._bind_pending(self.cursor)
            self.cursor += parse_int(rest, line_no)
        elif name == ".align":
            self._align(1 << parse_int(rest, line_no))
            self._bind_pending(self.cursor)
        elif name in (".asciiz", ".ascii"):
            if len(rest) < 2 or rest[0] != '"' or rest[-1] != '"':
                raise AsmError("string directive needs a quoted string", line_no)
            text = unescape_string(rest[1:-1], line_no)
            if name == ".asciiz":
                text += "\0"
            for char in text:
                self._emit_data(1, ord(char), False, line_no)
        elif name in (".globl", ".global", ".ent", ".end", ".set"):
            pass  # accepted and ignored
        else:
            raise AsmError(f"unknown directive: {name!r}", line_no)

    # ------------------------------------------------------------------
    # Pass two: resolution and decoding.
    # ------------------------------------------------------------------

    def _symbol_value(self, name: str, line: int | None) -> int:
        if name in self.symbols:
            return self.symbols[name]
        if name in self.labels:
            return self.labels[name]
        raise AsmError(f"undefined symbol: {name!r}", line)

    def _resolve_imm(self, text: str, line: int | None) -> int:
        value = try_parse_int(text)
        if value is not None:
            return value
        hilo = parse_hilo(text)
        if hilo is not None:
            which, expr = hilo
            name, offset = parse_symbol_ref(expr, line)
            address = self._symbol_value(name, line) + offset
            return (address >> 16) & 0xFFFF if which == "hi" else address & 0xFFFF
        raise AsmError(f"invalid immediate: {text!r}", line)

    def _resolve_data(self, item: _PendingData) -> DataItem:
        value = item.value
        if isinstance(value, str):
            name, offset = parse_symbol_ref(value, item.line)
            value = self._symbol_value(name, item.line) + offset
        return DataItem(item.addr, item.size, value, item.is_float)

    def _target(self, label: str, line: int | None) -> int:
        if label not in self.labels:
            raise AsmError(f"undefined branch target: {label!r}", line)
        return self.labels[label]

    def _check_imm(self, op: str, imm: int, line: int | None) -> None:
        if op in _SHIFT_OPS:
            if not 0 <= imm <= 31:
                raise AsmError(f"shift amount out of range: {imm}", line)
        elif op in _SIGNED_IMM_OPS:
            if not -32768 <= imm <= 32767:
                raise AsmError(f"immediate out of range for {op}: {imm}", line)
        elif op in _UNSIGNED_IMM_OPS:
            if not 0 <= imm <= 0xFFFF:
                raise AsmError(f"immediate out of range for {op}: {imm}", line)
        else:  # memory displacement
            if not -32768 <= imm <= 0xFFFF:
                raise AsmError(f"displacement out of range: {imm}", line)

    def _want(self, raw: RawInstr, count: int) -> list[str]:
        if len(raw.operands) != count:
            raise AsmError(
                f"{raw.op} expects {count} operand(s), got {len(raw.operands)}",
                raw.line,
            )
        return raw.operands

    def _reg(self, text: str, line, fp: bool | None = None) -> int:
        number = parse_register(text, line)
        if fp is True and not is_fp_reg(number):
            raise AsmError(f"expected fp register, got {text!r}", line)
        if fp is False and is_fp_reg(number):
            raise AsmError(f"expected integer register, got {text!r}", line)
        return number

    def _decode(self, raw: RawInstr) -> Instruction:
        spec = OPCODES.get(raw.op)
        if spec is None:
            raise AsmError(f"unknown opcode: {raw.op!r}", raw.line)
        line = raw.line
        fmt = spec.fmt
        text = raw.text or f"{raw.op} " + ", ".join(raw.operands)
        if fmt is Format.RRR:
            dest, lhs, rhs = self._want(raw, 3)
            return Instruction(
                raw.op,
                dest=self._reg(dest, line, fp=False),
                src1=self._reg(lhs, line, fp=False),
                src2=self._reg(rhs, line, fp=False),
                text=text,
            )
        if fmt is Format.RRI:
            dest, src, imm_text = self._want(raw, 3)
            imm = self._resolve_imm(imm_text, line)
            self._check_imm(raw.op, imm, line)
            return Instruction(
                raw.op,
                dest=self._reg(dest, line, fp=False),
                src1=self._reg(src, line, fp=False),
                imm=imm,
                text=text,
            )
        if fmt is Format.LUI:
            dest, imm_text = self._want(raw, 2)
            imm = self._resolve_imm(imm_text, line)
            self._check_imm(raw.op, imm, line)
            return Instruction(
                raw.op, dest=self._reg(dest, line, fp=False), imm=imm, text=text
            )
        if fmt in (Format.MEM, Format.FMEM):
            reg_text, mem_text = self._want(raw, 2)
            parsed = parse_mem_operand(mem_text, line)
            if parsed is None:
                raise AsmError(f"invalid memory operand: {mem_text!r}", line)
            disp, base = parsed
            if isinstance(disp, str):
                disp = self._resolve_imm(disp, line)
            self._check_imm(raw.op, disp, line)
            data_reg = self._reg(reg_text, line, fp=(fmt is Format.FMEM))
            if spec.writes_dest:  # load
                return Instruction(
                    raw.op, dest=data_reg, src1=base, imm=disp, text=text
                )
            return Instruction(  # store: src1=base, src2=data
                raw.op, src1=base, src2=data_reg, imm=disp, text=text
            )
        if fmt is Format.BRANCH2:
            lhs, rhs, label = self._want(raw, 3)
            return Instruction(
                raw.op,
                src1=self._reg(lhs, line, fp=False),
                src2=self._reg(rhs, line, fp=False),
                target=self._target(label, line),
                text=text,
            )
        if fmt is Format.BRANCH1:
            src, label = self._want(raw, 2)
            return Instruction(
                raw.op,
                src1=self._reg(src, line, fp=False),
                target=self._target(label, line),
                text=text,
            )
        if fmt is Format.JUMP:
            (label,) = self._want(raw, 1)
            dest = REG_RA if spec.writes_dest else None
            return Instruction(
                raw.op, dest=dest, target=self._target(label, line), text=text
            )
        if fmt in (Format.JR, Format.JALR):
            (src,) = self._want(raw, 1)
            dest = REG_RA if spec.writes_dest else None
            return Instruction(
                raw.op, dest=dest, src1=self._reg(src, line, fp=False), text=text
            )
        if fmt is Format.FRRR:
            dest, lhs, rhs = self._want(raw, 3)
            return Instruction(
                raw.op,
                dest=self._reg(dest, line, fp=True),
                src1=self._reg(lhs, line, fp=True),
                src2=self._reg(rhs, line, fp=True),
                text=text,
            )
        if fmt is Format.FRR:
            dest, src = self._want(raw, 2)
            return Instruction(
                raw.op,
                dest=self._reg(dest, line, fp=True),
                src1=self._reg(src, line, fp=True),
                text=text,
            )
        if fmt is Format.FCMP:
            dest, lhs, rhs = self._want(raw, 3)
            return Instruction(
                raw.op,
                dest=self._reg(dest, line, fp=False),
                src1=self._reg(lhs, line, fp=True),
                src2=self._reg(rhs, line, fp=True),
                text=text,
            )
        if fmt is Format.ITOF:
            dest, src = self._want(raw, 2)
            return Instruction(
                raw.op,
                dest=self._reg(dest, line, fp=True),
                src1=self._reg(src, line, fp=False),
                text=text,
            )
        if fmt is Format.FTOI:
            dest, src = self._want(raw, 2)
            return Instruction(
                raw.op,
                dest=self._reg(dest, line, fp=False),
                src1=self._reg(src, line, fp=True),
                text=text,
            )
        if fmt is Format.NONE:
            self._want(raw, 0)
            return Instruction(raw.op, text=text)
        raise AsmError(f"unhandled format for {raw.op!r}", line)


def _strip_comment(line: str) -> str:
    """Remove ``#`` comments, respecting quoted strings."""
    if "#" not in line:
        return line
    if '"' not in line:
        return line[:line.index("#")]
    in_string = False
    escaped = False
    for index, char in enumerate(line):
        if escaped:
            escaped = False
            continue
        if char == "\\" and in_string:
            escaped = True
        elif char == '"':
            in_string = not in_string
        elif char == "#" and not in_string:
            return line[:index]
    return line


def _label_split(line: str) -> tuple[str, str] | None:
    """If ``line`` starts with ``name:``, return (name, remainder)."""
    for index, char in enumerate(line):
        if char == ":":
            name = line[:index].strip()
            if name and all(
                part.isalnum() or part in "._$" for part in name
            ) and not name[0].isdigit():
                return name, line[index + 1 :]
            return None
        if char in ' \t"#':
            return None
    return None


def assemble(source: str, entry_label: str = "__start") -> Program:
    """Assemble ``source`` into a :class:`Program`.

    Args:
        source: assembly text.
        entry_label: label where execution starts; falls back to
            ``main`` and then instruction 0 when absent.

    Raises:
        AsmError: on any syntax, range, or resolution error.
    """
    with get_recorder().span("asm.assemble"):
        return _Assembler(source, entry_label).run()
