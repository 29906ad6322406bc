"""Assembled program representation."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import Instruction


@dataclass(frozen=True, slots=True)
class DataItem:
    """One initialised cell in the static data segment.

    Attributes:
        addr: byte address of the cell.
        size: cell size in bytes (1, 2, 4 or 8).
        value: initial value; ints for integer cells, float for doubles.
        is_float: True when the cell holds a floating-point value.
    """

    addr: int
    size: int
    value: int | float
    is_float: bool = False


@dataclass(slots=True)
class Program:
    """A fully assembled program.

    Attributes:
        instructions: decoded instructions; the program counter is an
            index into this list.
        data: initialised data-segment cells (loaded as ``D`` values).
        labels: text labels mapped to instruction indices.
        symbols: data labels mapped to byte addresses.
        entry: instruction index where execution starts.
        source: the original assembly source, for diagnostics.
    """

    instructions: list[Instruction]
    data: list[DataItem] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    symbols: dict[str, int] = field(default_factory=dict)
    entry: int = 0
    source: str = field(default="", repr=False)

    def __len__(self) -> int:
        return len(self.instructions)

    def listing(self) -> str:
        """Return a human-readable listing with instruction indices."""
        index_to_label = {index: name for name, index in self.labels.items()}
        lines = []
        for index, instr in enumerate(self.instructions):
            label = index_to_label.get(index)
            if label is not None:
                lines.append(f"{label}:")
            lines.append(f"  {index:5d}  {instr.render()}")
        return "\n".join(lines)
