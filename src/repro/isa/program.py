"""Program images: instructions laid out at byte addresses.

A :class:`Program` owns an ordered instruction list, assigns each
instruction a byte address from the variable-length encodings, and
resolves label names to addresses.  It is the unit the interpreter
executes and the unit the DBT's trace selector reads code from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.isa.instructions import Instruction


class ProgramError(Exception):
    """Raised for malformed programs: duplicate/unknown labels, etc."""


@dataclass(frozen=True)
class _Layout:
    """Internal immutable layout product: addresses and lookup maps."""

    addresses: tuple[int, ...]
    by_address: Mapping[int, int]  # address -> instruction index
    labels: Mapping[str, int]  # label -> address


class Program:
    """An executable guest code image.

    Parameters
    ----------
    instructions:
        The instruction sequence in layout order.
    labels:
        Mapping of label name to instruction *index* (not address).
    entry:
        Label at which execution starts; defaults to the first instruction.
    name:
        Optional human-readable name, used in logs and events.
    """

    def __init__(
        self,
        instructions: Iterable[Instruction],
        labels: Mapping[str, int] | None = None,
        entry: str | None = None,
        name: str = "program",
    ) -> None:
        self._instructions = tuple(instructions)
        if not self._instructions:
            raise ProgramError("a program needs at least one instruction")
        self.name = name
        label_map = dict(labels or {})
        for label, index in label_map.items():
            if not 0 <= index < len(self._instructions):
                raise ProgramError(
                    f"label {label!r} points at index {index}, "
                    f"but the program has {len(self._instructions)} instructions"
                )
        self._layout = self._lay_out(label_map)
        self._check_targets()
        if entry is not None and entry not in self._layout.labels:
            raise ProgramError(f"entry label {entry!r} is not defined")
        self._entry_label = entry
        #: The interpreter's address -> handler map, built on the first
        #: run (see :func:`repro.isa.interpreter.decode`).
        self.decoded = None

    def _lay_out(self, label_map: Mapping[str, int]) -> _Layout:
        addresses = []
        cursor = 0
        for instruction in self._instructions:
            addresses.append(cursor)
            cursor += instruction.size
        by_address = {address: index for index, address in enumerate(addresses)}
        labels = {label: addresses[index] for label, index in label_map.items()}
        return _Layout(tuple(addresses), by_address, labels)

    def _check_targets(self) -> None:
        for instruction in self._instructions:
            target = instruction.label_target
            if target is not None and target not in self._layout.labels:
                raise ProgramError(f"undefined label {target!r} in {instruction}")

    # -- Address/label queries -------------------------------------------

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        return self._instructions

    @property
    def labels(self) -> Mapping[str, int]:
        """Label name -> byte address."""
        return dict(self._layout.labels)

    @property
    def entry_address(self) -> int:
        if self._entry_label is not None:
            return self._layout.labels[self._entry_label]
        return self._layout.addresses[0]

    @property
    def size_bytes(self) -> int:
        """Total encoded size of the program."""
        last = self._instructions[-1]
        return self._layout.addresses[-1] + last.size

    def address_of_index(self, index: int) -> int:
        return self._layout.addresses[index]

    def index_of_address(self, address: int) -> int:
        try:
            return self._layout.by_address[address]
        except KeyError:
            raise ProgramError(f"address {address:#x} is not an instruction start")

    def fetch(self, address: int) -> Instruction:
        """Return the instruction starting at *address*."""
        return self._instructions[self.index_of_address(address)]

    def resolve(self, label: str) -> int:
        """Return the byte address of *label*."""
        try:
            return self._layout.labels[label]
        except KeyError:
            raise ProgramError(f"undefined label {label!r}")

    def next_address(self, address: int) -> int:
        """Return the fall-through address after the instruction at *address*."""
        return address + self.fetch(address).size

    def contains_address(self, address: int) -> bool:
        return address in self._layout.by_address

    def iter_addressed(self) -> Iterator[tuple[int, Instruction]]:
        """Yield ``(address, instruction)`` pairs in layout order."""
        return zip(self._layout.addresses, self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __repr__(self) -> str:
        return (
            f"Program(name={self.name!r}, instructions={len(self)}, "
            f"bytes={self.size_bytes})"
        )
