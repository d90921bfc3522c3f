"""Bytecode disassembler — debugging/tooling companion to the assembler.

``disassemble`` renders the interpreter's own analysis
(:func:`repro.evm.interpreter.analyse`), so a listing shows exactly the
instruction starts the dispatch loop can reach: PUSH immediates are data;
anything not in the opcode table is rendered as ``INVALID(0xXX)``.
``format_disassembly`` renders a listing with program counters, which the
test-suite and docs use to make contract bytecode inspectable;
``show_runs=True`` brackets the straight-line runs the interpreter compiles
(:func:`repro.evm.interpreter.compile_runs`) with what each run's single
pre-check tests.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.evm.interpreter import _JUMP, _JUMPI, _RUN, MAX_STACK_DEPTH, analyse, compile_runs
from repro.evm.opcodes import OPCODES, opcode_by_name

__all__ = ["Instruction", "disassemble", "format_disassembly"]


class Instruction(NamedTuple):
    """One decoded instruction."""

    pc: int
    name: str
    immediate: Optional[bytes]  # PUSH payload (possibly truncated at EOF)

    def render(self) -> str:
        if self.immediate is not None:
            return f"{self.name} 0x{self.immediate.hex()}"
        return self.name


def disassemble(code: bytes) -> List[Instruction]:
    """Decode bytecode into a flat instruction list."""
    out: List[Instruction] = []
    starts = [*analyse(code).starts(), len(code)]
    for pc, next_pc in zip(starts, starts[1:]):
        op = OPCODES.get(code[pc])
        if op is None:
            out.append(Instruction(pc, f"INVALID(0x{code[pc]:02x})", None))
        elif op.name.startswith("PUSH"):
            out.append(Instruction(pc, op.name, code[pc + 1 : next_pc]))
        else:
            out.append(Instruction(pc, op.name, None))
    return out


def format_disassembly(
    code: bytes, *, show_jumpdests: bool = True, show_runs: bool = False
) -> str:
    """Render a listing; jump destinations are marked for readability.

    With ``show_runs`` every compiled run is bracketed: static gas charged,
    entry height needed and peak growth allowed for — all in one check —
    and whether a trailing jump was folded in."""
    decoded = analyse(code).instrs
    table = compile_runs(code) if show_runs else decoded
    lines, end = [], 0
    for ins in disassemble(code):
        marker = ">" if show_jumpdests and ins.name == "JUMPDEST" else " "
        line = f"{marker}{ins.pc:5d}  {ins.render()}"
        kind, _, gas, _, needs, room, _, next_pc = table[ins.pc]
        if kind == _RUN:
            end = next_pc
            jump = OPCODES[code[end - 1]].name if decoded[end - 1][0] in (_JUMP, _JUMPI) else ""
            line = f"{line:<28}┐ run: gas {gas}, needs {needs}, grows {MAX_STACK_DEPTH - room}"
            line += f", {jump} folded" if jump else ""
        elif ins.pc < end:
            line = f"{line:<28}{'│' if next_pc < end else '┘'}"
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")


def reassembles_identically(code: bytes) -> bool:
    """Check disassemble→reassemble is the identity (tooling sanity)."""
    out = bytearray()
    for ins in disassemble(code):
        if ins.name.startswith("INVALID"):
            out.append(int(ins.name[10:-1], 16))
            continue
        out.append(opcode_by_name(ins.name).code)
        if ins.immediate is not None:
            out += ins.immediate
    return bytes(out) == code
