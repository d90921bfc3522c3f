"""The EVM interpreter: message execution, gas accounting, tracing.

The interpreter executes bytecode against any object implementing the
StateDB interface (``charge_sender`` / ``transfer`` / ``get_balance`` /
``set_storage`` / ``snapshot`` / ``revert_to`` ...), which is what lets the
same machine run in every execution context the paper distinguishes:

* serial baseline execution over a :class:`~repro.state.statedb.StateDB`;
* proposer OCC execution over an
  :class:`~repro.state.versioned.OCCStateView`, the keyed speculative view
  that records the rw-set itself;
* validator re-execution over a
  :class:`~repro.state.access.RecordingState` that captures the
  read/write sets Algorithm 2 verifies.

Bytecode is decoded once.  :func:`analyse` turns a code blob into a
:class:`Program` — one :class:`Instr` per instruction start (handler,
static gas, trace category, stack arity, decoded PUSH immediate, next pc)
plus the valid jump destinations — cached per ``bytes`` value, and
``_run_frame`` is a flat loop over that table: it counts the category,
charges the static gas and checks the stack bounds once per instruction,
runs the stack-shuffling and control-flow families inline, and hands every
other opcode to a handler that works on the operand list directly
(ARCHITECTURE §11).  A blob that executes a second time is compiled
(:func:`compile_runs`): each straight-line run of opcodes whose failure
modes can all be checked at its head — gas, stack underflow, stack
overflow, and a static frame for a run that writes — becomes one table
entry that checks them once and one generated function that does the
run's work.  Memory at a literal offset, SHA3 and LOG over a literal
range, and SSTORE join a run too: the head prices what they can cost under
the gas schedule (an SSTORE at its dearest, charged exactly inside).
When the check fails, the loop steps through the run's decoded entries
instead, so what fails and how is the stepper's.
Words on the operand stack are plain ints in ``[0, 2**256)``; handlers
mask exactly where arithmetic can leave that range.

Failure semantics follow the yellow paper: a failing frame (out of gas,
stack error, invalid jump, write protection) consumes its gas and reverts
its state changes; ``REVERT`` reverts state but returns data and leaves the
remaining gas intact; errors never propagate as Python exceptions past the
frame boundary except :class:`InvalidTransaction` for un-includable
transactions.
"""

from __future__ import annotations

import linecache
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.common.hashing import keccak
from repro.common.records import record
from repro.common.rlp import rlp_encode
from repro.common.types import (
    Address,
    U256_MASK,
    address_to_int,
    signed_to_u256,
    u256_exp,
    u256_to_signed,
)
from repro.evm.gas import DEFAULT_GAS_SCHEDULE, OutOfGas, intrinsic_gas
from repro.evm.memory import MAX_MEMORY_BYTES, Memory
from repro.evm.opcodes import LOG0, OPCODES, PUSH1, opcode_by_name
from repro.simcore.costmodel import TraceCosts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.chain.block import BlockHeader
    from repro.txpool.transaction import Transaction

__all__ = [
    "EVM",
    "MAX_CALL_DEPTH",
    "ExecutionContext",
    "Message",
    "MessageResult",
    "TxResult",
    "Log",
    "InvalidTransaction",
    "Instr",
    "Program",
    "analyse",
    "compile_runs",
]

#: Yellow-paper operand stack limit.
MAX_STACK_DEPTH = 1024

#: Deepest message-call nesting a transaction may reach (mainnet allows 1024).
MAX_CALL_DEPTH = 16

#: Any object with the StateDB interface (duck-typed on purpose: StateDB,
#: the keyed speculative views, RecordingState all qualify).
State = Any


class InvalidTransaction(Exception):
    """Transaction cannot be included at all (bad nonce, unaffordable).

    Raised by the state surfaces' ``charge_sender``; the constructors below
    are the one place its messages are worded."""

    @classmethod
    def nonce_mismatch(cls, tx_nonce: int, account_nonce: int) -> "InvalidTransaction":
        return cls(f"nonce mismatch: tx {tx_nonce}, account {account_nonce}")

    @classmethod
    def intrinsic_gas(cls, intrinsic: int, gas_limit: int) -> "InvalidTransaction":
        return cls(f"intrinsic gas {intrinsic} exceeds limit {gas_limit}")

    @classmethod
    def insufficient_funds(cls) -> "InvalidTransaction":
        return cls("insufficient funds for gas * price + value")


class _FrameFailure(Exception):
    """Internal: aborts the current frame, consuming its gas."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _Revert(Exception):
    """Internal: REVERT opcode — state rolls back, gas is kept."""

    def __init__(self, output: bytes) -> None:
        super().__init__("revert")
        self.output = output


@dataclass(frozen=True)
class ExecutionContext:
    """Block-level execution environment."""

    block_number: int = 0
    timestamp: int = 0
    coinbase: Address = Address(b"\x00" * 20)
    gas_limit: int = 30_000_000
    chain_id: int = 1
    #: hashes of recent ancestor blocks for the BLOCKHASH opcode, keyed by
    #: block number (Ethereum exposes the latest 256)
    recent_block_hashes: Tuple[Tuple[int, bytes], ...] = ()

    @classmethod
    def from_header(cls, header: "BlockHeader") -> "ExecutionContext":
        """The context a sealed block's header records: the one it was
        proposed under, and so the one it re-executes under."""
        return cls(
            block_number=header.number,
            timestamp=header.timestamp,
            coinbase=header.coinbase,
            gas_limit=header.gas_limit,
        )

    def block_hash(self, number: int) -> int:
        for n, h in self.recent_block_hashes:
            if n == number:
                return int.from_bytes(h, "big")
        return 0


class Message(NamedTuple):
    """One message call (top-level transaction or internal CALL)."""

    sender: Address
    to: Optional[Address]  # None => contract creation
    value: int
    data: bytes
    gas: int
    #: CREATE2 salt; None selects nonce-based CREATE addressing
    create2_salt: Optional[int] = None


@record
class Log:
    address: Address
    topics: Tuple[int, ...]
    data: bytes


class MessageResult(NamedTuple):
    """What one message call returns to its caller."""

    success: bool
    output: bytes
    gas_left: int
    logs: List[Log]
    error: Optional[str] = None
    created: Optional[Address] = None


@dataclass(slots=True)
class TxResult:
    """Outcome of applying one transaction.

    ``trace`` summarises the executed work for the simulated cost model;
    ``success`` is False for transactions that executed but reverted or ran
    out of gas (they are still included in blocks and charged)."""

    success: bool
    gas_used: int
    output: bytes
    logs: List[Log]
    error: Optional[str]
    trace: TraceCosts
    created: Optional[Address] = None
    fee: int = 0


class _TxEnv:
    """What every frame of one transaction shares (built only when a frame
    runs: a transfer to an account without code needs none)."""

    __slots__ = ("evm", "ctx", "origin", "gas_price", "trace", "refunds")

    def __init__(
        self,
        evm: "EVM",
        ctx: ExecutionContext,
        origin: Address,
        gas_price: int,
        trace: Dict[str, int],
    ) -> None:
        self.evm = evm
        self.ctx = ctx
        self.origin = origin
        self.gas_price = gas_price
        #: executed-work counts per category, in first-occurrence order (the
        #: cost model sums in that order and the sim goldens pin the last bit)
        self.trace = trace
        #: gas-refund ledger (SSTORE clears); entries from reverted frames are
        #: discarded, mirroring geth's journaled refund counter
        self.refunds: List[int] = []


class _Frame:
    """One executing message: everything a handler can touch except the
    operand stack, which the loop hands over as a plain list."""

    __slots__ = (
        "state",
        "env",
        "depth",
        "msg",
        "code",
        "address",
        "static",
        "gas",
        "memory",
        "returndata",
        "output",
        "logs",
    )

    def __init__(
        self,
        state: State,
        env: _TxEnv,
        depth: int,
        msg: Message,
        code: bytes,
        address: Address,
        static: bool,
    ) -> None:
        self.state = state
        self.env = env
        self.depth = depth
        self.msg = msg
        self.code = code
        self.address = address
        self.static = static
        #: gas left; the loop keeps it in a local between handler calls and
        #: writes it back before each one
        self.gas = msg.gas
        self.memory = Memory()
        self.returndata = b""  # output of the most recent child call
        self.output = b""  # this frame's own return value
        self.logs: List[Log] = []

    def use_gas(self, amount: int) -> None:
        if amount > self.gas:
            raise OutOfGas(f"need {amount} gas")
        self.gas -= amount

    def charge_memory(self, offset: int, size: int) -> None:
        """Charge the expansion gas for touching ``[offset, offset+size)``.

        Charges only — memory itself grows when the access happens, so two
        charges before one access would both be priced from the current
        size: an instruction that touches two ranges charges once, for the
        larger end."""
        if size:
            end = offset + size
            current = len(self.memory)
            if end > current:
                self.use_gas(
                    DEFAULT_GAS_SCHEDULE.memory_expansion_cost(current // 32, (end + 31) // 32)
                )


# ---------------------------------------------------------------------- #
# analysed programs                                                      #
# ---------------------------------------------------------------------- #

#: A handler executes one instruction on ``(frame, operand stack)``.  The
#: loop has already counted it, charged its static gas and checked the
#: stack against its arity, so handlers pop without looking.  A truthy
#: return halts the frame successfully (RETURN).  A compiled run has the
#: same shape and returns the pc to continue at.
Handler = Callable[[_Frame, List[int]], Optional[int]]

# Instruction families of the dispatch loop, most frequent first.
_RUN, _BOUNDED, _HANDLER, _PUSH, _DUP, _SWAP, _JUMPI, _JUMPDEST, _POP, _STOP, _JUMP = range(11)
_UNDEFINED, _END = 11, 12

_INLINE_KINDS = {"JUMPI": _JUMPI, "JUMPDEST": _JUMPDEST, "POP": _POP, "STOP": _STOP, "JUMP": _JUMP}


def _no_handler(f: _Frame, s: List[int]) -> None:
    raise AssertionError("inline instruction family reached a handler call")


#: One decoded instruction, exactly as the dispatch loop unpacks it — a plain
#: tuple, which CPython unpacks several times faster than a NamedTuple
#: instance: ``(kind, handler, gas, category, pops, room, arg, next_pc)``.
#:
#: * ``kind`` — dispatch family; ``handler`` is called exactly when it is
#:   ``_HANDLER``, ``_RUN`` or ``_BOUNDED``;
#: * ``gas`` — static gas; ``category`` — trace category, ``""`` for what
#:   cannot execute (undefined opcode, PUSH data, end of code);
#: * ``pops`` — operands required; ``room`` — deepest stack at which the
#:   result still fits;
#: * ``arg`` — PUSH immediate (a truncated tail zero-padded on the right),
#:   DUP depth, SWAP index from the top, the PC value, an undefined byte.
#:
#: A ``_RUN`` entry (compiled tables only) is the same tuple over a whole
#: straight-line run: ``gas`` summed, ``category`` the trace counts as
#: ``((category, n), ...)`` in first-occurrence order (the cost model sums
#: in insertion order), ``pops`` the least and ``room`` the greatest entry
#: height at which no instruction of the run under- or overflows, ``arg``
#: the decoded entry of the first instruction, ``next_pc`` the run's end.
#: A ``_BOUNDED`` entry is a run that also holds ``_BOUNDED_STATEMENTS``;
#: its ``gas`` is what the loop prices the run from under the executing
#: schedule: ``(static gas, memory words the run expands to, SHA3 words,
#: LOG data bytes, SSTOREs, whether it writes — holds an SSTORE or a LOG)``.
Instr = Tuple[int, Handler, Any, Any, int, int, Any, int]


@dataclass(eq=False, slots=True, weakref_slot=True)
class Program:
    """Analysis of one code blob: instruction table and jump targets."""

    #: indexed by pc, one entry more than the code is long: instruction
    #: starts chain through ``next_pc`` from 0 to the end-of-code marker at
    #: ``len(code)``; PUSH data positions are marked undefined (control
    #: flow never reaches them)
    instrs: Tuple[Instr, ...]
    #: positions of JUMPDEST bytes that are not PUSH data
    jumpdests: FrozenSet[int]
    #: ``instrs`` with every run head replaced by its ``_RUN`` entry — what
    #: the loop walks from the second execution on.  ``None`` until the
    #: first, ``()`` until the second: initcode runs once, and compiling
    #: costs ten decodes
    compiled: Optional[Tuple[Instr, ...]] = None

    def starts(self) -> Iterator[int]:
        """Program counters of the instruction starts, in code order."""
        pc, end = 0, len(self.instrs) - 1
        while pc < end:
            yield pc
            pc = self.instrs[pc][-1]


@lru_cache(maxsize=512)
def analyse(code: bytes) -> Program:
    """Decode ``code`` once; the only walk of raw bytecode in the package."""
    n = len(code)
    instrs: List[Instr] = [
        (_UNDEFINED, _no_handler, 0, "", 0, 0, byte, pc + 1) for pc, byte in enumerate(code)
    ]
    instrs.append((_END, _no_handler, 0, "", 0, 0, 0, n))
    jumpdests = set()
    pc = 0
    while pc < n:
        op = OPCODES.get(code[pc])
        next_pc = pc + 1
        if op is not None:
            kind, arg = _INLINE_KINDS.get(op.name, _HANDLER), 0
            if op.name.startswith("PUSH"):
                width = op.code - PUSH1 + 1
                kind = _PUSH
                arg = int.from_bytes(code[next_pc : next_pc + width].ljust(width, b"\x00"), "big")
                next_pc = min(next_pc + width, n)
            elif op.name == "PC":
                kind, arg = _PUSH, pc
            elif op.name.startswith("DUP"):
                kind, arg = _DUP, op.pops
            elif op.name.startswith("SWAP"):
                kind, arg = _SWAP, -op.pops
            elif op.name == "JUMPDEST":
                jumpdests.add(pc)
            handler = _HANDLERS[op.code] if kind == _HANDLER else _no_handler
            room = MAX_STACK_DEPTH - max(0, op.pushes - op.pops)
            instrs[pc] = (kind, handler, op.gas, op.category, op.pops, room, arg, next_pc)
        pc = next_pc
    return Program(tuple(instrs), frozenset(jumpdests))


# ---------------------------------------------------------------------- #
# compiled runs                                                          #
# ---------------------------------------------------------------------- #

def _sdiv(a: int, b: int) -> int:
    a, b = u256_to_signed(a), u256_to_signed(b)
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return signed_to_u256(-q if (a < 0) != (b < 0) else q)


def _smod(a: int, b: int) -> int:
    a, b = u256_to_signed(a), u256_to_signed(b)
    if b == 0:
        return 0
    r = abs(a) % abs(b)
    return signed_to_u256(-r if a < 0 else r)


def _signextend(b: int, x: int) -> int:
    if b >= 31:
        return x
    bit = 8 * b + 7
    mask = (1 << (bit + 1)) - 1
    return x | (U256_MASK ^ mask) if x & (1 << bit) else x & mask


def _code_hash(code: bytes) -> int:
    return int.from_bytes(keccak(code), "big") if code else 0


#: The one definition of every opcode that cannot fail once its static gas
#: is paid and its operands are there, charges no dynamic gas, reads neither
#: ``f.gas`` nor the trace and stays in its frame: one expression over the
#: operands ``{a}`` (top), ``{b}``, ``{c}``, each a literal or a local name.
#: Memory at a literal offset, SHA3 and LOG over a literal range, and SSTORE
#: may join a run too (``_BOUNDED_STATEMENTS``); everything else is a
#: handler below and ends a run.  Masks sit where a
#: result can leave ``[0, 2**256)``: balances come from unbounded state
#: arithmetic, every other pushed quantity is a length or a block field.
_EXPRESSIONS = {
    "ADD": "({a} + {b}) & U256_MASK",
    "MUL": "({a} * {b}) & U256_MASK",
    "SUB": "({a} - {b}) & U256_MASK",
    "DIV": "{a} // {b} if {b} else 0",
    "SDIV": "_sdiv({a}, {b})",
    "MOD": "{a} % {b} if {b} else 0",
    "SMOD": "_smod({a}, {b})",
    "ADDMOD": "({a} + {b}) % {c} if {c} else 0",
    "MULMOD": "({a} * {b}) % {c} if {c} else 0",
    "SIGNEXTEND": "_signextend({a}, {b})",
    "LT": "1 if {a} < {b} else 0",
    "GT": "1 if {a} > {b} else 0",
    "SLT": "1 if u256_to_signed({a}) < u256_to_signed({b}) else 0",
    "SGT": "1 if u256_to_signed({a}) > u256_to_signed({b}) else 0",
    "EQ": "1 if {a} == {b} else 0",
    "ISZERO": "0 if {a} else 1",
    "AND": "{a} & {b}",
    "OR": "{a} | {b}",
    "XOR": "{a} ^ {b}",
    "NOT": "{a} ^ U256_MASK",
    "BYTE": "({b} >> (8 * (31 - {a}))) & 0xFF if {a} < 32 else 0",
    "SHL": "({b} << {a}) & U256_MASK if {a} < 256 else 0",
    "SHR": "{b} >> {a} if {a} < 256 else 0",
    "SAR": "signed_to_u256(u256_to_signed({b}) >> min({a}, 256))",
    "ADDRESS": "int.from_bytes(f.address, 'big')",
    "BALANCE": "f.state.get_balance(_address_from_word({a})) & U256_MASK",
    "SELFBALANCE": "f.state.get_balance(f.address) & U256_MASK",
    "EXTCODEHASH": "_code_hash(f.state.get_code(_address_from_word({a})))",
    "ORIGIN": "int.from_bytes(f.env.origin, 'big')",
    "CALLER": "int.from_bytes(f.msg.sender, 'big')",
    "CALLVALUE": "f.msg.value & U256_MASK",
    "CALLDATALOAD": "int.from_bytes(f.msg.data[{a} : {a} + 32].ljust(32, b'\\0'), 'big')",
    "CALLDATASIZE": "len(f.msg.data)",
    "CODESIZE": "len(f.code)",
    "GASPRICE": "f.env.gas_price",
    "EXTCODESIZE": "len(f.state.get_code(_address_from_word({a})))",
    "BLOCKHASH": "f.env.ctx.block_hash({a}) if 0 < f.env.ctx.block_number - {a} <= 256 else 0",
    "RETURNDATASIZE": "len(f.returndata)",
    "COINBASE": "int.from_bytes(f.env.ctx.coinbase, 'big')",
    "TIMESTAMP": "f.env.ctx.timestamp",
    "NUMBER": "f.env.ctx.block_number",
    "GASLIMIT": "f.env.ctx.gas_limit",
    "CHAINID": "f.env.ctx.chain_id",
    "SLOAD": "f.state.get_storage(f.address, {a})",
    "MSIZE": "len(f.memory)",
}

#: The opcodes whose dynamic gas a run's head can price, as statements: the
#: memory ones at a literal offset, SHA3 and LOG over a literal range —
#: ``{data}`` is that range of the backing memory ``m`` (grown a whole word
#: at a time just before, so an in-run MSIZE reads what it reads
#: unfused), ``b''`` when empty — and SSTORE with any operands, which
#: charges its exact cost into ``f.gas`` under the schedule ``g`` (the
#: head reserved ``sstore_set``, the most it can cost).  ``{t}`` is the
#: instruction's local: its pushed result, or SSTORE's current value;
#: ``{topics}`` is a LOG's topics as the body of a tuple.  A run holding
#: one is a ``_BOUNDED`` run.  The handlers below remain the definition for
#: operands that are not literals.
_BOUNDED_STATEMENTS = {
    "MLOAD": "{t} = int.from_bytes({data}, 'big')",
    "MSTORE": "{data} = ({b}).to_bytes(32, 'big')",
    "MSTORE8": "m[{a}] = {b} & 0xFF",
    "SHA3": "{t} = int.from_bytes(keccak({data}), 'big')",
    "LOG": "f.logs.append(Log(f.address, ({topics}), bytes({data})))",
    "SSTORE": (
        "{t} = f.state.get_storage(f.address, {a})\n"
        "f.gas -= g.sstore_cost({t}, {b})\n"
        "if {t} and not {b}: f.env.refunds.append(g.sstore_clear_refund)\n"
        "f.state.set_storage(f.address, {a}, {b})"
    ),
}

#: bytes a memory opcode touches at its literal offset; SHA3 and LOG take
#: theirs from a literal size operand
_ACCESS_SIZES = {"MLOAD": 32, "MSTORE": 32, "MSTORE8": 1}


def _literal_range(name: str, words: List[str]) -> Optional[Tuple[int, int]]:
    """``(offset, size)`` of the memory a bounded statement touches, given
    the symbolic stack before it — ``(0, 0)`` for SSTORE — or None when an
    operand that sizes it is not a literal or its end lies past the cap
    (the handler then fails it, and ends the run)."""
    if name == "SSTORE":
        return 0, 0
    top = [int(word, 16) if word.startswith("0x") else None for word in words[:-3:-1]]
    offset = top[0] if top else None
    size = _ACCESS_SIZES.get(name, top[1] if len(top) == 2 else None)
    if offset is None or size is None or (size and offset + size > MAX_MEMORY_BYTES):
        return None
    return offset, size


class _SymbolicStack:
    """The operand stack of one straight-line run, as source text.

    The words found on entry are ``e1`` (top) … ``eN``, read from the real
    list only if something uses them; PUSH is a literal, DUP / SWAP / POP
    rename, an operator becomes one assignment ``t<pc> = <expression>`` —
    in instruction order, so state reads are recorded in the order they ran
    — and only the run's net effect touches the real list, at the end."""

    def __init__(self) -> None:
        self.words: List[str] = []  # bottom first
        self.needs = 0  # entry words reached so far: the run's least entry height
        self.read: Set[str] = set()
        self.body: List[str] = []

    def reach(self, depth: int) -> None:
        while len(self.words) < depth:
            self.needs += 1
            self.words.insert(0, f"e{self.needs}")

    def pop(self) -> str:
        self.reach(1)
        self.read.add(self.words[-1])
        return self.words.pop()

    def step(self, pc: int, kind: int, arg: int, pops: int, expression: str) -> None:
        words = self.words
        self.reach(pops)
        if kind == _PUSH:
            words.append(hex(arg))
        elif kind == _DUP:
            words.append(words[-arg])
        elif kind == _SWAP:
            words[-1], words[arg] = words[arg], words[-1]
        elif kind == _HANDLER:
            self.statement(pc, pops, 1, "{t} = " + expression)
        elif kind == _POP:
            words.pop()

    def statement(self, pc: int, pops: int, pushes: int, template: str, data: str = "") -> None:
        """One operator or ``_BOUNDED_STATEMENTS`` entry: its operands
        popped, its lines appended, its result (if it pushes one) the local
        ``t<pc>``."""
        operands = [self.pop() for _ in range(pops)]
        fields = dict(zip("abc", operands), t=f"t{pc}", data=data)
        fields["topics"] = "".join(f"{word}, " for word in operands[2:])
        self.body += template.format(**fields).split("\n")
        if pushes:
            self.words.append(f"t{pc}")

    def function(self, name: str, result: str) -> str:
        """Source of ``name(f, s)``: entry loads, body, net effect, result.
        The list is touched a word at a time (a slice assignment costs
        three of these): consumed entry words are popped, the others
        indexed, changed slots stored, growth appended."""
        words, needs = self.words, self.needs
        shrink = max(0, needs - len(words))
        moved = [(i, word) for i, word in enumerate(words) if word != f"e{needs - i}"]
        self.read.update(word for _, word in moved)
        lines = []
        for k in range(1, needs + 1):
            load = f"e{k} = " if f"e{k}" in self.read else ""
            if k <= shrink:
                lines.append(f"{load}s.pop()")
            elif load:
                lines.append(f"{load}s[-{k - shrink}]")
        lines += self.body
        for i, word in moved:
            lines.append(f"s[-{needs - shrink - i}] = {word}" if i < needs else f"s.append({word})")
        lines.append(result)
        return f"def {name}(f, s):\n    " + "\n    ".join(lines) + "\n"


def _load(filename: str, source: str) -> Dict[str, Handler]:
    """Execute generated source; ``linecache`` holds it under ``filename``
    so tracebacks and profiles show the functions by name and line."""
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    functions: Dict[str, Handler] = {}
    exec(compile(source, filename, "exec"), globals(), functions)
    return functions


def compile_runs(code: bytes) -> Tuple[Instr, ...]:
    """``analyse(code).instrs`` with every straight-line run of two or more
    ``_EXPRESSIONS`` / ``_BOUNDED_STATEMENTS`` / PUSH / DUP / SWAP / POP
    instructions, a JUMPDEST first and a literal-destination JUMP / JUMPI
    last, headed by a ``_RUN`` entry — a ``_BOUNDED`` one when it holds a
    statement.  Interior entries stay as decoded: the loop steps through
    them when a run's pre-check fails.  One ``exec`` per blob; nothing of
    the code reaches the source but ``hex()`` of PUSH immediates, and pcs.
    """
    program = analyse(code)
    instrs, jumpdests = program.instrs, program.jumpdests
    tag = keccak(code).hex()[:8]
    table, heads, sources = list(instrs), [], []
    pc, end = 0, len(code)
    while pc < end:
        head, stack = pc, _SymbolicStack()
        cost, room, length, jump = 0, MAX_STACK_DEPTH, 0, ""
        counts: Dict[str, int] = {}
        # memory words the run expands to (all backed from there on), LOG
        # data bytes, whether it holds a statement at all
        words = logged = 0
        bounded = False
        while not jump:
            kind, _, gas, category, pops, fits, arg, next_pc = instrs[pc]
            name = OPCODES[code[pc]].name if kind == _HANDLER else ""
            expression = _EXPRESSIONS.get(name, "")
            template = _BOUNDED_STATEMENTS.get("LOG" if name.startswith("LOG") else name)
            span = _literal_range(name, stack.words) if template else None
            growth = len(stack.words) - stack.needs  # height here, less the entry height
            top = stack.words[-1] if stack.words else ""
            if kind in (_JUMP, _JUMPI) and top.startswith("0x") and int(top, 16) in jumpdests:
                stack.pop()
                jump = f"return {top}"
                if kind == _JUMPI:
                    jump += f" if {stack.pop()} else {next_pc}"
            elif (
                expression
                or kind in (_PUSH, _DUP, _SWAP, _POP)
                or (kind == _JUMPDEST and pc == head)  # elsewhere it can be jumped to
            ):
                stack.step(pc, kind, arg, pops, expression)
            elif span is not None:
                offset, size = span
                if size and (offset + size + 31) // 32 > words:
                    words = (offset + size + 31) // 32
                    stack.body.append(f"if len(m) < {32 * words}: m.extend(bytes({32 * words} - len(m)))")
                data = f"m[{hex(offset)} : {hex(offset + size)}]" if size else "b''"
                stack.statement(pc, pops, OPCODES[code[pc]].pushes, template, data)
                logged += size if name.startswith("LOG") else 0
                bounded = True
            else:
                break
            cost += gas
            counts[category] = counts.get(category, 0) + 1
            if name == "SHA3":  # the handler's own count, right after the category
                counts["sha3_word"] = counts.get("sha3_word", 0) + (span[1] + 31) // 32
            room = min(room, fits - growth)
            length += 1
            pc = next_pc
        if length < 2:
            pc = max(pc, instrs[head][-1])
            continue
        if bounded:
            stores = counts.get("storage_write", 0)
            stack.body[:0] = ["m = f.memory.buffer"] * bool(words) + ["g = DEFAULT_GAS_SCHEDULE"] * bool(stores)
            bounds = (cost, words, counts.get("sha3_word", 0), logged, stores, bool(stores or "log" in counts))
            entry = (_BOUNDED, _no_handler, bounds)
        else:
            entry = (_RUN, _no_handler, cost)
        sources.append(stack.function(f"run_{tag}_{head}", jump or f"return {pc}"))
        heads.append(head)
        table[head] = entry + (tuple(counts.items()), stack.needs, room, instrs[head], pc)
    if not heads:
        return instrs
    filename = f"<evm runs {tag}>"
    functions = _load(filename, "\n".join(sources))
    weakref.finalize(program, linecache.cache.pop, filename, None)  # evicted with the program
    for head in heads:
        table[head] = table[head][:1] + (functions[f"run_{tag}_{head}"],) + table[head][2:]
    return tuple(table)


def _address_from_word(word: int) -> Address:
    return Address((word & ((1 << 160) - 1)).to_bytes(20, "big"))


def contract_address(sender: Address, nonce: int) -> Address:
    """CREATE address derivation: keccak(rlp([sender, nonce]))[12:]."""
    return Address(keccak(rlp_encode([sender, nonce]))[12:])


def contract_address2(sender: Address, salt: int, initcode: bytes) -> Address:
    """CREATE2 (EIP-1014): keccak(0xff ++ sender ++ salt ++ keccak(initcode))[12:].

    The address depends only on the deployer, salt and code — the
    counterfactual-deployment primitive."""
    return Address(
        keccak(
            b"\xff" + sender + salt.to_bytes(32, "big") + keccak(initcode)
        )[12:]
    )


class EVM:
    """The virtual machine.  Stateless between calls; all world state lives
    in the state object passed to each entry point.

    Gas is priced from :data:`~repro.evm.gas.DEFAULT_GAS_SCHEDULE`, and the
    fee is never credited here: :attr:`TxResult.fee` is returned for the
    block to credit once at sealing (see
    :func:`~repro.core.proposer.finalize_block_state`)."""

    # ------------------------------------------------------------------ #
    # transaction entry point                                            #
    # ------------------------------------------------------------------ #

    def apply_transaction(
        self, state: State, tx: "Transaction", ctx: ExecutionContext
    ) -> TxResult:
        """Validate and execute one transaction against ``state``.

        Raises :class:`InvalidTransaction` for transactions that may not be
        included (wrong nonce, unaffordable, intrinsic gas above limit);
        otherwise always returns a :class:`TxResult` (``success=False`` for
        reverted/out-of-gas executions) with the sender charged.
        """
        schedule = DEFAULT_GAS_SCHEDULE
        sender, to, value, data = tx.sender, tx.to, tx.value, tx.data
        gas_limit, gas_price = tx.gas_limit, tx.gas_price
        ig = intrinsic_gas(schedule, data, to is None)
        state.charge_sender(sender, tx.nonce, ig, gas_limit, gas_limit * gas_price, value)

        # the depth-0 message: no Message, frame or _TxEnv unless code runs
        gas = gas_limit - ig
        trace: Dict[str, int] = {}
        env: Optional[_TxEnv] = None
        if to is None:
            env = _TxEnv(self, ctx, sender, gas_price, trace)
            message = Message(sender, None, value, data, gas)
            success, output, gas, logs, error, created = self._execute_create(
                state, message, env, 0, state.snapshot()
            )
        else:
            mark = state.snapshot()
            if value:
                # cannot fall short: charge_sender checked upfront + value
                state.transfer(sender, to, value)
                trace["transfer"] = 1
            code = state.get_code(to)
            if code:
                env = _TxEnv(self, ctx, sender, gas_price, trace)
                frame = _Frame(state, env, 0, Message(sender, to, value, data, gas), code, to, False)
                success, output, gas, logs, error, created = self._run_frame(frame, mark)
            else:
                success, output, logs, error, created = True, b"", [], None, None

        gas_used = gas_limit - gas
        if success and env is not None and env.refunds:
            # EIP-3529-era semantics predate the paper; we keep the
            # pre-London cap: refund at most half the gas consumed
            gas_used -= min(sum(env.refunds), gas_used // schedule.refund_quotient)
        refund = (gas_limit - gas_used) * gas_price
        if refund:
            state.add_balance(sender, refund)
        return TxResult(
            success,
            gas_used,
            output,
            logs if success else [],
            error,
            TraceCosts(trace, gas_used),
            created,
            gas_used * gas_price,
        )

    # ------------------------------------------------------------------ #
    # message execution                                                  #
    # ------------------------------------------------------------------ #

    def _execute_message(
        self, state: State, msg: Message, env: _TxEnv, depth: int, static: bool = False
    ) -> MessageResult:
        if depth > MAX_CALL_DEPTH:
            return MessageResult(False, b"", msg.gas, [], "call depth exceeded")

        mark = state.snapshot()

        if msg.to is None:
            return self._execute_create(state, msg, env, depth, mark)

        # value transfer (balance checked by callers; defensive check here)
        if msg.value:
            if not state.transfer(msg.sender, msg.to, msg.value):
                state.revert_to(mark)
                return MessageResult(False, b"", msg.gas, [], "insufficient balance")
            env.trace["transfer"] = env.trace.get("transfer", 0) + 1

        code = state.get_code(msg.to)
        if not code:
            return MessageResult(True, b"", msg.gas, [])

        return self._run_frame(_Frame(state, env, depth, msg, code, msg.to, static), mark)

    def _execute_create(
        self, state: State, msg: Message, env: _TxEnv, depth: int, mark: int
    ) -> MessageResult:
        trace = env.trace
        if msg.create2_salt is not None:
            new_address = contract_address2(msg.sender, msg.create2_salt, msg.data)
            if depth > 0:
                state.increment_nonce(msg.sender)
        elif depth == 0:
            # the transaction-level nonce increment already happened, and the
            # address derives from the pre-increment nonce (yellow paper)
            new_address = contract_address(msg.sender, state.get_nonce(msg.sender) - 1)
        else:
            new_address = contract_address(msg.sender, state.get_nonce(msg.sender))
            state.increment_nonce(msg.sender)
        if state.get_code(new_address):
            state.revert_to(mark)
            return MessageResult(False, b"", 0, [], "address collision")
        trace["create"] = trace.get("create", 0) + 1
        state.create_account(new_address)
        if msg.value:
            if not state.transfer(msg.sender, new_address, msg.value):
                state.revert_to(mark)
                return MessageResult(False, b"", msg.gas, [], "insufficient balance")
            trace["transfer"] = trace.get("transfer", 0) + 1

        # initcode reads calldata of the outer message per convention: we
        # pass empty data; deployment parameters are baked into initcode.
        init_msg = Message(msg.sender, new_address, 0, b"", msg.gas)
        frame = _Frame(state, env, depth, init_msg, msg.data, new_address, static=False)
        result = self._run_frame(frame, mark)
        if not result.success:
            return MessageResult(False, result.output, result.gas_left, [], result.error)
        deposit_gas = 200 * len(result.output)
        if deposit_gas > result.gas_left:
            state.revert_to(mark)
            return MessageResult(False, b"", 0, [], "code deposit out of gas")
        state.set_code(new_address, result.output)
        return MessageResult(True, b"", result.gas_left - deposit_gas, result.logs, None, new_address)

    def _run_frame(self, frame: _Frame, mark: int) -> MessageResult:
        """The dispatch loop: walk the analysed program of ``frame.code``.

        Per instruction, in the order a failure must observe them: count
        the trace category (so the failing instruction is counted), charge
        the static gas, check the stack once against the table's arity
        (every family needs ``pops`` operands and leaves at most
        ``MAX_STACK_DEPTH`` words, and nothing observable happens between
        an instruction's pops and its push), then execute.  ``pc`` is
        unpacked straight to the next instruction; jumps overwrite it.

        A ``_RUN`` entry makes the same three checks for its whole run at
        once and its function does the work.  A ``_BOUNDED`` entry adds to
        its static gas what its content can cost under the gas table —
        the memory expansion to its end from the current size (the charges
        of its instructions telescope to that), SHA3 words and LOG bytes,
        and ``sstore_set`` per SSTORE, reserved: the function charges each
        SSTORE's exact cost into ``frame.gas``, which only GAS and the calls
        read, and both end runs — and refuses in a static frame if it
        writes.  When a check fails, some instruction inside may be about
        to fail, and which one is observable: the loop steps through the
        run's decoded entries, head first.
        """
        env = frame.env
        trace = env.trace
        schedule = DEFAULT_GAS_SCHEDULE
        buffer = frame.memory.buffer
        program = analyse(frame.code)
        instrs = program.compiled
        if not instrs:
            if instrs is None:
                instrs, program.compiled = program.instrs, ()
            else:
                instrs = program.compiled = compile_runs(frame.code)
        jumpdests = program.jumpdests
        stack: List[int] = []
        gas = frame.gas
        pc = 0
        refund_mark = len(env.refunds)
        try:
            while True:
                kind, handler, cost, category, pops, room, arg, pc = instrs[pc]
                if kind == _RUN:
                    if cost <= gas and pops <= len(stack) <= room:
                        gas -= cost
                        for name, count in category:
                            trace[name] = trace.get(name, 0) + count
                        pc = handler(frame, stack)
                        continue
                    kind, handler, cost, category, pops, room, arg, pc = arg
                elif kind == _BOUNDED:
                    cost, words, hashed, logged, stores, writes = cost
                    cost += hashed * schedule.sha3_word + logged * schedule.log_data_byte
                    current = len(buffer) >> 5
                    if words > current:
                        cost += schedule.memory_expansion_cost(current, words)
                    if (
                        cost + stores * schedule.sstore_set <= gas
                        and pops <= len(stack) <= room
                        and not (writes and frame.static)
                    ):
                        gas -= cost
                        for name, count in category:
                            trace[name] = trace.get(name, 0) + count
                        frame.gas = gas
                        pc = handler(frame, stack)
                        gas = frame.gas
                        continue
                    kind, handler, cost, category, pops, room, arg, pc = arg
                if not category:
                    if kind == _END:
                        break  # ran off the code: implicit STOP
                    raise _FrameFailure(f"invalid opcode 0x{arg:02x}")
                trace[category] = trace.get(category, 0) + 1
                if cost > gas:
                    raise OutOfGas(f"need {cost} gas")
                gas -= cost
                height = len(stack)
                if height < pops:
                    raise _FrameFailure("stack underflow")
                if height > room:
                    raise _FrameFailure("stack overflow")
                if kind == _HANDLER:
                    frame.gas = gas
                    halt = handler(frame, stack)
                    gas = frame.gas
                    if halt:
                        break
                elif kind == _PUSH:
                    stack.append(arg)
                elif kind == _DUP:
                    stack.append(stack[-arg])
                elif kind == _SWAP:
                    stack[-1], stack[arg] = stack[arg], stack[-1]
                elif kind == _JUMPI:
                    dest = stack.pop()
                    if stack.pop():
                        if dest not in jumpdests:
                            raise _FrameFailure(f"invalid jump destination {dest}")
                        pc = dest
                elif kind == _JUMPDEST:
                    continue
                elif kind == _POP:
                    stack.pop()
                elif kind == _STOP:
                    break
                else:  # _JUMP
                    pc = stack.pop()
                    if pc not in jumpdests:
                        raise _FrameFailure(f"invalid jump destination {pc}")
            return MessageResult(True, frame.output, gas, frame.logs)
        except _Revert as rv:
            frame.state.revert_to(mark)
            del env.refunds[refund_mark:]
            return MessageResult(False, rv.output, frame.gas, [], "revert")
        except (OutOfGas, _FrameFailure, MemoryError, ValueError) as exc:
            frame.state.revert_to(mark)
            del env.refunds[refund_mark:]
            return MessageResult(False, b"", 0, [], str(exc) or type(exc).__name__)


# ---------------------------------------------------------------------- #
# opcode handlers                                                        #
# ---------------------------------------------------------------------- #

def _build_handlers() -> Dict[int, Handler]:
    """opcode byte -> handler; called once, at import."""
    # the expression table's opcodes: a compiled run of one instruction each
    sources = {}
    for name, expression in _EXPRESSIONS.items():
        stack = _SymbolicStack()
        stack.step(0, _HANDLER, 0, opcode_by_name(name).pops, expression)
        sources[name] = stack.function(f"op_{name.lower()}", "return None")
    single = _load("<evm ops>", "\n".join(sources.values()))
    table = {opcode_by_name(name).code: single[f"op_{name.lower()}"] for name in sources}

    def h(name: str) -> Callable[[Handler], Handler]:
        code = opcode_by_name(name).code

        def register(fn: Handler) -> Handler:
            table[code] = fn
            return fn

        return register

    # --- halt ---------------------------------------------------------------- #

    @h("RETURN")
    def _return(f: _Frame, s: List[int]) -> bool:
        offset, size = s.pop(), s.pop()
        f.charge_memory(offset, size)
        f.output = f.memory.read(offset, size)
        return True

    @h("REVERT")
    def _revert(f: _Frame, s: List[int]) -> None:
        offset, size = s.pop(), s.pop()
        f.charge_memory(offset, size)
        raise _Revert(f.memory.read(offset, size))

    # --- dynamic gas --------------------------------------------------------- #

    @h("EXP")
    def _exp(f: _Frame, s: List[int]) -> None:
        base = s.pop()
        exponent = s[-1]
        f.use_gas(DEFAULT_GAS_SCHEDULE.exp_cost(exponent))
        s[-1] = u256_exp(base, exponent)

    @h("SHA3")
    def _sha3(f: _Frame, s: List[int]) -> None:
        offset = s.pop()
        size = s[-1]
        f.use_gas(DEFAULT_GAS_SCHEDULE.sha3_cost(size))
        f.charge_memory(offset, size)
        trace = f.env.trace
        trace["sha3_word"] = trace.get("sha3_word", 0) + (size + 31) // 32
        s[-1] = int.from_bytes(keccak(f.memory.read(offset, size)), "big")

    # --- copies ---------------------------------------------------------------------- #

    def _copy_to_memory(f: _Frame, s: List[int], source: bytes) -> None:
        """The shared body of the ``*COPY`` family: zero-padded slice of
        ``source`` into memory, copy gas then expansion gas."""
        dst, src, size = s.pop(), s.pop(), s.pop()
        f.use_gas(DEFAULT_GAS_SCHEDULE.copy_cost(size))
        f.charge_memory(dst, size)
        f.memory.write(dst, source[src : src + size].ljust(size, b"\x00"))

    @h("CALLDATACOPY")
    def _calldatacopy(f: _Frame, s: List[int]) -> None:
        _copy_to_memory(f, s, f.msg.data)

    @h("CODECOPY")
    def _codecopy(f: _Frame, s: List[int]) -> None:
        _copy_to_memory(f, s, f.code)

    @h("EXTCODECOPY")
    def _extcodecopy(f: _Frame, s: List[int]) -> None:
        address = _address_from_word(s.pop())
        dst, src, size = s.pop(), s.pop(), s.pop()
        f.use_gas(DEFAULT_GAS_SCHEDULE.copy_cost(size))
        f.charge_memory(dst, size)
        code = f.state.get_code(address)
        f.memory.write(dst, code[src : src + size].ljust(size, b"\x00"))

    @h("RETURNDATACOPY")
    def _returndatacopy(f: _Frame, s: List[int]) -> None:
        if s[-2] + s[-3] > len(f.returndata):
            raise _FrameFailure("returndata out of bounds")
        _copy_to_memory(f, s, f.returndata)

    # --- memory / storage ------------------------------------------------------------ #

    @h("MLOAD")
    def _mload(f: _Frame, s: List[int]) -> None:
        offset = s[-1]
        f.charge_memory(offset, 32)
        s[-1] = f.memory.read_word(offset)

    @h("MSTORE")
    def _mstore(f: _Frame, s: List[int]) -> None:
        offset, value = s.pop(), s.pop()
        f.charge_memory(offset, 32)
        f.memory.write_word(offset, value)

    @h("MSTORE8")
    def _mstore8(f: _Frame, s: List[int]) -> None:
        offset, value = s.pop(), s.pop()
        f.charge_memory(offset, 1)
        f.memory.write_byte(offset, value)

    @h("SSTORE")
    def _sstore(f: _Frame, s: List[int]) -> None:
        if f.static:
            raise _FrameFailure("write protection: SSTORE in static call")
        slot, value = s.pop(), s.pop()
        state, schedule = f.state, DEFAULT_GAS_SCHEDULE
        current = state.get_storage(f.address, slot)
        f.use_gas(schedule.sstore_cost(current, value))
        if current != 0 and value == 0:
            f.env.refunds.append(schedule.sstore_clear_refund)
        state.set_storage(f.address, slot, value)

    @h("GAS")
    def _gas(f: _Frame, s: List[int]) -> None:
        s.append(f.gas)

    # --- calls / create ---------------------------------------------------------------- #

    def _do_create(f: _Frame, s: List[int], salted: bool) -> None:
        if f.static:
            raise _FrameFailure("write protection: CREATE in static call")
        value, offset, size = s.pop(), s.pop(), s.pop()
        salt = s.pop() if salted else None
        schedule = DEFAULT_GAS_SCHEDULE
        f.charge_memory(offset, size)
        initcode = f.memory.read(offset, size)
        if salted:
            f.use_gas(schedule.sha3_cost(len(initcode)))  # address-derivation hash
        gas_for_child = schedule.max_call_gas(f.gas)
        f.use_gas(gas_for_child)
        msg = Message(f.address, None, value, initcode, gas_for_child, create2_salt=salt)
        result = f.env.evm._execute_message(f.state, msg, f.env, f.depth + 1)
        f.gas += result.gas_left
        f.returndata = b"" if result.success else result.output
        f.logs.extend(result.logs)
        s.append(address_to_int(result.created) if result.created else 0)

    @h("CREATE")
    def _create(f: _Frame, s: List[int]) -> None:
        _do_create(f, s, salted=False)

    @h("CREATE2")
    def _create2(f: _Frame, s: List[int]) -> None:
        _do_create(f, s, salted=True)

    def _do_call(f: _Frame, s: List[int], kind: str) -> None:
        gas_req = s.pop()
        to = _address_from_word(s.pop())
        value = s.pop() if kind == "call" else 0
        in_off, in_size = s.pop(), s.pop()
        out_off, out_size = s.pop(), s.pop()
        state, env, schedule = f.state, f.env, DEFAULT_GAS_SCHEDULE

        if value and f.static:
            raise _FrameFailure("write protection: value transfer in static call")

        # one expansion, to the larger end of the two ranges (yellow paper
        # μ′ᵢ = M(M(μᵢ, in), out)); an empty range expands nothing.  Memory
        # grows to that end now: a callee that returns less than out_size
        # leaves the tail unwritten, and it must not be charged again
        end = max(in_off + in_size if in_size else 0, out_off + out_size if out_size else 0)
        f.charge_memory(0, end)
        f.memory.touch(0, end)
        extra = 0
        if value:
            extra += schedule.call_value_transfer
            if not state.account_exists(to):
                extra += schedule.call_new_account
        f.use_gas(extra)

        gas_for_child = min(gas_req, schedule.max_call_gas(f.gas))
        f.use_gas(gas_for_child)
        if value:
            gas_for_child += schedule.call_stipend

        data = f.memory.read(in_off, in_size)

        if value and state.get_balance(f.address) < value:
            f.gas += gas_for_child
            f.returndata = b""
            s.append(0)
            return

        if kind == "delegatecall":
            # runs callee code in *this* contract's storage context
            code = state.get_code(to)
            if not code:
                f.gas += gas_for_child
                f.returndata = b""
                s.append(1)
                return
            child_msg = Message(f.msg.sender, f.address, f.msg.value, data, gas_for_child)
            child = _Frame(state, env, f.depth + 1, child_msg, code, f.address, f.static)
            result = env.evm._run_frame(child, state.snapshot())
        else:
            child_msg = Message(f.address, to, value, data, gas_for_child)
            result = env.evm._execute_message(
                state, child_msg, env, f.depth + 1, static=f.static or kind == "staticcall"
            )

        f.gas += result.gas_left
        f.returndata = result.output
        if result.success:
            f.logs.extend(result.logs)
        if out_size and result.output:
            f.memory.write(out_off, result.output[:out_size])
        s.append(1 if result.success else 0)

    @h("CALL")
    def _call(f: _Frame, s: List[int]) -> None:
        _do_call(f, s, "call")

    @h("STATICCALL")
    def _staticcall(f: _Frame, s: List[int]) -> None:
        _do_call(f, s, "staticcall")

    @h("DELEGATECALL")
    def _delegatecall(f: _Frame, s: List[int]) -> None:
        _do_call(f, s, "delegatecall")

    # --- log -------------------------------------------------------------------------- #

    def make_log(n: int) -> Handler:
        def log_n(f: _Frame, s: List[int]) -> None:
            if f.static:
                raise _FrameFailure("write protection: LOG in static call")
            offset, size = s.pop(), s.pop()
            topics = tuple([s.pop() for _ in range(n)])
            f.use_gas(DEFAULT_GAS_SCHEDULE.log_data_byte * size)
            f.charge_memory(offset, size)
            f.logs.append(Log(f.address, topics, f.memory.read(offset, size)))

        return log_n

    for n in range(5):
        table[LOG0 + n] = make_log(n)

    return table


_HANDLERS = _build_handlers()
