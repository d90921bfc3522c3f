"""The EVM interpreter: message execution, gas accounting, tracing.

The interpreter executes bytecode against any object implementing the
StateDB interface (``get_balance`` / ``set_storage`` / ``snapshot`` /
``revert_to`` ...), which is what lets the same machine run in every
execution context the paper distinguishes:

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
(ARCHITECTURE §11).  Words on the operand stack are plain ints in
``[0, 2**256)``; handlers mask exactly where arithmetic can leave that
range.

Failure semantics follow the yellow paper: a failing frame (out of gas,
stack error, invalid jump, write protection) consumes its gas and reverts
its state changes; ``REVERT`` reverts state but returns data and leaves the
remaining gas intact; errors never propagate as Python exceptions past the
frame boundary except :class:`InvalidTransaction` for un-includable
transactions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    Tuple,
)

from repro.common.hashing import keccak
from repro.common.records import record
from repro.common.rlp import rlp_encode
from repro.common.types import (
    Address,
    U256_MASK,
    signed_to_u256,
    u256_exp,
    u256_to_signed,
)
from repro.evm.gas import DEFAULT_GAS_SCHEDULE, GasSchedule, OutOfGas, intrinsic_gas
from repro.evm.memory import Memory
from repro.evm.opcodes import LOG0, OPCODES, PUSH1, opcode_by_name
from repro.simcore.costmodel import TraceCosts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.state.statedb import StateSnapshot
    from repro.txpool.transaction import Transaction

__all__ = [
    "EVM",
    "EVMConfig",
    "ExecutionContext",
    "Message",
    "MessageResult",
    "TxResult",
    "Log",
    "InvalidTransaction",
    "Instr",
    "Program",
    "analyse",
]

#: Yellow-paper operand stack limit.
MAX_STACK_DEPTH = 1024

#: Any object with the StateDB interface (duck-typed on purpose: StateDB,
#: the keyed speculative views, RecordingState all qualify).
State = Any


class InvalidTransaction(Exception):
    """Transaction cannot be included at all (bad nonce, unaffordable)."""


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


@dataclass
class MessageResult:
    success: bool
    output: bytes
    gas_left: int
    logs: List[Log] = field(default_factory=list)
    error: Optional[str] = None
    created: Optional[Address] = None


@dataclass
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


@dataclass(frozen=True)
class EVMConfig:
    """Interpreter policy knobs.

    ``defer_coinbase`` matters for parallelism: crediting the fee to the
    coinbase inside each transaction would make *every* pair of
    transactions conflict on the coinbase balance.  Like other parallel-EVM
    prototypes, fees are aggregated outside the per-transaction write set
    and credited once at block sealing.
    """

    schedule: GasSchedule = DEFAULT_GAS_SCHEDULE
    max_call_depth: int = 16
    defer_coinbase: bool = True


@dataclass
class _TxEnv:
    """What every frame of one transaction shares."""

    evm: "EVM"
    ctx: ExecutionContext
    schedule: GasSchedule
    origin: Address
    gas_price: int
    #: executed-work counts per category, in first-occurrence order (the
    #: cost model sums in that order and the sim goldens pin the last bit)
    trace: Dict[str, int]
    #: gas-refund ledger (SSTORE clears); entries from reverted frames are
    #: discarded, mirroring geth's journaled refund counter
    refunds: List[int] = field(default_factory=list)


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
        charges before one access are both priced from the current size."""
        if size:
            end = offset + size
            current = len(self.memory)
            if end > current:
                self.use_gas(
                    self.env.schedule.memory_expansion_cost(current // 32, (end + 31) // 32)
                )


# ---------------------------------------------------------------------- #
# analysed programs                                                      #
# ---------------------------------------------------------------------- #

#: A handler executes one instruction on ``(frame, operand stack)``.  The
#: loop has already counted it, charged its static gas and checked the
#: stack against its arity, so handlers pop without looking.  A truthy
#: return halts the frame successfully (RETURN).
Handler = Callable[[_Frame, List[int]], Optional[bool]]

# Instruction families of the dispatch loop, most frequent first.
_PUSH, _HANDLER, _DUP, _SWAP, _JUMPI, _JUMPDEST, _POP, _STOP, _JUMP, _UNDEFINED, _END = range(11)

_INLINE_KINDS = {"JUMPI": _JUMPI, "JUMPDEST": _JUMPDEST, "POP": _POP, "STOP": _STOP, "JUMP": _JUMP}


def _no_handler(f: _Frame, s: List[int]) -> None:
    raise AssertionError("inline instruction family reached a handler call")


#: One decoded instruction, exactly as the dispatch loop unpacks it — a plain
#: tuple, which CPython unpacks several times faster than a NamedTuple
#: instance: ``(kind, handler, gas, category, pops, room, arg, next_pc)``.
#:
#: * ``kind`` — dispatch family; ``handler`` is called exactly when it is
#:   ``_HANDLER``;
#: * ``gas`` — static gas; ``category`` — trace category, ``""`` for what
#:   cannot execute (undefined opcode, PUSH data, end of code), so the
#:   loop's count lookup is also its validity check;
#: * ``pops`` — operands required; ``room`` — deepest stack at which the
#:   result still fits;
#: * ``arg`` — PUSH immediate (a truncated tail zero-padded on the right),
#:   DUP depth, SWAP index from the top, the PC value, an undefined byte.
Instr = Tuple[int, Handler, int, str, int, int, int, int]


class Program(NamedTuple):
    """Analysis of one code blob: instruction table and jump targets."""

    #: indexed by pc, one entry more than the code is long: instruction
    #: starts chain through ``next_pc`` from 0 to the end-of-code marker at
    #: ``len(code)``; PUSH data positions are marked undefined (control
    #: flow never reaches them)
    instrs: Tuple[Instr, ...]
    #: positions of JUMPDEST bytes that are not PUSH data
    jumpdests: FrozenSet[int]

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


def _address_from_word(word: int) -> Address:
    return Address((word & ((1 << 160) - 1)).to_bytes(20, "big"))


def contract_address(sender: Address, nonce: int) -> Address:
    """CREATE address derivation: keccak(rlp([sender, nonce]))[12:]."""
    return Address(keccak(rlp_encode([bytes(sender), nonce]))[12:])


def contract_address2(sender: Address, salt: int, initcode: bytes) -> Address:
    """CREATE2 (EIP-1014): keccak(0xff ++ sender ++ salt ++ keccak(initcode))[12:].

    The address depends only on the deployer, salt and code — the
    counterfactual-deployment primitive."""
    return Address(
        keccak(
            b"\xff" + bytes(sender) + salt.to_bytes(32, "big") + keccak(initcode)
        )[12:]
    )


class EVM:
    """The virtual machine.  Stateless between calls; all world state lives
    in the state object passed to each entry point."""

    def __init__(self, config: Optional[EVMConfig] = None) -> None:
        self.config = config or EVMConfig()

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
        schedule = self.config.schedule
        sender = tx.sender

        nonce = state.get_nonce(sender)
        if nonce != tx.nonce:
            raise InvalidTransaction(f"nonce mismatch: tx {tx.nonce}, account {nonce}")
        is_create = tx.to is None
        ig = intrinsic_gas(schedule, tx.data, is_create)
        if ig > tx.gas_limit:
            raise InvalidTransaction(f"intrinsic gas {ig} exceeds limit {tx.gas_limit}")
        upfront = tx.gas_limit * tx.gas_price
        if state.get_balance(sender) < upfront + tx.value:
            raise InvalidTransaction("insufficient funds for gas * price + value")

        state.increment_nonce(sender)
        if upfront:
            state.sub_balance(sender, upfront)

        env = _TxEnv(self, ctx, schedule, sender, tx.gas_price, {})
        msg = Message(
            sender=sender,
            to=tx.to,
            value=tx.value,
            data=tx.data,
            gas=tx.gas_limit - ig,
        )
        result = self._execute_message(state, msg, env, depth=0)

        gas_used = tx.gas_limit - result.gas_left
        if result.success and env.refunds:
            # EIP-3529-era semantics predate the paper; we keep the
            # pre-London cap: refund at most half the gas consumed
            gas_refund = min(sum(env.refunds), gas_used // schedule.refund_quotient)
            gas_used -= gas_refund
        refund = (tx.gas_limit - gas_used) * tx.gas_price
        if refund:
            state.add_balance(sender, refund)
        fee = gas_used * tx.gas_price
        if fee and not self.config.defer_coinbase:
            state.add_balance(ctx.coinbase, fee)

        return TxResult(
            success=result.success,
            gas_used=gas_used,
            output=result.output,
            logs=result.logs if result.success else [],
            error=result.error,
            trace=TraceCosts(env.trace, gas_used=gas_used),
            created=result.created,
            fee=fee,
        )

    def estimate_gas(
        self, state_snapshot: "StateSnapshot", tx: "Transaction", ctx: ExecutionContext
    ) -> int:
        """Binary-search the lowest gas limit at which ``tx`` succeeds.

        The eth_estimateGas pattern: execution is retried against fresh
        overlays of ``state_snapshot`` (a committed StateSnapshot), so the
        caller's state is never touched.  Raises
        :class:`InvalidTransaction` if the transaction cannot succeed even
        at the block gas limit.
        """
        from repro.state.statedb import StateDB

        def succeeds(gas_limit: int) -> bool:
            probe = replace(tx, gas_limit=gas_limit)
            try:
                result = self.apply_transaction(StateDB(state_snapshot), probe, ctx)
            except InvalidTransaction:
                return False
            return result.success

        hi = ctx.gas_limit
        if not succeeds(hi):
            raise InvalidTransaction("transaction fails even at the block gas limit")
        lo = intrinsic_gas(self.config.schedule, tx.data, tx.to is None)
        while lo < hi:
            mid = (lo + hi) // 2
            if succeeds(mid):
                hi = mid
            else:
                lo = mid + 1
        return hi

    # ------------------------------------------------------------------ #
    # message execution                                                  #
    # ------------------------------------------------------------------ #

    def _execute_message(
        self, state: State, msg: Message, env: _TxEnv, depth: int, static: bool = False
    ) -> MessageResult:
        if depth > self.config.max_call_depth:
            return MessageResult(False, b"", 0, error="call depth exceeded")

        mark = state.snapshot()

        if msg.to is None:
            return self._execute_create(state, msg, env, depth, mark)

        # value transfer (balance checked by callers; defensive check here)
        if msg.value:
            if state.get_balance(msg.sender) < msg.value:
                state.revert_to(mark)
                return MessageResult(False, b"", msg.gas, error="insufficient balance")
            state.sub_balance(msg.sender, msg.value)
            state.add_balance(msg.to, msg.value)
            env.trace["transfer"] = env.trace.get("transfer", 0) + 1

        code = state.get_code(msg.to)
        if not code:
            return MessageResult(True, b"", msg.gas)

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
            return MessageResult(False, b"", 0, error="address collision")
        trace["create"] = trace.get("create", 0) + 1
        state.create_account(new_address)
        if msg.value:
            if state.get_balance(msg.sender) < msg.value:
                state.revert_to(mark)
                return MessageResult(False, b"", msg.gas, error="insufficient balance")
            state.sub_balance(msg.sender, msg.value)
            state.add_balance(new_address, msg.value)
            trace["transfer"] = trace.get("transfer", 0) + 1

        # initcode reads calldata of the outer message per convention: we
        # pass empty data; deployment parameters are baked into initcode.
        init_msg = Message(msg.sender, new_address, 0, b"", msg.gas)
        frame = _Frame(state, env, depth, init_msg, msg.data, new_address, static=False)
        result = self._run_frame(frame, mark)
        if not result.success:
            return MessageResult(
                False, result.output, result.gas_left, error=result.error
            )
        deposit_gas = 200 * len(result.output)
        if deposit_gas > result.gas_left:
            state.revert_to(mark)
            return MessageResult(False, b"", 0, error="code deposit out of gas")
        state.set_code(new_address, result.output)
        return MessageResult(
            True,
            b"",
            result.gas_left - deposit_gas,
            logs=result.logs,
            created=new_address,
        )

    def _run_frame(self, frame: _Frame, mark: int) -> MessageResult:
        """The dispatch loop: walk the analysed program of ``frame.code``.

        Per instruction, in the order a failure must observe them: count
        the trace category (so the failing instruction is counted), charge
        the static gas, check the stack once against the table's arity
        (every family needs ``pops`` operands and leaves at most
        ``MAX_STACK_DEPTH`` words, and nothing observable happens between
        an instruction's pops and its push), then execute.  ``pc`` is
        unpacked straight to the next instruction; jumps overwrite it.
        """
        env = frame.env
        trace = env.trace
        instrs, jumpdests = analyse(frame.code)
        stack: List[int] = []
        gas = frame.gas
        pc = 0
        refund_mark = len(env.refunds)
        try:
            while True:
                kind, handler, cost, category, pops, room, arg, pc = instrs[pc]
                try:
                    trace[category] += 1
                except KeyError:
                    if not category:
                        if kind == _END:
                            break  # ran off the code: implicit STOP
                        raise _FrameFailure(f"invalid opcode 0x{arg:02x}") from None
                    trace[category] = 1
                if cost > gas:
                    raise OutOfGas(f"need {cost} gas")
                gas -= cost
                height = len(stack)
                if height < pops:
                    raise _FrameFailure("stack underflow")
                if height > room:
                    raise _FrameFailure("stack overflow")
                if kind == _PUSH:
                    stack.append(arg)
                elif kind == _HANDLER:
                    frame.gas = gas
                    halt = handler(frame, stack)
                    gas = frame.gas
                    if halt:
                        break
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
            return MessageResult(True, frame.output, gas, logs=frame.logs)
        except _Revert as rv:
            frame.state.revert_to(mark)
            del env.refunds[refund_mark:]
            return MessageResult(False, rv.output, frame.gas, error="revert")
        except (OutOfGas, _FrameFailure, MemoryError, ValueError) as exc:
            frame.state.revert_to(mark)
            del env.refunds[refund_mark:]
            return MessageResult(False, b"", 0, error=str(exc) or type(exc).__name__)


# ---------------------------------------------------------------------- #
# opcode handlers                                                        #
# ---------------------------------------------------------------------- #

def _build_handlers() -> Dict[int, Handler]:
    """opcode byte -> handler; called once, at import."""
    table: Dict[int, Handler] = {}

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

    # --- arithmetic ------------------------------------------------------------ #
    # Binary operators pop the top operand and overwrite the second in place.

    @h("ADD")
    def _add(f: _Frame, s: List[int]) -> None:
        a = s.pop()
        s[-1] = (a + s[-1]) & U256_MASK

    @h("MUL")
    def _mul(f: _Frame, s: List[int]) -> None:
        a = s.pop()
        s[-1] = (a * s[-1]) & U256_MASK

    @h("SUB")
    def _sub(f: _Frame, s: List[int]) -> None:
        a = s.pop()
        s[-1] = (a - s[-1]) & U256_MASK

    @h("DIV")
    def _div(f: _Frame, s: List[int]) -> None:
        a = s.pop()
        b = s[-1]
        s[-1] = a // b if b else 0

    @h("SDIV")
    def _sdiv(f: _Frame, s: List[int]) -> None:
        a, b = u256_to_signed(s.pop()), u256_to_signed(s[-1])
        if b == 0:
            s[-1] = 0
        else:
            q = abs(a) // abs(b)
            s[-1] = signed_to_u256(-q if (a < 0) != (b < 0) else q)

    @h("MOD")
    def _mod(f: _Frame, s: List[int]) -> None:
        a = s.pop()
        b = s[-1]
        s[-1] = a % b if b else 0

    @h("SMOD")
    def _smod(f: _Frame, s: List[int]) -> None:
        a, b = u256_to_signed(s.pop()), u256_to_signed(s[-1])
        if b == 0:
            s[-1] = 0
        else:
            r = abs(a) % abs(b)
            s[-1] = signed_to_u256(-r if a < 0 else r)

    @h("ADDMOD")
    def _addmod(f: _Frame, s: List[int]) -> None:
        a, b = s.pop(), s.pop()
        n = s[-1]
        s[-1] = (a + b) % n if n else 0

    @h("MULMOD")
    def _mulmod(f: _Frame, s: List[int]) -> None:
        a, b = s.pop(), s.pop()
        n = s[-1]
        s[-1] = (a * b) % n if n else 0

    @h("EXP")
    def _exp(f: _Frame, s: List[int]) -> None:
        base = s.pop()
        exponent = s[-1]
        f.use_gas(f.env.schedule.exp_cost(exponent))
        s[-1] = u256_exp(base, exponent)

    @h("SIGNEXTEND")
    def _signextend(f: _Frame, s: List[int]) -> None:
        b = s.pop()
        if b < 31:
            x = s[-1]
            bit = 8 * b + 7
            mask = (1 << (bit + 1)) - 1
            s[-1] = x | (U256_MASK ^ mask) if x & (1 << bit) else x & mask

    # --- comparison / bitwise ---------------------------------------------------- #

    @h("LT")
    def _lt(f: _Frame, s: List[int]) -> None:
        a = s.pop()
        s[-1] = 1 if a < s[-1] else 0

    @h("GT")
    def _gt(f: _Frame, s: List[int]) -> None:
        a = s.pop()
        s[-1] = 1 if a > s[-1] else 0

    @h("SLT")
    def _slt(f: _Frame, s: List[int]) -> None:
        a = u256_to_signed(s.pop())
        s[-1] = 1 if a < u256_to_signed(s[-1]) else 0

    @h("SGT")
    def _sgt(f: _Frame, s: List[int]) -> None:
        a = u256_to_signed(s.pop())
        s[-1] = 1 if a > u256_to_signed(s[-1]) else 0

    @h("EQ")
    def _eq(f: _Frame, s: List[int]) -> None:
        a = s.pop()
        s[-1] = 1 if a == s[-1] else 0

    @h("ISZERO")
    def _iszero(f: _Frame, s: List[int]) -> None:
        s[-1] = 0 if s[-1] else 1

    @h("AND")
    def _and(f: _Frame, s: List[int]) -> None:
        a = s.pop()
        s[-1] &= a

    @h("OR")
    def _or(f: _Frame, s: List[int]) -> None:
        a = s.pop()
        s[-1] |= a

    @h("XOR")
    def _xor(f: _Frame, s: List[int]) -> None:
        a = s.pop()
        s[-1] ^= a

    @h("NOT")
    def _not(f: _Frame, s: List[int]) -> None:
        s[-1] ^= U256_MASK

    @h("BYTE")
    def _byte(f: _Frame, s: List[int]) -> None:
        i = s.pop()
        s[-1] = (s[-1] >> (8 * (31 - i))) & 0xFF if i < 32 else 0

    @h("SHL")
    def _shl(f: _Frame, s: List[int]) -> None:
        shift = s.pop()
        s[-1] = (s[-1] << shift) & U256_MASK if shift < 256 else 0

    @h("SHR")
    def _shr(f: _Frame, s: List[int]) -> None:
        shift = s.pop()
        s[-1] = s[-1] >> shift if shift < 256 else 0

    @h("SAR")
    def _sar(f: _Frame, s: List[int]) -> None:
        shift, value = s.pop(), u256_to_signed(s[-1])
        if shift >= 256:
            s[-1] = 0 if value >= 0 else U256_MASK
        else:
            s[-1] = signed_to_u256(value >> shift)

    # --- hashing ------------------------------------------------------------------ #

    @h("SHA3")
    def _sha3(f: _Frame, s: List[int]) -> None:
        offset = s.pop()
        size = s[-1]
        f.use_gas(f.env.schedule.sha3_cost(size))
        f.charge_memory(offset, size)
        trace = f.env.trace
        trace["sha3_word"] = trace.get("sha3_word", 0) + (size + 31) // 32
        s[-1] = int.from_bytes(keccak(f.memory.read(offset, size)), "big")

    # --- environment ---------------------------------------------------------------- #
    # Balances come from unbounded state arithmetic, so they are masked here;
    # every other pushed quantity is a length, a gas figure or a block field.

    @h("ADDRESS")
    def _address(f: _Frame, s: List[int]) -> None:
        s.append(f.address.to_int())

    @h("BALANCE")
    def _balance(f: _Frame, s: List[int]) -> None:
        s[-1] = f.state.get_balance(_address_from_word(s[-1])) & U256_MASK

    @h("SELFBALANCE")
    def _selfbalance(f: _Frame, s: List[int]) -> None:
        s.append(f.state.get_balance(f.address) & U256_MASK)

    @h("EXTCODEHASH")
    def _extcodehash(f: _Frame, s: List[int]) -> None:
        code = f.state.get_code(_address_from_word(s[-1]))
        s[-1] = int.from_bytes(keccak(code), "big") if code else 0

    @h("ORIGIN")
    def _origin(f: _Frame, s: List[int]) -> None:
        s.append(f.env.origin.to_int())

    @h("CALLER")
    def _caller(f: _Frame, s: List[int]) -> None:
        s.append(f.msg.sender.to_int())

    @h("CALLVALUE")
    def _callvalue(f: _Frame, s: List[int]) -> None:
        s.append(f.msg.value & U256_MASK)

    @h("CALLDATALOAD")
    def _calldataload(f: _Frame, s: List[int]) -> None:
        offset = s[-1]
        s[-1] = int.from_bytes(f.msg.data[offset : offset + 32].ljust(32, b"\x00"), "big")

    @h("CALLDATASIZE")
    def _calldatasize(f: _Frame, s: List[int]) -> None:
        s.append(len(f.msg.data))

    def _copy_to_memory(f: _Frame, s: List[int], source: bytes) -> None:
        """The shared body of the ``*COPY`` family: zero-padded slice of
        ``source`` into memory, copy gas then expansion gas."""
        dst, src, size = s.pop(), s.pop(), s.pop()
        f.use_gas(f.env.schedule.copy_cost(size))
        f.charge_memory(dst, size)
        f.memory.write(dst, source[src : src + size].ljust(size, b"\x00"))

    @h("CALLDATACOPY")
    def _calldatacopy(f: _Frame, s: List[int]) -> None:
        _copy_to_memory(f, s, f.msg.data)

    @h("CODESIZE")
    def _codesize(f: _Frame, s: List[int]) -> None:
        s.append(len(f.code))

    @h("CODECOPY")
    def _codecopy(f: _Frame, s: List[int]) -> None:
        _copy_to_memory(f, s, f.code)

    @h("GASPRICE")
    def _gasprice(f: _Frame, s: List[int]) -> None:
        s.append(f.env.gas_price)

    @h("EXTCODESIZE")
    def _extcodesize(f: _Frame, s: List[int]) -> None:
        s[-1] = len(f.state.get_code(_address_from_word(s[-1])))

    @h("EXTCODECOPY")
    def _extcodecopy(f: _Frame, s: List[int]) -> None:
        address = _address_from_word(s.pop())
        dst, src, size = s.pop(), s.pop(), s.pop()
        f.use_gas(f.env.schedule.copy_cost(size))
        f.charge_memory(dst, size)
        code = f.state.get_code(address)
        f.memory.write(dst, code[src : src + size].ljust(size, b"\x00"))

    @h("BLOCKHASH")
    def _blockhash(f: _Frame, s: List[int]) -> None:
        number, ctx = s[-1], f.env.ctx
        if number >= ctx.block_number or ctx.block_number - number > 256:
            s[-1] = 0
        else:
            s[-1] = ctx.block_hash(number)

    @h("RETURNDATASIZE")
    def _returndatasize(f: _Frame, s: List[int]) -> None:
        s.append(len(f.returndata))

    @h("RETURNDATACOPY")
    def _returndatacopy(f: _Frame, s: List[int]) -> None:
        if s[-2] + s[-3] > len(f.returndata):
            raise _FrameFailure("returndata out of bounds")
        _copy_to_memory(f, s, f.returndata)

    @h("COINBASE")
    def _coinbase(f: _Frame, s: List[int]) -> None:
        s.append(f.env.ctx.coinbase.to_int())

    @h("TIMESTAMP")
    def _timestamp(f: _Frame, s: List[int]) -> None:
        s.append(f.env.ctx.timestamp)

    @h("NUMBER")
    def _number(f: _Frame, s: List[int]) -> None:
        s.append(f.env.ctx.block_number)

    @h("GASLIMIT")
    def _gaslimit(f: _Frame, s: List[int]) -> None:
        s.append(f.env.ctx.gas_limit)

    @h("CHAINID")
    def _chainid(f: _Frame, s: List[int]) -> None:
        s.append(f.env.ctx.chain_id)

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

    @h("SLOAD")
    def _sload(f: _Frame, s: List[int]) -> None:
        s[-1] = f.state.get_storage(f.address, s[-1])

    @h("SSTORE")
    def _sstore(f: _Frame, s: List[int]) -> None:
        if f.static:
            raise _FrameFailure("write protection: SSTORE in static call")
        slot, value = s.pop(), s.pop()
        state, schedule = f.state, f.env.schedule
        current = state.get_storage(f.address, slot)
        f.use_gas(schedule.sstore_cost(current, value))
        if current != 0 and value == 0:
            f.env.refunds.append(schedule.sstore_clear_refund)
        state.set_storage(f.address, slot, value)

    @h("MSIZE")
    def _msize(f: _Frame, s: List[int]) -> None:
        s.append(len(f.memory))

    @h("GAS")
    def _gas(f: _Frame, s: List[int]) -> None:
        s.append(f.gas)

    # --- calls / create ---------------------------------------------------------------- #

    def _do_create(f: _Frame, s: List[int], salted: bool) -> None:
        if f.static:
            raise _FrameFailure("write protection: CREATE in static call")
        value, offset, size = s.pop(), s.pop(), s.pop()
        salt = s.pop() if salted else None
        schedule = f.env.schedule
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
        s.append(result.created.to_int() if result.created else 0)

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
        state, env, schedule = f.state, f.env, f.env.schedule

        if value and f.static:
            raise _FrameFailure("write protection: value transfer in static call")

        f.charge_memory(in_off, in_size)
        f.charge_memory(out_off, out_size)
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
            f.use_gas(f.env.schedule.log_data_byte * size)
            f.charge_memory(offset, size)
            f.logs.append(Log(f.address, topics, f.memory.read(offset, size)))

        return log_n

    for n in range(5):
        table[LOG0 + n] = make_log(n)

    return table


_HANDLERS = _build_handlers()
