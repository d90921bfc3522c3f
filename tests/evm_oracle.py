"""The parent commit's interpreter, kept test-only as a differential oracle.

This is the per-byte decode-and-dispatch stepper the analysed-program loop
in :mod:`repro.evm.interpreter` replaced: ``OPCODES.get`` per byte, one
closure per opcode taking eight arguments, and a :class:`Stack` whose every
``push``/``pop`` re-checks bounds and re-masks to 256 bits.  It shares only
value types, the gas schedule and :class:`~repro.evm.memory.Memory` with
the code under test; ``tests/test_evm_oracle.py`` runs both over generated
programs and compares everything a transaction can observe.  Its
transaction envelope is the four-call one (``get_nonce`` / ``get_balance`` /
``increment_nonce`` / ``sub_balance``, then ``sub_balance`` / ``add_balance``
per transfer) that ``charge_sender`` and ``transfer`` replaced.  Not a test
module itself (no ``test_`` prefix) and never imported from ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional

from repro.common.hashing import keccak
from repro.common.types import (
    Address,
    U256_MASK,
    address_to_int,
    signed_to_u256,
    u256_add,
    u256_div,
    u256_exp,
    u256_mod,
    u256_mul,
    u256_sub,
    u256_to_signed,
)
from repro.evm.gas import DEFAULT_GAS_SCHEDULE, GasSchedule, OutOfGas
from repro.evm.interpreter import (
    MAX_CALL_DEPTH,
    ExecutionContext,
    InvalidTransaction,
    Log,
    Message,
    TxResult,
    contract_address,
    contract_address2,
)
from repro.evm.memory import Memory
from repro.evm.opcodes import OPCODES
from repro.simcore.costmodel import TraceCosts

__all__ = ["OracleEVM", "Stack", "StackError", "MAX_DEPTH", "intrinsic_gas_per_byte"]


def intrinsic_gas_per_byte(schedule: GasSchedule, data: bytes, is_create: bool) -> int:
    """Yellow paper G_tx by its definition: one term per calldata byte."""
    gas = schedule.tx_base
    if is_create:
        gas += schedule.tx_create
    for byte in data:
        gas += schedule.tx_data_nonzero if byte else schedule.tx_data_zero
    return gas


MAX_DEPTH = 1024


class StackError(Exception):
    """Underflow or overflow; the executing frame fails."""


class Stack:
    """Operand stack of u256 words.

    Values are plain ints already reduced into ``[0, 2**256)``; ``push``
    masks defensively so handler bugs cannot leak wide integers.
    """

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: list[int] = []

    def __len__(self) -> int:
        return len(self._items)

    def push(self, value: int) -> None:
        if len(self._items) >= MAX_DEPTH:
            raise StackError("stack overflow")
        self._items.append(value & U256_MASK)

    def pop(self) -> int:
        if not self._items:
            raise StackError("stack underflow")
        return self._items.pop()

    def dup(self, n: int) -> None:
        """DUPn: push a copy of the n-th item (1-based from the top)."""
        if n > len(self._items):
            raise StackError(f"DUP{n} underflow")
        self.push(self._items[-n])

    def swap(self, n: int) -> None:
        """SWAPn: exchange the top with the (n+1)-th item."""
        if n + 1 > len(self._items):
            raise StackError(f"SWAP{n} underflow")
        items = self._items
        items[-1], items[-1 - n] = items[-1 - n], items[-1]


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


@dataclass
class MessageResult:
    success: bool
    output: bytes
    gas_left: int
    logs: List[Log] = field(default_factory=list)
    error: Optional[str] = None
    created: Optional[Address] = None


@dataclass
class _TxEnv:
    origin: Address
    gas_price: int
    #: gas-refund ledger (SSTORE clears); entries from reverted frames are
    #: discarded, mirroring geth's journaled refund counter
    refunds: List[int] = field(default_factory=list)


class _Frame:
    __slots__ = (
        "stack",
        "memory",
        "pc",
        "code",
        "msg",
        "address",
        "gas",
        "returndata",
        "output",
        "jumpdests",
        "logs",
        "static",
    )

    def __init__(self, msg: Message, code: bytes, address: Address, static: bool) -> None:
        self.stack = Stack()
        self.memory = Memory()
        self.pc = 0
        self.code = code
        self.msg = msg
        self.address = address
        self.gas = msg.gas
        self.returndata = b""  # output of the most recent child call
        self.output = b""  # this frame's own return value
        self.jumpdests = _valid_jumpdests(code)
        self.logs: List[Log] = []
        self.static = static

    def use_gas(self, amount: int) -> None:
        if amount > self.gas:
            self.gas = 0
            raise OutOfGas(f"need {amount} gas")
        self.gas -= amount


@lru_cache(maxsize=4096)
def _valid_jumpdests(code: bytes) -> frozenset:
    """Positions of JUMPDEST bytes that are not PUSH immediates."""
    dests = set()
    i = 0
    n = len(code)
    while i < n:
        op = code[i]
        if op == 0x5B:
            dests.add(i)
            i += 1
        elif 0x60 <= op <= 0x7F:
            i += 2 + (op - 0x60)
        else:
            i += 1
    return frozenset(dests)


def _address_from_word(word: int) -> Address:
    return Address((word & ((1 << 160) - 1)).to_bytes(20, "big"))


class OracleEVM:
    """The parent commit's ``EVM``: same entry point, same results."""

    def __init__(self) -> None:
        self._dispatch = _build_dispatch()

    # ------------------------------------------------------------------ #
    # transaction entry point                                            #
    # ------------------------------------------------------------------ #

    def apply_transaction(self, state, tx, ctx: ExecutionContext) -> TxResult:
        """Validate and execute one transaction against ``state``.

        Raises :class:`InvalidTransaction` for transactions that may not be
        included (wrong nonce, unaffordable, intrinsic gas above limit);
        otherwise always returns a :class:`TxResult` (``success=False`` for
        reverted/out-of-gas executions) with the sender charged.
        """
        schedule = DEFAULT_GAS_SCHEDULE
        trace: Dict[str, int] = {}
        sender = tx.sender

        if state.get_nonce(sender) != tx.nonce:
            raise InvalidTransaction(
                f"nonce mismatch: tx {tx.nonce}, account {state.get_nonce(sender)}"
            )
        is_create = tx.to is None
        ig = intrinsic_gas_per_byte(schedule, tx.data, is_create)
        if ig > tx.gas_limit:
            raise InvalidTransaction(f"intrinsic gas {ig} exceeds limit {tx.gas_limit}")
        upfront = tx.gas_limit * tx.gas_price
        if state.get_balance(sender) < upfront + tx.value:
            raise InvalidTransaction("insufficient funds for gas * price + value")

        state.increment_nonce(sender)
        if upfront:
            state.sub_balance(sender, upfront)

        env = _TxEnv(origin=sender, gas_price=tx.gas_price)
        msg = Message(
            sender=sender,
            to=tx.to,
            value=tx.value,
            data=tx.data,
            gas=tx.gas_limit - ig,
        )
        result = self._execute_message(state, msg, env, ctx, trace, depth=0)

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

        return TxResult(
            success=result.success,
            gas_used=gas_used,
            output=result.output,
            logs=result.logs if result.success else [],
            error=result.error,
            trace=TraceCosts(trace, gas_used=gas_used),
            created=result.created,
            fee=fee,
        )

    # ------------------------------------------------------------------ #
    # message execution                                                  #
    # ------------------------------------------------------------------ #

    def _execute_message(
        self,
        state,
        msg: Message,
        env: _TxEnv,
        ctx: ExecutionContext,
        trace: Dict[str, int],
        depth: int,
        static: bool = False,
    ) -> MessageResult:
        if depth > MAX_CALL_DEPTH:
            return MessageResult(False, b"", msg.gas, error="call depth exceeded")

        mark = state.snapshot()

        if msg.to is None:
            return self._execute_create(state, msg, env, ctx, trace, depth, mark)

        # value transfer (balance checked by callers; defensive check here)
        if msg.value:
            if state.get_balance(msg.sender) < msg.value:
                state.revert_to(mark)
                return MessageResult(False, b"", msg.gas, error="insufficient balance")
            state.sub_balance(msg.sender, msg.value)
            state.add_balance(msg.to, msg.value)
            trace["transfer"] = trace.get("transfer", 0) + 1

        code = state.get_code(msg.to)
        if not code:
            return MessageResult(True, b"", msg.gas)

        frame = _Frame(msg, code, msg.to, static)
        return self._run_frame(state, frame, env, ctx, trace, depth, mark)

    def _execute_create(
        self, state, msg: Message, env, ctx, trace, depth: int, mark: int
    ) -> MessageResult:
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

        init_msg = Message(msg.sender, new_address, 0, b"", msg.gas)
        frame = _Frame(init_msg, msg.data, new_address, static=False)
        # initcode reads calldata of the outer message per convention: we
        # pass empty data; deployment parameters are baked into initcode.
        result = self._run_frame(state, frame, env, ctx, trace, depth, mark)
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

    def _run_frame(
        self, state, frame: _Frame, env, ctx, trace, depth: int, mark: int
    ) -> MessageResult:
        schedule = DEFAULT_GAS_SCHEDULE
        dispatch = self._dispatch
        code = frame.code
        code_len = len(code)
        refund_mark = len(env.refunds)
        try:
            while True:
                if frame.pc >= code_len:
                    break  # implicit STOP
                opbyte = code[frame.pc]
                op = OPCODES.get(opbyte)
                if op is None:
                    raise _FrameFailure(f"invalid opcode 0x{opbyte:02x}")
                trace[op.category] = trace.get(op.category, 0) + 1
                if op.gas:
                    frame.use_gas(op.gas)
                frame.pc += 1
                handler = dispatch.get(opbyte)
                if handler is None:
                    # data-less simple ops handled inline below
                    raise AssertionError(f"no handler for {op.name}")
                stop = handler(self, state, frame, env, ctx, trace, depth, schedule)
                if stop is not None:
                    if stop == "stop":
                        break
                    if stop == "return":
                        break
            return MessageResult(True, frame.output, frame.gas, logs=frame.logs)
        except _Revert as rv:
            state.revert_to(mark)
            del env.refunds[refund_mark:]
            return MessageResult(False, rv.output, frame.gas, error="revert")
        except (OutOfGas, StackError, _FrameFailure, MemoryError, ValueError) as exc:
            state.revert_to(mark)
            del env.refunds[refund_mark:]
            return MessageResult(False, b"", 0, error=str(exc) or type(exc).__name__)


# ---------------------------------------------------------------------- #
# opcode handlers                                                        #
# ---------------------------------------------------------------------- #

Handler = Callable


def _build_dispatch() -> Dict[int, Handler]:
    d: Dict[int, Handler] = {}

    def h(name: str):
        code = next(op.code for op in OPCODES.values() if op.name == name)

        def register(fn):
            d[code] = fn
            return fn

        return register

    # --- halt ---------------------------------------------------------- #

    @h("STOP")
    def stop(evm, state, f, env, ctx, trace, depth, sch):
        f.output = b""
        return "stop"

    @h("RETURN")
    def ret(evm, state, f, env, ctx, trace, depth, sch):
        offset, size = f.stack.pop(), f.stack.pop()
        f.use_gas(sch.memory_expansion_cost(f.memory.words, _words(offset, size)))
        f.output = f.memory.read(offset, size)
        return "return"

    @h("REVERT")
    def revert(evm, state, f, env, ctx, trace, depth, sch):
        offset, size = f.stack.pop(), f.stack.pop()
        f.use_gas(sch.memory_expansion_cost(f.memory.words, _words(offset, size)))
        raise _Revert(f.memory.read(offset, size))

    # --- arithmetic ----------------------------------------------------- #

    @h("ADD")
    def add(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(u256_add(f.stack.pop(), f.stack.pop()))

    @h("MUL")
    def mul(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(u256_mul(f.stack.pop(), f.stack.pop()))

    @h("SUB")
    def sub(evm, state, f, env, ctx, trace, depth, sch):
        a, b = f.stack.pop(), f.stack.pop()
        f.stack.push(u256_sub(a, b))

    @h("DIV")
    def div(evm, state, f, env, ctx, trace, depth, sch):
        a, b = f.stack.pop(), f.stack.pop()
        f.stack.push(u256_div(a, b))

    @h("SDIV")
    def sdiv(evm, state, f, env, ctx, trace, depth, sch):
        a, b = u256_to_signed(f.stack.pop()), u256_to_signed(f.stack.pop())
        if b == 0:
            f.stack.push(0)
        else:
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            f.stack.push(signed_to_u256(q))

    @h("MOD")
    def mod(evm, state, f, env, ctx, trace, depth, sch):
        a, b = f.stack.pop(), f.stack.pop()
        f.stack.push(u256_mod(a, b))

    @h("SMOD")
    def smod(evm, state, f, env, ctx, trace, depth, sch):
        a, b = u256_to_signed(f.stack.pop()), u256_to_signed(f.stack.pop())
        if b == 0:
            f.stack.push(0)
        else:
            r = abs(a) % abs(b)
            if a < 0:
                r = -r
            f.stack.push(signed_to_u256(r))

    @h("ADDMOD")
    def addmod(evm, state, f, env, ctx, trace, depth, sch):
        a, b, n = f.stack.pop(), f.stack.pop(), f.stack.pop()
        f.stack.push(0 if n == 0 else (a + b) % n)

    @h("MULMOD")
    def mulmod(evm, state, f, env, ctx, trace, depth, sch):
        a, b, n = f.stack.pop(), f.stack.pop(), f.stack.pop()
        f.stack.push(0 if n == 0 else (a * b) % n)

    @h("EXP")
    def exp(evm, state, f, env, ctx, trace, depth, sch):
        base, exponent = f.stack.pop(), f.stack.pop()
        f.use_gas(sch.exp_cost(exponent))
        f.stack.push(u256_exp(base, exponent))

    @h("SIGNEXTEND")
    def signextend(evm, state, f, env, ctx, trace, depth, sch):
        b, x = f.stack.pop(), f.stack.pop()
        if b >= 31:
            f.stack.push(x)
        else:
            bit = 8 * b + 7
            mask = (1 << (bit + 1)) - 1
            if x & (1 << bit):
                f.stack.push(x | (U256_MASK ^ mask))
            else:
                f.stack.push(x & mask)

    # --- comparison / bitwise -------------------------------------------- #

    @h("LT")
    def lt(evm, state, f, env, ctx, trace, depth, sch):
        a, b = f.stack.pop(), f.stack.pop()
        f.stack.push(1 if a < b else 0)

    @h("GT")
    def gt(evm, state, f, env, ctx, trace, depth, sch):
        a, b = f.stack.pop(), f.stack.pop()
        f.stack.push(1 if a > b else 0)

    @h("SLT")
    def slt(evm, state, f, env, ctx, trace, depth, sch):
        a, b = u256_to_signed(f.stack.pop()), u256_to_signed(f.stack.pop())
        f.stack.push(1 if a < b else 0)

    @h("SGT")
    def sgt(evm, state, f, env, ctx, trace, depth, sch):
        a, b = u256_to_signed(f.stack.pop()), u256_to_signed(f.stack.pop())
        f.stack.push(1 if a > b else 0)

    @h("EQ")
    def eq(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(1 if f.stack.pop() == f.stack.pop() else 0)

    @h("ISZERO")
    def iszero(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(1 if f.stack.pop() == 0 else 0)

    @h("AND")
    def and_(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(f.stack.pop() & f.stack.pop())

    @h("OR")
    def or_(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(f.stack.pop() | f.stack.pop())

    @h("XOR")
    def xor(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(f.stack.pop() ^ f.stack.pop())

    @h("NOT")
    def not_(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push((~f.stack.pop()) & U256_MASK)

    @h("BYTE")
    def byte_(evm, state, f, env, ctx, trace, depth, sch):
        i, x = f.stack.pop(), f.stack.pop()
        f.stack.push((x >> (8 * (31 - i))) & 0xFF if i < 32 else 0)

    @h("SHL")
    def shl(evm, state, f, env, ctx, trace, depth, sch):
        shift, value = f.stack.pop(), f.stack.pop()
        f.stack.push((value << shift) & U256_MASK if shift < 256 else 0)

    @h("SHR")
    def shr(evm, state, f, env, ctx, trace, depth, sch):
        shift, value = f.stack.pop(), f.stack.pop()
        f.stack.push(value >> shift if shift < 256 else 0)

    @h("SAR")
    def sar(evm, state, f, env, ctx, trace, depth, sch):
        shift, value = f.stack.pop(), u256_to_signed(f.stack.pop())
        if shift >= 256:
            f.stack.push(0 if value >= 0 else U256_MASK)
        else:
            f.stack.push(signed_to_u256(value >> shift))

    # --- hashing ---------------------------------------------------------- #

    @h("SHA3")
    def sha3(evm, state, f, env, ctx, trace, depth, sch):
        offset, size = f.stack.pop(), f.stack.pop()
        f.use_gas(sch.sha3_cost(size))
        f.use_gas(sch.memory_expansion_cost(f.memory.words, _words(offset, size)))
        trace["sha3_word"] = trace.get("sha3_word", 0) + (size + 31) // 32
        f.stack.push(int.from_bytes(keccak(f.memory.read(offset, size)), "big"))

    # --- environment -------------------------------------------------------- #

    @h("ADDRESS")
    def address(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(address_to_int(f.address))

    @h("BALANCE")
    def balance(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(state.get_balance(_address_from_word(f.stack.pop())))

    @h("SELFBALANCE")
    def selfbalance(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(state.get_balance(f.address))

    @h("EXTCODEHASH")
    def extcodehash(evm, state, f, env, ctx, trace, depth, sch):
        code = state.get_code(_address_from_word(f.stack.pop()))
        f.stack.push(int.from_bytes(keccak(code), "big") if code else 0)

    @h("ORIGIN")
    def origin(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(address_to_int(env.origin))

    @h("CALLER")
    def caller(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(address_to_int(f.msg.sender))

    @h("CALLVALUE")
    def callvalue(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(f.msg.value)

    @h("CALLDATALOAD")
    def calldataload(evm, state, f, env, ctx, trace, depth, sch):
        offset = f.stack.pop()
        data = f.msg.data[offset : offset + 32]
        f.stack.push(int.from_bytes(data.ljust(32, b"\x00"), "big"))

    @h("CALLDATASIZE")
    def calldatasize(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(len(f.msg.data))

    @h("CALLDATACOPY")
    def calldatacopy(evm, state, f, env, ctx, trace, depth, sch):
        dst, src, size = f.stack.pop(), f.stack.pop(), f.stack.pop()
        f.use_gas(sch.copy_cost(size))
        f.use_gas(sch.memory_expansion_cost(f.memory.words, _words(dst, size)))
        data = f.msg.data[src : src + size].ljust(size, b"\x00")
        f.memory.write(dst, data)

    @h("CODESIZE")
    def codesize(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(len(f.code))

    @h("CODECOPY")
    def codecopy(evm, state, f, env, ctx, trace, depth, sch):
        dst, src, size = f.stack.pop(), f.stack.pop(), f.stack.pop()
        f.use_gas(sch.copy_cost(size))
        f.use_gas(sch.memory_expansion_cost(f.memory.words, _words(dst, size)))
        data = f.code[src : src + size].ljust(size, b"\x00")
        f.memory.write(dst, data)

    @h("GASPRICE")
    def gasprice(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(env.gas_price)

    @h("EXTCODESIZE")
    def extcodesize(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(len(state.get_code(_address_from_word(f.stack.pop()))))

    @h("EXTCODECOPY")
    def extcodecopy(evm, state, f, env, ctx, trace, depth, sch):
        addr = _address_from_word(f.stack.pop())
        dst, src, size = f.stack.pop(), f.stack.pop(), f.stack.pop()
        f.use_gas(sch.copy_cost(size))
        f.use_gas(sch.memory_expansion_cost(f.memory.words, _words(dst, size)))
        code = state.get_code(addr)
        f.memory.write(dst, code[src : src + size].ljust(size, b"\x00"))

    @h("BLOCKHASH")
    def blockhash(evm, state, f, env, ctx, trace, depth, sch):
        number = f.stack.pop()
        if number >= ctx.block_number or ctx.block_number - number > 256:
            f.stack.push(0)
        else:
            f.stack.push(ctx.block_hash(number))

    @h("RETURNDATASIZE")
    def returndatasize(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(len(f.returndata))

    @h("RETURNDATACOPY")
    def returndatacopy(evm, state, f, env, ctx, trace, depth, sch):
        dst, src, size = f.stack.pop(), f.stack.pop(), f.stack.pop()
        if src + size > len(f.returndata):
            raise _FrameFailure("returndata out of bounds")
        f.use_gas(sch.copy_cost(size))
        f.use_gas(sch.memory_expansion_cost(f.memory.words, _words(dst, size)))
        f.memory.write(dst, f.returndata[src : src + size])

    @h("COINBASE")
    def coinbase(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(address_to_int(ctx.coinbase))

    @h("TIMESTAMP")
    def timestamp(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(ctx.timestamp)

    @h("NUMBER")
    def number(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(ctx.block_number)

    @h("GASLIMIT")
    def gaslimit(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(ctx.gas_limit)

    @h("CHAINID")
    def chainid(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(ctx.chain_id)

    # --- stack / memory / storage ------------------------------------------ #

    @h("POP")
    def pop_(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.pop()

    @h("MLOAD")
    def mload(evm, state, f, env, ctx, trace, depth, sch):
        offset = f.stack.pop()
        f.use_gas(sch.memory_expansion_cost(f.memory.words, _words(offset, 32)))
        f.stack.push(f.memory.read_word(offset))

    @h("MSTORE")
    def mstore(evm, state, f, env, ctx, trace, depth, sch):
        offset, value = f.stack.pop(), f.stack.pop()
        f.use_gas(sch.memory_expansion_cost(f.memory.words, _words(offset, 32)))
        f.memory.write_word(offset, value)

    @h("MSTORE8")
    def mstore8(evm, state, f, env, ctx, trace, depth, sch):
        offset, value = f.stack.pop(), f.stack.pop()
        f.use_gas(sch.memory_expansion_cost(f.memory.words, _words(offset, 1)))
        f.memory.write_byte(offset, value)

    @h("SLOAD")
    def sload(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(state.get_storage(f.address, f.stack.pop()))

    @h("SSTORE")
    def sstore(evm, state, f, env, ctx, trace, depth, sch):
        if f.static:
            raise _FrameFailure("write protection: SSTORE in static call")
        slot, value = f.stack.pop(), f.stack.pop()
        current = state.get_storage(f.address, slot)
        f.use_gas(sch.sstore_cost(current, value))
        if current != 0 and value == 0:
            env.refunds.append(sch.sstore_clear_refund)
        state.set_storage(f.address, slot, value)

    @h("JUMP")
    def jump(evm, state, f, env, ctx, trace, depth, sch):
        dest = f.stack.pop()
        if dest not in f.jumpdests:
            raise _FrameFailure(f"invalid jump destination {dest}")
        f.pc = dest

    @h("JUMPI")
    def jumpi(evm, state, f, env, ctx, trace, depth, sch):
        dest, cond = f.stack.pop(), f.stack.pop()
        if cond:
            if dest not in f.jumpdests:
                raise _FrameFailure(f"invalid jump destination {dest}")
            f.pc = dest

    @h("PC")
    def pc_(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(f.pc - 1)

    @h("MSIZE")
    def msize(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(len(f.memory))

    @h("GAS")
    def gas_(evm, state, f, env, ctx, trace, depth, sch):
        f.stack.push(f.gas)

    @h("JUMPDEST")
    def jumpdest(evm, state, f, env, ctx, trace, depth, sch):
        return None

    # --- calls / create ------------------------------------------------------ #

    def _do_create(evm, state, f, env, ctx, trace, depth, sch, salt):
        if f.static:
            raise _FrameFailure("write protection: CREATE in static call")
        value, offset, size = f.stack.pop(), f.stack.pop(), f.stack.pop()
        f.use_gas(sch.memory_expansion_cost(f.memory.words, _words(offset, size)))
        initcode = f.memory.read(offset, size)
        if salt is not None:
            f.use_gas(sch.sha3_cost(len(initcode)))  # address-derivation hash
        gas_for_child = sch.max_call_gas(f.gas)
        f.use_gas(gas_for_child)
        msg = Message(
            f.address, None, value, initcode, gas_for_child, create2_salt=salt
        )
        result = evm._execute_message(state, msg, env, ctx, trace, depth + 1)
        f.gas += result.gas_left
        f.returndata = b"" if result.success else result.output
        f.logs.extend(result.logs)
        f.stack.push(address_to_int(result.created) if result.created else 0)

    @h("CREATE")
    def create(evm, state, f, env, ctx, trace, depth, sch):
        _do_create(evm, state, f, env, ctx, trace, depth, sch, salt=None)

    @h("CREATE2")
    def create2(evm, state, f, env, ctx, trace, depth, sch):
        # stack: value, offset, size, salt  (salt deepest of the four)
        # pop order per spec: value, offset, size, salt — but _do_create
        # pops value/offset/size itself, so lift the salt out first by
        # reordering: CREATE2 pops value, offset, size, salt
        value, offset, size, salt = (
            f.stack.pop(),
            f.stack.pop(),
            f.stack.pop(),
            f.stack.pop(),
        )
        # re-push in _do_create's expected order
        f.stack.push(size)
        f.stack.push(offset)
        f.stack.push(value)
        _do_create(evm, state, f, env, ctx, trace, depth, sch, salt=salt)

    def _do_call(evm, state, f, env, ctx, trace, depth, sch, *, kind: str):
        stack = f.stack
        gas_req = stack.pop()
        to = _address_from_word(stack.pop())
        value = stack.pop() if kind == "call" else 0
        in_off, in_size = stack.pop(), stack.pop()
        out_off, out_size = stack.pop(), stack.pop()

        if value and f.static:
            raise _FrameFailure("write protection: value transfer in static call")

        # one expansion, to the larger end of the two ranges (yellow paper
        # μ′ᵢ = M(M(μᵢ, in), out)); an empty range expands nothing.  Memory
        # grows to that end now, whatever the callee returns
        needed = max(_words(in_off, in_size), _words(out_off, out_size))
        f.use_gas(sch.memory_expansion_cost(f.memory.words, needed))
        f.memory.touch(0, needed * 32)
        extra = 0
        if value:
            extra += sch.call_value_transfer
            if not state.account_exists(to):
                extra += sch.call_new_account
        f.use_gas(extra)

        gas_for_child = min(gas_req, sch.max_call_gas(f.gas))
        f.use_gas(gas_for_child)
        if value:
            gas_for_child += sch.call_stipend

        data = f.memory.read(in_off, in_size)

        if value and state.get_balance(f.address) < value:
            f.gas += gas_for_child
            f.returndata = b""
            stack.push(0)
            return

        if kind == "delegatecall":
            # runs callee code in *this* contract's storage context
            child_msg = Message(f.msg.sender, f.address, f.msg.value, data, gas_for_child)
            code = state.get_code(to)
            if not code:
                f.gas += gas_for_child
                f.returndata = b""
                stack.push(1)
                return
            child_frame = _Frame(child_msg, code, f.address, f.static)
            mark = state.snapshot()
            result = evm._run_frame(state, child_frame, env, ctx, trace, depth + 1, mark)
        else:
            sender = f.address
            child_msg = Message(sender, to, value, data, gas_for_child)
            result = evm._execute_message(
                state,
                child_msg,
                env,
                ctx,
                trace,
                depth + 1,
                static=f.static or kind == "staticcall",
            )

        f.gas += result.gas_left
        f.returndata = result.output
        if result.success:
            f.logs.extend(result.logs)
        if out_size and result.output:
            f.memory.write(out_off, result.output[:out_size])
        stack.push(1 if result.success else 0)

    @h("CALL")
    def call(evm, state, f, env, ctx, trace, depth, sch):
        _do_call(evm, state, f, env, ctx, trace, depth, sch, kind="call")

    @h("STATICCALL")
    def staticcall(evm, state, f, env, ctx, trace, depth, sch):
        _do_call(evm, state, f, env, ctx, trace, depth, sch, kind="staticcall")

    @h("DELEGATECALL")
    def delegatecall(evm, state, f, env, ctx, trace, depth, sch):
        _do_call(evm, state, f, env, ctx, trace, depth, sch, kind="delegatecall")

    # --- push / dup / swap / log --------------------------------------------- #

    def make_push(n: int):
        def push_n(evm, state, f, env, ctx, trace, depth, sch):
            data = f.code[f.pc : f.pc + n]
            f.pc += n
            f.stack.push(int.from_bytes(data.ljust(n, b"\x00"), "big"))

        return push_n

    for n in range(1, 33):
        d[0x60 + n - 1] = make_push(n)

    def make_dup(n: int):
        def dup_n(evm, state, f, env, ctx, trace, depth, sch):
            f.stack.dup(n)

        return dup_n

    for n in range(1, 17):
        d[0x80 + n - 1] = make_dup(n)

    def make_swap(n: int):
        def swap_n(evm, state, f, env, ctx, trace, depth, sch):
            f.stack.swap(n)

        return swap_n

    for n in range(1, 17):
        d[0x90 + n - 1] = make_swap(n)

    def make_log(n: int):
        def log_n(evm, state, f, env, ctx, trace, depth, sch):
            if f.static:
                raise _FrameFailure("write protection: LOG in static call")
            offset, size = f.stack.pop(), f.stack.pop()
            topics = tuple(f.stack.pop() for _ in range(n))
            f.use_gas(sch.log_data_byte * size)
            f.use_gas(sch.memory_expansion_cost(f.memory.words, _words(offset, size)))
            f.logs.append(Log(f.address, topics, f.memory.read(offset, size)))

        return log_n

    for n in range(5):
        d[0xA0 + n] = make_log(n)

    return d


def _words(offset: int, size: int) -> int:
    """Word count needed to cover a memory access (0 when size is 0)."""
    if size == 0:
        return 0
    return (offset + size + 31) // 32
