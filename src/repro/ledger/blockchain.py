"""A minimal blockchain: blocks, transactions, contracts, finality.

The weak-liveness protocol's transaction manager "can be a smart
contract running on a permissionless blockchain shared by every
customer" (paper §3).  :class:`SimpleChain` supplies that substrate:

* blocks are produced every ``block_interval`` time units;
* submitted transactions enter the next block (bounded mempool delay);
* an empty block changes nothing but the height, so it is counted, not
  built: while the mempool is empty the block tick is *parked* in the
  kernel (:meth:`~repro.sim.kernel.Simulator.park`), which fires it in
  place as an executed event without calling back, and a submission
  unparks it;
* a transaction's effects are *final* once ``confirmations`` further
  blocks exist; observers are notified at finality, not at inclusion —
  modelling the reorg-safety waiting period of real chains;
* contracts are deterministic state machines executed in block order.

The chain is also a :class:`~repro.sim.process.Process`, so remote
participants can interact with it through the network (submission via
``CONTROL`` envelopes), while co-located participants may call
:meth:`submit` directly — both paths serialise through the mempool.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import BlockchainError, ContractError
from ..net.message import Envelope, MsgKind
from ..sim.kernel import Park, Simulator
from ..sim.process import Process
from ..sim.trace import TraceKind

_TX_SEQ = itertools.count()


@dataclass(frozen=True)
class Transaction:
    """A contract invocation waiting for inclusion."""

    tx_id: int
    sender: str
    contract: str
    method: str
    args: Dict[str, Any]
    submitted_at: float


@dataclass(frozen=True)
class Block:
    """An ordered batch of executed transactions."""

    height: int
    produced_at: float
    txs: Tuple[Transaction, ...]


@dataclass
class Receipt:
    """Execution outcome of one transaction."""

    tx: Transaction
    block_height: int
    executed_at: float
    final_at: float
    ok: bool
    result: Any = None
    error: str = ""


@dataclass(frozen=True)
class CallContext:
    """Environment visible to a contract during execution."""

    sender: str
    block_height: int
    block_time: float


class Contract:
    """Base class for on-chain state machines.

    Subclasses implement :meth:`call`; any :class:`ContractError` raised
    marks the transaction failed without aborting the block.
    """

    def __init__(self, address: str) -> None:
        if not address:
            raise ContractError("contract address must be non-empty")
        self.address = address

    def call(self, ctx: CallContext, method: str, args: Dict[str, Any]) -> Any:
        raise ContractError(f"{self.address}: unknown method {method!r}")


class SimpleChain(Process):
    """A block-producing process hosting contracts.

    A block is due every ``block_interval``, but only blocks with
    transactions are built: an empty one is counted in :attr:`height`
    and nothing else.  ``blocks`` and the trace's ``state="block"``
    STATE records therefore cover only blocks with transactions; their
    heights are positions on the full block grid.

    Parameters
    ----------
    sim:
        Owning simulator.
    name:
        Chain name (network address and trace actor).
    block_interval:
        Global-time spacing between blocks.
    confirmations:
        Number of follow-up blocks required for finality.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        block_interval: float = 1.0,
        confirmations: int = 1,
    ) -> None:
        super().__init__(sim, name)
        if block_interval <= 0:
            raise BlockchainError("block_interval must be > 0")
        if confirmations < 0:
            raise BlockchainError("confirmations must be >= 0")
        self.block_interval = float(block_interval)
        self.confirmations = int(confirmations)
        self.blocks: List[Block] = []
        self.receipts: Dict[int, Receipt] = {}
        self._mempool: List[Transaction] = []
        self._contracts: Dict[str, Contract] = {}
        self._finality_subs: List[Callable[[Receipt], None]] = []
        self._started = False
        #: Blocks due so far, except the current park's firings.
        self._height = 0
        #: The parked block tick, while the mempool is empty.
        self._park: Optional[Park] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Begin producing blocks."""
        if not self._started:
            self._started = True
            self._arm()

    def on_timer(self, timer_id: str) -> None:
        if timer_id == "produce":
            self._produce_block()
            self._arm()

    def _arm(self) -> None:
        """Arm the next block tick, parked while the mempool is empty."""
        tick = self.set_timer("produce", self.block_interval)
        if not self._mempool:
            self._park = self.sim.park(tick, self.block_interval)

    # -- contracts ------------------------------------------------------------

    def deploy(self, contract: Contract) -> Contract:
        """Install a contract at its address."""
        if contract.address in self._contracts:
            raise BlockchainError(f"address {contract.address!r} already in use")
        self._contracts[contract.address] = contract
        return contract

    def contract(self, address: str) -> Contract:
        """Look up a deployed contract."""
        try:
            return self._contracts[address]
        except KeyError:
            raise BlockchainError(f"no contract at {address!r}") from None

    # -- submission -------------------------------------------------------------

    def submit(
        self,
        sender: str,
        contract: str,
        method: str,
        args: Optional[Dict[str, Any]] = None,
    ) -> Transaction:
        """Queue a transaction for the next block (direct local access)."""
        if contract not in self._contracts:
            raise BlockchainError(f"no contract at {contract!r}")
        tx = Transaction(
            tx_id=next(_TX_SEQ),
            sender=sender,
            contract=contract,
            method=method,
            args=dict(args or {}),
            submitted_at=self.sim.now,
        )
        self._mempool.append(tx)
        park = self._park
        if park is not None:
            self._park = None
            self._height += park.firings
            park.unpark()
        return tx

    def handle_message(self, message: Envelope) -> None:
        """Remote submission: CONTROL envelopes carrying tx descriptors."""
        if message.kind is not MsgKind.CONTROL:
            return
        payload = message.payload
        if not isinstance(payload, dict) or payload.get("op") != "submit_tx":
            return
        self.submit(
            sender=message.sender,
            contract=payload["contract"],
            method=payload["method"],
            args=payload.get("args", {}),
        )

    # -- finality notifications -----------------------------------------------------

    def subscribe_finality(self, callback: Callable[[Receipt], None]) -> None:
        """Invoke ``callback(receipt)`` when a transaction finalises."""
        self._finality_subs.append(callback)

    # -- block production ----------------------------------------------------------

    def _produce_block(self) -> Block:
        sim = self.sim
        now = sim.now
        height = self._height
        self._height = height + 1
        txs = tuple(self._mempool)
        self._mempool.clear()
        block = Block(height=height, produced_at=now, txs=txs)
        self.blocks.append(block)
        sim.trace.record(
            now,
            TraceKind.STATE,
            self.name,
            state="block",
            height=height,
            txs=len(txs),
        )
        final_at = now + self.confirmations * self.block_interval
        ctx_base = dict(block_height=height, block_time=block.produced_at)
        for tx in txs:
            receipt = self._execute(tx, block, final_at, ctx_base)
            self.receipts[tx.tx_id] = receipt
            for callback in list(self._finality_subs):
                sim.schedule_at(
                    final_at,
                    callback,
                    receipt,
                    label=f"{self.name}.finality.tx{tx.tx_id}",
                )
        return block

    def _execute(
        self,
        tx: Transaction,
        block: Block,
        final_at: float,
        ctx_base: Dict[str, Any],
    ) -> Receipt:
        ctx = CallContext(sender=tx.sender, **ctx_base)
        try:
            result = self._contracts[tx.contract].call(ctx, tx.method, tx.args)
            return Receipt(
                tx=tx,
                block_height=block.height,
                executed_at=block.produced_at,
                final_at=final_at,
                ok=True,
                result=result,
            )
        except ContractError as exc:
            return Receipt(
                tx=tx,
                block_height=block.height,
                executed_at=block.produced_at,
                final_at=final_at,
                ok=False,
                error=str(exc),
            )

    # -- queries -------------------------------------------------------------------

    @property
    def height(self) -> int:
        """Number of blocks so far, the empty ones counted while parked."""
        park = self._park
        return self._height + (park.firings if park is not None else 0)


__all__ = [
    "Block",
    "CallContext",
    "Contract",
    "Receipt",
    "SimpleChain",
    "Transaction",
]
