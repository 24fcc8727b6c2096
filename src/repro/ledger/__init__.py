"""Value substrate: assets, accounts, escrow ledgers, blockchains,
and the certified-broadcast contract."""

from .account import Account
from .asset import Amount, amount
from .blockchain import Block, CallContext, Contract, Receipt, SimpleChain, Transaction
from .contracts import CertifiedBroadcastContract, PublicationRecord
from .ledger import EscrowLock, Ledger, LockState

__all__ = [
    "Account",
    "Amount",
    "Block",
    "CallContext",
    "CertifiedBroadcastContract",
    "Contract",
    "EscrowLock",
    "Ledger",
    "LockState",
    "PublicationRecord",
    "Receipt",
    "SimpleChain",
    "Transaction",
    "amount",
]
