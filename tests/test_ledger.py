"""Unit and property-based tests: amounts, accounts, ledgers."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import (
    EscrowStateError,
    InsufficientFunds,
    LedgerError,
    UnknownAccount,
)
from repro.ledger.account import Account
from repro.ledger.asset import Amount, amount
from repro.ledger.ledger import Ledger, LockState


class TestAmount:
    def test_same_asset_arithmetic(self):
        assert Amount("X", 3) + Amount("X", 4) == Amount("X", 7)
        assert Amount("X", 5) - Amount("X", 2) == Amount("X", 3)

    def test_cross_asset_arithmetic_rejected(self):
        with pytest.raises(LedgerError):
            Amount("X", 1) + Amount("Y", 1)
        with pytest.raises(LedgerError):
            Amount("X", 1) <= Amount("Y", 1)

    def test_comparisons(self):
        assert Amount("X", 1) < Amount("X", 2)
        assert Amount("X", 2) >= Amount("X", 2)

    def test_non_int_units_rejected(self):
        with pytest.raises(LedgerError):
            Amount("X", 1.5)  # type: ignore[arg-type]
        with pytest.raises(LedgerError):
            Amount("X", True)  # type: ignore[arg-type]

    def test_empty_asset_rejected(self):
        with pytest.raises(LedgerError):
            Amount("", 1)

    def test_scaled_floor_division(self):
        assert Amount("X", 10).scaled(1, 3) == Amount("X", 3)
        with pytest.raises(LedgerError):
            Amount("X", 10).scaled(1, 0)

    def test_flags(self):
        assert not Amount("X", 0).is_positive
        assert Amount("X", 1).is_positive

    @given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
    def test_addition_is_exact(self, a, b):
        assert (Amount("X", a) + Amount("X", b)).units == a + b


class TestAccount:
    def test_credit_debit(self):
        acct = Account("a")
        acct.credit(Amount("X", 10))
        acct.debit(Amount("X", 4))
        assert acct.balance("X") == Amount("X", 6)

    def test_overdraft_rejected_and_unchanged(self):
        acct = Account("a")
        acct.credit(Amount("X", 5))
        with pytest.raises(InsufficientFunds):
            acct.debit(Amount("X", 6))
        assert acct.balance("X") == Amount("X", 5)

    def test_negative_credit_rejected(self):
        with pytest.raises(LedgerError):
            Account("a").credit(Amount("X", -1))

    def test_can_pay(self):
        acct = Account("a")
        acct.credit(Amount("X", 5))
        assert acct.can_pay(Amount("X", 5))
        assert not acct.can_pay(Amount("X", 6))

    def test_assets_lists_nonzero(self):
        acct = Account("a")
        acct.credit(Amount("X", 1))
        acct.credit(Amount("Y", 2))
        acct.debit(Amount("X", 1))
        assert acct.assets() == ["Y"]


class TestLedger:
    def _ledger(self):
        ledger = Ledger("e0")
        ledger.mint("alice", Amount("X", 100))
        ledger.open_account("bob")
        return ledger

    def test_mint_and_balance(self):
        ledger = self._ledger()
        assert ledger.balance("alice", "X") == Amount("X", 100)

    def test_transfer(self):
        ledger = self._ledger()
        ledger.transfer("alice", "bob", Amount("X", 30))
        assert ledger.balance("alice", "X").units == 70
        assert ledger.balance("bob", "X").units == 30

    def test_transfer_insufficient_leaves_state(self):
        ledger = self._ledger()
        with pytest.raises(InsufficientFunds):
            ledger.transfer("alice", "bob", Amount("X", 200))
        assert ledger.balance("alice", "X").units == 100
        assert ledger.balance("bob", "X").units == 0

    def test_unknown_account(self):
        ledger = self._ledger()
        with pytest.raises(UnknownAccount):
            ledger.balance("carol", "X")

    def test_escrow_deposit_release(self):
        ledger = self._ledger()
        lock = ledger.escrow_deposit("alice", "bob", Amount("X", 40))
        assert ledger.balance("alice", "X").units == 60
        assert lock.state is LockState.HELD
        ledger.escrow_release(lock.lock_id)
        assert ledger.balance("bob", "X").units == 40

    def test_escrow_deposit_refund(self):
        ledger = self._ledger()
        lock = ledger.escrow_deposit("alice", "bob", Amount("X", 40))
        ledger.escrow_refund(lock.lock_id)
        assert ledger.balance("alice", "X").units == 100

    def test_double_resolution_rejected(self):
        ledger = self._ledger()
        lock = ledger.escrow_deposit("alice", "bob", Amount("X", 40))
        ledger.escrow_release(lock.lock_id)
        with pytest.raises(EscrowStateError):
            ledger.escrow_refund(lock.lock_id)
        with pytest.raises(EscrowStateError):
            ledger.escrow_release(lock.lock_id)

    def test_duplicate_lock_id_rejected_atomically(self):
        ledger = self._ledger()
        ledger.escrow_deposit("alice", "bob", Amount("X", 10), lock_id="L")
        with pytest.raises(EscrowStateError):
            ledger.escrow_deposit("alice", "bob", Amount("X", 10), lock_id="L")
        # The failed second deposit must not have debited:
        assert ledger.balance("alice", "X").units == 90

    def test_zero_deposit_rejected(self):
        ledger = self._ledger()
        with pytest.raises(LedgerError):
            ledger.escrow_deposit("alice", "bob", Amount("X", 0))

    def test_unknown_lock(self):
        ledger = self._ledger()
        with pytest.raises(EscrowStateError):
            ledger.escrow_release("nope")

    def test_audit_holds_through_lifecycle(self):
        ledger = self._ledger()
        assert ledger.audit_ok()
        lock = ledger.escrow_deposit("alice", "bob", Amount("X", 40))
        assert ledger.audit_ok()  # value sits in the lock
        ledger.escrow_release(lock.lock_id)
        assert ledger.audit_ok()

    def test_locks_filter(self):
        ledger = self._ledger()
        l1 = ledger.escrow_deposit("alice", "bob", Amount("X", 10))
        l2 = ledger.escrow_deposit("alice", "bob", Amount("X", 10))
        ledger.escrow_release(l1.lock_id)
        assert len(ledger.locks(state=LockState.HELD)) == 1
        assert len(ledger.locks(state=LockState.RELEASED)) == 1


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["transfer", "deposit", "release", "refund"]),
            st.integers(min_value=1, max_value=50),
        ),
        max_size=40,
    )
)
def test_conservation_invariant_under_random_operations(ops):
    """Minted value == accounts + held locks after ANY operation mix.

    This is escrow security (ES) as a machine-checked invariant.
    """
    ledger = Ledger("e")
    ledger.mint("a", Amount("X", 500))
    ledger.open_account("b")
    held = []
    for op, units in ops:
        amt = Amount("X", units)
        try:
            if op == "transfer":
                ledger.transfer("a", "b", amt)
            elif op == "deposit":
                held.append(ledger.escrow_deposit("a", "b", amt).lock_id)
            elif op == "release" and held:
                ledger.escrow_release(held.pop())
            elif op == "refund" and held:
                ledger.escrow_refund(held.pop())
        except (InsufficientFunds, EscrowStateError):
            pass  # rejected ops must leave the ledger consistent too
        assert ledger.audit_ok()
