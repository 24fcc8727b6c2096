"""Escrow automaton ``e_i`` for the time-bounded protocol (Figure 2).

Behaviour, exactly as in the paper's informal description:

1. send promise ``G(d_i)`` to the upstream customer ``c_i``;
2. await receipt of the money from ``c_i``;
3. if the money arrives, issue promise ``P(a_i)`` to the downstream
   customer ``c_{i+1}`` and remember the issuance time ``u := now``;
4. await the certificate χ from ``c_{i+1}``:
   - if χ arrives at local time ``v < u + a_i``, forward χ to ``c_i``
     and the money to ``c_{i+1}``;
   - if the clock reaches ``now >= u + a_i`` first, refund ``c_i``.

The automaton's ``config`` dict supplies its parameters::

    index, upstream, downstream, a_i, d_i, amount, ledger, identity,
    keyring, payment_id, expected_issuer (Bob's name)
"""

from __future__ import annotations

from typing import Any, List, Tuple

from ...crypto.certificates import PaymentCertificate
from ...crypto.promises import Guarantee, PaymentPromise
from ...net.message import Envelope, MsgKind
from ...anta.transitions import (
    AutomatonSpec,
    ReceiveSpec,
    SendSpec,
    StateKind,
    StateSpec,
)
from ...anta.transitions import TimeoutSpec
from ...ledger.asset import Amount
from ...sim.trace import TraceKind


# -- guards ----------------------------------------------------------------


def money_guard(automaton: Any, envelope: Envelope) -> bool:
    """Accept the deposit instruction iff it is well-formed and funded."""
    amount = envelope.payload.get("amount") if isinstance(envelope.payload, dict) else None
    if not isinstance(amount, Amount):
        return False
    expected: Amount = automaton.config["amount"]
    if amount != expected:
        return False
    ledger = automaton.config["ledger"]
    return ledger.account(automaton.config["upstream"]).can_pay(expected)


def issuer_accepted(cert: Any, keyring: Any, expected: Any) -> bool:
    """Validate χ against one expected issuer or a set of them.

    ``expected`` is Bob's name on the path; on a payment DAG it is the
    tuple of recipients reachable downstream — any of their
    certificates discharges the hop.
    """
    if isinstance(expected, str):
        return cert.valid(keyring, expected_signer=expected)
    return cert.issuer in expected and cert.valid(keyring)


def certificate_guard(automaton: Any, envelope: Envelope) -> bool:
    """Accept χ iff it verifies as a recipient's and the window is open.

    The promise ``P(a)`` reads "if I receive χ from you at my time v,
    with v < now + a" — a *strict* local-clock window based at the
    promise issuance time ``u``.
    """
    cert = envelope.payload
    if not isinstance(cert, PaymentCertificate):
        return False
    if cert.payment_id != automaton.config["payment_id"]:
        return False
    if not issuer_accepted(
        cert, automaton.config["keyring"], automaton.config["expected_issuer"]
    ):
        return False
    return automaton.now < automaton.vars["u"] + automaton.config["a_i"]


# -- actions ----------------------------------------------------------------


def deposit_action(automaton: Any, envelope: Envelope) -> None:
    """Lock the upstream customer's money in escrow."""
    ledger = automaton.config["ledger"]
    lock = ledger.escrow_deposit(
        depositor=automaton.config["upstream"],
        beneficiary=automaton.config["downstream"],
        amt=automaton.config["amount"],
        lock_id=f"{automaton.config['payment_id']}/{automaton.name}",
    )
    automaton.vars["lock_id"] = lock.lock_id


def store_certificate_action(automaton: Any, envelope: Envelope) -> None:
    """Remember the verified certificate for forwarding."""
    automaton.vars["chi"] = envelope.payload
    automaton.sim.trace.record(
        automaton.sim.now,
        TraceKind.CERT_RECEIVED,
        automaton.name,
        cert="chi",
        frm=envelope.sender,
    )


# -- emits -------------------------------------------------------------------


def emit_guarantee(automaton: Any) -> Tuple[List[SendSpec], str]:
    """Grey state: sign and send ``G(d_i)`` upstream."""
    guarantee = Guarantee.issue(
        identity=automaton.config["identity"],
        payment_id=automaton.config["payment_id"],
        customer=automaton.config["upstream"],
        d=automaton.config["d_i"],
    )
    return (
        [SendSpec(automaton.config["upstream"], MsgKind.GUARANTEE, guarantee)],
        "await_money",
    )


def emit_promise(automaton: Any) -> Tuple[List[SendSpec], str]:
    """Grey state: record ``u := now`` and send ``P(a_i)`` downstream."""
    automaton.vars["u"] = automaton.now
    promise = PaymentPromise.issue(
        identity=automaton.config["identity"],
        payment_id=automaton.config["payment_id"],
        customer=automaton.config["downstream"],
        a=automaton.config["a_i"],
        issued_at_local=automaton.vars["u"],
    )
    return (
        [SendSpec(automaton.config["downstream"], MsgKind.PROMISE, promise)],
        "await_certificate",
    )


def emit_commit(automaton: Any) -> Tuple[List[SendSpec], str]:
    """Grey state: certificate upstream, money downstream."""
    ledger = automaton.config["ledger"]
    ledger.escrow_release(automaton.vars["lock_id"])
    amount: Amount = automaton.config["amount"]
    return (
        [
            SendSpec(automaton.config["upstream"], MsgKind.CERTIFICATE, automaton.vars["chi"]),
            SendSpec(
                automaton.config["downstream"],
                MsgKind.MONEY,
                {"amount": amount, "note": "payment"},
            ),
        ],
        "done_committed",
    )


def emit_refund(automaton: Any) -> Tuple[List[SendSpec], str]:
    """Grey state: window expired — return the money upstream."""
    ledger = automaton.config["ledger"]
    ledger.escrow_refund(automaton.vars["lock_id"])
    amount: Amount = automaton.config["amount"]
    return (
        [
            SendSpec(
                automaton.config["upstream"],
                MsgKind.MONEY,
                {"amount": amount, "note": "refund"},
            )
        ],
        "done_refunded",
    )


# -- spec ---------------------------------------------------------------------


def escrow_spec(name: str, upstream: str, downstream: str) -> AutomatonSpec:
    """The Figure 2 escrow automaton (parameters read from ``config``)."""
    spec = AutomatonSpec(name=name, initial="send_guarantee")
    spec.add(
        StateSpec(name="send_guarantee", kind=StateKind.OUTPUT, emit=emit_guarantee)
    )
    spec.add(
        StateSpec(
            name="await_money",
            kind=StateKind.INPUT,
            receives=[
                ReceiveSpec(
                    frm=upstream,
                    kind=MsgKind.MONEY,
                    guard=money_guard,
                    action=deposit_action,
                    target="send_promise",
                    label=f"r({upstream}, $)",
                )
            ],
        )
    )
    spec.add(StateSpec(name="send_promise", kind=StateKind.OUTPUT, emit=emit_promise))
    spec.add(
        StateSpec(
            name="await_certificate",
            kind=StateKind.INPUT,
            receives=[
                ReceiveSpec(
                    frm=downstream,
                    kind=MsgKind.CERTIFICATE,
                    guard=certificate_guard,
                    action=store_certificate_action,
                    target="send_commit",
                    label=f"r({downstream}, chi)",
                )
            ],
            timeouts=[
                TimeoutSpec(
                    deadline=lambda a: a.vars["u"] + a.config["a_i"],
                    target="send_refund",
                    label="now >= u + a_i",
                )
            ],
        )
    )
    # Commit and refund are the irrevocable decisions: a durable escrow
    # write-ahead-logs them, and the crash-restart adversary's named
    # points (pre-decision / post-sign-pre-send / post-send) wrap them.
    spec.add(StateSpec(
        name="send_commit", kind=StateKind.OUTPUT, emit=emit_commit,
        decision=True,
    ))
    spec.add(StateSpec(
        name="send_refund", kind=StateKind.OUTPUT, emit=emit_refund,
        decision=True,
    ))
    spec.add(StateSpec(name="done_committed", kind=StateKind.FINAL))
    spec.add(StateSpec(name="done_refunded", kind=StateKind.FINAL))
    return spec


__all__ = [
    "certificate_guard",
    "deposit_action",
    "emit_commit",
    "emit_guarantee",
    "emit_promise",
    "emit_refund",
    "escrow_spec",
    "issuer_accepted",
    "money_guard",
    "store_certificate_action",
]
