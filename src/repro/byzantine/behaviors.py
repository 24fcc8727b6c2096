"""Byzantine behaviours.

The paper assumes the classic Byzantine model with authentication: a
faulty participant may deviate arbitrarily from its prescribed conduct
but cannot forge other parties' signatures.  We realise faults as
**spec transforms** for ANTA-based protocols — functions that rewrite a
role's honest :class:`~repro.anta.transitions.AutomatonSpec` into a
deviating one — plus behaviour *flags* consumed by the process-based
weak-liveness protocol (see :mod:`repro.protocols.weak`).

A behaviour reference (as stored in a session's ``byzantine`` map) is
one of:

* a registered behaviour name, e.g. ``"crash_immediately"``;
* ``(name, kwargs)`` for parameterised behaviours,
  e.g. ``("escrow_early_timeout", {"factor": 0.25})``;
* a callable ``transform(spec, ctx, **kwargs)`` for custom attacks.

``ctx`` carries the role description (``role``, ``index``, parameter
windows, neighbour names) so transforms can be role-aware.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple, Union

from ..anta.transitions import (
    AutomatonSpec,
    SendSpec,
    StateKind,
    StateSpec,
)
from ..crypto.certificates import PaymentCertificate
from ..errors import ProtocolError
from ..net.message import MsgKind

SpecTransform = Callable[..., AutomatonSpec]
BehaviorRef = Union[str, Tuple[str, Dict[str, Any]], SpecTransform]

SPEC_TRANSFORMS: Dict[str, SpecTransform] = {}


def register_behavior(name: str) -> Callable[[SpecTransform], SpecTransform]:
    """Decorator registering a named spec transform."""

    def decorator(fn: SpecTransform) -> SpecTransform:
        if name in SPEC_TRANSFORMS:
            raise ProtocolError(f"behaviour {name!r} already registered")
        SPEC_TRANSFORMS[name] = fn
        return fn

    return decorator


def apply_behavior(
    spec: AutomatonSpec, behavior: BehaviorRef, ctx: Dict[str, Any]
) -> AutomatonSpec:
    """Apply a behaviour reference to an honest spec."""
    if callable(behavior):
        return behavior(spec, ctx)
    if isinstance(behavior, tuple):
        name, kwargs = behavior
        fn = _lookup(name)
        return fn(spec, ctx, **kwargs)
    fn = _lookup(str(behavior))
    return fn(spec, ctx)


def _lookup(name: str) -> SpecTransform:
    try:
        return SPEC_TRANSFORMS[name]
    except KeyError:
        raise ProtocolError(
            f"unknown Byzantine behaviour {name!r}; known: {sorted(SPEC_TRANSFORMS)}"
        ) from None


def _ensure_crashed_state(spec: AutomatonSpec) -> str:
    """Add (idempotently) a terminal 'crashed' state."""
    if "crashed" not in spec.states:
        spec.add(StateSpec(name="crashed", kind=StateKind.FINAL))
    return "crashed"


# -- generic behaviours --------------------------------------------------------


@register_behavior("crash_immediately")
def crash_immediately(spec: AutomatonSpec, ctx: Dict[str, Any]) -> AutomatonSpec:
    """The participant halts before doing anything (crash fault)."""
    crashed = _ensure_crashed_state(spec)
    spec.initial = crashed
    return spec


@register_behavior("crash_at_state")
def crash_at_state(
    spec: AutomatonSpec, ctx: Dict[str, Any], state: str = ""
) -> AutomatonSpec:
    """Halt upon *entering* the named state (instead of acting there)."""
    if state not in spec.states:
        raise ProtocolError(f"cannot crash at unknown state {state!r}")
    crashed = _ensure_crashed_state(spec)
    target = spec.states[state]
    spec.states[state] = StateSpec(name=state, kind=StateKind.FINAL)
    # Keep the original object discoverable for debugging:
    spec.states[f"__shadow_{state}"] = StateSpec(
        name=f"__shadow_{state}",
        kind=target.kind,
        receives=target.receives,
        timeouts=target.timeouts,
        emit=target.emit,
    )
    del crashed  # the FINAL replacement already halts the automaton
    return spec


@register_behavior("mute_sends")
def mute_sends(spec: AutomatonSpec, ctx: Dict[str, Any]) -> AutomatonSpec:
    """Run the protocol logic but never actually send anything."""
    for state in list(spec.states.values()):
        if state.kind is StateKind.OUTPUT and state.emit is not None:
            original = state.emit

            def silent_emit(automaton: Any, _orig=original):
                _sends, nxt = _orig(automaton)
                return [], nxt

            spec.states[state.name] = StateSpec(
                name=state.name, kind=StateKind.OUTPUT, emit=silent_emit
            )
    return spec


# -- customer attacks ----------------------------------------------------------


@register_behavior("bob_never_signs")
def bob_never_signs(spec: AutomatonSpec, ctx: Dict[str, Any]) -> AutomatonSpec:
    """Bob accepts the promise but never issues χ.

    The honest upstream escrow then times out and refunds — everyone
    else keeps their money; only liveness (L) is lost, as the paper's
    conditional formulation of L predicts.
    """
    return crash_at_state(spec, ctx, state="issue_chi")


@register_behavior("connector_withholds_chi")
def connector_withholds_chi(spec: AutomatonSpec, ctx: Dict[str, Any]) -> AutomatonSpec:
    """Chloe receives χ but never forwards it upstream.

    She forfeits her own reimbursement; upstream escrows time out and
    refund, so everybody *else* stays safe.
    """
    return crash_at_state(spec, ctx, state="forward_chi")


@register_behavior("customer_never_pays")
def customer_never_pays(spec: AutomatonSpec, ctx: Dict[str, Any]) -> AutomatonSpec:
    """The customer collects promises but never deposits the money."""
    return crash_at_state(spec, ctx, state="send_money")


@register_behavior("forge_certificate")
def forge_certificate(spec: AutomatonSpec, ctx: Dict[str, Any]) -> AutomatonSpec:
    """A customer immediately sends a *forged* χ to her upstream escrow.

    The forgery claims Bob as issuer but is signed with the attacker's
    own key (she cannot do better under authentication).  Escrows must
    reject it, so the attack gains nothing — this behaviour exists to
    *test* the unforgeability path end to end.
    """
    upstream = ctx.get("upstream_escrow")
    identity = ctx.get("identity")
    payment_id = ctx.get("payment_id")
    bob = ctx.get("expected_issuer")
    if upstream is None or identity is None:
        raise ProtocolError("forge_certificate needs upstream_escrow and identity in ctx")

    def emit_forged(automaton: Any):
        fake = PaymentCertificate.signed_by(identity, payment_id=payment_id, issuer=bob)
        return [SendSpec(upstream, MsgKind.CERTIFICATE, fake)], "crashed"

    _ensure_crashed_state(spec)
    spec.states["forge"] = StateSpec(name="forge", kind=StateKind.OUTPUT, emit=emit_forged)
    spec.initial = "forge"
    return spec


# -- escrow attacks --------------------------------------------------------------


@register_behavior("escrow_no_refund")
def escrow_no_refund(spec: AutomatonSpec, ctx: Dict[str, Any]) -> AutomatonSpec:
    """The escrow keeps the deposit locked forever (never refunds).

    Violates what *would* be its guarantee G(d); the paper's customer
    security is conditional on escrows abiding, so its customers'
    CS clauses are vacuous in this run — the experiment verifies the
    conditionality rather than a violation.
    """
    state = spec.states.get("await_certificate")
    if state is None:
        raise ProtocolError("escrow_no_refund expects an 'await_certificate' state")
    spec.states["await_certificate"] = StateSpec(
        name="await_certificate",
        kind=StateKind.INPUT,
        receives=state.receives,
        timeouts=[],  # never time out, never refund
    )
    return spec


@register_behavior("escrow_early_timeout")
def escrow_early_timeout(
    spec: AutomatonSpec, ctx: Dict[str, Any], factor: float = 0.1
) -> AutomatonSpec:
    """The escrow shrinks its certificate window to ``factor * a_i``.

    Mimics a rushing escrow (or an unsound timeout calculus): it may
    refund while χ is still legitimately on its way back.
    """
    state = spec.states.get("await_certificate")
    if state is None:
        raise ProtocolError("escrow_early_timeout expects an 'await_certificate' state")
    new_timeouts = []
    for timeout in state.timeouts:
        new_timeouts.append(
            type(timeout)(
                deadline=lambda a, f=factor: a.vars["u"] + f * a.config["a_i"],
                target=timeout.target,
                action=timeout.action,
                label=f"now >= u + {factor}*a_i",
            )
        )
    spec.states["await_certificate"] = StateSpec(
        name="await_certificate",
        kind=StateKind.INPUT,
        receives=state.receives,
        timeouts=new_timeouts,
    )
    return spec


@register_behavior("escrow_steal_deposit")
def escrow_steal_deposit(spec: AutomatonSpec, ctx: Dict[str, Any]) -> AutomatonSpec:
    """The escrow takes the money and walks away.

    After the deposit it neither promises downstream nor ever resolves
    the lock.  Ledger conservation still holds (the value sits in the
    lock), but its upstream customer is stranded — again conditionally
    outside the spec, since her escrow does not abide.
    """
    return crash_at_state(spec, ctx, state="send_promise")


__all__ = [
    "BehaviorRef",
    "SPEC_TRANSFORMS",
    "apply_behavior",
    "register_behavior",
]
