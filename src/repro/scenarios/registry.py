"""Named axis values for scenario campaigns.

Campaign axes are resolved *by string* — from the CLI, from tests, or
from saved campaign descriptions — so every axis has a registry mapping
a short name to either a primitive descriptor (timings, which travel
inside trial specs) or a module-level factory (adversaries and
topologies, which are live objects and therefore built inside the trial
function, never pickled).

Protocols are the registered
:class:`~repro.protocols.base.PaymentProtocol` classes themselves: this
module keeps no table of them.  Each class declares its
``sweep_defaults``, the option payload that makes it *runnable under
every timing model in the registry*.  The time-bounded and HTLC
protocols need an assumed delay bound Δ once the timing model publishes
none (partial synchrony, asynchrony — running them there is exactly
what campaigns are for); the weak and certified protocols need finite
patience so impatient aborts bound termination.

Every entry is self-describing: the one-line descriptions shown by
``python -m repro campaign --list-axes`` are sourced from the entries'
own docstrings (factories and protocol classes) via
:func:`axis_descriptions`, and the docs-consistency CI check
(``tools/check_docs.py``) walks the same function — so the registry,
the CLI listing, and the documentation tables cannot drift apart.

Usage::

    >>> from repro.scenarios.registry import build_topology, make_adversary
    >>> topo = build_topology("geom-3")          # non-linear fee ladder
    >>> adv = make_adversary("bob-edge", topo)   # needs the topology
    >>> make_adversary("delayer") is not None    # topology-free
    True
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from ..core.session import DEFAULT_HORIZON
from ..core.topology import HopEdge, PaymentGraph, PaymentTopology
from ..errors import ProtocolError, ScenarioError
from ..ledger.asset import Amount
from ..net.adversary import (
    Adversary,
    CertificateWithholdingAdversary,
    CrashRestartAdversary,
    EdgeDelayAdversary,
    KindDelayAdversary,
    NullAdversary,
    PredicateDelayAdversary,
    HOLD,
)
from ..net.message import MsgKind
from ..protocols.base import PaymentProtocol, available_protocols, protocol_class
from ..sim.faults import CRASH_POINTS


def _doc_line(obj: Any) -> str:
    """First docstring line — the single source for axis descriptions."""
    doc = (getattr(obj, "__doc__", "") or "").strip()
    return doc.splitlines()[0].strip() if doc else ""


# -- timing models -------------------------------------------------------

def _timing_sync() -> Tuple[str, Dict[str, float]]:
    """Synchronous network: every message delivered within Δ=1 (jittered)."""
    return ("synchronous", {"delta": 1.0})


def _timing_sync_tight() -> Tuple[str, Dict[str, float]]:
    """Synchronous network pinned to the bound: every delay is exactly Δ=1."""
    # min_delay == delta collapses the sampling window to Δ itself, so
    # honest and adversarial delays alike land exactly on the bound.
    return ("synchronous", {"delta": 1.0, "min_delay": 1.0})


def _timing_partial() -> Tuple[str, Dict[str, float]]:
    """Partial synchrony, GST=40: unbounded delays until t=40, then Δ=1."""
    return ("partial", {"gst": 40.0, "delta": 1.0})


def _timing_partial_late() -> Tuple[str, Dict[str, float]]:
    """Partial synchrony, GST=400: stabilises after most protocol timeouts."""
    return ("partial", {"gst": 400.0, "delta": 1.0})


def _timing_async() -> Tuple[str, Dict[str, float]]:
    """Asynchronous network: exponential delays (mean 1) capped at 500."""
    return ("asynchronous", {"mean_delay": 1.0, "max_delay": 500.0})


#: name -> factory for the primitive ``(kind, params)`` descriptor that
#: :func:`repro.experiments.harness.build_timing` consumes.
_TIMING_FACTORIES: Dict[str, Callable[[], Tuple[str, Dict[str, float]]]] = {
    "sync": _timing_sync,
    "sync-tight": _timing_sync_tight,
    "partial": _timing_partial,
    "partial-late": _timing_partial_late,
    "async": _timing_async,
}

#: name -> primitive ``(kind, params)`` descriptor (materialised once).
TIMINGS: Dict[str, Tuple[str, Dict[str, float]]] = {
    name: factory() for name, factory in _TIMING_FACTORIES.items()
}


def timing_descriptor(name: str) -> Tuple[str, Dict[str, float]]:
    """The primitive timing descriptor registered under ``name``."""
    try:
        return TIMINGS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown timing model {name!r}; available: {available_timings()}"
        ) from None


# -- adversaries -------------------------------------------------------------

#: Adversary factories take the (already built) payment topology so
#: targeted attacks can name their victim links; topology-free
#: adversaries simply ignore the argument.
AdversaryFactory = Callable[[Optional[PaymentGraph]], Optional[Adversary]]


def _make_none(topology: Optional[PaymentGraph] = None) -> Optional[Adversary]:
    """Honest network: the timing model's own delays, nothing else."""
    return None


def _make_null(topology: Optional[PaymentGraph] = None) -> Adversary:
    """Explicit no-op adversary (distinguishable from 'none' in traces)."""
    return NullAdversary()


def _make_delayer(topology: Optional[PaymentGraph] = None) -> Adversary:
    """Stretch every message as far as the timing model legally allows."""
    # The maximally slow network that is still legal under the model.
    return PredicateDelayAdversary(lambda envelope: True, delay=HOLD)


def _make_cert_holder(topology: Optional[PaymentGraph] = None) -> Adversary:
    """Hold every certificate (χ) message — the impossibility adversary."""
    return CertificateWithholdingAdversary()


def _make_money_delayer(topology: Optional[PaymentGraph] = None) -> Adversary:
    """Hold every MONEY message as long as legal; other traffic flows."""
    return KindDelayAdversary((MsgKind.MONEY,), delay=HOLD)


def _make_decision_holder(topology: Optional[PaymentGraph] = None) -> Adversary:
    """Hold DECISION messages bound for the recipients (graph sinks): starve their commit/abort certificates."""
    if topology is None:
        # Topology-free fallback: starve everyone's decisions.
        return KindDelayAdversary((MsgKind.DECISION,), delay=HOLD)
    sinks = frozenset(topology.sinks())
    return PredicateDelayAdversary(
        lambda envelope: (
            envelope.kind is MsgKind.DECISION and envelope.recipient in sinks
        ),
        delay=HOLD,
    )


def _make_alice_edge(topology: Optional[PaymentGraph] = None) -> Adversary:
    """Hold all traffic on every source's boundary links (c0 ↔ e0 on the path)."""
    if topology is None:
        # Topology-free fallback: the path naming, where Alice's only
        # boundary link is c0 ↔ e0.
        return EdgeDelayAdversary([("c0", "e0"), ("e0", "c0")], delay=HOLD)
    links = []
    for source in topology.sources():
        for edge in topology.out_edges(source):
            links.append((source, edge.escrow))
            links.append((edge.escrow, source))
    return EdgeDelayAdversary(links, delay=HOLD)


def _make_bob_edge(topology: Optional[PaymentGraph] = None) -> Adversary:
    """Hold all traffic on every recipient's boundary link (Theorem 2's target: e_{n-1} ↔ c_n on the path)."""
    if topology is None:
        raise ScenarioError(
            "adversary 'bob-edge' targets the recipients' hops and needs "
            "the topology: make_adversary('bob-edge', topology)"
        )
    links = []
    for sink in topology.sinks():
        for edge in topology.in_edges(sink):
            links.append((edge.escrow, sink))
            links.append((sink, edge.escrow))
    return EdgeDelayAdversary(links, delay=HOLD)


def _make_branch_holder(topology: Optional[PaymentGraph] = None) -> Adversary:
    """Hold all traffic on one branch of the first fan-out node (its last outgoing hop): the scheduling attack that forces mixed per-hop outcomes."""
    if topology is None:
        raise ScenarioError(
            "adversary 'branch-holder' targets one branch of a fan-out "
            "node and needs the topology: "
            "make_adversary('branch-holder', topology)"
        )
    victim = None
    for name in topology.customers():
        outs = topology.out_edges(name)
        if len(outs) >= 2:
            victim = outs[-1]
            break
    if victim is None:
        # Path fallback: no branching node, so starve the last hop (the
        # recipient's edge) — the degenerate one-branch fan-out.
        victim = topology.edges[-1]
    links = [
        (victim.upstream, victim.escrow),
        (victim.escrow, victim.upstream),
        (victim.escrow, victim.downstream),
        (victim.downstream, victim.escrow),
    ]
    return EdgeDelayAdversary(links, delay=HOLD)


#: Crash-restart defaults: the decisive point (the durable decision is
#: signed but its notifications never left) and a downtime comparable
#: to the sync timing model's Δ=1 windows.
DEFAULT_CRASH_POINT = "post-sign-pre-send"
DEFAULT_CRASH_DOWNTIME = 10.0


def _crash_victim(topology: Optional[PaymentGraph]) -> str:
    """The recipient-side escrow — Theorem 2's target ``e_{n-1}``."""
    if topology is None:
        raise ScenarioError(
            "adversary 'crash-restart' crashes the recipient-side escrow "
            "and needs the topology: make_adversary('crash-restart', topology)"
        )
    sink = topology.sinks()[0]
    return topology.in_edges(sink)[0].escrow


def parse_crash_restart(name: str) -> Optional[Tuple[str, float]]:
    """Parse a ``crash-restart`` family name into ``(point, downtime)``.

    Returns ``None`` when ``name`` is not in the family.  Recognised
    patterns (point defaults to :data:`DEFAULT_CRASH_POINT`, downtime
    to :data:`DEFAULT_CRASH_DOWNTIME`):

    * ``crash-restart``
    * ``crash-restart-<point>`` — a :data:`~repro.sim.faults.CRASH_POINTS` name
    * ``crash-restart-d<D>`` — sweep the downtime only
    * ``crash-restart-<point>-d<D>`` — both
    """
    if name != "crash-restart" and not name.startswith("crash-restart-"):
        return None
    point, downtime = DEFAULT_CRASH_POINT, DEFAULT_CRASH_DOWNTIME
    rest = name[len("crash-restart-"):]
    if rest:
        parts = rest.split("-")
        tail = parts[-1]
        if tail[:1] == "d" and tail[1:]:
            try:
                downtime = float(tail[1:])
            except ValueError:
                pass  # not a downtime suffix; treat it as part of the point
            else:
                parts = parts[:-1]
        if parts:
            point = "-".join(parts)
            if point not in CRASH_POINTS:
                raise ScenarioError(
                    f"unknown crash point {point!r} in adversary {name!r}; "
                    f"points: {', '.join(CRASH_POINTS)}"
                )
        if downtime < 0:
            raise ScenarioError(
                f"adversary {name!r} asks for negative downtime {downtime}"
            )
    return point, downtime


def _make_crash_restart(topology: Optional[PaymentGraph] = None) -> Adversary:
    """Crash the recipient-side escrow at a named crash point, restore it after downtime d (variants: crash-restart-<point>[-d<D>])."""
    return CrashRestartAdversary(
        _crash_victim(topology), DEFAULT_CRASH_POINT, DEFAULT_CRASH_DOWNTIME
    )


#: name -> factory, called inside the trial process with the topology.
ADVERSARIES: Dict[str, AdversaryFactory] = {
    "none": _make_none,
    "null": _make_null,
    "delayer": _make_delayer,
    "cert-holder": _make_cert_holder,
    "money-delayer": _make_money_delayer,
    "decision-holder": _make_decision_holder,
    "alice-edge": _make_alice_edge,
    "bob-edge": _make_bob_edge,
    "branch-holder": _make_branch_holder,
    "crash-restart": _make_crash_restart,
}


def check_adversary(name: str) -> str:
    """Validate an adversary name without building it; returns ``name``.

    Besides the exact registry names, the ``crash-restart`` family
    resolves as a pattern — ``crash-restart[-<point>][-d<D>]`` — the
    same way ``kind-N`` topology names do.
    """
    if name in ADVERSARIES:
        return name
    if parse_crash_restart(name) is not None:
        return name
    raise ScenarioError(
        f"unknown adversary {name!r}; available: {available_adversaries()}"
    )


def make_adversary(
    name: str, topology: Optional[PaymentGraph] = None
) -> Optional[Adversary]:
    """Build the adversary registered under ``name`` (``None`` = honest).

    ``topology`` lets targeted adversaries (``bob-edge``,
    ``crash-restart``) resolve their victims; topology-free adversaries
    ignore it.
    """
    check_adversary(name)
    factory = ADVERSARIES.get(name)
    if factory is not None:
        return factory(topology)
    point, downtime = parse_crash_restart(name)  # type: ignore[misc]
    return CrashRestartAdversary(_crash_victim(topology), point, downtime)


# -- topologies ------------------------------------------------------------------

def _topology_linear(n: int, payment_id: str) -> PaymentTopology:
    """Figure 1 path, one asset, linear fees: hop i moves 100+(n-1-i)."""
    return PaymentTopology.linear(n, payment_id=payment_id)


def _topology_multiasset(n: int, payment_id: str) -> PaymentTopology:
    """Figure 1 path with one asset per hop (cross-currency payment)."""
    return PaymentTopology.linear(
        n, per_hop_assets=True, payment_id=payment_id
    )


def _topology_geom(n: int, payment_id: str) -> PaymentTopology:
    """Figure 1 path with a geometric (non-linear) fee ladder: hop amounts compound ×1.5 toward Alice."""
    # The communication graph is still the paper's path — the only
    # shape the core model defines — but the value schedule is
    # non-linear: each upstream connector's commission compounds
    # multiplicatively instead of adding a fixed unit, the fee regime
    # of long routes through expensive intermediaries.
    base, growth = 100, 1.5
    amounts = tuple(
        Amount("X", round(base * growth ** (n - 1 - i))) for i in range(n)
    )
    return PaymentTopology(
        n_escrows=n, amounts=amounts, payment_id=payment_id
    )


#: Depth cap for tree-N: 2^(N+1)-1 customers; beyond this the build
#: itself (not the O(1) name validation) would exhaust memory.
MAX_TREE_DEPTH = 16


def _topology_tree(n: int, payment_id: str) -> PaymentGraph:
    """Binary payment tree of depth N: Alice fans out over 2^N recipients, each paid 100; every connector keeps a unit commission."""
    # Customers are numbered BFS (c0 = Alice at the root, leaves last),
    # escrows in edge-creation (BFS) order, so names match the c<i>/e<j>
    # O(1) index parsing.  The amount entering a node covers everything
    # it must pay out plus its unit commission:  A(leaf) = 100,
    # A(node) = 2*A(child) + 1.
    if n > MAX_TREE_DEPTH:
        raise ScenarioError(
            f"tree-{n} would have 2^{n + 1}-1 customers; the builder "
            f"caps depth at {MAX_TREE_DEPTH}"
        )
    into = [Amount("X", 100)]  # amount entering a node with d levels below
    for _ in range(n):
        into.append(Amount("X", 2 * into[-1].units + 1))
    edges = []
    escrow = 0
    for parent in range(2 ** n - 1):  # internal nodes, BFS numbering
        # A complete tree: node i's children are 2i+1 and 2i+2.
        child_depth_below = n - _tree_level(parent) - 1
        for child in (2 * parent + 1, 2 * parent + 2):
            edges.append(
                HopEdge(
                    upstream=f"c{parent}",
                    escrow=f"e{escrow}",
                    downstream=f"c{child}",
                    amount=into[child_depth_below],
                )
            )
            escrow += 1
    return PaymentGraph(edges=tuple(edges), payment_id=payment_id)


def _tree_level(node: int) -> int:
    """BFS level of ``node`` in a complete binary tree (root = 0)."""
    return (node + 1).bit_length() - 1


def _topology_hub(n: int, payment_id: str) -> PaymentGraph:
    """Hub-and-spoke (Boros): Alice funds one central escrow whose hub connector fans out over N spokes, paying N recipients 100 each."""
    edges = [
        HopEdge(
            upstream="c0",
            escrow="e0",
            downstream="c1",
            amount=Amount("X", 100 * n + 1),
        )
    ]
    for spoke in range(n):
        edges.append(
            HopEdge(
                upstream="c1",
                escrow=f"e{spoke + 1}",
                downstream=f"c{spoke + 2}",
                amount=Amount("X", 100),
            )
        )
    return PaymentGraph(edges=tuple(edges), payment_id=payment_id)


def _topology_fanin(n: int, payment_id: str) -> PaymentGraph:
    """Fan-in of N payers (crowdfunding): N independent sources each fund their own escrow toward one shared recipient, paying 100 apiece."""
    # Customer naming keeps the c<i>/e<j> O(1) index parsing: the first
    # edge introduces c0 (payer) and c1 (the shared recipient), every
    # further payer continues the numbering at c2, c3, ...
    edges = [
        HopEdge(
            upstream="c0", escrow="e0", downstream="c1",
            amount=Amount("X", 100),
        )
    ]
    for payer in range(1, n):
        edges.append(
            HopEdge(
                upstream=f"c{payer + 1}",
                escrow=f"e{payer}",
                downstream="c1",
                amount=Amount("X", 100),
            )
        )
    graph = PaymentGraph(edges=tuple(edges), payment_id=payment_id)
    # Funding conservation: with no connectors there are no commissions,
    # so everything the payers put up must be exactly what the recipient
    # collects.  A mismatch means the builder produced a graph whose
    # funding plan would mint or burn value — fail loudly here rather
    # than as a ledger-audit mystery inside a trial.
    funded = sum(
        amount.units
        for entries in graph.funding_plan().values()
        for _, amount in entries
    )
    collected = sum(edge.amount.units for edge in graph.in_edges("c1"))
    if funded != collected:
        raise ScenarioError(
            f"fan-in-{n} builder broke funding conservation: payers fund "
            f"{funded} but the recipient collects {collected}"
        )
    return graph


#: kind -> builder(n, payment_id); names resolve as ``kind-N``.
TOPOLOGY_BUILDERS: Dict[str, Callable[[int, str], PaymentGraph]] = {
    "linear": _topology_linear,
    "multiasset": _topology_multiasset,
    "geom": _topology_geom,
    "tree": _topology_tree,
    "hub": _topology_hub,
    "fan-in": _topology_fanin,
}


def check_topology(name: str) -> Tuple[str, int]:
    """Validate a ``kind-N`` topology name without building it.

    Returns the parsed ``(kind, n)`` pair; used by compile-time
    validation, which must stay O(1) per cell whatever N is.
    """
    # Split on the *last* dash: topology kinds may themselves contain
    # dashes ("fan-in-3" is kind "fan-in", size 3).
    kind, _, size = name.rpartition("-")
    try:
        n = int(size)
    except ValueError:
        raise ScenarioError(
            f"malformed topology {name!r}; expected e.g. 'linear-3'"
        ) from None
    if n < 1:
        raise ScenarioError(f"topology {name!r} needs at least one escrow")
    if kind not in TOPOLOGY_BUILDERS:
        raise ScenarioError(
            f"unknown topology kind {kind!r}; available: {available_topologies()}"
        )
    if kind == "tree" and n > MAX_TREE_DEPTH:
        # Caught here (O(1)) so the CLI rejects it as a usage error
        # instead of every trial failing inside the executor.
        raise ScenarioError(
            f"tree-{n} would have 2^{n + 1}-1 customers; the builder "
            f"caps depth at {MAX_TREE_DEPTH}"
        )
    return kind, n


#: Topology kinds whose every instance is a Figure 1 path.
_PATH_KINDS = frozenset({"linear", "multiasset", "geom"})


def topology_shape_traits(name: str) -> FrozenSet[str]:
    """Shape traits of a ``kind-N`` name without building it: O(1).

    Returns the same trait vocabulary as
    :func:`repro.protocols.base.topology_traits` (``"path"`` / ``"dag"``
    / ``"multi-source"``), derived from the kind and size alone so
    campaign compilation can match cells against protocol capabilities
    before any graph is materialised.
    """
    kind, n = check_topology(name)
    if kind in _PATH_KINDS or (kind in ("hub", "fan-in") and n == 1):
        # hub-1 and fan-in-1 degenerate to one- / two-hop paths.
        return frozenset({"path"})
    if kind == "fan-in":
        return frozenset({"dag", "multi-source"})
    return frozenset({"dag"})


def build_topology(name: str, payment_id: str = "payment") -> PaymentGraph:
    """Build the payment topology named by ``name``.

    Names are ``kind-N`` patterns, resolvable for any size:

    * ``linear-N`` — the Figure 1 path with ``N`` escrows, one asset;
    * ``multiasset-N`` — the same path with one asset per hop
      (cross-currency payments);
    * ``geom-N`` — the same path with a geometric fee ladder (each
      connector's commission compounds ×1.5 instead of adding a unit);
    * ``tree-N`` — a binary payment tree of depth ``N``: Alice at the
      root pays ``2^N`` recipients;
    * ``hub-N`` — hub-and-spoke: one central escrow funds a hub
      connector fanning out over ``N`` spokes to ``N`` recipients;
    * ``fan-in-N`` — ``N`` independent payers each fund their own
      escrow toward one shared recipient (the multi-source shape).
    """
    kind, n = check_topology(name)
    return TOPOLOGY_BUILDERS[kind](n, payment_id)


#: Example names shown by ``--list-axes``; any ``kind-N`` resolves.
TOPOLOGY_KINDS: Tuple[str, ...] = tuple(
    f"{kind}-N" for kind in TOPOLOGY_BUILDERS
)


# -- protocols ---------------------------------------------------------------------

def check_protocol(
    name: str, options: Iterable[str] = ()
) -> Type[PaymentProtocol]:
    """The protocol class registered under ``name``, as an axis value.

    Also refuses any of ``options`` the class does not declare in its
    ``known_options``: a typo'd option would be silently ignored at run
    time while being persisted as if it took effect.
    """
    try:
        declared = protocol_class(name)
        declared.check_options(options)
    except ProtocolError as exc:
        raise ScenarioError(str(exc)) from None
    return declared


def protocol_options(
    protocol: str, overrides: Mapping[str, Any]
) -> Dict[str, Any]:
    """A cell's protocol options: the sweep defaults under ``overrides``."""
    return {**check_protocol(protocol).sweep_defaults, **dict(overrides)}


def check_sweep_options(
    protocols: Sequence[str],
    rhos: Iterable[float],
    horizons: Iterable[Optional[float]],
    overrides: Mapping[str, Mapping[str, Any]],
) -> None:
    """The drift, horizon and ``--set`` checks every sweep spec shares.

    Each ``rho`` must be >= 0 and each given horizon > 0 (``None`` is
    :data:`DEFAULT_HORIZON`).  Each override must target a protocol on
    the ``protocols`` axis and name one of its ``known_options``.
    """
    for rho in rhos:
        if rho < 0.0:
            raise ScenarioError(f"rho must be >= 0, got {rho!r}")
    for horizon in horizons:
        if horizon is not None and not (horizon > 0.0):
            raise ScenarioError(f"horizon must be > 0, got {horizon!r}")
    for protocol, options in overrides.items():
        if protocol not in protocols:
            raise ScenarioError(
                f"override targets protocol {protocol!r}, which is not "
                f"on the protocols axis {list(protocols)}"
            )
        check_protocol(protocol, options)


# -- listings -------------------------------------------------------------------------

def available_timings() -> List[str]:
    return sorted(TIMINGS)


def available_adversaries() -> List[str]:
    return sorted(ADVERSARIES)


def available_topologies() -> List[str]:
    return list(TOPOLOGY_KINDS)


def axis_descriptions() -> Dict[str, Dict[str, str]]:
    """Every axis name with its one-line description.

    Descriptions come from the registry entries themselves (factory
    and protocol class docstrings), so ``--list-axes``, the
    README/PAPER_MAP axis tables, and ``tools/check_docs.py`` all read
    the same source.
    """
    return {
        "protocols": {
            name: _doc_line(protocol_class(name))
            for name in available_protocols()
        },
        "timings": {
            # A timing added straight into TIMINGS (the pre-factory
            # registry shape) lists with an empty description — which
            # check_docs reports as a gap — rather than crashing
            # --list-axes with a KeyError.
            name: _doc_line(_TIMING_FACTORIES[name]) if name in _TIMING_FACTORIES else ""
            for name in available_timings()
        },
        "adversaries": {
            name: _doc_line(ADVERSARIES[name])
            for name in available_adversaries()
        },
        "topologies": {
            f"{kind}-N": _doc_line(builder)
            for kind, builder in TOPOLOGY_BUILDERS.items()
        },
    }


__all__ = [
    "ADVERSARIES",
    "AdversaryFactory",
    "DEFAULT_CRASH_DOWNTIME",
    "DEFAULT_CRASH_POINT",
    "DEFAULT_HORIZON",
    "TIMINGS",
    "TOPOLOGY_BUILDERS",
    "TOPOLOGY_KINDS",
    "available_adversaries",
    "available_timings",
    "available_topologies",
    "axis_descriptions",
    "build_topology",
    "check_adversary",
    "check_protocol",
    "check_sweep_options",
    "check_topology",
    "make_adversary",
    "parse_crash_restart",
    "protocol_options",
    "timing_descriptor",
    "topology_shape_traits",
]
