"""Protocol interface and registry.

A *payment protocol* consumes a :class:`~repro.core.session.PaymentEnv`
and populates it with participant processes.  Protocols register
themselves by name so sessions can be configured with plain strings
(``PaymentSession(topo, "timebounded", ...)``).

Every protocol distinguishes **participants** (``processes``) — the 2n+1
parties whose termination ends the session and whose conduct the
properties judge — from **infrastructure** (``infrastructure``) —
blockchains, transaction managers, notaries — which may run forever.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, ClassVar, Dict, FrozenSet, List, Mapping, Optional, Type

from ..core.session import PaymentEnv
from ..errors import ProtocolError
from ..sim.process import Process


class PaymentProtocol(ABC):
    """Base class for cross-chain payment protocols."""

    #: Registry key; subclasses must override.
    name: ClassVar[str] = ""

    #: Topology *traits* this protocol can run on.  A topology demands
    #: the traits :func:`topology_traits` derives from its shape
    #: (``"path"``, ``"dag"``, ``"multi-source"``); a protocol declares
    #: the traits it supports, and :func:`check_supported` rejects the
    #: build when the demand exceeds the declaration.  The scenario
    #: layer reads the same declaration to *skip* unsupported campaign
    #: cells with a reason instead of erroring.
    supported_topologies: ClassVar[FrozenSet[str]] = frozenset({"path"})

    #: Whether this protocol's participants implement the durable-actor
    #: lifecycle (``checkpoint()``/``restore()`` over a write-ahead
    #: :class:`~repro.sim.decision_log.DecisionLog`), making them valid
    #: victims for the ``crash-restart`` adversary family.  The scenario
    #: layer skips crash-restart cells of protocols that do not declare
    #: it, with a reason, exactly like ``supported_topologies``.
    supports_recovery: ClassVar[bool] = False

    @classmethod
    def recovery_gap(cls, options: Mapping[str, Any]) -> Optional[str]:
        """Why a crashed participant cannot recover under ``options``.

        ``None`` when it can.  The crash-restart gate reads this with a
        cell's merged protocol options, so a protocol whose recovery
        depends on an option (the weak protocol's ``tm``) says so here.
        """
        if cls.supports_recovery:
            return None
        return f"protocol {cls.name!r} does not declare supports_recovery"

    def __init__(self, env: PaymentEnv) -> None:
        self.env = env
        #: Protocol participants (customers + escrows), by name.
        self.processes: Dict[str, Process] = {}
        #: Supporting machinery (chains, TMs, notaries), by name.
        self.infrastructure: Dict[str, Process] = {}

    # -- construction -------------------------------------------------------

    @abstractmethod
    def build(self) -> None:
        """Create and register all processes with the network."""

    def start(self) -> None:
        """Start infrastructure first, then participants."""
        for process in self.infrastructure.values():
            process.start()
        for process in self.processes.values():
            process.start()

    # -- helpers ---------------------------------------------------------------

    @property
    def options(self) -> Dict[str, Any]:
        """Protocol-specific options passed through the session."""
        return self.env.config.get("options", {})

    def option(self, key: str, default: Any = None) -> Any:
        return self.options.get(key, default)

    def add_participant(self, process: Process) -> Process:
        """Register a participant with the protocol and the network."""
        if process.name in self.processes:
            raise ProtocolError(f"duplicate participant {process.name!r}")
        self.processes[process.name] = process
        self.env.network.register(process)
        return process

    def add_infrastructure(self, process: Process) -> Process:
        """Register an infrastructure process."""
        if process.name in self.infrastructure:
            raise ProtocolError(f"duplicate infrastructure {process.name!r}")
        self.infrastructure[process.name] = process
        self.env.network.register(process)
        return process


def topology_traits(topology: Any) -> FrozenSet[str]:
    """The traits a payment graph *demands* from a protocol.

    Every graph demands either ``"path"`` (a single Figure-1 chain) or
    ``"dag"`` (anything with branching); graphs with more than one
    source additionally demand ``"multi-source"``.
    """
    traits = {"path"} if topology.is_path else {"dag"}
    if len(topology.sources()) > 1:
        traits.add("multi-source")
    return frozenset(traits)


def check_supported(topology: Any, protocol: Any) -> None:
    """Reject a topology whose traits the protocol does not declare.

    ``protocol`` may be a :class:`PaymentProtocol` class or instance.
    """
    supported = protocol.supported_topologies
    name = protocol.name
    missing = sorted(topology_traits(topology) - supported)
    if missing:
        raise ProtocolError(
            f"protocol {name!r} does not support this topology: it "
            f"demands {missing} but the protocol declares "
            f"{sorted(supported)} (sources={len(topology.sources())}, "
            f"sinks={topology.leaves})"
        )


def protocol_class(name: str) -> Type["PaymentProtocol"]:
    """The protocol class registered under ``name``."""
    _ensure_builtins_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ProtocolError(
            f"unknown protocol {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def protocol_capabilities(name: str) -> FrozenSet[str]:
    """The ``supported_topologies`` declaration of a registered protocol."""
    return protocol_class(name).supported_topologies


_REGISTRY: Dict[str, Type[PaymentProtocol]] = {}


def register_protocol(cls: Type[PaymentProtocol]) -> Type[PaymentProtocol]:
    """Class decorator adding a protocol to the registry."""
    if not cls.name:
        raise ProtocolError(f"{cls.__name__} must set a registry name")
    if cls.name in _REGISTRY:
        raise ProtocolError(f"protocol name {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def available_protocols() -> List[str]:
    """Sorted names of registered protocols."""
    _ensure_builtins_loaded()
    return sorted(_REGISTRY)


def create_protocol(name: str, env: PaymentEnv) -> PaymentProtocol:
    """Instantiate a registered protocol by name."""
    return protocol_class(name)(env)


def _ensure_builtins_loaded() -> None:
    """Import built-in protocol modules so they self-register."""
    from . import timebounded  # noqa: F401
    from . import weak  # noqa: F401
    from . import htlc  # noqa: F401
    from . import certified  # noqa: F401


__all__ = [
    "PaymentProtocol",
    "available_protocols",
    "check_supported",
    "create_protocol",
    "protocol_capabilities",
    "protocol_class",
    "register_protocol",
    "topology_traits",
]
