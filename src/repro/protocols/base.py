"""Protocol interface and registry.

A *payment protocol* consumes a :class:`~repro.core.session.PaymentEnv`
and populates it with participant processes.  Protocols register
themselves by name so sessions can be configured with plain strings
(``PaymentSession(topo, "timebounded", ...)``).

The registered class is the one place a protocol's facts live: the
definition it promises and its CS1 receipts (read by the Definition
1/2 checker), the options it reads and the ones that make it runnable
under every timing model (read by campaigns and workloads), the
topologies and crashes it survives, and — in the first line of its
docstring — its ``--list-axes`` description.  Adding a protocol means
writing one decorated class.

Every protocol distinguishes **participants** (``processes``) — the 2n+1
parties whose termination ends the session and whose conduct the
properties judge — from **infrastructure** (``infrastructure``) —
blockchains, transaction managers, notaries — which may run forever.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from abc import ABC, abstractmethod
from typing import (
    Any, ClassVar, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple,
    Type,
)

from ..core.session import PaymentEnv
from ..errors import ProtocolError
from ..sim.process import Process


class PaymentProtocol(ABC):
    """Base class for cross-chain payment protocols.

    A subclass's class attributes declare its facts, and the first line
    of its docstring is its ``--list-axes`` description.
    """

    #: Registry key; subclasses must override.
    name: ClassVar[str] = ""

    #: The paper's definition the protocol promises: 1 (time-bounded
    #: cross-chain payment) or 2 (weak guarantees with commit / abort
    #: certificates).  :func:`register_protocol` refuses a class that
    #: declares neither.
    definition: ClassVar[int] = 0

    #: Certificate kinds that discharge CS1: what an unrefunded Alice
    #: must hold on termination (χ, a revealed preimage, χc...).
    receipt_kinds: ClassVar[Tuple[str, ...]] = ()

    #: Every option ``build()`` reads.  A session option outside this
    #: set, or a read of one, raises :class:`ProtocolError`, and sweep
    #: ``--set`` overrides are validated against it up front.
    known_options: ClassVar[FrozenSet[str]] = frozenset()

    #: The options that make the protocol runnable under every timing
    #: model in the scenario registry; campaign and workload cells
    #: merge their overrides over them.
    sweep_defaults: ClassVar[Mapping[str, Any]] = {}

    #: Topology *traits* this protocol can run on.  A topology demands
    #: the traits :func:`topology_traits` derives from its shape
    #: (``"path"``, ``"dag"``, ``"multi-source"``); a protocol declares
    #: the traits it supports, and the constructor rejects the session
    #: (:func:`check_supported`) when the demand exceeds the declaration.
    #: The scenario layer reads the same declaration to *skip*
    #: unsupported campaign cells with a reason instead of erroring.
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

    @classmethod
    def check_options(cls, options: Iterable[str]) -> None:
        """Refuse any of ``options`` this protocol does not declare."""
        for option in options:
            if option not in cls.known_options:
                raise ProtocolError(
                    f"protocol {cls.name!r} has no option {option!r}; "
                    f"known options: {sorted(cls.known_options)}"
                )

    def __init__(self, env: PaymentEnv) -> None:
        self.check_options(env.config.get("options", {}))
        check_supported(env.topology, self)
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
        """The session's value of the declared option ``key``."""
        self.check_options((key,))
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
    if name not in _REGISTRY:
        _ensure_builtins_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ProtocolError(
            f"unknown protocol {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


_REGISTRY: Dict[str, Type[PaymentProtocol]] = {}


def register_protocol(cls: Type[PaymentProtocol]) -> Type[PaymentProtocol]:
    """Class decorator adding a protocol to the registry."""
    if not cls.name:
        raise ProtocolError(f"{cls.__name__} must set a registry name")
    if cls.definition not in (1, 2):
        raise ProtocolError(
            f"{cls.__name__} must declare the definition it promises "
            f"(1 or 2), got {cls.definition!r}"
        )
    cls.check_options(cls.sweep_defaults)
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
    """Import every built-in protocol package so its classes self-register."""
    for info in pkgutil.iter_modules(sys.modules[__package__].__path__):
        if info.ispkg:
            importlib.import_module(f"{__package__}.{info.name}")


__all__ = [
    "PaymentProtocol",
    "available_protocols",
    "check_supported",
    "create_protocol",
    "protocol_class",
    "register_protocol",
    "topology_traits",
]
