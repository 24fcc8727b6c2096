"""Exception hierarchy for the :mod:`repro` library.

Every exception raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting genuine programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly.

    Examples: scheduling an event in the past, running a simulator that
    has already been exhausted, or cancelling a foreign event.
    """


class SchedulingError(SimulationError):
    """An event could not be scheduled (e.g. negative delay)."""


class RecoveryError(SimulationError):
    """The crash–recovery machinery was misused or hit corruption.

    Examples: a fault plan naming an unknown crash point or victim, or
    a decision log whose byte stream is corrupt *before* its final
    (salvageable) record.
    """


class ClockError(ReproError):
    """A local clock was configured with invalid parameters.

    A clock rate must be strictly positive; a drift bound must lie in
    ``[0, 1)``.
    """


class NetworkError(ReproError):
    """Message routing failed (unknown recipient, closed network, ...)."""


class TimingModelError(NetworkError):
    """A timing model was configured with invalid parameters."""


class CryptoError(ReproError):
    """A cryptographic object is malformed (a signed statement's window
    or decision, a hash-lock digest, an identity name)."""


class LedgerError(ReproError):
    """An operation on a ledger violated its invariants."""


class InsufficientFunds(LedgerError):
    """A transfer or escrow deposit exceeded the available balance."""


class UnknownAccount(LedgerError):
    """An account id was not registered with the ledger."""


class EscrowStateError(LedgerError):
    """An escrow sub-account was driven through an illegal transition."""


class ContractError(LedgerError):
    """A smart-contract invocation was rejected."""


class BlockchainError(LedgerError):
    """A blockchain operation failed (bad block, unknown tx, ...)."""


class AutomatonError(ReproError):
    """A timed automaton was built or driven incorrectly."""


class ProtocolError(ReproError):
    """A protocol assembly is inconsistent (bad topology, parameters...)."""


class ParameterError(ProtocolError):
    """Timeout-parameter calculus received invalid inputs."""


class ConsensusError(ReproError):
    """The notary-committee consensus was misconfigured."""


class DealError(ReproError):
    """A cross-chain deal matrix or deal protocol is malformed."""


class VerificationError(ReproError):
    """The bounded exhaustive explorer hit an internal inconsistency."""


class ExperimentError(ReproError):
    """An experiment harness was configured incorrectly."""


class ScenarioError(ExperimentError):
    """A scenario campaign referenced an unknown or invalid axis value."""


class PersistenceError(ExperimentError):
    """A persisted sweep directory is missing, malformed, or mismatched."""


class WorkloadError(ExperimentError):
    """A workload spec is invalid or a workload invariant was violated."""
