"""Shared machinery for deal protocols: arc escrows, sessions, outcomes.

Each arc ``(i, j)`` of a deal has its own escrow — in [3] every asset
type lives on its own blockchain, so per-arc isolation is the faithful
model.  An arc escrow owns a ledger funded with the depositor's amount;
deal outcomes are judged by summing per-party deltas across all arc
ledgers and classifying them with :mod:`repro.deals.payoff`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..clocks import DriftingClock, PERFECT_CLOCK, random_clock
from ..core.session import DEFAULT_HORIZON
from ..crypto.keys import KeyRing
from ..ledger.ledger import Ledger
from ..net.adversary import Adversary
from ..net.network import Network
from ..net.timing import TimingModel
from ..sim.kernel import Simulator
from ..sim.process import Process, run_to_completion
from .matrix import DealMatrix
from .payoff import acceptable, classify


def arc_escrow_name(i: int, j: int) -> str:
    return f"esc_{i}_{j}"


#: The processes a deal factory builds: ``(parties, escrows,
#: infrastructure)``.  Only parties and arc escrows gate completion;
#: infrastructure (chains, observers) may run forever.
DealProcesses = Tuple[List[Process], List[Process], List[Process]]


@dataclass
class DealEnv:
    """World for one deal run."""

    sim: Simulator
    network: Network
    keyring: KeyRing
    matrix: DealMatrix
    ledgers: Dict[Tuple[int, int], Ledger]
    clocks: Dict[str, DriftingClock]
    config: Dict[str, Any] = field(default_factory=dict)

    def clock_of(self, name: str) -> DriftingClock:
        return self.clocks.get(name, PERFECT_CLOCK)


@dataclass
class DealOutcome:
    """Observable result of one deal run."""

    matrix: DealMatrix
    deltas: Dict[int, Dict[str, int]]
    payoff_class: Dict[int, str]
    compliant: Dict[int, bool]
    terminated: Dict[str, bool]
    locks_unresolved: int
    end_time: float
    messages: int

    @property
    def all_transfers_happened(self) -> bool:
        """Their *strong liveness* outcome: everyone in DEAL position."""
        return all(
            self.payoff_class[i] in ("deal", "better")
            for i in range(self.matrix.n_parties)
        )

    def safety_ok(self) -> bool:
        """Their *Safety*: every compliant party's payoff acceptable."""
        return all(
            acceptable(self.matrix, i, self.deltas[i])
            for i in range(self.matrix.n_parties)
            if self.compliant.get(i, True)
        )

    def termination_ok(self) -> bool:
        """Their *Termination*: no compliant party's asset escrowed
        forever (= all locks resolved by the end of the run)."""
        return self.locks_unresolved == 0

    def summary(self) -> Dict[str, Any]:
        return {
            "safety": self.safety_ok(),
            "termination": self.termination_ok(),
            "strong_liveness": self.all_transfers_happened,
            "payoffs": dict(self.payoff_class),
            "end_time": self.end_time,
        }


class DealSession:
    """Build and run one deal protocol instance.

    Parameters mirror :class:`~repro.core.session.PaymentSession`;
    ``protocol_factory`` is a callable ``(env, byzantine, options) ->``
    :data:`DealProcesses` returning the processes to run (see
    :mod:`repro.deals.timelock` / :mod:`repro.deals.certified`).
    """

    def __init__(
        self,
        matrix: DealMatrix,
        protocol_factory: Callable[..., DealProcesses],
        timing: TimingModel,
        adversary: Optional[Adversary] = None,
        seed: int = 0,
        rho: float = 0.0,
        byzantine: Optional[Dict[int, str]] = None,
        options: Optional[Dict[str, Any]] = None,
        horizon: float = DEFAULT_HORIZON,
    ) -> None:
        self.matrix = matrix
        self.protocol_factory = protocol_factory
        self.timing = timing
        self.adversary = adversary
        self.seed = seed
        self.rho = rho
        self.byzantine = dict(byzantine or {})
        self.options = dict(options or {})
        self.horizon = horizon

    def _build_env(self) -> DealEnv:
        sim = Simulator(seed=self.seed)
        network = Network(sim, self.timing, self.adversary)
        keyring = KeyRing()
        ledgers: Dict[Tuple[int, int], Ledger] = {}
        for i, j, amount in self.matrix.arcs():
            ledger = Ledger(name=arc_escrow_name(i, j), sim=sim)
            ledger.open_account(self.matrix.parties[i])
            ledger.open_account(self.matrix.parties[j])
            ledger.mint(self.matrix.parties[i], amount)
            ledgers[(i, j)] = ledger
        clocks: Dict[str, DriftingClock] = {}
        if self.rho > 0:
            names = list(self.matrix.parties) + [
                arc_escrow_name(i, j) for i, j, _ in self.matrix.arcs()
            ]
            for name in names:
                clocks[name] = random_clock(
                    sim.rng.stream(f"clock.{name}"), self.rho
                )
        return DealEnv(
            sim=sim,
            network=network,
            keyring=keyring,
            matrix=self.matrix,
            ledgers=ledgers,
            clocks=clocks,
            config={"byzantine": self.byzantine, "options": self.options},
        )

    def run(self) -> DealOutcome:
        env = self._build_env()
        parties, escrows, infrastructure = self.protocol_factory(
            env, self.byzantine, self.options
        )
        for process in infrastructure + escrows + parties:
            env.network.register(process)
            process.start()
        run_to_completion(env.sim, parties + escrows, self.horizon)
        return self._collect(env, parties, escrows)

    def _collect(
        self, env: DealEnv, parties: List[Process], escrows: List[Process]
    ) -> DealOutcome:
        deltas: Dict[int, Dict[str, int]] = {}
        for p in range(self.matrix.n_parties):
            name = self.matrix.parties[p]
            delta: Dict[str, int] = {}
            for (i, j), ledger in env.ledgers.items():
                if not ledger.has_account(name):
                    continue
                for asset, units in ledger.account(name).snapshot().items():
                    delta[asset] = delta.get(asset, 0) + units
            # Subtract the initial funding (depositor side):
            for j, amount in self.matrix.out_arcs(p):
                delta[amount.asset] = delta.get(amount.asset, 0) - amount.units
            deltas[p] = {a: u for a, u in delta.items() if u != 0}
        unresolved = sum(
            len([l for l in ledger.locks() if l.held])
            for ledger in env.ledgers.values()
        )
        return DealOutcome(
            matrix=self.matrix,
            deltas=deltas,
            payoff_class={
                p: classify(self.matrix, p, deltas[p])
                for p in range(self.matrix.n_parties)
            },
            compliant={
                p: p not in self.byzantine for p in range(self.matrix.n_parties)
            },
            terminated={pr.name: pr.terminated for pr in parties},
            locks_unresolved=unresolved,
            end_time=env.sim.now,
            messages=env.network.stats.sent,
        )


__all__ = [
    "DealEnv",
    "DealOutcome",
    "DealProcesses",
    "DealSession",
    "arc_escrow_name",
]
