"""Deal matrices and their digraphs (Herlihy–Liskov–Shrira).

A cross-chain *deal* among parties ``p_0 … p_{k-1}`` is a matrix ``M``
where ``M[i][j]`` lists the asset amount party ``i`` transfers to party
``j``.  Equivalently a digraph with an arc ``i -> j`` labelled ``v``
iff ``M[i][j] = v ≠ 0``.  The protocols of [3] are proven correct for
**well-formed** deals: those whose digraph is strongly connected.

This module is dependency-free (strong connectivity via Kosaraju);
:func:`to_networkx` is offered for analysis when networkx is installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from ..errors import DealError
from ..ledger.asset import Amount

Arc = Tuple[int, int]


@dataclass(frozen=True)
class DealMatrix:
    """The matrix ``M`` of one cross-chain deal."""

    parties: Tuple[str, ...]
    entries: Tuple[Tuple[int, int, Amount], ...]  # (i, j, amount)

    def __post_init__(self) -> None:
        if len(set(self.parties)) != len(self.parties):
            raise DealError("party names must be distinct")
        k = len(self.parties)
        seen: Set[Arc] = set()
        for i, j, amount in self.entries:
            if not (0 <= i < k and 0 <= j < k):
                raise DealError(f"arc ({i},{j}) out of range for {k} parties")
            if i == j:
                raise DealError(f"self-transfer at party {i}")
            if (i, j) in seen:
                raise DealError(f"duplicate arc ({i},{j})")
            if not amount.is_positive:
                raise DealError(f"arc ({i},{j}) must carry positive value")
            seen.add((i, j))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_dict(
        cls, parties: Sequence[str], arcs: Dict[Arc, Amount]
    ) -> "DealMatrix":
        return cls(
            parties=tuple(parties),
            entries=tuple((i, j, amt) for (i, j), amt in sorted(arcs.items())),
        )

    @classmethod
    def cycle(
        cls, parties: Sequence[str], units: int = 100, asset_prefix: str = "A"
    ) -> "DealMatrix":
        """A circular swap: each party pays the next, distinct assets."""
        k = len(parties)
        if k < 2:
            raise DealError("a cycle needs at least two parties")
        arcs = {
            (i, (i + 1) % k): Amount(f"{asset_prefix}{i}", units) for i in range(k)
        }
        return cls.from_dict(parties, arcs)

    @classmethod
    def path(
        cls, parties: Sequence[str], units: int = 100, asset: str = "A"
    ) -> "DealMatrix":
        """A one-way chain — the shape of a cross-chain *payment*.

        Deliberately **not** well-formed (no arc back), which is half of
        the Section 5 separation argument.
        """
        k = len(parties)
        if k < 2:
            raise DealError("a path needs at least two parties")
        arcs = {(i, i + 1): Amount(asset, units) for i in range(k - 1)}
        return cls.from_dict(parties, arcs)

    @classmethod
    def clique(
        cls, parties: Sequence[str], units: int = 10, asset_prefix: str = "A"
    ) -> "DealMatrix":
        """Everybody pays everybody (dense market deal)."""
        k = len(parties)
        arcs = {}
        for i in range(k):
            for j in range(k):
                if i != j:
                    arcs[(i, j)] = Amount(f"{asset_prefix}{i}", units)
        return cls.from_dict(parties, arcs)

    # -- structure ---------------------------------------------------------------

    @property
    def n_parties(self) -> int:
        return len(self.parties)

    def arcs(self) -> List[Tuple[int, int, Amount]]:
        return list(self.entries)

    def out_arcs(self, i: int) -> List[Tuple[int, Amount]]:
        return [(j, amt) for (a, j, amt) in self.entries if a == i]

    def in_arcs(self, j: int) -> List[Tuple[int, Amount]]:
        return [(i, amt) for (i, b, amt) in self.entries if b == j]

    def successors(self, i: int) -> List[int]:
        return [j for (a, j, _amt) in self.entries if a == i]

    def predecessors(self, j: int) -> List[int]:
        return [i for (i, b, _amt) in self.entries if b == j]

    # -- well-formedness ------------------------------------------------------------

    def is_well_formed(self) -> bool:
        """Strong connectivity of the deal digraph (definition of [3])."""
        k = self.n_parties
        if k == 0:
            return False
        # Parties with no arcs at all make the graph trivially disconnected:
        touched = {i for (i, _j, _a) in self.entries} | {
            j for (_i, j, _a) in self.entries
        }
        if touched != set(range(k)):
            return False
        return (
            self._reaches_all(0, self.successors)
            and self._reaches_all(0, self.predecessors)
        )

    def _reaches_all(self, start: int, step) -> bool:
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in step(node):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen) == self.n_parties

    def distances_to(self, target: int) -> Dict[int, int]:
        """BFS distance from each party to ``target`` along arcs.

        Used by the timelock protocol: the secret propagates backwards
        along arcs, so a party at distance ``d`` learns it after ``d``
        claim steps.
        """
        dist = {target: 0}
        frontier = [target]
        while frontier:
            node = frontier.pop(0)
            for pred in self.predecessors(node):
                if pred not in dist:
                    dist[pred] = dist[node] + 1
                    frontier.append(pred)
        return dist

    def party_delta_on_completion(self, i: int) -> Dict[str, int]:
        """Per-asset position change of party ``i`` if every transfer
        happens."""
        delta: Dict[str, int] = {}
        for j, amt in self.in_arcs(i):
            delta[amt.asset] = delta.get(amt.asset, 0) + amt.units
        for j, amt in self.out_arcs(i):
            delta[amt.asset] = delta.get(amt.asset, 0) - amt.units
        return {a: u for a, u in delta.items() if u != 0}

    def to_networkx(self):  # pragma: no cover - convenience only
        """Build a ``networkx.DiGraph`` (requires networkx)."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(range(self.n_parties))
        for i, j, amt in self.entries:
            graph.add_edge(i, j, amount=amt)
        return graph


__all__ = ["Arc", "DealMatrix"]
