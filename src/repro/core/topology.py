"""Payment topologies: the Figure-1 path and its DAG generalisation.

The conference version of the paper states the cross-chain payment
problem over the path of Figure 1; the journal version (arXiv:
1912.04513) poses it over general customer/escrow structures, and
hub-and-spoke graphs dominate deployed networks (Boros, arXiv:
1911.12929).  This module models both:

* :class:`PaymentGraph` — the general shape: an explicit set of *hop
  edges* ``(upstream customer, escrow, downstream customer, amount)``
  forming a DAG, with every relation protocols and property checkers
  need (``sources``/``sinks``, ``in_edges``/``out_edges``,
  ``escrows_of_customer``, the funding plan, ``depth``/``leaves``)
  derived from the edge set instead of index arithmetic.
* :class:`PaymentTopology` — the Figure-1 path as a thin constructor
  over the graph: ``n`` escrows and ``n+1`` customers on a line::

      c0 ── e0 ── c1 ── e1 ── ... ── c(n-1) ── e(n-1) ── cn
    Alice      Chloe1                Chloe(n-1)         Bob

Customers hold accounts only at the escrows of their incident edges
and trust no one else; value moves only between the two customers of
an edge, mediated by that edge's escrow.  Each edge carries its own
amount (possibly in its own asset): connectors charge a commission, so
on the path ``amount[0] ≥ amount[1] ≥ … ≥ amount[n-1]`` in typical
scenarios — though the library imposes no ordering, since pricing is
orthogonal (paper §2).

Naming discipline: every registry topology names customers ``c<i>`` in
first-appearance order and escrows ``e<j>`` in edge order, which is
what lets :meth:`PaymentGraph.customer_index` /
:meth:`PaymentGraph.escrow_index` answer in O(1) by parsing the name
instead of scanning the participant lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ProtocolError
from ..ledger.asset import Amount


@dataclass(frozen=True)
class HopEdge:
    """One hop of a payment: an escrow moving value between two customers.

    Attributes
    ----------
    upstream:
        The customer the value comes from (holds an account at
        ``escrow`` and funds the hop).
    escrow:
        The escrow mediating this hop.  Escrows mediate exactly one
        hop, so the escrow name doubles as the edge's identity.
    downstream:
        The customer the value goes to.
    amount:
        The value moved through this hop (asset + units).
    """

    upstream: str
    escrow: str
    downstream: str
    amount: Amount

    def __post_init__(self) -> None:
        if not self.amount.is_positive:
            raise ProtocolError(
                f"hop amounts must be positive, got {self.amount!r}"
            )
        if self.upstream == self.downstream:
            raise ProtocolError(
                f"hop {self.escrow!r} cannot pay {self.upstream!r} to itself"
            )


@dataclass(frozen=True)
class PaymentGraph:
    """Names, accounts, and per-hop amounts for one payment DAG."""

    edges: Tuple[HopEdge, ...]
    payment_id: str = "payment"

    def __post_init__(self) -> None:
        if not self.edges:
            raise ProtocolError("need at least one hop edge")
        seen_escrows = set()
        for edge in self.edges:
            if edge.escrow in seen_escrows:
                raise ProtocolError(
                    f"escrow {edge.escrow!r} mediates two hops; escrows "
                    "mediate exactly one hop each"
                )
            seen_escrows.add(edge.escrow)
        customers = set()
        for edge in self.edges:
            customers.add(edge.upstream)
            customers.add(edge.downstream)
        overlap = customers & seen_escrows
        if overlap:
            raise ProtocolError(
                f"names used as both customer and escrow: {sorted(overlap)}"
            )
        self._check_acyclic_and_connected()

    def _check_acyclic_and_connected(self) -> None:
        """Kahn's algorithm over customers; also rejects split graphs."""
        indegree: Dict[str, int] = {}
        out: Dict[str, List[str]] = {}
        for edge in self.edges:
            indegree.setdefault(edge.upstream, 0)
            indegree[edge.downstream] = indegree.get(edge.downstream, 0) + 1
            out.setdefault(edge.upstream, []).append(edge.downstream)
        frontier = [c for c, deg in indegree.items() if deg == 0]
        if not frontier:
            raise ProtocolError("payment graph has no source: it is cyclic")
        visited = 0
        degrees = dict(indegree)
        while frontier:
            node = frontier.pop()
            visited += 1
            for succ in out.get(node, ()):
                degrees[succ] -= 1
                if degrees[succ] == 0:
                    frontier.append(succ)
        if visited != len(indegree):
            raise ProtocolError("payment graph contains a cycle")
        # Weak connectivity: a payment is one flow, not several.
        undirected: Dict[str, List[str]] = {}
        for edge in self.edges:
            undirected.setdefault(edge.upstream, []).append(edge.downstream)
            undirected.setdefault(edge.downstream, []).append(edge.upstream)
        stack = [self.edges[0].upstream]
        reached = set()
        while stack:
            node = stack.pop()
            if node in reached:
                continue
            reached.add(node)
            stack.extend(undirected[node])
        if reached != set(indegree):
            raise ProtocolError(
                "payment graph is disconnected: "
                f"{sorted(set(indegree) - reached)} unreachable"
            )

    # -- construction -------------------------------------------------------

    @classmethod
    def linear(
        cls,
        n_escrows: int,
        base_units: int = 100,
        commission_units: int = 1,
        asset: str = "X",
        per_hop_assets: bool = False,
        payment_id: str = "payment",
    ) -> "PaymentTopology":
        """The Figure-1 chain (see :meth:`PaymentTopology.linear`)."""
        return PaymentTopology.linear(
            n_escrows,
            base_units=base_units,
            commission_units=commission_units,
            asset=asset,
            per_hop_assets=per_hop_assets,
            payment_id=payment_id,
        )

    def with_payment_id(self, payment_id: str) -> "PaymentGraph":
        """A relabelled clone sharing this graph's edges and caches.

        Campaign trials build the *same* shape thousands of times under
        per-trial payment ids; the shape's structural validation and
        derived relations depend only on the edges, so the clone skips
        ``__post_init__`` and shares every already-warmed
        ``cached_property`` value (all derived tables are treated as
        read-only).  Returns ``self`` when the id already matches.
        """
        if payment_id == self.payment_id:
            return self
        clone = object.__new__(type(self))
        # Frozen dataclasses (without __slots__) keep fields and warmed
        # cached_property values in __dict__; copy it wholesale, then
        # override the label.
        clone.__dict__.update(self.__dict__)
        object.__setattr__(clone, "payment_id", payment_id)
        return clone

    # -- names -----------------------------------------------------------------

    @cached_property
    def _customers(self) -> Tuple[str, ...]:
        """Customers in first-appearance (edge) order.

        Registry builders list edges source-first, so this order is
        topological for every shipped topology — and exactly
        ``c0 … cn`` on the Figure-1 path.
        """
        seen: Dict[str, None] = {}
        for edge in self.edges:
            seen.setdefault(edge.upstream)
            seen.setdefault(edge.downstream)
        return tuple(seen)

    @cached_property
    def _in_edges(self) -> Dict[str, Tuple[HopEdge, ...]]:
        table: Dict[str, List[HopEdge]] = {c: [] for c in self._customers}
        for edge in self.edges:
            table[edge.downstream].append(edge)
        return {c: tuple(edges) for c, edges in table.items()}

    @cached_property
    def _out_edges(self) -> Dict[str, Tuple[HopEdge, ...]]:
        table: Dict[str, List[HopEdge]] = {c: [] for c in self._customers}
        for edge in self.edges:
            table[edge.upstream].append(edge)
        return {c: tuple(edges) for c, edges in table.items()}

    @property
    def n_escrows(self) -> int:
        """Hop count (escrows mediate exactly one hop each)."""
        return len(self.edges)

    @property
    def n_customers(self) -> int:
        return len(self._customers)

    @cached_property
    def amounts(self) -> Tuple[Amount, ...]:
        """Per-hop amounts in edge order (``amounts[i]`` of the path)."""
        return tuple(edge.amount for edge in self.edges)

    @cached_property
    def assets(self) -> Tuple[str, ...]:
        """Sorted unique asset names across all hops."""
        return tuple(sorted({edge.amount.asset for edge in self.edges}))

    def customer(self, i: int) -> str:
        """Name of the ``i``-th customer (0 = Alice on the path)."""
        if not (0 <= i < self.n_customers):
            raise ProtocolError(f"customer index {i} out of range")
        return self._customers[i]

    def escrow(self, i: int) -> str:
        """Name of the ``i``-th escrow (edge order)."""
        if not (0 <= i < self.n_escrows):
            raise ProtocolError(f"escrow index {i} out of range")
        return self.edges[i].escrow

    @property
    def alice(self) -> str:
        """The unique payment source (raises on multi-source graphs)."""
        sources = self.sources()
        if len(sources) != 1:
            raise ProtocolError(
                f"graph has {len(sources)} sources, not one: {sources}"
            )
        return sources[0]

    @property
    def bob(self) -> str:
        """The unique recipient; multi-sink graphs must use :meth:`sinks`."""
        sinks = self.sinks()
        if len(sinks) != 1:
            raise ProtocolError(
                f"graph has {len(sinks)} sinks, not one: {sinks}"
            )
        return sinks[0]

    def connectors(self) -> List[str]:
        """Customers with both incoming and outgoing hops (the Chloes)."""
        return [
            c
            for c in self._customers
            if self._in_edges[c] and self._out_edges[c]
        ]

    def customers(self) -> List[str]:
        return list(self._customers)

    def escrows(self) -> List[str]:
        return [edge.escrow for edge in self.edges]

    def participants(self) -> List[str]:
        """All participant names (customers first, then escrows)."""
        return self.customers() + self.escrows()

    def sources(self) -> List[str]:
        """Customers with no incoming hop — where the money starts."""
        return [c for c in self._customers if not self._in_edges[c]]

    def sinks(self) -> List[str]:
        """Customers with no outgoing hop — the payment's recipients."""
        return [c for c in self._customers if not self._out_edges[c]]

    # -- relations ----------------------------------------------------------------

    def in_edges(self, customer: str) -> Tuple[HopEdge, ...]:
        """Hops paying *into* ``customer`` (edge order)."""
        try:
            return self._in_edges[customer]
        except KeyError:
            raise ProtocolError(f"not a customer name: {customer!r}") from None

    def out_edges(self, customer: str) -> Tuple[HopEdge, ...]:
        """Hops funded *by* ``customer`` (edge order)."""
        try:
            return self._out_edges[customer]
        except KeyError:
            raise ProtocolError(f"not a customer name: {customer!r}") from None

    def escrows_of_customer(self, customer) -> List[str]:
        """The escrow(s) a customer holds accounts at and trusts.

        Accepts a customer name or (for path-era callers) an index;
        incoming hops' escrows come first, as on the path.
        """
        name = self.customer(customer) if isinstance(customer, int) else customer
        return [e.escrow for e in self.in_edges(name)] + [
            e.escrow for e in self.out_edges(name)
        ]

    def customer_index(self, name: str) -> int:
        """Inverse of :meth:`customer`, O(1) via the ``c<i>`` naming."""
        index = _parse_indexed_name(name, "c")
        if (
            index is not None
            and index < self.n_customers
            and self._customers[index] == name
        ):
            return index
        # Non-standard names (hand-built graphs) fall back to a scan.
        try:
            return self._customer_positions[name]
        except KeyError:
            raise ProtocolError(f"not a customer name: {name!r}") from None

    @cached_property
    def _customer_positions(self) -> Dict[str, int]:
        return {name: i for i, name in enumerate(self._customers)}

    def escrow_index(self, name: str) -> int:
        """Inverse of :meth:`escrow`, O(1) via the ``e<i>`` naming."""
        index = _parse_indexed_name(name, "e")
        if (
            index is not None
            and index < self.n_escrows
            and self.edges[index].escrow == name
        ):
            return index
        try:
            return self._escrow_positions[name]
        except KeyError:
            raise ProtocolError(f"not an escrow name: {name!r}") from None

    @cached_property
    def _escrow_positions(self) -> Dict[str, int]:
        return {edge.escrow: i for i, edge in enumerate(self.edges)}

    def amount_at(self, escrow_index: int) -> Amount:
        """The value moved through the ``i``-th escrow."""
        return self.amounts[escrow_index]

    # -- shape ------------------------------------------------------------------

    @cached_property
    def _is_path(self) -> bool:
        if len(self.sources()) != 1 or len(self.sinks()) != 1:
            return False
        return all(
            len(self._in_edges[c]) <= 1 and len(self._out_edges[c]) <= 1
            for c in self._customers
        )

    @property
    def is_path(self) -> bool:
        """Whether this graph is the paper's Figure-1 chain shape."""
        return self._is_path

    @cached_property
    def _depth_to_sink(self) -> Dict[str, int]:
        """Longest remaining hop count from each customer to a sink."""
        depths: Dict[str, int] = {}

        order: List[str] = []
        # Reverse-topological order via repeated relaxation (the graph
        # is a validated DAG, so |customers| passes always suffice).
        remaining = {
            c: len(self._out_edges[c]) for c in self._customers
        }
        frontier = [c for c, deg in remaining.items() if deg == 0]
        incoming = self._in_edges
        while frontier:
            node = frontier.pop()
            order.append(node)
            for edge in incoming[node]:
                remaining[edge.upstream] -= 1
                if remaining[edge.upstream] == 0:
                    frontier.append(edge.upstream)
        for node in order:
            outs = self._out_edges[node]
            depths[node] = (
                0 if not outs else 1 + max(depths[e.downstream] for e in outs)
            )
        return depths

    def depth_to_sink(self, customer: str) -> int:
        """Longest path (in hops) from ``customer`` to any sink."""
        try:
            return self._depth_to_sink[customer]
        except KeyError:
            raise ProtocolError(f"not a customer name: {customer!r}") from None

    @cached_property
    def _depth_from_source(self) -> Dict[str, int]:
        """Longest hop count from any source down to each customer."""
        depths: Dict[str, int] = {}
        # _depth_to_sink's keys are in reverse-topological (sinks-first)
        # order, so walking them backwards visits every upstream
        # customer before its downstream ones.
        for node in reversed(list(self._depth_to_sink)):
            ins = self._in_edges[node]
            depths[node] = (
                0 if not ins else 1 + max(depths[e.upstream] for e in ins)
            )
        return depths

    def depth_from_source(self, customer: str) -> int:
        """Longest path (in hops) from any source down to ``customer``."""
        try:
            return self._depth_from_source[customer]
        except KeyError:
            raise ProtocolError(f"not a customer name: {customer!r}") from None

    @property
    def depth(self) -> int:
        """Longest source-to-sink path length in hops (``n`` on the path)."""
        return max(self._depth_to_sink[s] for s in self.sources())

    @property
    def leaves(self) -> int:
        """Recipient count (1 on the path)."""
        return len(self.sinks())

    @cached_property
    def _reachable_sinks(self) -> Dict[str, Tuple[str, ...]]:
        """Sinks reachable from each customer, in sink order."""
        sink_order = {name: i for i, name in enumerate(self.sinks())}
        reach: Dict[str, set] = {}
        # _depth_to_sink's keys are in reverse-topological (sinks-first)
        # order, so every downstream set exists before it is needed.
        for node in self._depth_to_sink:
            outs = self._out_edges[node]
            if not outs:
                reach[node] = {node}
            else:
                acc: set = set()
                for edge in outs:
                    acc |= reach[edge.downstream]
                reach[node] = acc
        return {
            node: tuple(sorted(names, key=sink_order.__getitem__))
            for node, names in reach.items()
        }

    def reachable_sinks(self, customer: str) -> Tuple[str, ...]:
        """The recipients downstream of ``customer`` (itself, if a sink)."""
        try:
            return self._reachable_sinks[customer]
        except KeyError:
            raise ProtocolError(f"not a customer name: {customer!r}") from None

    # -- funding plan -----------------------------------------------------------------

    def funding_plan(self) -> Dict[str, List[Tuple[str, Amount]]]:
        """Initial balances: escrow name -> [(customer, amount)].

        Each hop's upstream customer needs that hop's amount at that
        hop's escrow (the value she forwards); sinks need nothing.
        Accounts for both customers of each escrow are opened
        regardless.
        """
        plan: Dict[str, List[Tuple[str, Amount]]] = {}
        for edge in self.edges:
            plan[edge.escrow] = [(edge.upstream, edge.amount)]
        return plan

    def describe(self) -> str:
        """One-line picture of a path (Figure 1); edge list otherwise."""
        if self.is_path:
            parts = [self.sources()[0]]
            for edge in self.edges:
                parts.append(f"--[{edge.escrow}: {edge.amount!r}]--")
                parts.append(edge.downstream)
            return " ".join(parts)
        lines = [
            f"{edge.upstream} --[{edge.escrow}: {edge.amount!r}]--> "
            f"{edge.downstream}"
            for edge in self.edges
        ]
        return "\n".join(lines)


def _parse_indexed_name(name: str, prefix: str) -> Optional[int]:
    """``c7``/``e12`` -> 7/12; None when the name is not of that shape."""
    if len(name) < 2 or not name.startswith(prefix):
        return None
    digits = name[1:]
    if not digits.isdigit():
        return None
    return int(digits)


class PaymentTopology(PaymentGraph):
    """The Figure-1 path, as a thin constructor over :class:`PaymentGraph`.

    ``PaymentTopology(n_escrows=n, amounts=(...))`` builds the chain
    ``c0 ─e0─ c1 ─ … ─ e(n-1)─ cn`` with one :class:`HopEdge` per
    escrow; every derived relation (names, funding plan, indices)
    comes from the graph machinery and matches the historical
    index-arithmetic behaviour exactly.
    """

    def __init__(
        self,
        n_escrows: int,
        amounts: Sequence[Amount],
        payment_id: str = "payment",
    ) -> None:
        if n_escrows < 1:
            raise ProtocolError("need at least one escrow")
        if len(amounts) != n_escrows:
            raise ProtocolError(
                f"need one amount per escrow: {n_escrows} escrows, "
                f"{len(amounts)} amounts"
            )
        edges = tuple(
            HopEdge(
                upstream=f"c{i}",
                escrow=f"e{i}",
                downstream=f"c{i + 1}",
                amount=amounts[i],
            )
            for i in range(n_escrows)
        )
        super().__init__(edges=edges, payment_id=payment_id)

    @classmethod
    def linear(
        cls,
        n_escrows: int,
        base_units: int = 100,
        commission_units: int = 1,
        asset: str = "X",
        per_hop_assets: bool = False,
        payment_id: str = "payment",
    ) -> "PaymentTopology":
        """A standard chain: Bob receives ``base_units``; each upstream
        hop adds ``commission_units`` so every connector earns her fee.

        With ``per_hop_assets=True`` each escrow uses its own asset code
        (``X0``, ``X1``, ...), modelling payments across different
        currencies or blockchains.
        """
        if n_escrows < 1:
            raise ProtocolError("need at least one escrow")
        amounts = []
        for i in range(n_escrows):
            units = base_units + commission_units * (n_escrows - 1 - i)
            code = f"{asset}{i}" if per_hop_assets else asset
            amounts.append(Amount(code, units))
        return cls(
            n_escrows=n_escrows, amounts=tuple(amounts), payment_id=payment_id
        )


__all__ = ["HopEdge", "PaymentGraph", "PaymentTopology"]
