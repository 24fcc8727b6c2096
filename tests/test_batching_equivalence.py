"""Draw and window exactness against independent closed forms.

The timing models, the Poisson arrival schedule and the window calculus
each reduce to a short float formula.  These tests write that formula
out and compare with exact float equality, so any change to the
arithmetic or to the order of draws on a stream shows up here before
it reaches a golden fixture.
"""

from __future__ import annotations

import random
from math import log

from repro.core.params import TimingAssumptions, compute_graph_params
from repro.net.message import Envelope, MsgKind
from repro.net.timing import Asynchronous, PartialSynchrony, Synchronous
from repro.scenarios.registry import build_topology
from repro.sim.rng import RngRegistry, derive_seed
from repro.workload.arrivals import arrival_times


def _env() -> Envelope:
    return Envelope(sender="a", recipient="b", kind=MsgKind.MONEY, send_time=0.0)


class TestBatchedArrivals:
    """The Poisson schedule is a running sum of ``-log(1 - u) / rate``."""

    def test_poisson_schedule_bit_identical_to_scalar_expovariate(self):
        for seed, rate, count in ((0, 0.5, 1), (3, 2.0, 200), (42, 0.02, 57)):
            stream = RngRegistry(seed).stream("workload.arrivals")
            ref = random.Random(derive_seed(seed, "workload.arrivals"))
            times = arrival_times("poisson", count, rate, stream)
            t, scalar = 0.0, []
            for _ in range(count):
                t += -log(1.0 - ref.random()) / rate
                scalar.append(t)
            assert times == scalar, (seed, rate, count)


class TestBufferedTimingDraws:
    """Timing models consume the ``network.delays`` stream one raw
    uniform per sample, through the formulas written out below."""

    def test_synchronous_delivery_times_match_scalar_formula(self):
        model = Synchronous(delta=2.0, min_delay=0.25, jitter=0.8)
        stream = RngRegistry(5).stream("network.delays")
        ref = random.Random(derive_seed(5, "network.delays"))
        hi = 0.25 + 0.8 * (2.0 - 0.25)
        for i in range(600):
            expected = min(0.25 + (hi - 0.25) * ref.random(), 2.0)
            assert model.delivery_time(_env(), float(i), stream) == float(i) + expected

    def test_synchronous_sample_delay_matches_scalar_formula(self):
        model = Synchronous(delta=1.0)
        stream = RngRegistry(5).stream("network.delays")
        ref = random.Random(derive_seed(5, "network.delays"))
        for _ in range(300):
            assert model.sample_delay(_env(), 0.0, stream) == ref.random()

    def test_synchronous_without_jitter_draws_nothing(self):
        model = Synchronous(delta=1.0, min_delay=0.5, jitter=0.0)
        stream = RngRegistry(5).stream("network.delays")
        ref = random.Random(derive_seed(5, "network.delays"))
        for i in range(10):
            assert model.delivery_time(_env(), float(i), stream) == float(i) + 0.5
        assert stream.random() == ref.random()

    def test_partial_synchrony_draws_match_both_regimes(self):
        model = PartialSynchrony(gst=10.0, delta=1.0, pre_gst_scale=4.0)
        stream = RngRegistry(8).stream("network.delays")
        ref = random.Random(derive_seed(8, "network.delays"))
        for i in range(400):
            send = float(i % 20)  # alternate pre- and post-GST sends
            got = model.sample_delay(_env(), send, stream)
            if send >= model.gst:
                assert got == 1.0 * ref.random()
            else:
                raw = -log(1.0 - ref.random()) / (1.0 / (4.0 * 1.0))
                assert got == min(raw, model.deadline(send) - send)

    def test_asynchronous_draws_match_scalar_expovariate(self):
        model = Asynchronous(mean_delay=3.0, max_delay=50.0)
        stream = RngRegistry(2).stream("network.delays")
        ref = random.Random(derive_seed(2, "network.delays"))
        for _ in range(400):
            got = model.sample_delay(_env(), 0.0, stream)
            assert got == min(-log(1.0 - ref.random()) / (1.0 / 3.0), 50.0)


class TestVectorisedWindows:
    """The graph window calculus against the closed form of ``H``."""

    #: (n, Δ, ε, ρ, drift_tuned, margin)
    CASES = (
        (1, 1.0, 0.0, 0.0, True, 0.0),
        (3, 1.0, 0.1, 0.0, True, 0.0),
        (5, 0.7, 0.3, 0.02, True, 0.5),
        (8, 2.5, 0.0, 0.05, True, 0.0),
        (4, 1.0, 0.2, 0.05, False, 1.25),
        (12, 0.001, 1e-4, 0.1, True, 1e-6),
    )

    @staticmethod
    def _check(params, escrow, hops, t, tuned, margin):
        # H = 2Δ + ε + h·(4Δ + 4ε), written out rather than imported.
        h = 2 * t.delta + t.epsilon + hops * (4 * t.delta + 4 * t.epsilon)
        inflation = (1.0 + t.rho) if tuned else 1.0
        a = inflation * h + margin
        assert params.a_of(escrow) == a, escrow
        assert params.d_of(escrow) == a + 2.0 * inflation * t.epsilon + margin

    def test_graph_windows_bit_identical_to_per_escrow_recursion(self):
        for n, delta, eps, rho, tuned, margin in self.CASES:
            t = TimingAssumptions(delta=delta, epsilon=eps, rho=rho)
            path = build_topology(f"linear-{n}")
            params = compute_graph_params(path, t, drift_tuned=tuned, margin=margin)
            for i in range(n):
                # e_i has n-1-i hops between it and Bob.
                self._check(params, path.escrow(i), n - 1 - i, t, tuned, margin)
            # Latest deposit + e_0's window on a slow clock + cascade.
            step = 2 * delta + 2 * eps
            assert params.global_termination_bound() == (
                n * step + eps + params.a_of(path.escrow(0)) / (1.0 - rho)
                + (n + 1) * step
            )
            for name in ("tree-2", "hub-3", "fan-in-3"):
                graph = build_topology(name, payment_id=f"win-{name}")
                params = compute_graph_params(
                    graph, t, drift_tuned=tuned, margin=margin
                )
                for edge in graph.edges:
                    hops = graph.depth_to_sink(edge.downstream)
                    skew = max(
                        (
                            graph.depth_from_source(sink)
                            for sink in graph.reachable_sinks(edge.downstream)
                            if len(graph.in_edges(sink)) > 1
                        ),
                        default=0,
                    )
                    self._check(params, edge.escrow, hops + skew, t, tuned, margin)
