"""Unit tests: timing models, adversaries, and the network router."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import NetworkError, TimingModelError
from repro.net.adversary import (
    CertificateWithholdingAdversary,
    CompositeAdversary,
    EdgeDelayAdversary,
    FirstWindowAdversary,
    HOLD,
    KindDelayAdversary,
    NullAdversary,
    RecordingAdversary,
)
from repro.net.message import Envelope, MsgKind
from repro.net.network import Network
from repro.net.timing import Asynchronous, PartialSynchrony, Synchronous
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.rng import RngRegistry


def _env(kind=MsgKind.MONEY, sender="a", recipient="b", send_time=0.0):
    return Envelope(sender=sender, recipient=recipient, kind=kind, send_time=send_time)


class TestSynchronous:
    def test_known_bound_published(self):
        assert Synchronous(2.0).known_bound == 2.0

    def test_clamp_caps_at_delta(self):
        model = Synchronous(2.0)
        assert model.clamp(_env(), 0.0, 100.0) == 2.0

    def test_clamp_respects_min_delay(self):
        model = Synchronous(2.0, min_delay=0.5)
        assert model.clamp(_env(), 0.0, 0.0) == 0.5

    def test_sample_within_bounds(self):
        model = Synchronous(2.0, min_delay=0.5)
        rng = RngRegistry(1).stream("d")
        for _ in range(100):
            d = model.sample_delay(_env(), 0.0, rng)
            assert 0.5 <= d <= 2.0

    def test_invalid_parameters(self):
        with pytest.raises(TimingModelError):
            Synchronous(0.0)
        with pytest.raises(TimingModelError):
            Synchronous(1.0, min_delay=2.0)
        with pytest.raises(TimingModelError):
            Synchronous(1.0, jitter=2.0)

    def test_negative_proposed_delay_rejected(self):
        model = Synchronous(1.0)
        rng = RngRegistry(1).stream("d")
        with pytest.raises(TimingModelError):
            model.delivery_time(_env(), 0.0, rng, proposed_delay=-1.0)


class TestPartialSynchrony:
    def test_no_known_bound(self):
        assert PartialSynchrony(gst=10.0, delta=1.0).known_bound is None

    def test_pre_gst_clamped_to_gst_plus_delta(self):
        model = PartialSynchrony(gst=10.0, delta=1.0)
        t = model.delivery_time(_env(send_time=2.0), 2.0, RngRegistry(1).stream("d"), HOLD)
        assert t == pytest.approx(11.0)

    def test_post_gst_behaves_synchronously(self):
        model = PartialSynchrony(gst=10.0, delta=1.0)
        t = model.delivery_time(_env(send_time=20.0), 20.0, RngRegistry(1).stream("d"), HOLD)
        assert t == pytest.approx(21.0)

    def test_deadline_formula(self):
        model = PartialSynchrony(gst=10.0, delta=1.5)
        assert model.deadline(3.0) == 11.5
        assert model.deadline(20.0) == 21.5


class TestAsynchronous:
    def test_no_known_bound(self):
        assert Asynchronous().known_bound is None

    def test_delays_finite(self):
        model = Asynchronous(mean_delay=1.0, max_delay=50.0)
        rng = RngRegistry(1).stream("d")
        for _ in range(200):
            assert model.sample_delay(_env(), 0.0, rng) <= 50.0


@given(
    gst=st.floats(min_value=0, max_value=1e4),
    delta=st.floats(min_value=0.01, max_value=100),
    send=st.floats(min_value=0, max_value=2e4),
    proposed=st.floats(min_value=0, max_value=1e18),
)
def test_partial_synchrony_never_violates_envelope(gst, delta, send, proposed):
    """Whatever the adversary proposes, delivery <= max(send, GST) + delta."""
    model = PartialSynchrony(gst=gst, delta=delta)
    envelope = _env(send_time=send)
    t = send + model.clamp(envelope, send, proposed)
    assert t <= max(send, gst) + delta + 1e-9


class Echo(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def handle_message(self, message):
        self.received.append(message)


class TestNetwork:
    def _world(self, adversary=None, timing=None):
        sim = Simulator(seed=1)
        net = Network(sim, timing or Synchronous(1.0), adversary)
        a, b = Echo(sim, "a"), Echo(sim, "b")
        net.register(a)
        net.register(b)
        return sim, net, a, b

    def test_send_and_deliver(self):
        sim, net, a, b = self._world()
        net.send(a, "b", MsgKind.MONEY, {"x": 1})
        sim.run()
        assert len(b.received) == 1
        assert b.received[0].payload == {"x": 1}

    def test_sender_attribution_is_enforced(self):
        sim, net, a, b = self._world()
        outsider = Echo(sim, "outsider")
        with pytest.raises(NetworkError):
            net.send(outsider, "b", MsgKind.MONEY)

    def test_unknown_recipient_rejected(self):
        sim, net, a, b = self._world()
        with pytest.raises(NetworkError):
            net.send(a, "nobody", MsgKind.MONEY)

    def test_duplicate_name_rejected(self):
        sim, net, a, b = self._world()
        with pytest.raises(NetworkError):
            net.register(Echo(sim, "a"))

    def test_terminated_recipient_drops_silently(self):
        sim, net, a, b = self._world()
        b.terminate()
        net.send(a, "b", MsgKind.MONEY)
        sim.run()
        assert b.received == []
        assert net.stats.delivered == 1  # delivered to the network layer

    def test_stats_counters(self):
        sim, net, a, b = self._world()
        net.send(a, "b", MsgKind.MONEY)
        net.send(a, "b", MsgKind.CERTIFICATE)
        sim.run()
        assert net.stats.sent == 2
        assert net.stats.by_kind == {"money": 1, "certificate": 1}
        assert net.stats.mean_latency() <= 1.0

    def test_delivery_within_synchronous_bound(self):
        sim, net, a, b = self._world()
        for _ in range(20):
            net.send(a, "b", MsgKind.MONEY)
        sim.run()
        for env in b.received:
            # trace carries latency; recompute from trace instead:
            pass
        assert sim.now <= 1.0


class TestAdversaries:
    def test_null_never_interferes(self):
        assert NullAdversary().propose_delay(_env(), 0.0) is None

    def test_kind_delay_targets_kind(self):
        adv = KindDelayAdversary((MsgKind.CERTIFICATE,), delay=9.0)
        assert adv.propose_delay(_env(kind=MsgKind.CERTIFICATE), 0.0) == 9.0
        assert adv.propose_delay(_env(kind=MsgKind.MONEY), 0.0) is None

    def test_kind_delay_limit(self):
        adv = KindDelayAdversary((MsgKind.MONEY,), delay=9.0, limit=1)
        assert adv.propose_delay(_env(), 0.0) == 9.0
        assert adv.propose_delay(_env(), 0.0) is None

    def test_edge_delay(self):
        adv = EdgeDelayAdversary([("a", "b")], delay=7.0)
        assert adv.propose_delay(_env(sender="a", recipient="b"), 0.0) == 7.0
        assert adv.propose_delay(_env(sender="b", recipient="a"), 0.0) is None

    def test_certificate_withholding(self):
        adv = CertificateWithholdingAdversary()
        assert adv.propose_delay(_env(kind=MsgKind.CERTIFICATE), 0.0) == HOLD
        assert adv.propose_delay(_env(kind=MsgKind.MONEY), 0.0) is None
        assert len(adv.held) == 1

    def test_first_window_counts(self):
        adv = FirstWindowAdversary(MsgKind.MONEY, delay=5.0, count=2)
        assert adv.propose_delay(_env(), 0.0) == 5.0
        assert adv.propose_delay(_env(), 0.0) == 5.0
        assert adv.propose_delay(_env(), 0.0) is None

    def test_composite_first_wins(self):
        adv = CompositeAdversary(
            KindDelayAdversary((MsgKind.MONEY,), delay=1.0),
            KindDelayAdversary((MsgKind.MONEY,), delay=2.0),
        )
        assert adv.propose_delay(_env(), 0.0) == 1.0

    def test_recording_wraps(self):
        adv = RecordingAdversary(KindDelayAdversary((MsgKind.MONEY,), delay=1.0))
        adv.propose_delay(_env(), 0.0)
        assert len(adv.log) == 1
