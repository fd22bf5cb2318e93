"""Unit tests for the DCTCP sender: window dynamics, loss recovery,
message completion."""

from repro.net import DctcpConfig, DctcpSender, Flow, FlowKind, Message
from repro.sim import Simulator


class Harness:
    """Catches transmitted packets; ACKs are injected manually."""

    def __init__(self, **cfg):
        self.sim = Simulator()
        self.flow = Flow(FlowKind.CPU_INVOLVED, message_payload=1000)
        self.sent = []
        self.config = DctcpConfig(**cfg)
        self.sender = DctcpSender(self.sim, self.flow, self.sent.append,
                                  self.config)

    def submit(self, count=1, payload=1000):
        """Submit a message; the returned list gets it on completion."""
        done = []
        self.sender.submit_message(Message(payload, count), done.append)
        return done

    def ack(self, seq, ecn=False, advance=1000.0):
        self.sim.run(until=self.sim.now + advance)
        self.sender.on_ack(seq, ecn)


def test_initial_window_limits_inflight():
    h = Harness(init_cwnd=4 * 1042)  # bytes: four 1042B frames
    h.submit(count=10)
    h.sim.run(until=1)
    assert len(h.sent) == 4
    assert h.sender.backlog == 6


def test_acks_release_window():
    h = Harness(init_cwnd=4 * 1042)
    h.submit(count=10)
    h.sim.run(until=1)
    h.ack(0)
    h.ack(1)
    assert len(h.sent) == 6


def test_flow_sender_attached():
    h = Harness()
    assert h.flow.sender is h.sender


def test_slow_start_doubles_window():
    h = Harness(init_cwnd=2 * 1042, rtt_init=100.0)
    h.submit(count=64)
    h.sim.run(until=1)
    start = h.sender.cwnd
    # ACK everything sent so far across several RTTs without marks.
    for _ in range(4):
        for pkt in list(h.sent):
            if pkt.seq in h.sender.inflight:
                h.ack(pkt.seq, advance=200.0)
    assert h.sender.cwnd > start


def test_marked_window_reduces_cwnd():
    h = Harness(init_cwnd=16 * 1042, rtt_init=100.0)
    h.submit(count=64)
    h.sim.run(until=1)
    before = h.sender.cwnd
    for pkt in list(h.sent[:16]):
        h.ack(pkt.seq, ecn=True, advance=50.0)
    assert h.sender.cwnd < before
    assert h.sender.alpha > 0


def test_alpha_ewma_converges_to_mark_fraction():
    h = Harness(init_cwnd=8 * 1042, rtt_init=50.0)
    h.submit(count=400)
    h.sim.run(until=1)
    for _round in range(40):
        for pkt in list(h.sent):
            if pkt.seq in h.sender.inflight:
                h.ack(pkt.seq, ecn=True, advance=20.0)
    assert h.sender.alpha > 0.6  # all-marked stream drives alpha toward 1


def test_dupack_fast_retransmit():
    h = Harness(init_cwnd=8 * 1042, dupack_threshold=3, rtt_init=100.0)
    h.submit(count=8)
    h.sim.run(until=1)
    assert len(h.sent) == 8
    # Packet 0 lost; ACK 1..3 triggers a retransmit of 0.
    h.ack(1)
    h.ack(2)
    h.ack(3)
    assert h.sender.retransmits == 1
    retx = h.sent[-1]
    assert retx.seq == 0
    assert retx.retransmitted


def test_rto_collapses_window_and_requeues():
    h = Harness(init_cwnd=8 * 1042, rto=1000.0, rtt_init=100.0)
    h.submit(count=8)
    h.sim.run(until=1)
    # No ACKs at all: timeout fires.
    h.sim.run(until=5000)
    assert h.sender.timeouts >= 1
    assert h.sender.cwnd == h.config.min_cwnd
    # Go-back-N: only the oldest stays in flight, the rest requeued.
    assert len(h.sender.inflight) == 1
    assert h.sender.backlog >= 7


def test_rto_recovery_preserves_seq_order():
    h = Harness(init_cwnd=4 * 1042, rto=1000.0, rtt_init=100.0)
    h.submit(count=4)
    h.sim.run(until=5000)  # RTO fired; 0 retransmitted, 1-3 requeued
    h.ack(0, advance=10.0)
    h.sim.run(until=h.sim.now + 1)
    requeued = [p.seq for p in h.sent[5:]]
    assert requeued == sorted(requeued)


def test_message_completion_event():
    h = Harness(init_cwnd=8 * 1042)
    done = h.submit(count=3)
    h.sim.run(until=1)
    h.ack(0)
    h.ack(1)
    assert not done
    h.ack(2)
    assert len(done) == 1
    assert done[0].complete_time > 0


def test_duplicate_ack_ignored():
    h = Harness(init_cwnd=4 * 1042)
    h.submit(count=4)
    h.sim.run(until=1)
    h.ack(0)
    before = h.sender.packets_acked
    h.ack(0)  # stale
    assert h.sender.packets_acked == before


def test_srtt_tracks_samples():
    h = Harness(init_cwnd=2 * 1042, rtt_init=10_000.0)
    h.submit(count=2)
    h.sim.run(until=1)
    h.ack(0, advance=500.0)
    assert h.sender.srtt < 10_000.0


def test_first_send_time_survives_retransmit():
    h = Harness(init_cwnd=4 * 1042, rto=1000.0, rtt_init=100.0)
    h.submit(count=1)
    h.sim.run(until=1)
    pkt = h.sent[0]
    t0 = pkt.first_send_time
    h.sim.run(until=5000)  # RTO retransmits
    # The retransmission is a clone: the original copy (possibly still
    # traversing the network) stays frozen, the new copy keeps the
    # original first_send_time but carries its own send_time.
    assert len(h.sent) > 1
    retx = h.sent[-1]
    assert retx is not pkt
    assert retx.seq == pkt.seq
    assert retx.retransmitted and not pkt.retransmitted
    assert retx.first_send_time == t0
    assert retx.send_time > t0
    assert pkt.first_send_time == t0 and pkt.send_time == t0


def test_min_heap_tracks_min_inflight_through_loss_recovery():
    """The lazily pruned seq heap answers ``min(inflight)`` after every
    step of transmit, out-of-order ACKs, fast retransmit and the RTO's
    go-back-N requeue."""
    h = Harness(init_cwnd=8 * 1042, dupack_threshold=3, rto=1000.0,
                rtt_init=100.0)
    sender = h.sender

    def check():
        if sender.inflight:
            assert sender._min_inflight() == min(sender.inflight)

    h.submit(count=24)
    h.sim.run(until=1)
    check()
    # Packet 0 lost: ACKs of 1..3 trigger its fast retransmit.
    for seq in (1, 2, 3):
        h.ack(seq, advance=10.0)
        check()
    assert sender.retransmits == 1 and h.sent[-1].seq == 0
    # Out of order: 5 before 4; 0's retransmission is lost too.
    for seq in (5, 4):
        h.ack(seq, advance=10.0)
        check()
    # Silence: the RTO keeps only the least recently sent entry, which
    # is not 0 (re-sent last), and requeues 0 below it, so the heap
    # prunes 0 while it is out of flight.
    h.sim.run(until=h.sim.now + 5000)
    assert sender.timeouts >= 1
    assert 0 not in sender.inflight and min(sender.inflight) > 0
    check()
    # Recovery re-sends the requeued seqs, 0 first, pushing each again.
    while sender.inflight:
        h.ack(min(sender.inflight), advance=10.0)
        check()
        h.sim.run(until=h.sim.now + 1)
        check()
    assert sender.packets_acked == 24
