"""Switch high-watermark records: a queue's own per-interval peaks
(:meth:`~repro.netsim.queues.DropTailQueue.start_interval_peaks`)."""

import pytest

from repro.netsim.packet import data_packet
from repro.netsim.queues import DropTailQueue


def pkt():
    return data_packet(1, 0, 9, seq=0, payload_bytes=1460)


def offer_and_pop(queue, offers, pops):
    for _ in range(offers):
        queue.offer(pkt())
    for _ in range(pops):
        queue.pop()


class TestWatermark:
    def test_records_peak_per_window(self, sim):
        queue = DropTailQueue(capacity_packets=100)
        queue.start_interval_peaks(sim, 1000)
        # Fill to 3, drain to 1 within the first window; the second
        # window's one enqueue lands on the standing packet.
        offer_and_pop(queue, 3, 2)
        sim.schedule(1500, offer_and_pop, (queue, 1, 0))
        sim.run(until_ns=2500)
        assert queue.stop_interval_peaks() == {0: 3, 1: 2}

    def test_reset_between_windows(self, sim):
        queue = DropTailQueue(capacity_packets=100)
        queue.start_interval_peaks(sim, 1000)
        offer_and_pop(queue, 1, 1)
        sim.run(until_ns=1500)
        offer_and_pop(queue, 1, 1)
        sim.run(until_ns=2500)
        assert queue.stop_interval_peaks() == {0: 1, 1: 1}

    def test_stop(self, sim):
        queue = DropTailQueue(capacity_packets=100)
        queue.start_interval_peaks(sim, 1000)
        offer_and_pop(queue, 1, 1)
        sim.run(until_ns=1000)
        assert queue.stop_interval_peaks() == {0: 1}
        offer_and_pop(queue, 2, 0)
        sim.run(until_ns=5000)
        assert queue.interval_peaks() == {}

    def test_rejects_bad_window(self, sim):
        with pytest.raises(ValueError):
            DropTailQueue().start_interval_peaks(sim, 0)
