"""Tests for repro.units: conversions, rounding discipline, BDP math."""

import pytest
from hypothesis import given, strategies as st

from repro import units


class TestTimeConversions:
    def test_usec(self):
        assert units.usec(1.0) == 1_000

    def test_usec_fractional_rounds(self):
        assert units.usec(0.5) == 500
        assert units.usec(0.0004) == 0

    def test_msec(self):
        assert units.msec(15.0) == 15_000_000

    def test_sec(self):
        assert units.sec(2.0) == 2_000_000_000

    def test_roundtrip_ms(self):
        assert units.ns_to_ms(units.msec(3.5)) == pytest.approx(3.5)


class TestRates:
    def test_gbps(self):
        assert units.gbps(10.0) == 10e9


class TestTxTime:
    def test_one_mtu_at_10g(self):
        # 1500 bytes at 10 Gbps = 1.2 us.
        assert units.tx_time_ns(1500, units.gbps(10.0)) == 1200

    def test_rounds_up(self):
        # 1 byte at 3 bps = 8/3 s -> must round up, never down.
        assert units.tx_time_ns(1, 3.0) == pytest.approx(2_666_666_667)

    def test_zero_bytes(self):
        assert units.tx_time_ns(0, units.gbps(10.0)) == 0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            units.tx_time_ns(100, 0.0)

    @given(size=st.integers(min_value=0, max_value=10_000_000),
           gbit=st.floats(min_value=0.1, max_value=400.0))
    def test_never_faster_than_physics(self, size, gbit):
        rate = units.gbps(gbit)
        tx = units.tx_time_ns(size, rate)
        # The achievable bytes within tx must cover the packet.
        assert units.bytes_in_interval(rate, tx) >= size - 1


class TestIntervalBytes:
    def test_bytes_in_interval(self):
        # 10 Gbps for 1 ms = 1.25 MB.
        assert units.bytes_in_interval(units.gbps(10.0),
                                       units.msec(1.0)) == 1_250_000

    def test_bdp_paper_value(self):
        # The paper: 10 Gbps x 30 us = 37.5 KB (25 full-size packets).
        bdp = units.bdp_bytes(units.gbps(10.0), units.usec(30.0))
        assert bdp == 37_500
        assert bdp // 1500 == 25

    @given(size=st.integers(min_value=1, max_value=10_000_000),
           gbit=st.floats(min_value=0.5, max_value=100.0))
    def test_rate_roundtrip(self, size, gbit):
        interval = units.msec(1.0)
        rate = size * units.BITS_PER_BYTE * units.NS_PER_S / interval
        assert units.bytes_in_interval(rate, interval) \
            == pytest.approx(size, abs=1)
