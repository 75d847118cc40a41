"""Unit constants and converters used across the simulator and analysis code.

The event-driven simulator keeps time as **integer nanoseconds** so that event
ordering is exact and runs are bit-for-bit reproducible. Rates are kept as
**bits per second** (floats are acceptable here because rates only enter time
computations through explicit rounding helpers). Data sizes are **bytes**.

All module-level helpers are pure functions; none touch global state.
"""

from __future__ import annotations

# --- Time ------------------------------------------------------------------

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


def usec(value: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return round(value * NS_PER_US)


def msec(value: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return round(value * NS_PER_MS)


def sec(value: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return round(value * NS_PER_S)


def ns_to_ms(time_ns: int) -> float:
    """Convert integer nanoseconds to milliseconds (float)."""
    return time_ns / NS_PER_MS


# --- Data size --------------------------------------------------------------

KILOBYTE = 1_000
MEGABYTE = 1_000_000
GIGABYTE = 1_000_000_000

KIBIBYTE = 1_024
MEBIBYTE = 1_024 * 1_024

BITS_PER_BYTE = 8


# --- Rates ------------------------------------------------------------------

KBPS = 1_000.0
MBPS = 1_000_000.0
GBPS = 1_000_000_000.0


def gbps(value: float) -> float:
    """Convert gigabits/second to bits/second."""
    return value * GBPS


def tx_time_ns(size_bytes: int, rate_bps: float) -> int:
    """Serialization delay, in integer nanoseconds, of ``size_bytes`` at
    ``rate_bps``.

    Rounds up so that a link never finishes transmitting a packet earlier
    than physically possible; this keeps byte conservation exact when
    back-computing achievable bytes from elapsed time.
    """
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    bits = size_bytes * BITS_PER_BYTE
    return -(-bits * NS_PER_S // int(rate_bps))  # ceil division


def bytes_in_interval(rate_bps: float, interval_ns: int) -> int:
    """How many whole bytes a rate of ``rate_bps`` moves in ``interval_ns``."""
    return int(rate_bps * interval_ns / (BITS_PER_BYTE * NS_PER_S))


def bdp_bytes(rate_bps: float, rtt_ns: int) -> int:
    """Bandwidth-delay product in bytes for a path of ``rate_bps`` and
    round-trip time ``rtt_ns``."""
    return bytes_in_interval(rate_bps, rtt_ns)
