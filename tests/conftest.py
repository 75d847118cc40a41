"""Shared test fixtures and helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro import units
from repro.measurement.records import HostTrace, TraceMeta
from repro.netsim.topology import Dumbbell, DumbbellConfig, build_dumbbell
from repro.simcore.kernel import Simulator
from repro.tcp.cca.dctcp import Dctcp
from repro.tcp.config import TcpConfig
from repro.tcp.connection import TcpReceiver, TcpSender, open_connection

# A raised example budget for property tests that leave ``max_examples``
# unset; CI selects it with ``--hypothesis-profile=thorough`` for the
# egress differential module.
settings.register_profile("thorough", max_examples=1500, deadline=None)


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


def mini_dumbbell(sim: Simulator, n_senders: int = 4,
                  **overrides) -> Dumbbell:
    """A small dumbbell for fast end-to-end TCP tests."""
    cfg = DumbbellConfig(n_senders=n_senders, **overrides)
    return build_dumbbell(sim, cfg)


def open_dctcp(sim: Simulator, net: Dumbbell, index: int = 0,
               tcp_config: TcpConfig | None = None
               ) -> tuple[TcpSender, TcpReceiver]:
    """One DCTCP connection from sender ``index`` to the receiver."""
    cfg = tcp_config or TcpConfig()
    return open_connection(sim, cfg, Dctcp(cfg), net.senders[index],
                           net.receiver)


def make_trace(ingress_frac, flows=None, marked_frac=None, retx_frac=None,
               line_rate_bps: float = units.gbps(25.0),
               queue_frac=None, service: str = "test",
               host_id: int = 0, snapshot: int = 0) -> HostTrace:
    """Build a HostTrace from per-interval utilization fractions."""
    ingress_frac = np.asarray(ingress_frac, dtype=np.float64)
    n = len(ingress_frac)
    capacity = line_rate_bps * units.msec(1.0) / (8 * units.NS_PER_S)
    ingress = (ingress_frac * capacity).astype(np.int64)
    flows_arr = (np.asarray(flows, dtype=np.int64) if flows is not None
                 else np.zeros(n, dtype=np.int64))
    marked = ((np.asarray(marked_frac) * ingress).astype(np.int64)
              if marked_frac is not None else np.zeros(n, dtype=np.int64))
    retx = ((np.asarray(retx_frac) * ingress).astype(np.int64)
            if retx_frac is not None else np.zeros(n, dtype=np.int64))
    queue = (np.asarray(queue_frac, dtype=np.float64)
             if queue_frac is not None else None)
    return HostTrace(
        TraceMeta(service=service, host_id=host_id, snapshot_index=snapshot),
        line_rate_bps, ingress, flows_arr, marked, retx,
        queue_frac=queue)
