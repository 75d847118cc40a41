"""Partition/aggregate request-response application.

The paper's introduction motivates incast with this pattern: "a coordinator
server dispatches up to thousands of sub-tasks to worker servers and waits
for their replies", with fan-in chosen by service architects. Where
:class:`~repro.workloads.incast.IncastWorkload` injects response demand
directly at the senders (the paper's Section 4 abstraction), this module
models the full RPC loop:

- the coordinator (the incast *receiver*) sends a small request message to
  every worker over a reverse TCP connection;
- each worker "processes" for a random service time, then sends its
  response bytes over the forward connection;
- the query completes when every response is fully delivered; the
  coordinator waits a think time and issues the next query.

The jitter the paper models as a uniform 0-100 us start offset emerges
here from request serialization, network delay, and worker service-time
variation. The workload reports per-query completion times (QCT) — the
service-level latency metric the paper says incast tail losses damage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import units
from repro.netsim.topology import Dumbbell
from repro.simcore.kernel import Simulator
from repro.tcp.config import TcpConfig
from repro.tcp.connection import TcpReceiver, TcpSender, open_connection


@dataclass
class PartitionAggregateConfig:
    """Parameters of the request-response workload."""

    n_queries: int = 5
    request_bytes: int = 200
    response_bytes: int = 20_000
    response_jitter_frac: float = 0.1
    service_time_mean_ns: int = units.usec(30.0)
    service_time_jitter_ns: int = units.usec(70.0)
    think_time_ns: int = units.msec(5.0)

    def __post_init__(self) -> None:
        if self.n_queries <= 0:
            raise ValueError("n_queries must be positive")
        if self.request_bytes <= 0 or self.response_bytes <= 0:
            raise ValueError("request/response sizes must be positive")
        if not 0.0 <= self.response_jitter_frac < 1.0:
            raise ValueError("response_jitter_frac must be in [0, 1)")


@dataclass
class QueryResult:
    """Timing of one completed query."""

    index: int
    issued_ns: int
    completed_ns: int
    n_workers: int

    @property
    def qct_ns(self) -> int:
        """Query completion time: last response byte minus issue time."""
        return self.completed_ns - self.issued_ns

    @property
    def qct_ms(self) -> float:
        """Query completion time in milliseconds."""
        return units.ns_to_ms(self.qct_ns)


@dataclass
class _WorkerChannel:
    """Both directions of one coordinator<->worker pairing."""

    request_tx: TcpSender        # coordinator -> worker (requests)
    request_rx: TcpReceiver      # at the worker
    response_tx: TcpSender       # worker -> coordinator (responses)
    response_rx: TcpReceiver     # at the coordinator
    requests_received: int = 0
    responses_sent: int = 0
    response_bytes_expected: int = 0


class PartitionAggregateWorkload:
    """Drives repeated partition/aggregate queries.

    By default the dumbbell's single receiver acts as the coordinator and
    every sender host is a worker; :meth:`over_hosts` builds the workload
    on any host set (e.g. one receiver group of a multi-receiver rack).
    Call :meth:`start`, run the simulator, then read :attr:`results`.
    """

    def __init__(self, sim: Simulator, network: Optional[Dumbbell],
                 config: PartitionAggregateConfig,
                 tcp_config: TcpConfig, cca_factory,
                 rng: np.random.Generator,
                 workers: Optional[list] = None,
                 coordinator=None):
        if network is not None:
            workers = network.senders
            coordinator = network.receiver
        if not workers or coordinator is None:
            raise ValueError("provide a network, or workers + coordinator")
        self._sim = sim
        self.coordinator = coordinator
        self.config = config
        self._rng = rng
        self._channels: list[_WorkerChannel] = []
        for worker in workers:
            request_tx, request_rx = open_connection(
                sim, tcp_config, cca_factory(), coordinator, worker)
            response_tx, response_rx = open_connection(
                sim, tcp_config, cca_factory(), worker, coordinator)
            channel = _WorkerChannel(request_tx, request_rx, response_tx,
                                     response_rx)
            request_rx.add_delivery_hook(
                self._request_hook(channel))
            response_rx.add_delivery_hook(
                self._response_hook(channel))
            self._channels.append(channel)
        self.results: list[QueryResult] = []
        self._query_index = -1
        self._issued_ns = 0
        self._done = False

    @classmethod
    def over_hosts(cls, sim: Simulator, workers: list, coordinator,
                   config: PartitionAggregateConfig, tcp_config: TcpConfig,
                   cca_factory, rng: np.random.Generator
                   ) -> "PartitionAggregateWorkload":
        """Build the workload on an explicit worker set and coordinator."""
        return cls(sim, None, config, tcp_config, cca_factory, rng,
                   workers=workers, coordinator=coordinator)

    # --- lifecycle -----------------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether every configured query has completed."""
        return self._done

    @property
    def n_workers(self) -> int:
        """Fan-in degree."""
        return len(self._channels)

    def start(self, at_ns: Optional[int] = None) -> None:
        """Issue the first query (now by default)."""
        self._sim.schedule_at(self._sim.now if at_ns is None else at_ns,
                              self._issue_query)

    def _issue_query(self) -> None:
        self._query_index += 1
        self._issued_ns = self._sim.now
        for channel in self._channels:
            channel.request_tx.send(self.config.request_bytes)

    # --- worker side -----------------------------------------------------------

    def _request_hook(self, channel: _WorkerChannel):
        def on_request_bytes(delivered: int) -> None:
            expected = self.config.request_bytes \
                * (channel.requests_received + 1)
            while delivered >= expected:
                channel.requests_received += 1
                expected += self.config.request_bytes
                self._schedule_response(channel)
        return on_request_bytes

    def _schedule_response(self, channel: _WorkerChannel) -> None:
        service = self.config.service_time_mean_ns
        if self.config.service_time_jitter_ns > 0:
            service += int(self._rng.uniform(
                0, self.config.service_time_jitter_ns))
        self._sim.schedule(max(service, 0), self._send_response, (channel,))

    def _send_response(self, channel: _WorkerChannel) -> None:
        size = self.config.response_bytes
        if self.config.response_jitter_frac > 0:
            spread = self.config.response_jitter_frac
            size = max(1, int(size * self._rng.uniform(1 - spread,
                                                       1 + spread)))
        channel.responses_sent += 1
        channel.response_bytes_expected += size
        channel.response_tx.send(size)

    # --- coordinator side ---------------------------------------------------------

    def _response_hook(self, channel: _WorkerChannel):
        def on_response_bytes(_delivered: int) -> None:
            if not self._done and self._query_complete():
                self._finish_query()
        return on_response_bytes

    def _query_complete(self) -> bool:
        for channel in self._channels:
            if channel.responses_sent <= self._query_index:
                return False
            if (channel.response_rx.delivered_bytes
                    < channel.response_bytes_expected):
                return False
        return True

    def _finish_query(self) -> None:
        self.results.append(QueryResult(
            index=self._query_index,
            issued_ns=self._issued_ns,
            completed_ns=self._sim.now,
            n_workers=self.n_workers,
        ))
        if self._query_index + 1 >= self.config.n_queries:
            self._done = True
            return
        self._sim.schedule(self.config.think_time_ns, self._issue_query)

    # --- analysis ---------------------------------------------------------------

    def steady_results(self) -> list[QueryResult]:
        """Results with the first query discarded (slow-start transient)."""
        if len(self.results) > 1:
            return self.results[1:]
        return list(self.results)

    def qct_percentiles(self, percentiles=(50.0, 99.0)) -> dict[float, float]:
        """QCT percentiles (ms) over the steady queries."""
        steady = self.steady_results()
        if not steady:
            return {p: 0.0 for p in percentiles}
        qcts = np.asarray([r.qct_ms for r in steady])
        return {p: float(np.percentile(qcts, p)) for p in percentiles}
