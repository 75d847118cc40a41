"""Fleet-campaign work units shared by the Section 3 experiments.

table1, fig2, fig3 and fig4 all reduce to "generate and summarize a
measurement campaign" with different shapes, and the shapes nest: at any
scale Table 1's sampling box of hosts x snapshots sits inside the daily
box (Figures 2 and 4), which sits inside the stability box (Figure 3)
(:data:`~repro.measurement.collection.CAMPAIGN_SHAPES`). A work unit is a
*tile* of one service's captures — hosts ``[h0, h1)`` x snapshots ``[s0,
s1)`` — and every campaign is cut at the same nested boundaries, so a
capture two campaigns both need lies in the same tile of both, under the
same cache key, and the engine generates it once. The tiling is exact
because a capture depends on its ``(seed, service, host, snapshot)`` name
alone and a regime sequence's prefix on nothing after it.
"""

from __future__ import annotations

from repro.core.metrics import TraceSummary
from repro.experiments.engine.spec import WorkUnit
from repro.measurement.collection import (CAMPAIGN_SHAPES, CampaignConfig,
                                          FleetCampaign, run_capture_tile)

RUN_SERVICE_FN = "repro.experiments.engine.fleet:run_service_unit"

#: 2 s fluid captures per unit of ``cost_hint`` (1.0 = a typical engine
#: unit). Only the scheduler reads it: tiles run from a few captures to
#: hundreds, and the largest should start first.
CAPTURES_PER_COST = 100

Tile = tuple[tuple[int, int], tuple[int, int]]


def campaign_tiles(cfg: CampaignConfig, scale: float) -> list[Tile]:
    """Rectangles ``((h0, h1), (s0, s1))`` that partition ``cfg``'s
    hosts x snapshots, cut at every campaign shape's box at ``scale``.

    Walks the nested boxes — each :data:`CAMPAIGN_SHAPES` box clipped to
    ``cfg``'s, then ``cfg``'s own — and emits what each adds to the one
    before as at most two rectangles: hosts ``[0, h_prev)`` x snapshots
    ``[s_prev, s)``, and hosts ``[h_prev, h)`` x snapshots ``[0, s)``.
    """
    full = (cfg.hosts_per_service, cfg.n_snapshots)
    shapes = [shape(scale, cfg.seed) for shape in CAMPAIGN_SHAPES]
    boxes = [(shape.hosts_per_service, shape.n_snapshots)
             for shape in shapes] + [full]
    tiles: list[Tile] = []
    h_prev = s_prev = 0
    for hosts, snapshots in boxes:
        h = max(h_prev, min(hosts, full[0]))
        s = max(s_prev, min(snapshots, full[1]))
        if h_prev and s > s_prev:
            tiles.append(((0, h_prev), (s_prev, s)))
        if h > h_prev:
            tiles.append(((h_prev, h), (0, s)))
        h_prev, s_prev = h, s
    return tiles


def campaign_units(experiment: str, cfg: CampaignConfig, scale: float,
                   seed: int) -> list[WorkUnit]:
    """One work unit per service and tile of ``cfg``'s campaign
    (:func:`campaign_tiles`)."""
    return [
        WorkUnit(
            experiment=experiment,
            unit_id=f"service:{service}/hosts{h0}-{h1}/snaps{s0}-{s1}",
            fn=RUN_SERVICE_FN,
            params={
                "service": service,
                "hosts": [h0, h1],
                "snapshots": [s0, s1],
                "spacing_s": cfg.snapshot_spacing_s,
                "duration_ms": cfg.trace_duration_ms,
            },
            scale=scale, seed=seed,
            cost_hint=(h1 - h0) * (s1 - s0) / CAPTURES_PER_COST)
        for service in cfg.services
        for (h0, h1), (s0, s1) in campaign_tiles(cfg, scale)
    ]


def run_service_unit(unit: WorkUnit) -> dict:
    """Execute one tile unit; the payload carries the tile's summaries
    (host-major) and the service's regime sequence up to the tile's last
    snapshot."""
    params = unit.params
    h0, h1 = params["hosts"]
    s0, s1 = params["snapshots"]
    cfg = CampaignConfig(
        services=(params["service"],),
        hosts_per_service=h1,
        n_snapshots=s1,
        snapshot_spacing_s=params["spacing_s"],
        trace_duration_ms=params["duration_ms"],
        seed=unit.seed)
    summaries, regimes = run_capture_tile(
        cfg, params["service"], range(h0, h1), range(s0, s1))
    return {"summaries": summaries, "regimes": regimes}


def assemble_campaign(cfg: CampaignConfig, units: list[WorkUnit],
                      payloads: list[dict]) -> FleetCampaign:
    """Reconstruct the :class:`FleetCampaign` a serial
    :func:`~repro.measurement.collection.run_campaign` would have built:
    each service's summaries in host-major order, and its regime sequence
    from the tile that reaches the last snapshot."""
    campaign = FleetCampaign(config=cfg)
    captures: dict[tuple[str, int, int], TraceSummary] = {}
    regimes: dict[str, list[int]] = {}
    for unit, payload in zip(units, payloads):
        service = unit.params["service"]
        h0, h1 = unit.params["hosts"]
        s0, s1 = unit.params["snapshots"]
        tile = iter(payload["summaries"])
        for host in range(h0, h1):
            for snapshot in range(s0, s1):
                captures[service, host, snapshot] = next(tile)
        if s1 == cfg.n_snapshots:
            regimes[service] = payload["regimes"]
    for service in cfg.services:
        campaign.summaries[service] = [
            captures[service, host, snapshot]
            for host in range(cfg.hosts_per_service)
            for snapshot in range(cfg.n_snapshots)]
        campaign.regimes[service] = regimes[service]
    return campaign
