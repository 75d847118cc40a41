"""The fleet unit plan: Section 3 campaigns cut into shared capture tiles.

The three campaign shapes (Table 1's sampling, the daily and the
stability campaign) nest at every scale, and ``engine.fleet`` cuts each
campaign at the same nested boundaries. These tests pin the contracts
that make the cut safe and useful: the tiles partition a campaign
exactly, a smaller campaign's tiles are the larger one's first tiles,
a campaign assembled from tiles is the serial campaign byte for byte,
and a joint run generates every distinct capture once.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import fig1, fig2, fig3, table1
from repro.experiments.engine import fleet
from repro.experiments.runner import main
from repro.measurement import collection
from repro.measurement.collection import (CAMPAIGN_SHAPES, CampaignConfig,
                                          run_campaign)

scales = st.floats(min_value=1e-3, max_value=100.0, allow_nan=False,
                   allow_infinity=False)


def assert_partition(tiles, hosts: int, snapshots: int) -> None:
    """``tiles`` cover ``[0, hosts) x [0, snapshots)`` with no overlap
    and no gap: every tile is non-empty and inside the box, no two
    intersect, and their areas sum to the box's."""
    for (h0, h1), (s0, s1) in tiles:
        assert 0 <= h0 < h1 <= hosts and 0 <= s0 < s1 <= snapshots
    for i, ((a0, a1), (b0, b1)) in enumerate(tiles):
        for (c0, c1), (d0, d1) in tiles[i + 1:]:
            assert a1 <= c0 or c1 <= a0 or b1 <= d0 or d1 <= b0, tiles
    area = sum((h1 - h0) * (s1 - s0) for (h0, h1), (s0, s1) in tiles)
    assert area == hosts * snapshots


class TestTiling:
    @settings(max_examples=300, deadline=None)
    @given(scale=scales)
    def test_shapes_nest(self, scale):
        boxes = [shape(scale, 0) for shape in CAMPAIGN_SHAPES]
        for small, big in zip(boxes, boxes[1:]):
            assert small.hosts_per_service <= big.hosts_per_service
            assert small.n_snapshots <= big.n_snapshots

    @settings(max_examples=300, deadline=None)
    @given(scale=scales)
    def test_every_shape_is_partitioned(self, scale):
        for shape in CAMPAIGN_SHAPES:
            cfg = shape(scale, 0)
            assert_partition(fleet.campaign_tiles(cfg, scale),
                             cfg.hosts_per_service, cfg.n_snapshots)

    @settings(max_examples=300, deadline=None)
    @given(scale=scales)
    def test_a_smaller_shape_is_a_tile_prefix(self, scale):
        """What makes the cut shareable: the sampling campaign's tiles
        are the daily campaign's first tiles, and the daily campaign's
        the stability campaign's."""
        tilings = [fleet.campaign_tiles(shape(scale, 0), scale)
                   for shape in CAMPAIGN_SHAPES]
        for small, big in zip(tilings, tilings[1:]):
            assert big[:len(small)] == small
        assert len(tilings[0]) == 1  # the innermost box is one tile

    @settings(max_examples=200, deadline=None)
    @given(scale=scales, hosts=st.integers(1, 60),
           snapshots=st.integers(1, 200))
    def test_any_campaign_is_partitioned(self, scale, hosts, snapshots):
        cfg = CampaignConfig(hosts_per_service=hosts, n_snapshots=snapshots)
        assert_partition(fleet.campaign_tiles(cfg, scale), hosts,
                         snapshots)

    def test_scale_half(self):
        """Sampling 4 x 2, daily 10 x 4, stability 10 x 54."""
        daily = collection.daily_campaign_config(0.5, 0)
        stability = collection.stability_campaign_config(0.5, 0)
        assert fleet.campaign_tiles(daily, 0.5) == [
            ((0, 4), (0, 2)), ((0, 4), (2, 4)), ((4, 10), (0, 4))]
        assert fleet.campaign_tiles(stability, 0.5) == [
            ((0, 4), (0, 2)), ((0, 4), (2, 4)), ((4, 10), (0, 4)),
            ((0, 10), (4, 54))]

    @pytest.mark.parametrize("scale", [0.05, 0.25, 0.5, 1.0])
    def test_experiment_unit_keys_nest(self, scale):
        keys = [{unit.cache_key() for unit in module.work_units(scale, 3)}
                for module in (table1, fig2, fig3)]
        assert keys[0] <= keys[1] <= keys[2]

    def test_cost_hint_follows_capture_count(self):
        units = fig3.work_units(0.5, 0)
        for unit in units:
            (h0, h1), (s0, s1) = (unit.params["hosts"],
                                  unit.params["snapshots"])
            assert unit.cost_hint == pytest.approx(
                (h1 - h0) * (s1 - s0) / fleet.CAPTURES_PER_COST)
        # The 500-capture stability tile sorts ahead of the 8-capture one.
        assert max(u.cost_hint for u in units) \
            == 500 / fleet.CAPTURES_PER_COST
        assert min(u.cost_hint for u in units) \
            == 8 / fleet.CAPTURES_PER_COST


class TestTilesAssembleTheSerialCampaign:
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("scale", [0.1, 0.25])
    @pytest.mark.parametrize("shape", CAMPAIGN_SHAPES,
                             ids=lambda shape: shape.__name__)
    def test_pickle_equal(self, shape, scale, seed):
        # Two services keep it quick: video switches regimes, storage
        # has the low-flow cliff.
        cfg = replace(shape(scale, seed), services=("storage", "video"))
        units = fleet.campaign_units("x", cfg, scale, seed)
        payloads = [fleet.run_service_unit(unit) for unit in units]
        tiled = fleet.assemble_campaign(cfg, units, payloads)
        serial = run_campaign(cfg)
        assert tiled.regimes == serial.regimes
        for service in cfg.services:
            assert [pickle.dumps(s) for s in tiled.summaries[service]] \
                == [pickle.dumps(s) for s in serial.summaries[service]]
        assert pickle.dumps(tiled) == pickle.dumps(serial)


class TestEachCaptureOnce:
    """At scale 0.25 the sampling box is 2 x 1 and the daily 5 x 2: a
    joint table1 + fig1 + fig2 + fig4 run needs 5 x 5 x 2 daily captures
    (the sampling ones among them) and fig1's one trace."""

    SCALE = "0.25"
    NAMES = ("table1", "fig1", "fig2", "fig4")

    def run(self, tmp_path: Path, names, jobs: int, tag: str) -> Path:
        out = tmp_path / tag
        argv = [arg for name in names for arg in ("-e", name)]
        assert main([*argv, "--scale", self.SCALE, "--seed", "3",
                     "--jobs", str(jobs), "--no-cache",
                     "--json-dir", str(out)]) == 0
        return out

    def test_joint_run(self, tmp_path: Path, monkeypatch, capsys):
        calls: dict[str, list] = {"collection": [], "fig1": []}
        for name, module in (("collection", collection), ("fig1", fig1)):
            original = module.generate_host_trace

            def counted(*args, _original=original, _calls=calls[name],
                        **kwargs):
                _calls.append(args[1])  # the capture's TraceMeta
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, "generate_host_trace", counted)
        joint = self.run(tmp_path, self.NAMES, 1, "joint")
        monkeypatch.undo()
        fleet_calls = calls["collection"]
        assert len(fleet_calls) + len(calls["fig1"]) == 5 * 5 * 2 + 1
        assert len(set(fleet_calls)) == len(fleet_calls)
        report = json.loads((joint / "run_report.json").read_text())
        assert report["shared"] > 0

        parallel = self.run(tmp_path, self.NAMES, 2, "parallel")
        for name in self.NAMES:
            solo = self.run(tmp_path, [name], 1, f"solo-{name}")
            export = (joint / f"{name}.json").read_bytes()
            assert export == (solo / f"{name}.json").read_bytes(), name
            assert export == (parallel / f"{name}.json").read_bytes(), name
        capsys.readouterr()
