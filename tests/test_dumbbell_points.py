"""Every Section 4 dumbbell run is one ``dumbbell_incast`` grid point.

fig5, fig6, the verdict grid and each dumbbell ablation row plan
``sweep.point_unit`` units, so two experiments (or two ablation rows)
that configure the same incast share one cache key and the engine runs
it once. The plan-only tests pin which ablation rows collapse; the run
test shows a shared unit leaves the exported figure byte for byte as a
solo run writes it.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

import pytest

from repro.analysis.export import write_result
from repro.experiments import ablations
from repro.experiments.engine import run_experiments
from repro.experiments.sweep import SweepSpec, compile_units
from repro.experiments.verdict import VerdictExperiment, VerdictGrid

#: Rows that configure one incast at scales up to 2/15, where the scaled
#: burst is the 2 ms floor: the default 100-flow dumbbell (B, D, H, I,
#: M), the default 500-flow one (A1, C's monolithic row, E, J, M), A1's
#: private 1000-flow row and A2's first sweep point, and A1's shared
#: 1000-flow row and J's Mode 3 NewReno row.
SHARED_ROWS = [
    {"guardrail/row:0", "g/row:1", "delayed_ack/row:0",
     "ecn_threshold/row:1", "receiver_throttle/row:0"},
    {"buffer/row:0", "scheduler/row:0", "pacing/row:0", "sack/row:2",
     "receiver_throttle/row:2"},
    {"buffer/row:2", "buffer/row:4"},
    {"buffer/row:3", "sack/row:0"},
]


@pytest.mark.parametrize("scale, seed", [(0.1, 0), (0.05, 3)])
def test_ablation_rows_share_their_keys(scale, seed):
    units = ablations.work_units(scale, seed)
    rows = [u for u in units if "/" in u.unit_id]
    assert len(units) == 42 and len(rows) == 36
    by_key = defaultdict(set)
    for unit in rows:
        assert unit.fn == "repro.experiments.sweep:run_unit"
        by_key[unit.cache_key()].add(unit.unit_id)
    assert len(by_key) == 26
    shared = sorted((ids for ids in by_key.values() if len(ids) > 1),
                    key=sorted)
    assert shared == sorted(SHARED_ROWS, key=sorted)


def test_a_spec_keeps_the_keys_it_writes():
    """Default elision is the ablation row builder's: a sweep spec that
    writes a default value keeps it, and so keeps its own cache key."""
    spec = SweepSpec(name="p", scenario="dumbbell_incast",
                     fixed={"n_flows": 100, "dctcp_g": 1.0 / 16.0})
    (unit,) = compile_units(spec, scale=0.1, seed=0)
    assert unit.params["overrides"] == {"dctcp_g": 1.0 / 16.0,
                                        "n_flows": 100}


def test_fig6_shares_its_point_with_the_verdict_grid(tmp_path: Path):
    grid = VerdictGrid(schemes=("dctcp",), flow_counts=(50,),
                       burst_ms=(2.0,), mix=False)
    joint, report = run_experiments(
        ["fig6", "verdict"], extra_modules={"verdict": VerdictExperiment(
            grid)}, scale=0.05, seed=3, jobs=1)
    assert report.shared == 1
    solo, _ = run_experiments(["fig6"], scale=0.05, seed=3, jobs=1)
    joint_file = write_result(joint["fig6"], tmp_path / "joint")
    solo_file = write_result(solo["fig6"], tmp_path / "solo")
    assert joint_file.read_bytes() == solo_file.read_bytes()


def test_a_serial_campaign_holds_no_network(monkeypatch):
    """A serial campaign holds every payload until the merge. Like a
    pooled one, whose payloads were pickled, it holds what each unit
    measured and not the simulated network behind it."""
    from repro.experiments import fig6

    monkeypatch.setattr(fig6, "FLOW_COUNTS", [8])
    held = []
    merge = fig6.merge

    def recording(work, payloads, **kwargs):
        held.extend(payloads)
        return merge(work, payloads, **kwargs)

    monkeypatch.setattr(fig6, "merge", recording)
    run_experiments(["fig6"], scale=0.05, seed=3, jobs=1)
    assert len(held) == 1
    assert held[0].network is None and held[0].steady_results
