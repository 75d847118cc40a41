"""The substrate cross-validation experiment's own pieces: its plan, its
rank statistic and the shape claim of its fluid side (marking grows with
the incast degree)."""

from __future__ import annotations

import pytest

from repro import units
from repro.experiments import crossval


def test_work_units_cover_every_degree_and_one_fluid_unit():
    units_ = crossval.work_units(scale=0.05, seed=3)
    assert [u.unit_id for u in units_] == [
        *(f"packet:{flows}" for flows in crossval.FLOW_SWEEP), "fluid"]
    assert {u.fn for u in units_} == {"repro.experiments.crossval:run_unit"}


@pytest.mark.parametrize("a,b,expected", [
    ([1, 2, 3], [10, 20, 30], 1.0),
    ([1, 2, 3], [30, 20, 10], -1.0),
    ([1, 1, 1], [1, 2, 3], 0.0),  # no ordering on one side
    ([1], [2], 0.0),  # too short to rank
], ids=["same-order", "reversed", "constant", "single"])
def test_rank_correlation(a, b, expected):
    assert crossval.rank_correlation(a, b) == pytest.approx(expected)


@pytest.mark.parametrize("burst_ms", [2.0, 5.0])
def test_fluid_marked_fraction_grows_with_degree(burst_ms):
    side = crossval.run_fluid_side(crossval.FLOW_SWEEP,
                                   units.msec(burst_ms))
    assert len(side) == len(crossval.FLOW_SWEEP)
    marked = [mark for mark, _ in side]
    assert marked == sorted(marked)
    assert all(0.0 <= mark <= 1.0 for mark in marked)
    assert all(0.0 < peak <= 1.0 for _, peak in side)
    assert marked[-1] > 0.8
