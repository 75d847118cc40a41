"""A fluid grid point pays only per-point arithmetic.

Like ``tests/test_packet_budget.py`` for the packet fast path, this
budgets ``sweep.run_unit`` on the benchmark's fluid grid
(``bench/specs/engine_grid.yaml``) in exact bytecodes, counted by
``tests.opcounts`` (the same units execute the same bytecodes, so the
count is exact, unlike a timing). A change that goes back to building a
row object per flow, rescanning every flow each fluid interval, or
re-validating a config the point already holds fails here instead of
showing up as a slower ``sweep_cold``.
"""

from __future__ import annotations

from tests.opcounts import count_fluid_point

#: Bytecodes per ``sweep.run_unit`` over every eighth unit of the engine
#: grid (seed 0, scale 1.0; Python 3.11.7): 9,683.6 while the plan was a
#: list of ``FlowSpec`` rows, waves lists of rows and processor sharing
#: rescanned every flow each interval; 4,860.9 since the plan is columns
#: (4,850.2 over all 392 units). The budget leaves about 10 % slack.
BYTECODES_PER_UNIT = 5_350.0


def test_a_fluid_point_stays_within_its_bytecode_budget():
    counts = count_fluid_point(step=8)
    assert counts["units"] == 49
    assert counts["per_unit"] <= BYTECODES_PER_UNIT
