"""Per-flow FCT extraction: exact values from synthetic lifecycle logs,
classification boundaries, corrupt-log rejection, and merge algebra.

These tests drive :mod:`repro.analysis.fct` with hand-built event logs —
no simulator — so every FCT is exactly predictable and every rejection
path can be hit deliberately.
"""

from __future__ import annotations

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import units
from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.fct import (DEFAULT_MOUSE_MAX_BYTES, ELEPHANT, MOUSE,
                                FctDigest, FctGrid, FctSet, FlowFct,
                                extract_fcts, format_fct_table,
                                merge_fct_sets, pool_fct_sets)
from repro.analysis.tables import render_cdf_table
from repro.telemetry.recorder import FlowEvent


def ev(time_ns: int, kind: str, flow_id: int, host: int = 0) -> FlowEvent:
    return FlowEvent(time_ns=time_ns, kind=kind, flow_id=flow_id,
                     host=host)


def lifecycle(flow_id: int, open_ns: int, close_ns: int,
              host: int = 0, first_byte_ns: int | None = None
              ) -> list[FlowEvent]:
    events = [ev(open_ns, "open", flow_id, host),
              ev(close_ns, "close", flow_id, host)]
    if first_byte_ns is not None:
        events.insert(1, ev(first_byte_ns, "first_byte", flow_id, host))
    return events


class TestExactExtraction:
    def test_fct_is_close_minus_open(self):
        fcts = extract_fcts(lifecycle(7, open_ns=1_000, close_ns=251_000,
                                      first_byte_ns=3_000))
        assert len(fcts) == 1
        record = fcts.records[0]
        assert record.flow_id == 7
        assert record.fct_ns == 250_000
        assert record.fct_ms == pytest.approx(0.25)
        assert record.first_byte_ns == 3_000
        assert fcts.unfinished == 0

    def test_event_order_is_irrelevant(self):
        events = (lifecycle(1, 10, 500) + lifecycle(0, 20, 300))
        assert extract_fcts(events) == extract_fcts(list(reversed(events)))

    def test_records_sort_by_open_then_flow_id(self):
        events = (lifecycle(5, 100, 900) + lifecycle(2, 50, 800)
                  + lifecycle(9, 50, 700))
        fcts = extract_fcts(events)
        assert [r.flow_id for r in fcts.records] == [2, 9, 5]

    def test_duplicate_events_take_the_first(self):
        events = (lifecycle(3, 100, 400)
                  + [ev(150, "open", 3), ev(600, "close", 3)])
        fcts = extract_fcts(events)
        assert fcts.records[0].open_ns == 100
        assert fcts.records[0].close_ns == 400

    def test_non_lifecycle_kinds_are_ignored(self):
        events = lifecycle(0, 10, 200) + [ev(50, "alpha", 0),
                                          ev(60, "rto", 0)]
        assert len(extract_fcts(events)) == 1

    def test_zero_duration_flow_is_legal(self):
        fcts = extract_fcts(lifecycle(0, 100, 100))
        assert fcts.records[0].fct_ns == 0

    def test_zero_duration_flow_in_reverse_emission_order(self):
        # At one instant a close sorts after its open whatever the input
        # order: this log is valid, not "closed without an open".
        events = [ev(100, "open", 0), ev(100, "first_byte", 0),
                  ev(100, "close", 0)]
        fcts = extract_fcts(list(reversed(events)))
        assert fcts == extract_fcts(events)
        assert fcts.records == (FlowFct(flow_id=0, src=0, open_ns=100,
                                        close_ns=100, first_byte_ns=100),)


class TestClassification:
    def test_split_boundary_is_inclusive_for_mice(self):
        events = lifecycle(0, 0, 100) + lifecycle(1, 0, 100)
        sizes = {0: DEFAULT_MOUSE_MAX_BYTES,
                 1: DEFAULT_MOUSE_MAX_BYTES + 1}
        fcts = extract_fcts(events, sizes=sizes)
        by_id = {r.flow_id: r.cls for r in fcts.records}
        assert by_id == {0: MOUSE, 1: ELEPHANT}

    def test_custom_threshold(self):
        events = lifecycle(0, 0, 100) + lifecycle(1, 0, 100)
        fcts = extract_fcts(events, sizes={0: 500, 1: 5_000},
                            mouse_max_bytes=1_000)
        assert [r.cls for r in fcts.records] == [MOUSE, ELEPHANT]
        assert fcts.mouse_max_bytes == 1_000

    def test_no_sizes_means_everything_is_a_mouse(self):
        fcts = extract_fcts(lifecycle(0, 0, 100))
        assert fcts.records[0].cls == MOUSE
        assert fcts.records[0].size_bytes is None

    def test_digest_only_holds_present_classes(self):
        fcts = extract_fcts(lifecycle(0, 0, 100), sizes={0: 10})
        assert set(fcts.digest().cdfs) == {"mice"}

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError, match="mouse_max_bytes"):
            extract_fcts([], mouse_max_bytes=0)


class TestRejection:
    def test_close_without_open_raises(self):
        with pytest.raises(ValueError, match="without an open"):
            extract_fcts([ev(100, "close", 4)])

    def test_partial_sizes_map_raises(self):
        events = lifecycle(0, 0, 100) + lifecycle(1, 0, 100)
        with pytest.raises(ValueError, match="no size entry"):
            extract_fcts(events, sizes={0: 10})

    def test_nan_size_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            extract_fcts(lifecycle(0, 0, 100), sizes={0: math.nan})

    def test_unfinished_flows_counted_not_recorded(self):
        events = lifecycle(0, 0, 100) + [ev(50, "open", 1)]
        fcts = extract_fcts(events, sizes={0: 10, 1: 10})
        assert len(fcts) == 1
        assert fcts.unfinished == 1
        assert fcts.summary()["unfinished"] == 1

    def test_close_before_open_raises(self):
        with pytest.raises(ValueError, match="precedes"):
            FlowFct(flow_id=0, src=0, open_ns=100, close_ns=50)

    def test_set_checks_close_after_open_like_a_row(self):
        with pytest.raises(ValueError) as row:
            FlowFct(flow_id=4, src=0, open_ns=100, close_ns=50)
        with pytest.raises(ValueError) as column:
            FctSet(flow_ids=(3, 4), srcs=(0, 0), open_ns=(10, 100),
                   close_ns=(20, 50), sizes=(None, None),
                   first_byte_ns=(None, None), classes=(MOUSE, MOUSE))
        assert str(column.value) == str(row.value)

    def test_set_columns_must_have_equal_lengths(self):
        with pytest.raises(ValueError, match="one entry per flow"):
            FctSet(flow_ids=(0, 1), srcs=(0,), open_ns=(0, 0),
                   close_ns=(5, 5), sizes=(None, None),
                   first_byte_ns=(None, None), classes=(MOUSE, MOUSE))


class TestColumns:
    def test_records_are_the_rows_of_the_columns(self):
        fcts = extract_fcts(lifecycle(5, 100, 900, host=2)
                            + lifecycle(2, 50, 800, first_byte_ns=60),
                            sizes={5: 10, 2: 500_000})
        assert fcts.records == (
            FlowFct(flow_id=2, src=0, open_ns=50, close_ns=800,
                    size_bytes=500_000, first_byte_ns=60, cls=ELEPHANT),
            FlowFct(flow_id=5, src=2, open_ns=100, close_ns=900,
                    size_bytes=10, cls=MOUSE))
        assert (fcts.flow_ids, fcts.classes) == ((2, 5), (ELEPHANT, MOUSE))

    def test_empty_set_has_empty_columns(self):
        assert len(FctSet()) == 0
        assert FctSet().records == ()
        assert FctSet(unfinished=2).summary()["unfinished"] == 2


class TestMergeAlgebra:
    def sets(self) -> list[FctSet]:
        return [extract_fcts(lifecycle(0, 0, 100) + lifecycle(1, 50, 60)),
                extract_fcts(lifecycle(2, 25, 80)),
                extract_fcts([ev(10, "open", 3)])]

    def test_merge_is_associative_and_order_independent(self):
        a, b, c = self.sets()
        flat = merge_fct_sets([a, b, c])
        assert merge_fct_sets([merge_fct_sets([a, b]), c]) == flat
        assert merge_fct_sets([a, merge_fct_sets([b, c])]) == flat
        assert merge_fct_sets([c, a, b]) == flat

    def test_merge_re_canonicalizes_order(self):
        a, b, _ = self.sets()
        merged = merge_fct_sets([b, a])
        assert [r.flow_id for r in merged.records] == [0, 2, 1]

    def test_merge_sums_unfinished(self):
        assert merge_fct_sets(self.sets()).unfinished == 1

    def test_merge_of_nothing_is_the_empty_set(self):
        assert merge_fct_sets([]) == FctSet()

    def test_mixed_thresholds_refuse_to_merge(self):
        a = extract_fcts(lifecycle(0, 0, 100), mouse_max_bytes=1_000)
        b = extract_fcts(lifecycle(1, 0, 100), mouse_max_bytes=2_000)
        with pytest.raises(ValueError, match="thresholds"):
            merge_fct_sets([a, b])

    def test_merge_identity_element(self):
        a, _, _ = self.sets()
        assert merge_fct_sets([a, FctSet()]) == a

    def test_merging_a_set_with_itself_raises(self):
        # The duplicate guard: merging a set with itself would silently
        # double-weight every flow in downstream CDFs.
        a, _, _ = self.sets()
        with pytest.raises(ValueError, match="duplicate flow"):
            merge_fct_sets([a, a])

    def test_merge_rejects_colliding_identities_across_sets(self):
        a = extract_fcts(lifecycle(0, 0, 100))
        b = extract_fcts(lifecycle(0, 0, 250))  # same (flow_id, open_ns)
        with pytest.raises(ValueError, match="duplicate flow"):
            merge_fct_sets([a, b])

    def test_same_flow_id_with_distinct_opens_merges_fine(self):
        a = extract_fcts(lifecycle(0, 0, 100))
        b = extract_fcts(lifecycle(0, 500, 900))
        assert len(merge_fct_sets([a, b]).records) == 2


class TestPooling:
    def test_pooling_a_set_with_itself_preserves_distributions(self):
        a = extract_fcts(lifecycle(0, 0, 100) + lifecycle(1, 50, 60))
        pooled = pool_fct_sets([a, a])
        assert len(pooled.records) == 2 * len(a.records)
        assert sorted(r.fct_ns for r in pooled.records) \
            == sorted(list(r.fct_ns for r in a.records) * 2)

    def test_pooled_ids_are_disjoint_and_unfinished_sums(self):
        a = extract_fcts(lifecycle(0, 0, 100) + [ev(10, "open", 9)])
        pooled = pool_fct_sets([a, a, a])
        ids = [r.flow_id for r in pooled.records]
        assert len(set(ids)) == len(ids)
        assert pooled.unfinished == 3 * a.unfinished

    def test_pool_of_nothing_is_the_empty_set(self):
        assert pool_fct_sets([]) == FctSet()


def fct_sets(classes=(MOUSE, ELEPHANT)):
    """An :class:`FctSet` over a small id/time range, so that sets drawn
    together collide on ``(flow_id, open_ns)`` as grid points do."""
    flows = st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 3),
                  st.integers(0, 5_000_000), st.sampled_from(classes)),
        max_size=6, unique_by=lambda flow: flow[0])
    return st.builds(columns_of, flows, st.integers(0, 3))


def columns_of(drawn: list[tuple[int, int, int, str]],
               unfinished: int = 0) -> FctSet:
    """The canonical :class:`FctSet` of ``(flow_id, open_ns, fct_ns,
    cls)`` rows (any order; sender 0, sizes unknown)."""
    rows = sorted(drawn, key=lambda flow: (flow[1], flow[0]))
    n = len(rows)
    return FctSet(flow_ids=tuple(fid for fid, _, _, _ in rows),
                  srcs=(0,) * n,
                  open_ns=tuple(opened for _, opened, _, _ in rows),
                  close_ns=tuple(opened + fct for _, opened, fct, _ in rows),
                  sizes=(None,) * n, first_byte_ns=(None,) * n,
                  classes=tuple(cls for _, _, _, cls in rows),
                  unfinished=unfinished)


def grid_of(sets) -> FctGrid:
    """The :class:`FctGrid` of ``sets``, labelled by position."""
    return FctGrid({f"point{i}": s for i, s in enumerate(sets)})


class TestDigestPooling:
    """``FctGrid.pooled`` is ``pool_fct_sets(...).digest()`` without the
    records: same counts, same CDFs to the bit, hence the same export and
    the same rendered table."""

    @staticmethod
    def assert_same(pooled: FctDigest, oracle: FctDigest) -> None:
        assert json.dumps(pooled.summary()) == json.dumps(oracle.summary())
        assert (pooled.n_flows, pooled.unfinished) \
            == (oracle.n_flows, oracle.unfinished)
        assert list(pooled.cdfs) == list(oracle.cdfs)
        for key, cdf in oracle.cdfs.items():
            assert len(pooled.cdfs[key]) == len(cdf)
            assert pooled.cdfs[key].values.tobytes() == cdf.values.tobytes()
        if oracle.cdfs:
            table = dict(percentiles=(25.0, 50.0, 75.0, 90.0, 99.0),
                         value_label="FCT (ms)")     # as sweep.merge asks
            assert render_cdf_table(pooled.cdfs, **table) \
                == render_cdf_table(oracle.cdfs, **table)

    @given(st.lists(fct_sets() | fct_sets((MOUSE,)) | fct_sets((ELEPHANT,)),
                    max_size=5))
    @example([])
    @example([FctSet()])
    @example([FctSet(unfinished=2), FctSet(unfinished=1)])
    def test_matches_pooling_the_records(self, sets):
        self.assert_same(grid_of(sets).pooled(),
                         pool_fct_sets(sets).digest())

    def test_a_set_pooled_with_itself_collides_on_every_identity(self):
        a = extract_fcts(lifecycle(0, 0, 100) + lifecycle(1, 50, 60)
                         + [ev(10, "open", 9)],
                         sizes={0: 10, 1: 500_000, 9: 10})
        self.assert_same(grid_of([a] * 3).pooled(),
                         pool_fct_sets([a, a, a]).digest())

    def test_mixed_thresholds_are_refused_like_the_record_pool(self):
        a = FctSet(mouse_max_bytes=100_000)
        b = FctSet(mouse_max_bytes=50_000)
        with pytest.raises(ValueError, match="different mouse thresholds"):
            pool_fct_sets([a, b])
        with pytest.raises(ValueError, match="different mouse thresholds"):
            grid_of([a, b]).pooled()


class TestReporting:
    def test_summary_and_export_round_trip_json(self):
        import json
        events = lifecycle(0, 0, 100) + lifecycle(1, 0, 200)
        fcts = extract_fcts(events, sizes={0: 10, 1: 500_000})
        summary = fcts.summary()
        assert summary["n_mice"] == 1 and summary["n_elephants"] == 1
        json.dumps(fcts.export_dict())

    def test_fct_table_renders_every_point(self):
        fcts = extract_fcts(lifecycle(0, 0, 100), sizes={0: 10})
        table = format_fct_table({"K=8": fcts, "K=65": fcts})
        assert "K=8" in table and "K=65" in table
        assert "mice p99" in table
        # The elephant columns render as dashes when the class is absent.
        assert "-" in table

    def test_records_pickle_cleanly(self):
        fcts = extract_fcts(lifecycle(0, 0, 100), sizes={0: 10})
        assert pickle.loads(pickle.dumps(fcts)) == fcts


#: Four mice (one exactly at the 100 kB cut), two elephants (one a byte
#: over it), one flow that never closes.
_MICE = (lifecycle(0, 0, 100_000) + lifecycle(1, 0, 250_000)
         + lifecycle(2, 10, 400_010) + lifecycle(5, 20, 333_353))
_ELEPHANTS = lifecycle(3, 0, 2_000_000) + lifecycle(4, 5, 3_500_005)
_SIZES = {0: 10, 1: 10, 2: 10, 5: 100_000, 3: 500_000, 4: 100_001, 9: 10}
_MICE_BLOCK = (
    '{"name": "mice", "n": 4, "mean": 0.27083325, "percentiles": '
    '{"p1": 0.1, "p5": 0.1, "p10": 0.1, "p25": 0.1, "p50": 0.25, '
    '"p75": 0.333333, "p90": 0.4, "p95": 0.4, "p99": 0.4}}')
_ELEPHANTS_BLOCK = (
    '{"name": "elephants", "n": 2, "mean": 2.75, "percentiles": '
    '{"p1": 2.0, "p5": 2.0, "p10": 2.0, "p25": 2.0, "p50": 2.0, '
    '"p75": 3.5, "p90": 3.5, "p95": 3.5, "p99": 3.5}}')

#: name -> (set, its table row's cells, its summary() as JSON text).
#: The literals are what the commit before the one-digest-per-set change
#: printed and exported; key order is part of the export's bytes.
PINNED = {
    "both": (
        extract_fcts(_MICE + _ELEPHANTS + [ev(7, "open", 9)], sizes=_SIZES),
        ["both", "6", "1", "0.25", "0.4", "0.4", "2", "3.50", "3.50"],
        '{"n_flows": 6, "unfinished": 1, "n_mice": 4, "n_elephants": 2, '
        f'"mice_fct_ms": {_MICE_BLOCK}, '
        f'"elephants_fct_ms": {_ELEPHANTS_BLOCK}}}'),
    "mice": (
        extract_fcts(_MICE, sizes=_SIZES),
        ["mice", "4", "0", "0.25", "0.4", "0.4", "-", "-", "-"],
        '{"n_flows": 4, "unfinished": 0, "n_mice": 4, "n_elephants": 0, '
        f'"mice_fct_ms": {_MICE_BLOCK}}}'),
    "elephants": (
        extract_fcts(_ELEPHANTS, sizes=_SIZES),
        ["elephants", "2", "0", "-", "-", "-", "2", "3.50", "3.50"],
        '{"n_flows": 2, "unfinished": 0, "n_mice": 0, "n_elephants": 2, '
        f'"elephants_fct_ms": {_ELEPHANTS_BLOCK}}}'),
    "empty": (
        FctSet(),
        ["empty", "0", "0", "-", "-", "-", "-", "-", "-"],
        '{"n_flows": 0, "unfinished": 0, "n_mice": 0, "n_elephants": 0}'),
}


@pytest.mark.parametrize("name", sorted(PINNED))
class TestPinnedReporting:
    """The split-once digest prints and exports what the per-call
    rescans did, and leaves the (cache-payload) pickle alone."""

    def test_table_row(self, name):
        fcts, cells, _summary = PINNED[name]
        row = format_fct_table({name: fcts}).splitlines()[-1]
        assert row.split() == cells
        # A grid stands in for its sets (how a sweep merge calls it).
        assert format_fct_table(FctGrid({name: fcts})) \
            == format_fct_table({name: fcts})

    def test_summary_blocks(self, name):
        fcts, _cells, summary = PINNED[name]
        assert json.dumps(fcts.summary()) == summary
        assert json.dumps(fcts.export_dict()) == summary
        assert json.dumps(fcts.digest().summary()) == summary

    def test_pickle_is_untouched_by_reporting(self, name):
        fcts = PINNED[name][0]
        before = pickle.dumps(fcts)
        fcts.summary()
        fcts.digest()
        FctGrid({name: fcts}).summaries()
        format_fct_table({name: fcts})
        assert pickle.dumps(fcts) == before
        assert vars(fcts).keys() == {"flow_ids", "srcs", "open_ns",
                                     "close_ns", "sizes", "first_byte_ns",
                                     "classes", "unfinished",
                                     "mouse_max_bytes"}


def one_cdf_per_class(sets: list[FctSet]) -> list[dict]:
    """The oracle: per set, ``{"mice": cdf, "elephants": cdf}`` built the
    plain way — one :class:`EmpiricalCdf` per (set, class) of Python
    ``int / int`` millisecond FCTs, absent classes left out."""
    out = []
    for s in sets:
        fct_ms: dict = {MOUSE: [], ELEPHANT: []}
        for cls, opened, closed in zip(s.classes, s.open_ns, s.close_ns):
            if cls in fct_ms:
                fct_ms[cls].append((closed - opened) / units.NS_PER_MS)
        out.append({key: EmpiricalCdf(fct_ms[cls], name=key)
                    for key, cls in (("mice", MOUSE),
                                     ("elephants", ELEPHANT))
                    if fct_ms[cls]})
    return out


#: FCTs in ns: anything, exact 3-decimal rounding ties in ms (k * 500
#: ns: 0.0005, 0.0015, ...), and differences around 2**53, past which an
#: int64 difference is no longer an exact float64.
fcts_ns = (st.integers(0, 5 * 10**9)
           | st.integers(0, 4_000).map(lambda k: 500 * k)
           | st.integers(2**53 - 4, 2**53 + 4_000))


@st.composite
def grid_sets(draw) -> FctSet:
    """A set whose classes range from empty through one flow to past
    numpy's 8-element pairwise-sum block, with tied FCTs drawn from a
    short pool, and the odd flow of no known class."""
    pool = draw(st.lists(fcts_ns, min_size=1, max_size=4))
    flows = draw(st.lists(
        st.tuples(st.integers(0, 10**9),
                  st.sampled_from(pool) | fcts_ns,
                  st.sampled_from((MOUSE, MOUSE, ELEPHANT, "other"))),
        max_size=40))
    return columns_of([(flow_id, opened, fct, cls) for flow_id,
                       (opened, fct, cls) in enumerate(flows)],
                      draw(st.integers(0, 3)))


#: Eleven tied mice and an elephant at 0.0025 ms, a 3-decimal tie in
#: decimal but not in binary: ``round(0.0025, 3)`` is 0.003 and
#: ``np.round(0.0025, 3)`` is 0.002.
TIED = columns_of([(i, i, 1_500, MOUSE) for i in range(11)]
                  + [(20, 0, 2_500, ELEPHANT)])


class TestFctGrid:
    """One columnar digest of N sets equals one :class:`EmpiricalCdf` per
    (set, class), bit for bit: every per-set summary, every table row and
    both pooled CDFs. Sets of varying sizes shift each segment's start,
    so a segment's pairwise sum runs at every alignment."""

    @given(st.lists(grid_sets(), max_size=12))
    @example([])
    @example([FctSet()])
    @example([TIED, FctSet(unfinished=1), TIED])
    @example([columns_of([(0, 0, 2**53 + 1, MOUSE)]), TIED])
    def test_matches_one_cdf_per_set_and_class(self, sets):
        labels = [f"point{i}" for i in range(len(sets))]
        grid = FctGrid(dict(zip(labels, sets)))
        oracle = one_cdf_per_class(sets)
        percentiles = (50.0, 90.0, 99.0)

        expected_summaries = {}
        expected_rows = []
        for label, s, cdfs in zip(labels, sets, oracle):
            summary = {"n_flows": len(s), "unfinished": s.unfinished,
                       "n_mice": len(cdfs.get("mice", ())),
                       "n_elephants": len(cdfs.get("elephants", ()))}
            row = [label, len(s), s.unfinished]
            for key in ("mice", "elephants"):
                if key in cdfs:
                    summary[f"{key}_fct_ms"] = cdfs[key].export_dict()
                    row += [round(cdfs[key].percentile(p), 3)
                            for p in percentiles]
                else:
                    row += ["-"] * len(percentiles)
            expected_summaries[label] = summary
            expected_rows.append(row)
        # JSON text carries a float's repr, which round-trips its bits.
        assert json.dumps(grid.summaries()) == json.dumps(expected_summaries)
        assert repr(grid.table_rows(percentiles)) == repr(expected_rows)
        assert [s.summary() for s in sets] \
            == list(expected_summaries.values())

        pooled = grid.pooled()
        for key in ("mice", "elephants"):
            samples = [cdfs[key].values for cdfs in oracle if key in cdfs]
            if not samples:
                assert key not in pooled.cdfs
                continue
            expected = EmpiricalCdf(np.concatenate(samples), name=key)
            assert pooled.cdfs[key].values.tobytes() \
                == expected.values.tobytes()
            assert json.dumps(pooled.cdfs[key].export_dict()) \
                == json.dumps(expected.export_dict())
        assert (pooled.n_flows, pooled.unfinished) \
            == (sum(map(len, sets)), sum(s.unfinished for s in sets))
