"""Per-flow flow-completion-time (FCT) extraction.

The sweep scenarios measure what the ECN-threshold literature measures:
per-flow FCTs over a mixed elephant/mice workload, split by flow class.
The raw material is the telemetry flow-lifecycle log — the
:class:`~repro.telemetry.recorder.FlowEvent` stream every simulation
already emits on ``flow.open`` / ``flow.first_byte`` / ``flow.close`` —
so FCT extraction is a pure post-processing step: no new instrumentation
in the packet path, and any captured run can be re-analysed offline.

The contract:

- a flow's FCT is ``first close - open`` (close fires when the sender's
  cumulative ACK reaches its demand, i.e. when every byte is delivered);
- a flow that opened but never closed inside the simulated horizon is
  *unfinished*: it is excluded from every CDF and counted in
  :attr:`FctSet.unfinished` (silently folding it in would fake a finite
  FCT for a flow the horizon truncated);
- flows are classed ``mouse`` or ``elephant`` by their demand size
  against a threshold (mice: ``size <= mouse_max_bytes``), matching the
  deliberate elephant-over-incast-mice overlap of the grid scenarios;
- merging :class:`FctSet` s from different work units is associative and
  order-independent (rows re-sort by ``(open_ns, flow_id)``), so a
  sweep merged from cached, parallel, or resumed units is byte-identical
  to a serial one.

An :class:`FctSet` holds its flows as columns — one tuple per field —
because that is what every consumer reads (a CDF wants the FCTs of one
class, a merge wants the identities) and what a sealed cache payload
pickles cheaply; :class:`FlowFct` is the one-flow row view, built on
demand by :attr:`FctSet.records`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, repeat
from operator import itemgetter, lt
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from repro import units
from repro.analysis.cdf import (EXPORT_PERCENTILES, EmpiricalCdf,
                                export_summary, inverted_cdf_indices,
                                sample_mean)
from repro.analysis.tables import format_table

MOUSE = "mouse"
ELEPHANT = "elephant"

DEFAULT_MOUSE_MAX_BYTES = 100_000
"""Flows at or below this demand are mice (the classic 100 KB cut)."""


@dataclass(frozen=True)
class FlowFct:
    """One finished flow's lifecycle, reduced to the FCT view."""

    flow_id: int
    src: int
    open_ns: int
    close_ns: int
    size_bytes: Optional[int] = None
    first_byte_ns: Optional[int] = None
    cls: str = MOUSE

    def __post_init__(self) -> None:
        if self.close_ns < self.open_ns:
            raise ValueError(
                f"flow {self.flow_id}: close at {self.close_ns} precedes "
                f"open at {self.open_ns}")

    @property
    def fct_ns(self) -> int:
        """Flow completion time in nanoseconds."""
        return self.close_ns - self.open_ns

    @property
    def fct_ms(self) -> float:
        """Flow completion time in milliseconds."""
        return units.ns_to_ms(self.fct_ns)

    def to_dict(self) -> dict:
        """JSON-ready record (one row of a per-flow export)."""
        return {"flow_id": self.flow_id, "src": self.src,
                "open_ns": self.open_ns, "close_ns": self.close_ns,
                "fct_ns": self.fct_ns, "size_bytes": self.size_bytes,
                "first_byte_ns": self.first_byte_ns, "cls": self.cls}


@dataclass(frozen=True)
class FctDigest:
    """Pooled FCT samples split by class, in milliseconds: what a merged
    CDF table and a merged JSON summary both read.

    Derived on demand (:meth:`FctGrid.pooled`, :meth:`FctSet.digest`) and
    never stored: a sealed cache payload pickles the sets' columns, not
    their digest.

    Attributes:
        n_flows: Finished flows of every class.
        unfinished: Flows the horizon truncated.
        cdfs: ``{"mice": cdf, "elephants": cdf}`` of FCTs in
            milliseconds, absent classes excluded.
        mouse_max_bytes: The classification threshold behind the split.
    """

    n_flows: int
    unfinished: int
    cdfs: dict[str, EmpiricalCdf]
    mouse_max_bytes: int = DEFAULT_MOUSE_MAX_BYTES

    def summary(self) -> dict:
        """Scalar digest for JSON export and golden fixtures."""
        out: dict = {"n_flows": self.n_flows,
                     "unfinished": self.unfinished,
                     "n_mice": len(self.cdfs.get("mice", ())),
                     "n_elephants": len(self.cdfs.get("elephants", ()))}
        for key, cdf in self.cdfs.items():
            out[f"{key}_fct_ms"] = cdf.export_dict()
        return out


@dataclass(frozen=True)
class FctSet:
    """An order-canonical set of finished flows, held as columns, plus
    rejection accounting.

    Entry ``i`` of every column tuple describes the same finished flow,
    and the flows are sorted by ``(open_ns, flow_id)`` — the canonical
    order that makes :func:`merge_fct_sets` associative.

    Attributes:
        flow_ids: Sim-local flow id per finished flow.
        srcs: Sending host rank per flow.
        open_ns: Open instant per flow.
        close_ns: First close instant per flow (never before its open).
        sizes: Demand in bytes per flow (``None`` where unknown).
        first_byte_ns: First delivered byte per flow (``None`` where the
            substrate does not observe it).
        classes: :data:`MOUSE` or :data:`ELEPHANT` per flow.
        unfinished: Flows that opened but never closed (horizon
            truncation); never part of a CDF.
        mouse_max_bytes: The classification threshold the flows were
            classed with.
    """

    flow_ids: tuple[int, ...] = ()
    srcs: tuple[int, ...] = ()
    open_ns: tuple[int, ...] = ()
    close_ns: tuple[int, ...] = ()
    sizes: tuple[Optional[int], ...] = ()
    first_byte_ns: tuple[Optional[int], ...] = ()
    classes: tuple[str, ...] = ()
    unfinished: int = 0
    mouse_max_bytes: int = DEFAULT_MOUSE_MAX_BYTES

    def __post_init__(self) -> None:
        columns = (self.flow_ids, self.srcs, self.open_ns, self.close_ns,
                   self.sizes, self.first_byte_ns, self.classes)
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"FctSet columns need one entry per flow; got "
                             f"lengths {[len(c) for c in columns]}")
        if any(map(lt, self.close_ns, self.open_ns)):
            for flow_id, open_ns, close_ns in zip(
                    self.flow_ids, self.open_ns, self.close_ns):
                if close_ns < open_ns:
                    raise ValueError(
                        f"flow {flow_id}: close at {close_ns} precedes "
                        f"open at {open_ns}")

    def __len__(self) -> int:
        return len(self.flow_ids)

    @property
    def records(self) -> tuple[FlowFct, ...]:
        """The flows as :class:`FlowFct` rows, in canonical order (built
        on each access; nothing on a sweep's path reads them)."""
        return tuple(map(FlowFct, self.flow_ids, self.srcs, self.open_ns,
                         self.close_ns, self.sizes, self.first_byte_ns,
                         self.classes))

    def digest(self) -> FctDigest:
        """This set's per-class CDFs (the one-set :meth:`FctGrid.pooled`)."""
        return FctGrid({"": self}).pooled()

    def summary(self) -> dict:
        """Scalar digest for JSON export and golden fixtures (the one-set
        :meth:`FctGrid.summaries`)."""
        return FctGrid({"": self}).summaries()[""]

    def export_dict(self) -> dict:
        """JSON export hook (:mod:`repro.analysis.export`)."""
        return self.summary()


def _rows(fcts: FctSet) -> Iterable[tuple]:
    """``fcts``' flows as ``(open_ns, flow_id, src, close_ns, size,
    first_byte_ns, cls)`` tuples: the canonical sort key leads."""
    return zip(fcts.open_ns, fcts.flow_ids, fcts.srcs, fcts.close_ns,
               fcts.sizes, fcts.first_byte_ns, fcts.classes)


def _from_rows(rows: list[tuple], unfinished: int,
               mouse_max_bytes: int) -> FctSet:
    """The :class:`FctSet` of :func:`_rows`-shaped tuples, which this
    sorts into canonical order (their ``(open_ns, flow_id)`` are
    distinct)."""
    rows.sort(key=itemgetter(0, 1))
    if not rows:
        return FctSet(unfinished=unfinished, mouse_max_bytes=mouse_max_bytes)
    open_ns, flow_ids, srcs, close_ns, sizes, first_bytes, classes = \
        zip(*rows)
    return FctSet(flow_ids, srcs, open_ns, close_ns, sizes, first_bytes,
                  classes, unfinished, mouse_max_bytes)


def extract_fcts(events: Iterable, *,
                 sizes: Optional[Mapping[int, int]] = None,
                 mouse_max_bytes: int = DEFAULT_MOUSE_MAX_BYTES) -> FctSet:
    """Reduce a flow-lifecycle event log to per-flow FCT columns.

    Args:
        events: ``FlowEvent``-shaped objects (``time_ns`` / ``kind`` /
            ``flow_id`` / ``host`` attributes) in any order; only the
            ``open`` / ``first_byte`` / ``close`` kinds are consumed, and
            at one instant a flow's open counts before its first byte
            and its first byte before its close.
        sizes: Per-flow demand in bytes, used for mouse/elephant
            classification. Flows without an entry classify by the
            threshold as mice only when ``sizes`` is omitted entirely;
            with a partial map the missing flow is an error (a silent
            default would misclass an elephant). ``NaN`` sizes are
            rejected for the same reason.
        mouse_max_bytes: Largest demand still counted as a mouse.

    Returns:
        An order-canonical :class:`FctSet`; flows with an ``open`` but no
        ``close`` are counted as unfinished, and a ``close`` with no
        preceding ``open`` raises (the log is corrupt).
    """
    if mouse_max_bytes <= 0:
        raise ValueError("mouse_max_bytes must be positive")
    opens: dict[int, tuple[int, int]] = {}     # flow -> (open_ns, src)
    first_bytes: dict[int, int] = {}
    closes: dict[int, int] = {}                # first close only
    rank = {"open": 0, "first_byte": 1, "close": 2}.get
    ordered = sorted(events,
                     key=lambda e: (e.time_ns, e.flow_id, rank(e.kind, 3)))
    for event in ordered:
        if event.kind == "open":
            opens.setdefault(event.flow_id, (event.time_ns, event.host))
        elif event.kind == "first_byte":
            first_bytes.setdefault(event.flow_id, event.time_ns)
        elif event.kind == "close":
            if event.flow_id not in opens:
                raise ValueError(
                    f"flow {event.flow_id} closed at {event.time_ns} "
                    f"without an open event — corrupt lifecycle log")
            closes.setdefault(event.flow_id, event.time_ns)

    rows = []
    for flow_id, (open_ns, src) in opens.items():
        if flow_id not in closes:
            continue  # unfinished; counted below
        size: Optional[int] = None
        if sizes is not None:
            if flow_id not in sizes:
                raise ValueError(
                    f"flow {flow_id} has no size entry; pass sizes for "
                    f"every flow (or none at all)")
            raw = sizes[flow_id]
            if isinstance(raw, float) and math.isnan(raw):
                raise ValueError(f"flow {flow_id}: NaN size is not a "
                                 f"classifiable demand")
            size = int(raw)
        cls = MOUSE if size is None or size <= mouse_max_bytes \
            else ELEPHANT
        rows.append((open_ns, flow_id, src, closes[flow_id], size,
                     first_bytes.get(flow_id), cls))
    return _from_rows(rows, len(opens) - len(rows), mouse_max_bytes)


def _common_threshold(entries: Sequence[FctSet]) -> int:
    """The one mouse threshold every entry was classified with; mixing
    thresholds would pool different populations under one class name."""
    thresholds = {entry.mouse_max_bytes for entry in entries}
    if len(thresholds) > 1:
        raise ValueError(f"cannot merge FCT sets classified with different "
                         f"mouse thresholds: {sorted(thresholds)}")
    return thresholds.pop()


def merge_fct_sets(sets: Sequence[FctSet]) -> FctSet:
    """Combine per-unit FCT sets into one (associative, order-canonical).

    Flows re-sort into the canonical ``(open_ns, flow_id)`` order and
    unfinished counts add, so ``merge([merge([a, b]), c])`` equals
    ``merge([a, merge([b, c])])`` and equals ``merge([a, b, c])`` — the
    property that lets a sweep merge cached, fresh, and resumed unit
    payloads interchangeably.

    The inputs must describe *disjoint* flows: two flows sharing a
    ``(flow_id, open_ns)`` identity mean the same flow arrived twice
    (e.g. one unit payload merged with itself after a resume or cache
    bug), which would silently double-count it in every CDF — that is an
    error here. Sets from *different simulations* of the same flow plan
    legitimately repeat identities; pool those with
    :func:`pool_fct_sets` instead.
    """
    if not sets:
        return FctSet()
    threshold = _common_threshold(sets)
    rows = [row for s in sets for row in _rows(s)]
    seen: set[tuple[int, int]] = set()
    for row in rows:
        identity = row[:2]
        if identity in seen:
            raise ValueError(
                f"duplicate flow in merge: flow_id={row[1]} opened at "
                f"{row[0]} ns appears in more than one input set — "
                f"merging would double-count it (same unit payload merged "
                f"twice?); use pool_fct_sets for records from distinct "
                f"simulations")
        seen.add(identity)
    return _from_rows(rows, sum(s.unfinished for s in sets), threshold)


def pool_fct_sets(sets: Sequence[FctSet]) -> FctSet:
    """Pool FCT sets from *distinct simulations* into one sample set.

    A sweep's grid points simulate the same deterministic flow plan under
    different parameters, so their flows legitimately collide on
    ``(flow_id, open_ns)`` — they are independent measurements, not the
    same flow twice. Pooling renumbers each input set's flows into a
    disjoint id range (set index stacked above the widest id) and then
    merges; the resulting CDFs are unchanged by renumbering (FCTs do not
    depend on flow ids) while :func:`merge_fct_sets`'s double-count guard
    stays meaningful for true unit-payload merges.
    """
    if not sets:
        return FctSet()
    width = max((flow_id for s in sets for flow_id in s.flow_ids),
                default=0) + 1
    return merge_fct_sets([
        replace(s, flow_ids=tuple(index * width + flow_id
                                  for flow_id in s.flow_ids))
        for index, s in enumerate(sets)])


_SLOTS = ("mice", "elephants")
"""A digest's class keys, in export order: slot 0 holds :data:`MOUSE`
flows, slot 1 :data:`ELEPHANT` flows."""

_SLOT_OF = {MOUSE: 0, ELEPHANT: 1}.get

_EXACT_NS = 1 << 53
"""Below this an integer nanosecond difference is an exact float64, so
numpy's division rounds it as Python's ``int / int`` does."""


class FctGrid:
    """The FCT digests of many labelled sets, computed as one set of
    columns.

    A sweep reports, per grid point, an FCT summary and a table row, and
    across the grid the pooled CDFs. Rather than one
    :class:`EmpiricalCdf` per (set, class), every finished flow's FCT in
    milliseconds lands in one float64 array with one segment per (set,
    class) — segment ``2 i`` holds set ``i``'s mice, ``2 i + 1`` its
    elephants; flows of any other class belong to no segment — sorted
    within segments by one ``np.lexsort``. A percentile is then a gather
    at :func:`~repro.analysis.cdf.inverted_cdf_indices` offset by the
    segment's start, and a mean is :func:`~repro.analysis.cdf.sample_mean`
    of the segment's view, so every number is the one an
    :class:`EmpiricalCdf` of that segment gives, bit for bit:

    - the FCT is ``(close - open) / NS_PER_MS`` on int64 columns, exact
      below 2**53 ns (past that it falls back to Python's division);
    - a segment view holds the same sorted values as that CDF's array;
    - a table cell is Python's ``round(x, 3)``, never ``np.round``.

    Args:
        rows: The sets by label (a grid point id, a scheme name);
            :attr:`labels` keeps their order.
    """

    def __init__(self, rows: Mapping[str, FctSet]):
        self.labels = tuple(rows)
        self._sets = list(rows.values())
        self._n_flows = [len(s) for s in self._sets]
        total = sum(self._n_flows)

        def column(name: str) -> Iterable:
            return chain.from_iterable(getattr(s, name) for s in self._sets)

        slot = np.fromiter(map(_SLOT_OF, column("classes"), repeat(2)),
                           np.intp, total)
        delta = (np.fromiter(column("close_ns"), np.int64, total)
                 - np.fromiter(column("open_ns"), np.int64, total))
        segment = np.repeat(np.arange(0, 2 * len(self._sets), 2),
                            self._n_flows) + slot
        if total and slot.max() > 1:
            keep = slot < 2
            segment, delta = segment[keep], delta[keep]
        if len(delta) and int(delta.max()) >= _EXACT_NS:
            fct_ms = np.array([d / units.NS_PER_MS for d in delta.tolist()])
        else:
            fct_ms = delta / units.NS_PER_MS
        order = np.lexsort((fct_ms, segment))
        self._values = fct_ms[order]
        self._segment = segment[order]
        self._sizes = np.bincount(segment, minlength=2 * len(self._sets))
        self._starts = np.cumsum(self._sizes) - self._sizes

    def _gather(self, percentiles: Sequence[float]) -> list[list[float]]:
        """The values at ``percentiles`` of every non-empty segment, in
        segment order: one index computation and one gather."""
        present = np.flatnonzero(self._sizes)
        index = (inverted_cdf_indices(self._sizes[present], percentiles)
                 + self._starts[present, None])
        return self._values[index].tolist()

    def summaries(self) -> dict[str, dict]:
        """Each set's :meth:`FctSet.summary` by label: flow counts, then
        an :func:`~repro.analysis.cdf.export_summary` block per class
        present."""
        sizes = self._sizes.tolist()
        starts = self._starts.tolist()
        blocks = iter(zip(
            self._gather(EXPORT_PERCENTILES),
            [sample_mean(self._values[a:a + n])
             for a, n in zip(starts, sizes) if n]))
        out = {}
        for i, label in enumerate(self.labels):
            summary = {"n_flows": self._n_flows[i],
                       "unfinished": self._sets[i].unfinished,
                       "n_mice": sizes[2 * i],
                       "n_elephants": sizes[2 * i + 1]}
            for key, n in zip(_SLOTS, sizes[2 * i:2 * i + 2]):
                if n:
                    percentiles, mean = next(blocks)
                    summary[f"{key}_fct_ms"] = export_summary(
                        key, n, mean, percentiles)
            out[label] = summary
        return out

    def table_rows(self, percentiles: Sequence[float]) -> list[list]:
        """One :func:`format_fct_table` row per set: label, flow counts,
        then each class's FCT at ``percentiles`` in milliseconds rounded
        to three decimals (``"-"`` for an absent class)."""
        sizes = self._sizes.tolist()
        cells = iter(self._gather(percentiles))
        rows = []
        for i, label in enumerate(self.labels):
            row: list = [label, self._n_flows[i], self._sets[i].unfinished]
            for n in sizes[2 * i:2 * i + 2]:
                row += ([round(value, 3) for value in next(cells)] if n
                        else ["-"] * len(percentiles))
            rows.append(row)
        return rows

    def pooled(self) -> FctDigest:
        """Every set's flows pooled into one digest (counts add).

        A pooled CDF reads FCTs, never flow identities: per class it is
        the sets' sorted segments in set order, concatenated into one
        :class:`EmpiricalCdf` — the array, hence the percentiles and mean
        to the bit, that renumbering and merging the records
        (:func:`pool_fct_sets`) would give. Refuses sets classified with
        different thresholds, as that pool does."""
        if not self._sets:
            return FctDigest(0, 0, {})
        threshold = _common_threshold(self._sets)
        slot = self._segment & 1
        cdfs = {key: EmpiricalCdf(self._values[slot == i], name=key)
                for i, key in enumerate(_SLOTS) if self._sizes[i::2].any()}
        return FctDigest(sum(self._n_flows),
                         sum(s.unfinished for s in self._sets), cdfs,
                         threshold)


def format_fct_table(rows: Union[Mapping[str, FctSet], FctGrid],
                     percentiles: Sequence[float] = (50.0, 90.0, 99.0),
                     title: str = "") -> str:
    """Render one FCT summary row per labelled set (e.g. per grid point).

    Columns: flow counts, then mice and elephant FCT percentiles in
    milliseconds — the textual form of an FCT-vs-K comparison figure.
    A caller that also exports the sets passes their :class:`FctGrid`,
    so the sets are digested once.
    """
    grid = rows if isinstance(rows, FctGrid) else FctGrid(rows)
    headers = ["point", "flows", "unfin"]
    for cls in ("mice", "eleph"):
        headers += [f"{cls} p{p:g} (ms)" for p in percentiles]
    return format_table(headers, grid.table_rows(percentiles),
                        title=title or "Per-flow FCT summary")
