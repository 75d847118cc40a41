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
from operator import itemgetter, lt
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from repro import units
from repro.analysis.cdf import EmpiricalCdf
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
    """An :class:`FctSet` split by class and converted to milliseconds
    once: what a table row and a JSON summary both read.

    Derived on demand (:meth:`FctSet.digest`) and never stored: a sealed
    cache payload pickles the set's columns, not their digest.

    Attributes:
        n_flows: Finished flows of every class.
        unfinished: Flows the horizon truncated.
        cdfs: ``{"mice": cdf, "elephants": cdf}`` of FCTs in
            milliseconds, absent classes excluded.
        mouse_max_bytes: The classification threshold behind the split
            (carried so pooling can refuse to mix thresholds).
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
        if any(len(column) != len(self.flow_ids) for column in columns):
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

    def split_cdfs(self) -> dict[str, EmpiricalCdf]:
        """``{"mice": cdf, "elephants": cdf}`` of FCTs in milliseconds
        (absent classes excluded), from one pass over the columns."""
        fct_ms: dict[str, list[float]] = {MOUSE: [], ELEPHANT: []}
        for cls, open_ns, close_ns in zip(self.classes, self.open_ns,
                                          self.close_ns):
            if cls in fct_ms:
                fct_ms[cls].append((close_ns - open_ns) / units.NS_PER_MS)
        return {key: EmpiricalCdf(fct_ms[cls], name=key)
                for key, cls in (("mice", MOUSE), ("elephants", ELEPHANT))
                if fct_ms[cls]}

    def digest(self) -> FctDigest:
        """Split and convert once; share the result between every reader
        of this set (a sweep point feeds a table row and an export)."""
        return FctDigest(len(self.flow_ids), self.unfinished,
                         self.split_cdfs(), self.mouse_max_bytes)

    def summary(self) -> dict:
        """Scalar digest for JSON export and golden fixtures."""
        return self.digest().summary()

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


def _common_threshold(entries: Sequence[Union[FctSet, FctDigest]]) -> int:
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


def pool_fct_digests(digests: Sequence[FctDigest]) -> FctDigest:
    """``pool_fct_sets(sets).digest()`` from the sets' digests alone.

    A pooled CDF reads FCTs, never flow identities, so pooling needs no
    records: per class the digests' sorted samples concatenate into one
    :class:`EmpiricalCdf`, which sorts them and takes its mean over the
    sorted array — the same array, hence the same percentiles and mean to
    the bit, as re-materialising and renumbering every flow record would
    give. Counts add.
    """
    if not digests:
        return FctDigest(0, 0, {})
    threshold = _common_threshold(digests)
    cdfs = {}
    for key in ("mice", "elephants"):
        samples = [d.cdfs[key].values for d in digests if key in d.cdfs]
        if samples:
            cdfs[key] = EmpiricalCdf(np.concatenate(samples), name=key)
    return FctDigest(sum(d.n_flows for d in digests),
                     sum(d.unfinished for d in digests), cdfs, threshold)


def format_fct_table(rows: Mapping[str, Union[FctSet, FctDigest]],
                     percentiles: Sequence[float] = (50.0, 90.0, 99.0),
                     title: str = "") -> str:
    """Render one FCT summary row per labelled set (e.g. per grid point).

    Columns: flow counts, then mice and elephant FCT percentiles in
    milliseconds — the textual form of an FCT-vs-K comparison figure.
    A caller that also exports the sets passes their digests, so each
    (set, class) CDF is built once.
    """
    headers = ["point", "flows", "unfin"]
    for cls in ("mice", "eleph"):
        headers += [f"{cls} p{p:g} (ms)" for p in percentiles]
    table_rows = []
    for label, entry in rows.items():
        digest = entry.digest() if isinstance(entry, FctSet) else entry
        row: list[object] = [label, digest.n_flows, digest.unfinished]
        for key in ("mice", "elephants"):
            cdf = digest.cdfs.get(key)
            if cdf is None:
                row += ["-"] * len(percentiles)
            else:
                row += [round(cdf.percentile(p), 3) for p in percentiles]
        table_rows.append(row)
    return format_table(headers, table_rows,
                        title=title or "Per-flow FCT summary")
