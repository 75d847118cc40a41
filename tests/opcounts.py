"""Exact bytecode counts of the packet fast path and of a fluid grid
point: bytecodes per data segment by layer and ``Simulator.run``'s
bytecodes per heap pop, or bytecodes per ``sweep.run_unit``.

Run from the repository root (about a minute; tracing every bytecode
makes a run some 40 times slower)::

    python -m tests.opcounts                        # every shape
    python -m tests.opcounts --shape incast_steady  # one of them
    python -m tests.opcounts --json                 # one JSON object per shape

A shape is one of ``bench``'s packet workloads run through
``run_incast_sim``: ``incast_steady`` (100 flows x one 15 ms burst),
``incast_lossy`` (1000 flows, drops and RTOs) and ``incast_telemetry``
(``incast_steady`` with telemetry on). Opcode events (``sys.settrace``
on CPython 3.11, ``sys.monitoring`` from 3.12) count every bytecode a
frame of ``repro.simcore``,
``repro.netsim`` or ``repro.tcp`` executes; ``Simulator.run`` is the
part of ``simcore`` that runs in the kernel loop's own frame. A *data
segment* is one the senders offered to the trunk queue (as in
``tests/test_packet_budget.py``), and a *heap pop* is one pass of the
run loop's ``heappop``: a fired event, a dead entry discarded, or the
entry a stopping run puts back.

The same run executes the same bytecodes, so the counts are exact, unlike
a timing; they do depend on the interpreter (CPython 3.11 and 3.12
compile the same source differently). ``tests/test_packet_budget.py``
budgets the per-pop figure on a small burst with only the run frame
traced.

The ``fluid_point`` shape counts every Python bytecode (any module,
``numpy``'s and the standard library's included) that ``sweep.run_unit``
executes per unit over the 392 units of ``bench/specs/engine_grid.yaml``
(seed 0, scale 1.0), by layer: the ``repro`` subpackage a frame's code
belongs to, or ``other``. The grid runs once untraced first, so imports
and first-call caches are not counted; ``tests/test_fluid_budget.py``
budgets the figure on every eighth unit.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import sys
from pathlib import Path

#: The three packet workloads of ``bench`` (``IncastSimConfig`` fields).
SHAPES = {
    "incast_steady": dict(n_flows=100, n_bursts=1, seed=0),
    "incast_lossy": dict(n_flows=1000, n_bursts=1, seed=0),
    "incast_telemetry": dict(n_flows=100, n_bursts=1, seed=0,
                             telemetry=True),
}

LAYERS = ("simcore", "netsim", "tcp")
RUN = "Simulator.run"

#: The fluid grid shape: ``sweep.run_unit`` over ``bench``'s engine grid.
FLUID_POINT = "fluid_point"
GRID = Path(__file__).resolve().parents[1] / "bench" / "specs" \
    / "engine_grid.yaml"


def count(config: dict, run_only: bool = False) -> dict:
    """Bytecodes one ``run_incast_sim(IncastSimConfig(**config))``
    executes, per layer and in total, with its data segments and heap
    pops. ``run_only`` traces the run loop's frame alone (``simcore``
    then counts that frame only, and the other layers read 0)."""
    from repro.experiments.environment import IncastSimConfig, run_incast_sim
    from repro.simcore import kernel

    run_code = kernel.Simulator.run.__code__
    lines, first = inspect.getsourcelines(kernel.Simulator.run)
    pop_line = first + next(i for i, text in enumerate(lines)
                            if "= heappop(heap)" in text)
    package = Path(kernel.__file__).resolve().parents[1]
    roots = () if run_only else tuple(
        (layer, str(package / layer)) for layer in LAYERS)
    layer_of = {run_code: RUN}

    def layer(code):
        """The counter ``code``'s bytecodes go to (``None``: untraced)."""
        if code not in layer_of:
            layer_of[code] = next((name for name, root in roots
                                   if code.co_filename.startswith(root)),
                                  None)
        return layer_of[code]

    tally = dict.fromkeys((*LAYERS, RUN, "pops"), 0)
    trace = _monitor if hasattr(sys, "monitoring") else _settrace
    with trace(layer, run_code, pop_line, tally):
        net = run_incast_sim(IncastSimConfig(**config)).network
    trunk = net.trunk_queue.stats
    segments = trunk.enqueued_packets + trunk.dropped_packets
    pops = tally.pop("pops")
    # The run frame's bytecodes were counted apart; they are simcore's.
    tally["simcore"] += tally[RUN]
    return {"python": sys.version.split()[0], "config": config,
            "segments": segments, "heap_pops": pops, "bytecodes": tally,
            "run_per_pop": tally[RUN] / pops}


@contextlib.contextmanager
def _settrace(layer, run_code, pop_line, tally):
    """Count with ``sys.settrace`` opcode events (CPython 3.11)."""
    def tracer_for(name):
        def tracer(frame, event, arg):
            if event == "opcode":
                tally[name] += 1
            elif event == "line" and (frame.f_code is run_code
                                      and frame.f_lineno == pop_line):
                tally["pops"] += 1
            return tracer
        return tracer

    tracers: dict = {}

    def dispatch(frame, event, arg):
        name = layer(frame.f_code)
        if name is None:
            return None
        frame.f_trace_opcodes = True
        if name not in tracers:
            tracers[name] = tracer_for(name)
        return tracers[name]

    sys.settrace(dispatch)
    try:
        yield
    finally:
        sys.settrace(None)


@contextlib.contextmanager
def _monitor(layer, run_code, pop_line, tally):
    """Count with ``sys.monitoring`` instruction events (CPython 3.12+,
    where setting ``f_trace_opcodes`` from a trace function delivers no
    opcode event)."""
    mon = sys.monitoring
    tool = mon.PROFILER_ID
    events = mon.events.INSTRUCTION | mon.events.LINE

    def on_instruction(code, offset):
        name = layer(code)
        if name is None:
            return mon.DISABLE
        tally[name] += 1

    def on_line(code, lineno):
        if code is not run_code:
            return mon.DISABLE
        if lineno == pop_line:
            tally["pops"] += 1

    mon.use_tool_id(tool, "tests.opcounts")
    mon.register_callback(tool, mon.events.INSTRUCTION, on_instruction)
    mon.register_callback(tool, mon.events.LINE, on_line)
    mon.set_events(tool, events)
    try:
        yield
    finally:
        mon.set_events(tool, 0)
        mon.register_callback(tool, mon.events.INSTRUCTION, None)
        mon.register_callback(tool, mon.events.LINE, None)
        mon.free_tool_id(tool)


def count_fluid_point(seed: int = 0, scale: float = 1.0,
                      step: int = 1) -> dict:
    """Bytecodes ``sweep.run_unit`` executes per unit, by layer, over
    every ``step``-th unit of the engine grid, after one untraced pass
    over the same units."""
    from repro.experiments import sweep

    units = sweep.compile_units(sweep.load_sweep_file(GRID), scale,
                                seed)[::step]
    for unit in units:
        sweep.run_unit(unit)
    root = str(Path(sweep.__file__).resolve().parents[1]) + "/"
    layer_of: dict = {}
    tally = {"pops": 0}

    def layer(code):
        """``code``'s ``repro`` subpackage (``repro`` for a top-level
        module), or ``other``."""
        if code not in layer_of:
            name = code.co_filename
            if name.startswith(root):
                head, _, rest = name[len(root):].partition("/")
                layer_of[code] = head if rest else "repro"
            else:
                layer_of[code] = "other"
            tally.setdefault(layer_of[code], 0)
        return layer_of[code]

    trace = _monitor if hasattr(sys, "monitoring") else _settrace
    with trace(layer, None, None, tally):
        for unit in units:
            sweep.run_unit(unit)
    tally.pop("pops")
    ops = {name: n for name, n in tally.items() if n}
    return {"python": sys.version.split()[0], "seed": seed, "scale": scale,
            "units": len(units), "bytecodes": ops,
            "per_unit": sum(ops.values()) / len(units)}


def render_fluid(doc: dict) -> str:
    """The fluid shape's counts as a table: bytecodes per unit by layer."""
    rows = [f"{FLUID_POINT}: {doc['units']} units of the engine grid "
            f"(seed {doc['seed']}, scale {doc['scale']}), Python "
            f"{doc['python']}",
            f"  {'layer':<16}{'bytecodes/unit':>20}"]
    for name, n in sorted(doc["bytecodes"].items(), key=lambda kv: -kv[1]):
        rows.append(f"  {name:<16}{n / doc['units']:>20,.1f}")
    rows.append(f"  {'whole unit':<16}{doc['per_unit']:>20,.1f}")
    return "\n".join(rows)


def render(name: str, doc: dict) -> str:
    """One shape's counts as a table: bytecodes per data segment by
    layer, and the run loop's per heap pop."""
    segments = doc["segments"]
    ops = doc["bytecodes"]
    rows = [f"{name}: {segments:,} data segments, {doc['heap_pops']:,} "
            f"heap pops, Python {doc['python']}",
            f"  {'layer':<16}{'bytecodes/segment':>20}"]
    for layer in (*LAYERS, RUN):
        rows.append(f"  {layer:<16}{ops[layer] / segments:>20,.1f}")
    hot = sum(ops[layer] for layer in LAYERS)
    rows.append(f"  {'hot layers':<16}{hot / segments:>20,.1f}")
    rows.append(f"  {RUN} bytecodes per heap pop: {doc['run_per_pop']:.1f}")
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.opcounts",
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--shape", action="append",
                        choices=sorted((*SHAPES, FLUID_POINT)),
                        help="count this shape only (repeatable; default: "
                             "all four)")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON object per shape instead of "
                             "the tables")
    args = parser.parse_args(argv)
    for name in args.shape or (*SHAPES, FLUID_POINT):
        if name == FLUID_POINT:
            doc = count_fluid_point()
            text = render_fluid(doc)
        else:
            doc = count(SHAPES[name])
            text = render(name, doc)
        print(json.dumps({"shape": name, **doc}) if args.json else text,
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
