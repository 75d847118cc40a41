"""Per-flow footprint: what a packet-level incast still holds when
``run_incast_sim`` returns, in bytes per flow, by layer and by family.

Run from the repository root (about 10 seconds)::

    python -m tests.footprint         # 1000 flows x one burst
    python -m tests.footprint --json  # one JSON object, for scripts

The result of a run holds the whole simulated network (``network``), and
``bench``'s timed loop keeps one result while the next pass builds its
own, so what a run still holds counts twice in that loop's peak RSS.

As in that loop, the measured run follows an identical warm-up run (lazy
imports, memo tables, free lists, and the attribute names each class
has met), and tracemalloc traces it with one frame. What is still
allocated after it returns and a full collection is counted: the result
and, through it, the network. A *layer* is the package under
``src/repro`` of the line that allocated the bytes (``netsim``,
``tcp``, ...); a *family* is the function or method around that line (an
object counts where it was constructed, its containers where they were
made). ``unfolded_records`` counts the arrival and drain records composed
ports still hold, each one booked work a read would still have to fold.

Measure in a fresh interpreter (:func:`measure_fresh`): CPython shares
one attribute-key table per class across a process, so the runs that
came before can decide whether a sender's attributes fit inline.
``tests/test_packet_budget.py`` budgets the 1000-flow figure.
"""

from __future__ import annotations

import argparse
import ast
import gc
import json
import os
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The measured run: ``bench``'s incast_lossy shape (the paper's Mode 3
#: size, one 15 ms burst), which drops packets and takes RTOs.
FLOWS = 1000
SEED = 0

_SHOWN = 6  # families listed per layer; the rest are summed


@lru_cache(maxsize=None)
def _functions(path: str) -> tuple[tuple[int, int, str], ...]:
    """``(first, last, qualname)`` of every def and class in ``path``."""
    spans = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                spans.append((child.lineno, child.end_lineno, name))
                walk(child, name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(Path(path).read_text(), filename=path), "")
    return tuple(spans)


def _family(package: Path, filename: str, lineno: int) -> tuple[str, str]:
    """``(layer, family)`` of an allocation at ``filename:lineno``."""
    try:
        rel = Path(filename).resolve().relative_to(package)
    except ValueError:
        return "other", "outside src/repro"
    layer = rel.parts[0] if len(rel.parts) > 1 else rel.stem
    inner = max((span for span in _functions(filename)
                 if span[0] <= lineno <= span[1]), default=None)
    return layer, f"{rel.as_posix()}:{inner[2] if inner else '<module>'}"


def unfolded_records(net) -> int:
    """Records the dumbbell's composed ports still hold."""
    ports = net.tor_senders.ports + net.tor_receiver.ports
    return sum(len(port._varrivals) + len(port._vdrains) for port in ports)


def measure() -> dict:
    """Footprint of one ``FLOWS``-flow, one-burst dumbbell incast, in this
    interpreter (see the module docstring for what is counted)."""
    import repro
    from repro.experiments.environment import IncastSimConfig, run_incast_sim

    package = Path(repro.__file__).resolve().parent
    config = IncastSimConfig(n_flows=FLOWS, n_bursts=1, seed=SEED)
    run_incast_sim(config)
    gc.collect()
    tracemalloc.start(1)
    try:
        result = run_incast_sim(config)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    layers: dict[str, int] = {}
    families: dict[str, int] = {}
    for stat in snapshot.statistics("lineno"):
        frame = stat.traceback[0]
        layer, family = _family(package, frame.filename, frame.lineno)
        layers[layer] = layers.get(layer, 0) + stat.size
        key = f"{layer} {family}"
        families[key] = families.get(key, 0) + stat.size
    total = sum(layers.values())
    return {
        "python": sys.version.split()[0],
        "flows": FLOWS, "seed": SEED,
        "drops": sum(b.drops for b in result.burst_results),
        "rtos": sum(b.rto_events for b in result.burst_results),
        "total_bytes": total,
        "bytes_per_flow": total / FLOWS,
        "layers": dict(sorted(layers.items(), key=lambda kv: -kv[1])),
        "families": dict(sorted(families.items(), key=lambda kv: -kv[1])),
        "unfolded_records": unfolded_records(result.network),
    }


def measure_fresh() -> dict:
    """:func:`measure` in a new interpreter, so no earlier run in this one
    shapes the objects the measured run builds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (
        str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "tests.footprint", "--json"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def render(doc: dict) -> str:
    """The footprint as a table: bytes per flow by layer, and the largest
    families of each layer."""
    flows = doc["flows"]
    lines = [f"held after run_incast_sim returns: {flows} flows x one burst,"
             f" seed {doc['seed']} ({doc['drops']} drops, {doc['rtos']} "
             f"RTOs), Python {doc['python']}",
             f"{'layer / family':<58} {'B/flow':>8}"]
    for layer, size in doc["layers"].items():
        lines.append(f"{layer:<58} {size / flows:>8,.0f}")
        # Families under half a byte per flow are not worth a row.
        members = [(key.split(" ", 1)[1], fsize)
                   for key, fsize in doc["families"].items()
                   if key.split(" ", 1)[0] == layer
                   and fsize >= flows / 2]
        for family, fsize in members[:_SHOWN]:
            lines.append(f"  {family:<56} {fsize / flows:>8,.0f}")
        rest = size - sum(fsize for _, fsize in members[:_SHOWN])
        if rest >= flows / 2:
            lines.append(f"  {'(the rest)':<56} {rest / flows:>8,.0f}")
    lines.append(f"{'total':<58} {doc['bytes_per_flow']:>8,.0f}  "
                 f"({doc['bytes_per_flow'] / 1000:.2f} KB per flow)")
    lines.append(f"unfolded records: {doc['unfolded_records']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.footprint",
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", action="store_true",
                        help="print one JSON object instead of the table")
    args = parser.parse_args(argv)
    doc = measure()
    print(json.dumps(doc) if args.json else render(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
