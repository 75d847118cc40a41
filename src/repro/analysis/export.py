"""JSON export of experiment results.

``python -m repro.experiments --all --json-dir results/`` writes one JSON
document per experiment so runs can be archived, diffed across versions,
and post-processed by external plotting tools. Only JSON-representable
content is exported: rendered sections always; ``data`` entries when they
are plain scalars/lists/dicts or numpy arrays (converted), with everything
else summarized by type name.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

import numpy as np

from repro.experiments.result import ExperimentResult

_MAX_ARRAY_EXPORT = 100_000


def jsonable(value: Any) -> Any:
    """Best-effort conversion of ``value`` into JSON-compatible data.

    Numpy scalars and arrays convert to Python numbers and lists (arrays
    beyond a size cap are summarized); dicts/lists/tuples convert
    recursively; anything else becomes a ``"<TypeName>"`` placeholder.
    """
    # Numpy scalar checks come first: np.float64 *is* a float subclass,
    # and NaN must map to None either way (JSON has no NaN).
    if isinstance(value, (np.bool_, np.integer)):
        return value.item()
    if isinstance(value, (float, np.floating)):
        out = float(value)
        return None if np.isnan(out) else out
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, np.ndarray):
        if value.size > _MAX_ARRAY_EXPORT:
            return {"__array_summary__": True, "shape": list(value.shape),
                    "dtype": str(value.dtype),
                    "mean": float(np.nanmean(value.astype(np.float64)))}
        return [jsonable(item) for item in value.tolist()]
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, ExperimentResult):
        return result_to_dict(value)
    export = getattr(value, "export_dict", None)
    if callable(export):
        return {str(key): jsonable(item) for key, item in export().items()}
    return f"<{type(value).__name__}>"


def result_to_dict(result: ExperimentResult) -> dict:
    """Flatten an :class:`ExperimentResult` into a JSON-compatible dict."""
    return {
        "name": result.name,
        "description": result.description,
        "sections": list(result.sections),
        "data": {key: jsonable(value) for key, value in result.data.items()},
    }


def _write_json(document: Any, path: Path) -> Path:
    """Serialise ``document`` in memory, then put it at ``path`` whole.

    One ``json.dumps`` and one write to a temp name in the same
    directory, then ``os.replace``: a crash or an encoding error
    mid-export leaves the previous file (or none), never a truncated one.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(document, indent=2, allow_nan=False,
                      default=lambda o: f"<{type(o).__name__}>")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def write_result(result: ExperimentResult, directory: Path) -> Path:
    """Write one experiment's JSON document; returns the file path."""
    return _write_json(result_to_dict(result),
                       Path(directory) / f"{result.name}.json")


def write_run_report(report: Any, directory: Path) -> Path:
    """Write an engine :class:`~repro.experiments.engine.report.RunReport`
    (anything with ``to_dict()``) as ``run_report.json``."""
    return _write_json(jsonable(report.to_dict()),
                       Path(directory) / "run_report.json")
