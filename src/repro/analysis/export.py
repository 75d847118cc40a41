"""JSON export of experiment results.

``python -m repro.experiments --all --json-dir results/`` writes one JSON
document per experiment so runs can be archived, diffed across versions,
and post-processed by external plotting tools. Only JSON-representable
content is exported: rendered sections always; ``data`` entries when they
are plain scalars/lists/dicts or numpy arrays (converted), with everything
else summarized by type name.

:func:`jsonable` holds the normalisation rules; :func:`pretty_json`
applies them *while* encoding, in one walk over the document, and
:func:`write_json` puts the text on disk all-or-nothing. Results, run
reports and ``telemetry_view --dump-json`` all go through that one writer.
"""

from __future__ import annotations

import json.encoder
import os
from itertools import chain, repeat
from math import isfinite
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
        return jsonable(value.tolist())     # a scalar for a 0-d array
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
        "data": {str(key): jsonable(value)
                 for key, value in result.data.items()},
    }


class _NonFiniteFloat(ValueError):
    """A ``±inf`` (or a ``NaN`` outside normalised data) met while
    encoding: JSON cannot carry it. Each container the error unwinds
    through adds its key, so the message names where the value sits."""

    def __init__(self, value: float):
        super().__init__(value)
        self.value = value
        self.keys: list = []    # innermost first

    def __str__(self) -> str:
        path = ""
        for key in reversed(self.keys):
            if isinstance(key, int):        # a list index
                path += f"[{key}]"
            elif key.isidentifier():
                path += f".{key}" if path else key
            else:
                path += f"[{_encode_str(key)}]"
        return (f"Out of range float values are not JSON compliant: "
                f"{self.value!r} at {path or 'the document root'}")


_encode_str = json.encoder.encode_basestring_ascii

_KEY_TOKEN_SHAPES = 4096
"""Dict shapes whose key tokens :data:`_key_tokens` holds at once; a
full table starts over."""

_key_tokens: dict[tuple, tuple[str, ...]] = {}
"""``(indent, *keys)`` of a plain-``str``-keyed dict → the text before
each of its values (``{`` or ``,``, newline and indent, the encoded key,
``": "``): a document repeats a few dict shapes many times."""


def _emit(value: Any, out: list, nl: str, normalise: bool) -> None:
    """Append the tokens of ``value`` to ``out``, pretty-printed exactly
    as ``json.dumps(indent=2, allow_nan=False)`` prints them.

    ``nl`` is a newline plus the indentation of the enclosing container.
    With ``normalise`` the subtree gets the :func:`jsonable` rules in the
    same walk (``NaN`` → ``null``, numpy → Python, unknown objects →
    ``"<TypeName>"``); without it, the stdlib encoder's (``NaN`` raises,
    only subclasses of the JSON types are understood, anything else
    prints its placeholder). Dict keys go through ``str`` either way.
    """
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is float:
        if isfinite(value):
            out.append(repr(value))
        elif normalise and value != value:
            out.append("null")
        else:
            raise _NonFiniteFloat(value)
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    elif kind is int:
        out.append(repr(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        shape = (nl, *value)
        tokens = _key_tokens.get(shape)
        if tokens is None:
            if any(type(key) is not str for key in value):
                _emit_text_keyed(value, out, nl, normalise)
                return
            tokens = tuple(f"{lead}{inner}{_encode_str(key)}: " for lead, key
                           in zip(chain("{", repeat(",")), value))
            if len(_key_tokens) >= _KEY_TOKEN_SHAPES:
                _key_tokens.clear()
            _key_tokens[shape] = tokens
        start = len(out)
        try:
            for token, (key, item) in zip(tokens, value.items()):
                if type(key) is not str:
                    break    # a str subclass equal to a cached plain key
                out.append(token)
                item_type = type(item)
                if item_type is str:
                    out.append(_encode_str(item))
                elif item_type is int \
                        or item_type is float and isfinite(item):
                    out.append(repr(item))
                else:
                    _emit(item, out, inner, normalise)
            else:
                out.append(nl + "}")
                return
        except _NonFiniteFloat as exc:
            exc.keys.append(key)
            raise
        del out[start:]
        _emit_text_keyed(value, out, nl, normalise)
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        lead = "[" + inner
        sep = "," + inner
        try:
            for index, item in enumerate(value):
                out.append(lead)
                lead = sep
                item_type = type(item)
                if item_type is str:
                    out.append(_encode_str(item))
                elif item_type is int \
                        or item_type is float and isfinite(item):
                    out.append(repr(item))
                else:
                    _emit(item, out, inner, normalise)
        except _NonFiniteFloat as exc:
            exc.keys.append(index)
            raise
        out.append(nl + "]")
    elif normalise:
        if isinstance(value, ExperimentResult):
            _emit_result(value, out, nl)
        else:
            # jsonable() hands int/str subclass instances back unchanged,
            # so its output is emitted strictly: normalising it again
            # would recurse forever on an IntEnum.
            _emit(jsonable(value), out, nl, False)
    elif isinstance(value, str):
        out.append(_encode_str(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        _emit(float(value), out, nl, False)
    elif isinstance(value, (list, tuple)):
        _emit(list(value), out, nl, False)
    elif isinstance(value, dict):
        _emit(dict(value), out, nl, False)
    else:
        out.append(_encode_str(f"<{type(value).__name__}>"))


def _emit_text_keyed(value: dict, out: list, nl: str,
                     normalise: bool) -> None:
    """A dict with a key that is not a plain ``str``, under
    :func:`jsonable`'s key rule: rebuilt with ``str(key)`` keys
    (collisions keep the last value), then emitted."""
    _emit({str(key): item for key, item in value.items()}, out, nl,
          normalise)


def _emit_result(result: ExperimentResult, out: list, nl: str) -> None:
    """An :class:`ExperimentResult` node, laid out as
    :func:`result_to_dict` lays it out: ``data`` is normalised, the
    rendered header fields are not (a ``NaN`` among the sections is a
    rendering bug to surface, not a missing measurement to print)."""
    inner = nl + "  "
    lead = "{" + inner
    for key, field, normalise in (
            ("name", result.name, False),
            ("description", result.description, False),
            ("sections", list(result.sections), False),
            ("data", result.data, True)):
        out.append(f'{lead}"{key}": ')
        try:
            _emit(field, out, inner, normalise)
        except _NonFiniteFloat as exc:
            exc.keys.append(key)
            raise
        lead = "," + inner
    out.append(nl + "}")


def pretty_json(document: Any) -> str:
    """``document`` normalised and encoded in one walk: the text of
    ``json.dumps(jsonable(document), indent=2, allow_nan=False)``.

    ``indent`` switches the stdlib's C encoder off, so every token climbs
    a stack of Python generators; this writer appends each token to one
    list instead, and visits :func:`jsonable` only for nodes that are not
    already plain JSON types. ``±inf`` raises a :class:`ValueError`
    that names its location in the document.
    """
    out: list[str] = []
    _emit(document, out, "\n", True)
    return "".join(out)


def write_json(document: Any, path: Path) -> Path:
    """Encode ``document`` in memory, then put it at ``path`` whole.

    One :func:`pretty_json` and one write to a temp name in the same
    directory, then ``os.replace``: a crash or an encoding error
    mid-export leaves the previous file (or none), never a truncated one.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    text = pretty_json(document)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)    # the replace did not happen
        raise
    return path


def write_result(result: ExperimentResult, directory: Path) -> Path:
    """Write one experiment's JSON document; returns the file path."""
    return write_json(result, Path(directory) / f"{result.name}.json")


def write_run_report(report: Any, directory: Path) -> Path:
    """Write an engine :class:`~repro.experiments.engine.report.RunReport`
    (anything with ``to_dict()``) as ``run_report.json``."""
    return write_json(report.to_dict(), Path(directory) / "run_report.json")
