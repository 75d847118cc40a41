"""Docstring coverage gate (interrogate-style, stdlib-only).

``python -m repro.tools.docstrings PATH [PATH ...] --fail-under PCT``
walks the given files/packages, counts the public definitions that could
carry a docstring — modules, classes, and functions/methods — and exits
non-zero when the documented fraction falls below the threshold. CI runs
it over :mod:`repro.simcore` and :mod:`repro.experiments.engine` at 100%
so the kernel and engine public APIs stay fully documented.

What counts, chosen to gate the *public API* rather than internals:

- module docstrings, one per file;
- every class whose name does not start with ``_``, at any nesting depth
  inside other classes;
- every function or method whose name does not start with ``_``
  (dunders included only for ``__init__``-free idiom: they are skipped),
  except functions nested inside other functions (implementation
  details, invisible to importers).

``--list-missing`` names each undocumented definition as
``path:line kind name``; the default output is a per-file table plus the
total. The checker is pure AST — nothing is imported — so it is safe on
any file the repo ships.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Union

_Def = Union[ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class Missing:
    """One undocumented definition."""

    path: Path
    line: int
    kind: str  # "module" | "class" | "function"
    name: str


@dataclass
class FileReport:
    """Coverage tally for one source file."""

    path: Path
    total: int = 0
    documented: int = 0
    missing: list[Missing] = field(default_factory=list)

    @property
    def percent(self) -> float:
        """Documented fraction as a percentage (100.0 when empty)."""
        return 100.0 * self.documented / self.total if self.total else 100.0


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _walk_defs(body: list[ast.stmt],
               inside_function: bool) -> Iterator[tuple[_Def, bool]]:
    """Yield ``(definition, countable)`` for every def/class under
    ``body``, tracking whether we are nested inside a function."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield node, not inside_function and _is_public(node.name)
            yield from _walk_defs(node.body, inside_function)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, not inside_function and _is_public(node.name)
            yield from _walk_defs(node.body, True)
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            # Defs behind TYPE_CHECKING guards / availability gates still
            # form part of the API surface.
            for sub in ast.iter_child_nodes(node):
                if isinstance(sub, ast.stmt):
                    yield from _walk_defs([sub], inside_function)


def check_file(path: Path) -> FileReport:
    """Parse ``path`` and tally its docstring coverage."""
    report = FileReport(path)
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except SyntaxError as exc:
        raise SystemExit(f"error: cannot parse {path}: {exc}") from exc
    report.total += 1
    if ast.get_docstring(tree):
        report.documented += 1
    else:
        report.missing.append(Missing(path, 1, "module", path.stem))
    for node, countable in _walk_defs(tree.body, inside_function=False):
        if not countable:
            continue
        report.total += 1
        if ast.get_docstring(node):
            report.documented += 1
        else:
            kind = ("class" if isinstance(node, ast.ClassDef)
                    else "function")
            report.missing.append(
                Missing(path, node.lineno, kind, node.name))
    return report


def collect_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
        else:
            raise SystemExit(f"error: not a python file or directory: "
                             f"{path}")
    return sorted(files)


def run(paths: list[Path], fail_under: float, verbose: bool,
        list_missing: bool) -> int:
    """Check coverage over ``paths``; returns the process exit code."""
    files = collect_files(paths)
    if not files:
        print("error: no python files found", file=sys.stderr)
        return 1
    reports = [check_file(path) for path in files]
    total = sum(r.total for r in reports)
    documented = sum(r.documented for r in reports)
    percent = 100.0 * documented / total if total else 100.0

    if verbose:
        width = max(len(str(r.path)) for r in reports)
        for r in reports:
            print(f"  {str(r.path):<{width}}  {r.documented:>3}/{r.total:<3}"
                  f"  {r.percent:6.1f}%")
    failed = percent < fail_under
    if list_missing or failed:
        for r in reports:
            for m in r.missing:
                print(f"  missing: {m.path}:{m.line} {m.kind} {m.name}")
    print(f"docstring coverage: {documented}/{total} = {percent:.1f}% "
          f"(fail-under {fail_under:.1f}%)")
    if failed:
        print(f"error: coverage {percent:.1f}% is below "
              f"{fail_under:.1f}%", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.docstrings",
        description="Docstring coverage checker for public APIs.")
    parser.add_argument("paths", nargs="+", type=Path,
                        help="files or package directories to check")
    parser.add_argument("--fail-under", type=float, default=100.0,
                        metavar="PCT",
                        help="minimum acceptable coverage percentage "
                             "(default 100)")
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="print a per-file coverage table")
    parser.add_argument("--list-missing", action="store_true",
                        help="name every undocumented definition (always "
                             "shown on failure)")
    args = parser.parse_args(argv)
    if not 0.0 <= args.fail_under <= 100.0:
        parser.error("--fail-under must be between 0 and 100")
    return run(args.paths, args.fail_under, args.verbose,
               args.list_missing)


if __name__ == "__main__":
    from repro._cli import exit_after
    exit_after(main)
