"""Lazy package re-exports (PEP 562).

A package ``__init__`` that wants ``from repro.pkg import Name`` to work
without importing every submodule up front ends with::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "submodule": ("Name", "other_name"),
    })

The first access of an exported name imports its submodule, and the first
access of a submodule name (``repro.pkg.submodule`` after a bare ``import
repro.pkg``) imports that submodule; either result is stored in the
package's namespace, so the hook runs once per name. The objects are the
submodules' own: ``__module__``, and with it every pickle, is what an
eager ``from repro.pkg.submodule import Name`` would have bound.
"""

from __future__ import annotations

import sys
from importlib import import_module
from importlib.util import find_spec
from typing import Callable, Mapping, Sequence


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]
                 ) -> tuple[Callable[[str], object],
                            Callable[[], list[str]], list[str]]:
    """The ``(__getattr__, __dir__, __all__)`` of ``package``, whose
    ``exports`` map each submodule's short name to the names it
    contributes to the package namespace."""
    namespace = vars(sys.modules[package])
    home = {name: f"{package}.{submodule}"
            for submodule, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        if name in home:
            value = getattr(import_module(home[name]), name)
        elif find_spec(f"{package}.{name}") is not None:
            value = import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *home})

    return __getattr__, __dir__, list(home)
