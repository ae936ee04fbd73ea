"""Package exports resolved on first access (PEP 562).

A package ``__init__`` lists what it exports and which submodule each name
comes from, and imports nothing.  A name is imported when it is first read
(``from repro.net import FaultPlan`` or ``repro.net.FaultPlan``), so a
program pays only for the layers it uses: a fault-free run loads no fault
stack, no oracle and no experiment suite (``tests/test_package.py``,
``TestImportBoundary``).
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    package: str, sources: Dict[str, str]
) -> Tuple[List[str], Callable[[str], Any]]:
    """``(__all__, __getattr__)`` for ``package``.

    ``sources`` maps a relative submodule to the names it exports, spelled
    as in an import statement: ``{".fabric": "Fabric, FabricStats",
    ".barrier": "ALGORITHMS as BARRIER_ALGORITHMS"}``.  A name read once is
    bound on the package, so later reads are plain attribute reads.  A name
    that is also a submodule's must be imported eagerly instead: importing
    that submodule binds the module on the package first, and this hook is
    then never asked.
    """
    where: Dict[str, Tuple[str, str]] = {}
    for module, names in sources.items():
        for spec in names.split(","):
            attr, _, alias = spec.strip().partition(" as ")
            where[alias or attr] = (module, attr)

    def __getattr__(name: str) -> Any:
        try:
            module, attr = where[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        # ``__import__`` takes an import statement's path, so ``python -X
        # importtime`` lists what loads here; a non-empty fromlist returns
        # the submodule itself.
        value = getattr(__import__(package + module, fromlist=["__name__"]), attr)
        setattr(sys.modules[package], name, value)
        return value

    return list(where), __getattr__
