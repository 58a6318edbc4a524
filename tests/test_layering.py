"""Import layering: the workload layers never import the task layer.

``repro.api`` (session + tasks) and ``repro.discovery`` (tasks built on
it) sit on top; everything below — including function-local imports,
which is how the removed drivers hid an ``api`` <-> ``core`` cycle — must
not reach up into them.  Inside the serving layer, each job has one
owner module (see :func:`test_one_owner_per_serving_job`).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator, Tuple

import repro

LOWER_PACKAGES = (
    "nn", "text", "train", "utils", "ml", "data", "augment", "serve",
    "core", "cleaning", "columns", "baselines", "eval",
)
FORBIDDEN = ("repro.api", "repro.discovery")
ROOT = Path(repro.__file__).parent


def imported_modules(source: str, package: Tuple[str, ...]) -> Iterator[Tuple[int, str]]:
    """(line, absolute module name) of every import in ``source`` — at any
    nesting depth — with relative imports resolved against ``package``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join(base + ((node.module,) if node.module else ()))
            yield node.lineno, module
            # ``from .. import api`` names the submodule in the alias list.
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def callers(directory: Path, callee: str) -> set:
    """Paths (relative to ``repro``) of the files under ``directory`` that
    call ``callee``, as a function or as a method."""
    found = set()
    for path in sorted(directory.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == callee:
                    found.add(path.relative_to(ROOT).as_posix())
    return found


def is_forbidden(module: str) -> bool:
    return any(module == name or module.startswith(name + ".") for name in FORBIDDEN)


def test_lower_layers_do_not_import_the_task_layer():
    violations = {}  # "file:line" -> first forbidden module named there
    for package in LOWER_PACKAGES:
        files = sorted((ROOT / package).rglob("*.py"))
        assert files, f"repro.{package} has no modules; fix LOWER_PACKAGES"
        for path in files:
            parts = ("repro",) + path.relative_to(ROOT).parent.parts
            for line, module in imported_modules(path.read_text(), parts):
                if is_forbidden(module):
                    where = f"{path.relative_to(ROOT.parent)}:{line}"
                    violations.setdefault(where, module)
    assert not violations, "\n".join(
        f"{where} imports {module}" for where, module in violations.items()
    )


def test_walker_resolves_relative_and_function_local_imports():
    """The shapes the removed drivers used must be visible to the walker."""
    source = (
        "import numpy\n"
        "def f():\n"
        "    from ..api.session import SudowoodoSession\n"
        "    from .. import discovery\n"
        "    from .blocker import Blocker\n"
    )
    found = set(imported_modules(source, ("repro", "core")))
    assert (3, "repro.api.session") in found
    assert (4, "repro.discovery") in found
    assert (5, "repro.core.blocker") in found
    assert [m for _, m in sorted(found) if is_forbidden(m)] == [
        "repro.api.session",
        "repro.api.session.SudowoodoSession",
        "repro.discovery",
    ]


def test_one_owner_per_serving_job():
    """The live index (``serve/service.py``) neither batches requests nor
    blocks nor matches: coalescing belongs to the frontend, the only
    place a ``RequestBroker`` is built; batch blocking to ``Blocker``;
    matching to the fitted task."""
    assert callers(ROOT, "RequestBroker") == {"serve/frontend.py"}

    service = ROOT / "serve" / "service.py"
    owned_elsewhere = ("repro.serve.broker", "repro.core.blocker", "repro.core.matcher")
    imported = {
        module
        for _, module in imported_modules(service.read_text(), ("repro", "serve"))
        if any(module == name or module.startswith(name + ".") for name in owned_elsewhere)
    }
    assert not imported, f"serve/service.py imports {sorted(imported)}"


def test_one_owner_per_discovery_job():
    """Join discovery has one implementation, the lake path: inside
    ``discovery/`` only ``lake.py`` builds an ANN backend, and the package
    exports one ranking entry point."""
    assert callers(ROOT / "discovery", "build_backend") == {"discovery/lake.py"}
    import repro.discovery

    rankers = [
        name for name in repro.discovery.__all__ if name.startswith(("rank_", "score_"))
    ]
    assert rankers == ["rank_lake_candidates"]


def test_importing_the_library_does_not_load_scipy():
    """scipy (~14 MB resident) backs only ``TfidfVectorizer.transform``;
    serving and discovery processes never vectorize and must not pay it."""
    code = (
        "import sys, repro, repro.serve, repro.discovery\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))[:5]\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT.parent)] + sys.path))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
