#!/usr/bin/env python
"""Docs lint.

Two checks:

* every relative markdown link in README.md and docs/ resolves to an
  existing file or directory (external http/https/mailto links are not
  fetched);
* every public symbol in the ``__all__`` of each public package
  (:data:`DOCUMENTED_PACKAGES`) carries a docstring (an undocumented
  export is a lint failure, not a style nit).

Exit code 0 when both checks pass, 1 otherwise (failures listed on
stderr).
"""

from __future__ import annotations

import inspect
import re
import sys
from pathlib import Path

LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_SCHEMES = ("http://", "https://", "mailto:")


def iter_markdown_files(root: Path):
    """README.md plus every markdown file under docs/."""
    readme = root / "README.md"
    if readme.exists():
        yield readme
    docs = root / "docs"
    if docs.is_dir():
        yield from sorted(docs.rglob("*.md"))


def check_file(markdown: Path, root: Path) -> list:
    """Return (file, link) tuples for links that do not resolve."""
    broken = []
    for match in LINK_PATTERN.finditer(markdown.read_text(encoding="utf-8")):
        target = match.group(1)
        if target.startswith(SKIP_SCHEMES) or target.startswith("#"):
            continue
        if target.startswith("<") and target.endswith(">"):
            continue  # placeholder like <this-repo>
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = (markdown.parent / path).resolve()
        if not resolved.exists():
            broken.append((markdown.relative_to(root), target))
    return broken


#: Packages whose ``__all__`` must be fully documented — every public
#: surface: the session API, the training engine, the discovery tier,
#: the autograd, text, serving, pipeline-core, evaluation and utility
#: packages.
DOCUMENTED_PACKAGES = (
    "repro.api",
    "repro.train",
    "repro.discovery",
    "repro.nn",
    "repro.text",
    "repro.serve",
    "repro.core",
    "repro.eval",
    "repro.utils",
)


def check_api_docstrings(root: Path) -> list:
    """Return the documented-package symbols lacking a docstring.

    Every name in each :data:`DOCUMENTED_PACKAGES` module's ``__all__``
    (and the module itself) must carry a docstring.  ``repro`` is
    imported from the repo's ``src/`` layout, so the check works without
    an installed package.
    """
    import importlib

    sys.path.insert(0, str(root / "src"))
    try:
        modules = [
            importlib.import_module(name) for name in DOCUMENTED_PACKAGES
        ]
    finally:
        sys.path.pop(0)
    undocumented = []
    for module in modules:
        if not (module.__doc__ or "").strip():
            undocumented.append(module.__name__)
        for name in module.__all__:
            try:
                symbol = getattr(module, name)
            except AttributeError:
                undocumented.append(
                    f"{module.__name__}.{name} (missing attribute)"
                )
                continue
            if not (inspect.getdoc(symbol) or "").strip():
                undocumented.append(f"{module.__name__}.{name}")
    return undocumented


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    broken = []
    checked = 0
    for markdown in iter_markdown_files(root):
        checked += 1
        broken.extend(check_file(markdown, root))
    undocumented = check_api_docstrings(root)
    if broken or undocumented:
        for source, target in broken:
            print(f"BROKEN LINK in {source}: {target}", file=sys.stderr)
        for symbol in undocumented:
            print(f"MISSING DOCSTRING: {symbol}", file=sys.stderr)
        return 1
    print(
        f"docs lint ok: {checked} markdown files, all relative links "
        f"resolve; every export of {', '.join(DOCUMENTED_PACKAGES)} is "
        "documented"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
