"""Packaging for the Sudowoodo reproduction (src/ layout).

``pip install -e .`` makes ``import repro`` work without PYTHONPATH
tricks; ``pip install -e ".[test]"`` adds the test/benchmark toolchain.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

ROOT = Path(__file__).parent


def read_version() -> str:
    """Parse ``__version__`` out of src/repro/__init__.py without importing."""
    text = (ROOT / "src" / "repro" / "__init__.py").read_text(encoding="utf-8")
    match = re.search(r'^__version__ = "([^"]+)"', text, re.MULTILINE)
    if not match:
        raise RuntimeError("cannot find __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="sudowoodo-repro",
    version=read_version(),
    description=(
        "From-scratch NumPy reproduction of Sudowoodo (ICDE 2023): "
        "contrastive self-supervised learning for entity matching, "
        "data cleaning, and column type discovery"
    ),
    long_description=(ROOT / "README.md").read_text(encoding="utf-8"),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    # scipy backs text.tfidf's sparse matrices, which the repro.api
    # surface imports unconditionally.  networkx is a test-only oracle:
    # connected components run on utils.unionfind, and the only import
    # left is function-local in discovery.dedupe._networkx_clusters,
    # which tests and the lake benchmark compare against.
    install_requires=["numpy>=1.22", "scipy>=1.8"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis", "networkx>=2.6"]
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Artificial Intelligence",
        "Intended Audience :: Science/Research",
    ],
)
