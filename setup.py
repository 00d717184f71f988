"""Packaging for the SLIDE reproduction.

The single source of truth for the version is ``repro.__version__``; it is
read from the source file (not imported) so building a wheel never requires
the package's runtime dependencies to be importable.
"""

from __future__ import annotations

import re
from pathlib import Path

from setuptools import find_packages, setup

_HERE = Path(__file__).parent


def _read_version() -> str:
    source = (_HERE / "src" / "repro" / "__init__.py").read_text()
    match = re.search(r'^__version__\s*=\s*"([^"]+)"', source, re.MULTILINE)
    if match is None:
        raise RuntimeError("cannot find __version__ in src/repro/__init__.py")
    return match.group(1)


def _read_long_description() -> str:
    readme = _HERE / "README.md"
    return readme.read_text() if readme.is_file() else ""


setup(
    name="repro-slide",
    version=_read_version(),
    description=(
        "Reproduction of SLIDE (MLSys 2020): LSH-driven adaptive sparsity for "
        "training and serving wide networks, with a micro-batching model server"
    ),
    long_description=_read_long_description(),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    install_requires=["numpy>=2.1"],
    extras_require={
        "test": ["pytest", "hypothesis"],
        "lint": ["ruff"],
    },
    entry_points={
        "console_scripts": [
            "repro-serve=repro.serving.__main__:main",
            "repro-ingest=repro.data.__main__:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering :: Artificial Intelligence",
    ],
)
