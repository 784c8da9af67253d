"""Packaging for the ``repro`` package (sources under ``src/``).

A classic ``setup.py`` with no ``pyproject.toml``: environments without the
``wheel`` package cannot do PEP 660 editable installs, and this keeps
``pip install -e .`` working through the legacy ``setup.py develop`` path.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="dcmbqc-repro",
    version=VERSION,
    description="DC-MBQC: distributed compilation for measurement-based quantum computing",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "networkx"],
)
