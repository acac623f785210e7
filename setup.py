"""Setuptools shim.

The package metadata lives in ``pyproject.toml``; this file only lets
legacy editable installs (``pip install -e . --no-use-pep517``) work in
offline environments that lack the ``wheel`` package required by PEP 660
editable builds.
"""

from setuptools import setup

setup()
