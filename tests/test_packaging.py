"""Every console script that pyproject.toml declares points at a callable that imports."""

import importlib
import tomllib
from pathlib import Path


def test_declared_scripts_import():
    doc = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    for name, target in doc["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
