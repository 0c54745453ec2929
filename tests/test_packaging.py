import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")


def test_console_scripts_import_to_callables():
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    for name, target in pyproject["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), f"{name} = {target}"
