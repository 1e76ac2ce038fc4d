import functools
import importlib
import pathlib

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_scripts_import_to_callables():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = functools.reduce(getattr, attr.split("."), importlib.import_module(module))
        assert callable(obj), f"console script {name!r} -> {target} is not callable"
