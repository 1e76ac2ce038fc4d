import ast
import functools
import importlib
import pathlib
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_console_scripts_import_to_callables():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = functools.reduce(getattr, attr.split("."), importlib.import_module(module))
        assert callable(obj), f"console script {name!r} -> {target} is not callable"


def test_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "rdteunet"}
    sources = sorted((ROOT / "src" / "rdteunet").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            outside = [r for r in roots if r not in allowed]
            assert not outside, f"{path.name}:{node.lineno} imports {outside}"


def _takes_a_generator(arg: ast.arg) -> bool:
    return arg.arg == "rng" or (arg.annotation is not None
                                and "random.Generator" in ast.unparse(arg.annotation))


def test_no_layer_takes_a_random_generator():
    # a ParamStore owns the seed of every initial value
    sources = sorted((ROOT / "src" / "rdteunet").glob("*.py"))
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                args = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                bad = [x.arg for x in args if x is not None and _takes_a_generator(x)]
                assert not bad, f"{path.name}:{node.lineno} takes a generator as {bad}"


def _referenced_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):  # an import
        return node.name
    return None


def test_only_the_tap_plan_works_out_conv_geometry():
    # which taps see a pixel is worked out once: every windowed op reads nn.tap_plan
    geometry = {"_tap_spans", "conv_out_extent"}
    users = set()
    for path in sorted((ROOT / "src" / "rdteunet").glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            scope = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            users |= {scope for node in ast.walk(top) if _referenced_name(node) in geometry}
    assert users == {"nn.tap_plan"}
