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


def _declares_on_a_store(node: ast.AST) -> bool:
    # store.add(...), self.store.add(...) and their add_buffer twins
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in {"add", "add_buffer"}
            and _referenced_name(node.func.value) == "store")


def test_only_nn_declares_parameters():
    # a kernel's name, shape and initial value are declared by nn's layers
    init_rules = {"kaiming_uniform", "_kaiming_uniform", "_same_pad"}
    offenders = []
    for path in sorted((ROOT / "src" / "rdteunet").glob("*.py")):
        if path.name == "nn.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if _declares_on_a_store(node) or _referenced_name(node) in init_rules:
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"parameters declared outside nn at {offenders}"


def _runs_a_step_phase(node: ast.AST) -> bool:
    # clip_grad_norm(...), M.clip_grad_norm(...), T.backward(...) and
    # tensor.backward(...); a bare backward(g) is a tape entry's closure
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if _referenced_name(func) == "clip_grad_norm":
        return True
    return (isinstance(func, ast.Attribute) and func.attr == "backward"
            and _referenced_name(func.value) in {"T", "tensor"})


def test_only_the_train_step_runs_the_backward_and_the_clip():
    # the order of a train step's phases is written down once, in model.train_step
    callers = set()
    for path in sorted((ROOT / "src" / "rdteunet").glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            scope = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            callers |= {scope for node in ast.walk(top) if _runs_a_step_phase(node)}
    assert callers == {"model.train_step"}


def test_every_arena_sweep_pulls_sweep_block_units():
    # units shorter than SWEEP_BLOCK run the two lanes one after the other
    calls = []
    for path in sorted((ROOT / "src" / "rdteunet").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and _referenced_name(node.func) == "sweep_arena":
                block = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "block"), None)
                calls.append((f"{path.name}:{node.lineno}", _referenced_name(block)))
    assert len(calls) >= 3
    assert all(name == "SWEEP_BLOCK" for _, name in calls), calls
