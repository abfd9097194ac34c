"""The benchmark's tracer (perfbench/tracing.py) patches package names given
as strings, and its workloads (perfbench/workloads.py) call package names;
each one must resolve, so that deleting or renaming a traced or called name
fails the tests and not only the benchmark."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import sghmc.objectives
import sghmc.rng
from sghmc import quadratic
from sghmc.samplers import Trajectory

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve(tracing):
    for module, attr, _, _ in tracing.SPAN_TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_work_functions_read_parameters_of_their_target(tracing):
    # a work function reads its target's bound arguments as a["name"], so a
    # renamed or removed parameter must fail here, not only under --trace 1
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    [targets] = [node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SPAN_TARGETS"]]
    checked = 0
    for entry in targets.elts:
        module, attr, _, work = (ast.literal_eval(e) if isinstance(e, ast.Constant) else e
                                 for e in entry.elts)
        if work is None:
            continue
        fn = functions[work.id] if isinstance(work, ast.Name) else work
        arg = fn.args.args[0].arg
        keys = {node.slice.value for node in ast.walk(fn) if isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name) and node.value.id == arg}
        params = inspect.signature(getattr(importlib.import_module(module), attr)).parameters
        assert keys and keys <= set(params), f"{module}.{attr} lacks {sorted(keys - set(params))}"
        checked += 1
    assert checked == sum(work is not None for *_, work in tracing.SPAN_TARGETS)


def test_timed_spec_replaces_the_evaluators(tracing):
    spec = quadratic(2)
    timed = tracing.Tracer().timed_spec(spec)
    for name in ("f", "grad_f", "risk_rows", "grad_rows"):
        assert callable(getattr(timed, name)) and getattr(timed, name) is not getattr(spec, name)


def test_installed_wrappers_resolve():
    assert callable(Trajectory.to_csv)
    assert callable(sghmc.objectives.make_objective)
    assert callable(sghmc.rng.derive_stream)


def test_workload_calls_resolve():
    # every sghmc.<module>.<name> that the workloads reach, found in their source
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    names = {(node.value.attr, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
             and isinstance(node.value.value, ast.Name) and node.value.value.id == "sghmc"}
    assert ("harness", "sghmc_quadratic_stationary") in names
    for module, attr in sorted(names):
        assert hasattr(importlib.import_module(f"sghmc.{module}"), attr), f"sghmc.{module}.{attr}"
