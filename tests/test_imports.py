"""The package's import graph: modules import their siblings at the top only,
no two modules import each other, directly or through others, and every name
a module imports at its top is read in it. Every module-level function and
class is read somewhere that runs it, or is named in the README, and every
function outside the harness reads each of its parameters. No function of the
harness is longer than 60 lines. The samplers derive their streams,
draw their initial states and make their chains in one place, the chain
builder, for every runner, and only the chain itself sets how it steps. The
theory chain reads the objective by rows, one function takes the minibatch
mean, a built-in objective writes its per-sample gradient once, a
function that takes the contraction constants takes none of their inputs
again, and one place each decides what a chain kind does."""

import ast
import re
from pathlib import Path

from sghmc.samplers import CHAIN_KINDS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sghmc"
# every module but the package's __init__, which imports them all
MODULES = {p.stem: p for p in PACKAGE.glob("*.py") if p.stem != "__init__"}


def _sibling_imports(node):
    """The sibling modules an import statement names (``from . import x``,
    ``from .x import y``, ``import sghmc.x``)."""
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        names = [node.module] if node.module else [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("sghmc."):
        names = [node.module.split(".")[1]]
    elif isinstance(node, ast.Import):
        names = [a.name.split(".")[1] for a in node.names if a.name.startswith("sghmc.")]
    else:
        return []
    return [n for n in names if n in MODULES]


def _graph():
    """(edges, nested): the siblings each module imports, and every sibling
    import made inside a function or class."""
    edges, nested = {}, []
    for name, path in MODULES.items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        edges[name] = {s for node in ast.walk(tree) for s in _sibling_imports(node)}
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested += [f"{name}.{scope.name} imports {s}" for node in ast.walk(scope)
                           for s in _sibling_imports(node)]
    return edges, nested


def test_no_sibling_import_inside_a_function():
    assert _graph()[1] == []


def test_sibling_imports_form_no_cycle():
    edges, _ = _graph()
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(name):] + [name]))
        if name not in done:
            path.append(name)
            for sibling in sorted(edges[name]):
                visit(sibling)
            path.pop()
            done.add(name)

    for name in sorted(edges):
        visit(name)


def test_no_unused_module_level_import():
    unused = []
    for name, path in MODULES.items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                unused += [f"{name} imports {a.name} unused" for a in node.names
                           if (a.asname or a.name.split(".")[0]) not in read]
    assert unused == []


def _reads(path):
    """The names a file reads: every loaded ``ast.Name`` and ``ast.Attribute``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_no_dead_helper():
    # readers: the package itself, the benchmark and the acceptance criteria;
    # a name only the unit tests read is a helper nothing needs
    readers = [*MODULES.values(), *(ROOT / "perfbench").glob("*.py"),
               ROOT / "tests" / "test_acceptance.py"]
    read = set().union(*map(_reads, readers))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    dead = []
    for name, path in MODULES.items():
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name not in read
                    and not re.search(rf"\b{re.escape(node.name)}\b", readme)):
                dead.append(f"{name}.{node.name}")
    assert dead == []


def test_every_parameter_is_read():
    # a parameter is read more often than it is reassigned, so one that is
    # only converted, or never named, fails; the harness is exempt, as its
    # converters take (value, key) and its kinds one signature by design
    unread = []
    for name, path in MODULES.items():
        if name == "harness":
            continue
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            for arg in filter(None, [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]):
                uses = [type(node.ctx) for node in ast.walk(fn)
                        if isinstance(node, ast.Name) and node.id == arg.arg]
                if uses.count(ast.Load) <= uses.count(ast.Store):
                    unread.append(f"{name}.{fn.name}({arg.arg})")
    assert unread == []


def test_no_long_harness_function():
    # one function per experiment kind keeps each of them, and run_experiment,
    # short enough to read whole; a kind that outgrows this splits its steps
    tree = ast.parse((PACKAGE / "harness.py").read_text(encoding="utf-8"))
    long = [f"{node.name}: {node.end_lineno - node.lineno + 1} lines" for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.end_lineno - node.lineno + 1 > 60]
    assert long == []


def _calls_outside_the_builder(*callees):
    """The calls in ``samplers`` outside ``_chains`` of a callee whose name
    ends with one of ``callees``."""
    tree = ast.parse((PACKAGE / "samplers.py").read_text(encoding="utf-8"))
    calls = []
    for scope in tree.body:
        if getattr(scope, "name", None) == "_chains":
            continue
        calls += [f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(scope)
                  if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(callees)]
    return calls


def test_one_stream_rule():
    # every runner takes its streams and initial states from samplers._chains,
    # so the stream rule is written once
    assert _calls_outside_the_builder("derive_stream", ".init.sample") == []


def test_theory_reads_the_objective_by_rows():
    # the theory chain reads the objective through the row evaluators
    # (batch_empirical_risk, batch_empirical_gradient) alone, so V and the
    # drift certificate have one evaluation each; it names no per-sample one
    per_sample = {"empirical_risk", "empirical_gradient", "f", "grad_f"}
    path = PACKAGE / "theory.py"
    imported = {a.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert sorted((_reads(path) | imported) & per_sample) == []


def test_one_chain_builder():
    # and its chains: a runner that needs another chain calls _chains again
    assert _calls_outside_the_builder("_Chain") == []


def test_one_place_decides_how_a_chain_steps():
    # a chain's kind, config, kernel, noise coefficient, index stream and
    # copies are set where _chains makes it, in _Chain.__init__, and nowhere else
    decided = {"c", "step", "kind", "cfg", "idx_rng", "copies"}
    tree = ast.parse((PACKAGE / "samplers.py").read_text(encoding="utf-8"))
    chain_init = next(node for scope in tree.body if getattr(scope, "name", None) == "_Chain"
                      for node in scope.body if getattr(node, "name", None) == "__init__")
    setters = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)) or scope is chain_init:
            continue
        setters += [f"{scope.name}, line {node.lineno}: {ast.unparse(node)}"
                    for node in ast.walk(scope)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and node.attr in decided]
    assert setters == []


def _own_nodes(fn):
    """The nodes of function ``fn``, without those of the functions it defines."""
    todo, nodes = list(ast.iter_child_nodes(fn)), []
    while todo:
        node = todo.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            nodes.append(node)
            todo += ast.iter_child_nodes(node)
    return nodes


def test_one_place_takes_the_minibatch_mean():
    # the built-in grad_batches hooks return per-sample gradients; of the
    # functions in objectives that read a minibatch (Zs), only
    # minibatch_gradient_rows reduces (reduce, sum, mean), so the l terms of
    # every minibatch mean add in one order
    tree = ast.parse((PACKAGE / "objectives.py").read_text(encoding="utf-8"))
    reducers, hooks = set(), 0
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = _own_nodes(fn)
        hooks += fn.name == "grad_batches"
        if any(isinstance(node, ast.Call) and (getattr(node.func, "attr", None) or
                                               getattr(node.func, "id", None))
               in ("reduce", "sum", "mean") for node in nodes) and (
                fn.name == "grad_batches"
                or any(isinstance(node, ast.Name) and node.id == "Zs" for node in nodes)):
            reducers.add(fn.name)
    assert hooks == 3
    assert reducers == {"minibatch_gradient_rows"}


def test_contraction_constants_carry_their_inputs():
    # the certificate, gamma, beta, d and p that the contraction constants were
    # evaluated at are read from them, so a function that takes cc cannot be
    # handed inputs that disagree with it
    inputs = {"cert", "gamma", "beta", "d", "p"}
    retaken = []
    for name, path in MODULES.items():
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
            if any(arg.arg == "cc" or (arg.annotation is not None
                                       and ast.unparse(arg.annotation) == "ContractionConstants")
                   for arg in args):
                retaken += [f"{name}.{fn.name}({arg.arg})" for arg in args if arg.arg in inputs]
    assert retaken == []


def test_builtins_write_their_gradient_once():
    # a built-in's per-sample gradient is written once, as grad_batches; its
    # grad_f is the one-row case that objectives derives, not a second formula
    tree = ast.parse((PACKAGE / "objectives.py").read_text(encoding="utf-8"))
    factories = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name in ("quadratic", "double_well", "gaussian_mixture")}
    assert len(factories) == 3
    nested = [f"{name}, line {node.lineno}" for name, fn in factories.items()
              for node in ast.walk(fn)
              if (isinstance(node, ast.FunctionDef) and node.name == "grad_f")
              or (isinstance(node, ast.Name) and node.id == "grad_f"
                  and isinstance(node.ctx, ast.Store))]
    assert nested == []


def _kind_comparisons(node, scope, kinds):
    """(scope, comparison) of each comparison under ``node`` with a string
    constant in ``kinds``, by the qualified name of the function or class
    around it (``scope`` at the top)."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        if isinstance(child, ast.Compare) and any(
                isinstance(c, ast.Constant) and c.value in kinds
                for operand in (child.left, *child.comparators) for c in ast.walk(operand)):
            yield inner, child
        yield from _kind_comparisons(child, inner, kinds)


def test_one_place_decides_a_chain_kind():
    # chain picks the update and batch_size alone the gradient: only the
    # kernel, the chain's noise rate and the config's momentum rule compare a
    # value with a chain kind, so no other function branches on one
    kinds = {*CHAIN_KINDS, "exact_sghmc"}
    allowed = {"samplers._kernel", "samplers._Chain.__init__",
               "harness.ExperimentConfig.__post_init__"}
    found = [f"{scope}, line {node.lineno}: {ast.unparse(node)}"
             for name, path in MODULES.items()
             for scope, node in _kind_comparisons(ast.parse(path.read_text(encoding="utf-8")),
                                                  name, kinds)
             if scope not in allowed]
    assert found == []
