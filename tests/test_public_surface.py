"""Each public top-level function and class of the package, and each public
method, classmethod and property of a public class, has a caller outside
the tests: elsewhere in the package, in a script or in the benchmark; and
each timed layer of the benchmark names code of the package."""
import ast
import importlib
import inspect
import json
from pathlib import Path

from gradientstage import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "gradientstage").glob("*.py"))
CALLERS = sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
TREES = {p: ast.parse(p.read_text()) for p in PACKAGE + CALLERS}
# a re-export is not a caller: __init__.py only names what the modules define
INIT = ROOT / "src" / "gradientstage" / "__init__.py"

# public names that only tests call, each kept for the reason given
KEEP = {
    "render_specular_analytic": "the forward model that the recover_specular tests compare against",
    "magnitude_stats": "normalizing-constant statistics, for the run record (ROADMAP direction 2)",
    "constraint_violation": "the QP constraint violation, for the run record (ROADMAP direction 2)",
    "render_set": "perfbench/tests renders its traced scene with it",
}


def names_used(node):
    return {getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}


def test_every_public_name_has_a_caller_outside_the_tests():
    uses = {p: [names_used(stmt) for stmt in tree.body] for p, tree in TREES.items() if p != INIT}
    uncalled = set()
    for path in PACKAGE:
        for i, node in enumerate(TREES[path].body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if not any(node.name in used for p, stmts in uses.items()
                           for j, used in enumerate(stmts) if (p, j) != (path, i)):
                    uncalled.add(node.name)
    assert uncalled == set(KEEP)


def test_every_public_method_has_a_caller_outside_the_tests():
    attributes = [n for p, tree in TREES.items() if p != INIT
                  for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
    uncalled = set()
    for path in PACKAGE:
        for cls in TREES[path].body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                        own = set(ast.walk(node))
                        if not any(a.attr == node.name and a not in own for a in attributes):
                            uncalled.add(f"{cls.name}.{node.name}")
    assert uncalled == set()


# per-layer benchmark metrics that name no code, each for the reason given
STALE_LAYERS = {
    "qp.build_qp_system.s": "deleted with the closed-form QP; BENCHMARK.json drops it with ROADMAP "
                            "direction 4's benchmark definitions",
    "qp.solve_normal_correction.s": "as qp.build_qp_system.s",
}


def names_real_code(layer: str) -> bool:
    """Whether a `<module>.<function>`, `<module>.<Class>.<classmethod>` or
    `cli.<subcommand>` layer names what the benchmark's tracer wraps."""
    module, *path = layer.split(".")
    if module == "cli":
        _, subparsers = cli.build_parser()
        return path[0] in {"_".join(p.prog.split()[1:]) for p in subparsers}
    owner = importlib.import_module(f"gradientstage.{module}")
    *classes, name = path
    for cls in classes:
        owner = getattr(owner, cls, None)
        if not inspect.isclass(owner):
            return False
    obj = inspect.getattr_static(owner, name, None)
    if classes:
        return isinstance(obj, classmethod) and not name.startswith("_")
    return inspect.isfunction(obj) and obj.__module__ == owner.__name__ and not name.startswith("_")


def test_every_timed_benchmark_layer_names_package_code():
    layers = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    timed = [name for name in layers if name.endswith((".s", ".calls"))]
    assert timed
    stale = {name for name in timed if not names_real_code(name.rsplit(".", 1)[0])}
    assert stale == set(STALE_LAYERS)
