"""Each public top-level function and class of the package, and each public
method, classmethod and property of a public class, has a caller outside
the tests: elsewhere in the package, in a script or in the benchmark."""
import ast
from pathlib import Path

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
