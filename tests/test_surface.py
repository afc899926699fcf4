"""The package's public surface is what the program uses, and each law is
coded once in it.

Every public function, class and method defined in ``src/homhopf`` must be
referenced by name outside its own definition: in ``src/``, ``scripts/``,
the non-test files of ``perfbench/`` (which also names functions as strings
for ``getattr``), or a code span of ``README.md``.  A method counts as
referenced only through an attribute (``x.name``), so a local variable of the
same name does not keep it.  A name only tests call is a second coding, which
belongs in ``tests/law_oracles.py``, or a convenience that the tests can
replace with the API that stays.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the mono form of the Maschke-type theorem: a result of the source paper
# with no other coding in src, kept though only tests call it
ALLOWED = {"split_monomorphism"}

# the package's codings that law_oracles cross-checks, and so must not use
CROSS_CHECKED = {"verify_integral", "integral_sides", "_integral_rows", "yd_sides",
                 "solve_normalized_integral"}


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node, False
        if isinstance(node, ast.ClassDef):
            yield from ((m, True) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def _references(tree):
    """(name, line, through an attribute) for every name the code uses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno, False


def test_public_names_have_callers_and_oracles_stay_independent():
    files = [p for d in ("src", "scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))
             if not p.name.startswith("test_")]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in files}
    refs = {}
    for path, tree in trees.items():
        for name, line, attr in _references(tree):
            refs.setdefault(name, []).append((path, line, attr))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"\w+", " ".join(re.findall(r"`[^`]*`", readme))))

    unused = []
    for path in sorted((ROOT / "src" / "homhopf").glob("*.py")):
        for node, method in _public_definitions(trees[path]):
            outside = any((attr or not method)
                          and (p != path or not node.lineno <= line <= node.end_lineno)
                          for p, line, attr in refs.get(node.name, ()))
            if not (outside or node.name in documented or node.name in ALLOWED):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []

    oracles = ast.parse((ROOT / "tests" / "law_oracles.py").read_text(encoding="utf-8"))
    assert CROSS_CHECKED.isdisjoint(name for name, _, _ in _references(oracles))
