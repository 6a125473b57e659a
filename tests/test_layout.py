"""The package holds no test-only code.

Every top-level function and class in src/aerotail/ must be referenced by
the package outside its own definition, or by the benchmark in perfbench/
(whose probes name their targets by string).  A reference model that only
tests call belongs in tests/oracles.py.
"""

import ast
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src", "aerotail")
PERFBENCH = os.path.join(ROOT, "perfbench")


def parse_dir(directory):
    """{file name: module AST} of every Python file in directory."""
    trees = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read(), filename=name)
    return trees


def identifiers(node, strings=False):
    """Names, attribute names and imported names under node; with strings, str constants too."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def unreferenced(src_trees, outside):
    """'module.name' of every top-level def or class no other statement and no outside name uses."""
    statements = [
        (stmt, identifiers(stmt)) for tree in src_trees.values() for stmt in tree.body
    ]
    flagged = []
    for file_name, tree in src_trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            used = node.name in outside or any(
                node.name in ids for stmt, ids in statements if stmt is not node
            )
            if not used:
                flagged.append(f"{file_name[:-3]}.{node.name}")
    return flagged


def test_every_top_level_name_has_a_caller_outside_tests():
    outside = set()
    for tree in parse_dir(PERFBENCH).values():
        outside |= identifiers(tree, strings=True)
    flagged = unreferenced(parse_dir(SRC), outside)
    assert flagged == [], f"only tests reach {flagged}: move them to tests/oracles.py"


def test_guard_flags_a_name_only_its_own_body_uses():
    src = {
        "m.py": ast.parse(
            "def used():\n    return helper()\n\n"
            "def helper():\n    return 1\n\n"
            "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
            "class Probed:\n    pass\n"
        )
    }
    assert unreferenced(src, outside={"Probed"}) == ["m.recursive"]
