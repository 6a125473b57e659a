"""The package holds no test-only code.

Every top-level function and class in src/aerotail/ must be referenced by
the package outside its own definition, or by the benchmark in perfbench/
(whose probes name their targets by string).  So must every method and
property of a top-level class, dunders aside, read as an attribute.  A
reference model that only tests call belongs in tests/oracles.py, and a
derived quantity that only tests read is computed in the test.
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


def attributes(node):
    """Attribute names read under node."""
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def unreferenced_members(src_trees, outside):
    """'module.Class.member' of every method or property, dunders aside, nothing reads.

    A member counts as read when an attribute of its name appears outside
    its own definition, or when an outside name matches it.
    """
    statements = [
        (stmt, attributes(stmt)) for tree in src_trees.values() for stmt in tree.body
    ]
    flagged = []
    for file_name, tree in src_trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            siblings = [(stmt, attributes(stmt)) for stmt in cls.body]
            for member in cls.body:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("__"):
                    continue
                used = member.name in outside or any(
                    member.name in ids
                    for stmt, ids in statements + siblings
                    if stmt is not cls and stmt is not member
                )
                if not used:
                    flagged.append(f"{file_name[:-3]}.{cls.name}.{member.name}")
    return flagged


def test_every_top_level_name_has_a_caller_outside_tests():
    outside = set()
    for tree in parse_dir(PERFBENCH).values():
        outside |= identifiers(tree, strings=True)
    src = parse_dir(SRC)
    flagged = unreferenced(src, outside) + unreferenced_members(src, outside)
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


def test_guard_flags_a_member_only_tests_read():
    src = {
        "m.py": ast.parse(
            "class Box:\n"
            "    def __init__(self, w):\n        self.w = w\n\n"
            "    @property\n    def area(self):\n        return self.w * self.w\n\n"
            "    def side(self):\n        return self.w\n\n"
            "    def volume(self):\n        return self.area * self.side()\n\n"
            "    def probed(self):\n        return 0\n\n"
            "def use(box, volume):\n    return volume\n"
        )
    }
    # area and side are read by a sibling, volume only as a bare name
    assert unreferenced_members(src, outside={"probed"}) == ["m.Box.volume"]
