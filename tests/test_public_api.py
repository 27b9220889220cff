"""Every public name has a user besides its own tests.

A name exported in ``yzero.__all__`` must be referred to, as an AST ``Name``
or ``Attribute`` node, by package code outside ``__init__.py`` or by a demo.
Imports, strings and docstrings do not count, so a routine that only tests
call fails here; such code belongs in ``tests/`` as an oracle.
"""

import ast
import glob
import os

import yzero

SRC = os.path.dirname(os.path.abspath(yzero.__file__))
DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


def referenced_names() -> "set[str]":
    paths = [p for p in glob.glob(os.path.join(SRC, "*.py"))
             if os.path.basename(p) != "__init__.py"]
    paths += glob.glob(os.path.join(DEMOS, "*.py"))
    names = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_is_used_outside_the_tests():
    assert glob.glob(os.path.join(DEMOS, "*.py")), f"no demos found under {DEMOS}"
    unused = sorted(set(yzero.__all__) - referenced_names())
    assert unused == []
