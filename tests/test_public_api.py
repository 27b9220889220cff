"""Public names, and the optional parameters of public functions, have users outside the tests.

A name exported in ``yzero.__all__`` must be referred to, as an AST ``Name``
or ``Attribute`` node, by package code outside ``__init__.py`` or by a demo.
Imports, strings and docstrings do not count, so a routine that only tests
call fails here; such code belongs in ``tests/`` as an oracle.  Likewise a
defaulted parameter of a public function must be passed, by keyword or by
position, by some call in that code: a knob only tests turn is removed.
Every ``ScenarioConfig`` field must be read as an attribute by package code
outside the loader, ``scenario.py``, so no config key parses into a value
nothing uses.
The names resolve on first use, so importing the package loads no numpy.
"""

import ast
import dataclasses
import glob
import inspect
import json
import os
import subprocess
import sys

import pytest

import yzero

SRC = os.path.dirname(os.path.abspath(yzero.__file__))
DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


def user_trees() -> "list[ast.AST]":
    """Parsed package modules (``__init__.py`` aside) and demos."""
    paths = [p for p in glob.glob(os.path.join(SRC, "*.py"))
             if os.path.basename(p) != "__init__.py"]
    paths += glob.glob(os.path.join(DEMOS, "*.py"))
    trees = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            trees.append(ast.parse(fh.read(), filename=path))
    return trees


def referenced_names() -> "set[str]":
    names = set()
    for tree in user_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def calls_by_name() -> "dict[str, list[ast.Call]]":
    """Every call in the user code, keyed by the called name or attribute."""
    calls: "dict[str, list[ast.Call]]" = {}
    for tree in user_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def passes(call: ast.Call, param: inspect.Parameter, position: int) -> bool:
    """Whether the call supplies the parameter by keyword, by position or by unpacking."""
    if any(kw.arg in (param.name, None) for kw in call.keywords):
        return True
    if param.kind not in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD):
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_public_name_is_used_outside_the_tests():
    assert glob.glob(os.path.join(DEMOS, "*.py")), f"no demos found under {DEMOS}"
    unused = sorted(set(yzero.__all__) - referenced_names())
    assert unused == []


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    calls = calls_by_name()
    unpassed = []
    for name in yzero.__all__:
        fn = getattr(yzero, name)
        if not inspect.isfunction(fn):
            continue
        for position, param in enumerate(inspect.signature(fn).parameters.values()):
            if param.default is not param.empty and not any(
                    passes(call, param, position) for call in calls.get(name, [])):
                unpassed.append(f"{name}({param.name}=)")
    assert unpassed == []


def test_every_config_field_is_read_outside_the_loader():
    read = set()
    for path in glob.glob(os.path.join(SRC, "*.py")):
        if os.path.basename(path) == "scenario.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted(f.name for f in dataclasses.fields(yzero.ScenarioConfig)
                    if f.name not in read)
    assert unread == []


def test_import_yzero_loads_no_numpy():
    code = ("import json, sys, yzero; print(json.dumps(sorted("
            "m for m in sys.modules if m.split('.')[0] in ('numpy', 'yzero'))))")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=os.path.dirname(SRC)),
                         capture_output=True, text=True, timeout=60, check=True).stdout
    assert json.loads(out) == ["yzero"]


def test_every_public_name_resolves_by_getattr_star_import_and_dir():
    assert len(yzero.__all__) == len(set(yzero.__all__)) == 35
    star: dict = {}
    exec("from yzero import *", star)
    listed = dir(yzero)
    for name in yzero.__all__:
        assert star[name] is getattr(yzero, name), name
        assert name in listed, name
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(yzero, "no_such_name")
