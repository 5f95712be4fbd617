"""The library reads one environment variable, the build cache's location.

Any other would be a switch that changes what a run does without showing in
its config, so a new one fails here.
"""
import ast
from pathlib import Path

import mvmc

SOURCES = sorted(Path(mvmc.__file__).parent.glob("*.py"))
ALLOWED = {"XDG_CACHE_HOME"}


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _is_environ(node) -> bool:
    return _name(node) in ("environ", "environb")


def _is_getenv(node) -> bool:
    return _name(node) in ("getenv", "getenvb")


def environment_reads(tree):
    """(names read, environ or getenv uses that are not a read by a literal
    name) in a module's syntax tree."""
    names, understood = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_environ(node.value):
            holder, key = node.value, node.slice
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and _is_environ(node.func.value) and node.func.attr in ("get", "pop")):
            holder, key = node.func.value, node.args[0] if node.args else None
        elif isinstance(node, ast.Call) and _is_getenv(node.func):
            holder, key = node.func, node.args[0] if node.args else None
        elif (isinstance(node, ast.Compare) and len(node.comparators) == 1
              and _is_environ(node.comparators[0])):
            holder, key = node.comparators[0], node.left
        else:
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            names.append(key.value)
            understood.add(id(holder))
    other = [
        ast.unparse(node) for node in ast.walk(tree)
        if (_is_environ(node) or _is_getenv(node)) and id(node) not in understood
        and isinstance(node, (ast.Attribute, ast.Name))
    ]
    return names, other


def test_the_guard_sees_each_form_of_read():
    code = """
import os
from os import environ, getenv
a = os.environ.get("A")
b = os.environ["B"]
c = getenv("C", "")
d = "D" in environ
e = os.environ.pop("E", None)
f = dict(os.environ)
g = os.environ.get(name)
"""
    names, other = environment_reads(ast.parse(code))
    assert sorted(names) == ["A", "B", "C", "D", "E"]
    assert sorted(other) == ["os.environ", "os.environ"]


def test_the_library_reads_only_the_cache_location():
    assert SOURCES
    for path in SOURCES:
        names, other = environment_reads(ast.parse(path.read_text(encoding="utf-8")))
        assert set(names) <= ALLOWED, (path.name, names)
        assert other == [], (path.name, other)
