"""The library opens files in a few functions only.

Every tab-separated artifact is read by `graph.read_rows` and written by
`graph.write_rows`, which own the checks on a file: one that cannot be
opened, bytes that are not UTF-8, a line with the wrong number of fields.
A new `open` elsewhere would read around them, so it fails here.
"""
import ast
from pathlib import Path

import mvmc

SOURCES = sorted(Path(mvmc.__file__).parent.glob("*.py"))
# the artifact reader and writers, the corpus reader, the config of
# `pipeline`, the tables `report` echoes and the kernel's C source
ALLOWED = {"read_rows", "write_rows", "write_triplets", "read_posts", "pipeline",
           "_echo_table", "_build_library"}
READS = {"open", "read_text", "read_bytes"}


def file_reads(tree) -> list[tuple[str, list[str]]]:
    """(use, names of the functions around it, outermost first) of each
    `open`, `.open`, `.read_text` and `.read_bytes` in a syntax tree."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = [*scope, node.name]
        if isinstance(node, ast.Name) and node.id in READS:
            found.append((node.id, scope))
        elif isinstance(node, ast.Attribute) and node.attr in READS:
            found.append((ast.unparse(node), scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return found


def test_the_guard_sees_each_form_of_open():
    code = """
import io, os
from pathlib import Path
def read_rows(path):
    def lines():
        return open(path)
    return lines()
def helper(path):
    return io.open(path), os.open(path, 0), Path(path).read_bytes(), map(open, [path])
class Reader:
    def load(self):
        return self.path.read_text()
data = Path("x").open()
"""
    assert file_reads(ast.parse(code)) == [
        ("open", ["read_rows", "lines"]),
        ("io.open", ["helper"]),
        ("os.open", ["helper"]),
        ("Path(path).read_bytes", ["helper"]),
        ("open", ["helper"]),
        ("self.path.read_text", ["load"]),
        ("Path('x').open", []),
    ]


def test_the_library_opens_files_only_in_its_readers_and_writers():
    assert SOURCES
    stray, used = [], set()
    for path in SOURCES:
        for use, scope in file_reads(ast.parse(path.read_text(encoding="utf-8"))):
            if not ALLOWED & set(scope):
                stray.append((path.name, use, scope))
            used |= ALLOWED & set(scope)
    assert stray == []
    assert used == ALLOWED  # no stale name in the list
