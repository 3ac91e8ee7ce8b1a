"""Module boundaries: no module of the package reads another's private names."""

import ast
import pathlib

import degenstir

SOURCES = sorted(pathlib.Path(degenstir.__file__).parent.glob("*.py"))


def test_no_module_imports_a_private_name_from_another():
    crossings = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                crossings += ["%s: from %s%s import %s" % (path.name, "." * node.level,
                                                          node.module or "", a.name)
                              for a in node.names if a.name.startswith("_")]
    assert len(SOURCES) > 1
    assert crossings == []
