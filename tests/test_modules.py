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


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _unbounded(node):
    # functools' unbounded caches: lru_cache with maxsize None, and cache
    if isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
        sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
        return any(isinstance(s, ast.Constant) and s.value is None for s in sizes)
    return _name(node) == "cache"


def test_no_cache_is_unbounded_but_the_cli_parser():
    # what the kernels keep for a parameter lives on its domain, of which a
    # bounded number is kept; the one parser per process is the exception
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        decorated = {id(d): node.name for node in ast.walk(tree)
                     for d in getattr(node, "decorator_list", ())}
        for node in ast.walk(tree):
            if _unbounded(node) and (isinstance(node, ast.Call) or id(node) in decorated):
                found.append("%s.%s" % (path.stem, decorated.get(id(node), node.lineno)))
    assert found == ["cli.build_parser"]


def _is_cache(node):
    # functools' caches, called (lru_cache(...), cache(f)) or bare (@cache)
    if isinstance(node, ast.Call):
        node = node.func
    return _name(node) in ("lru_cache", "cache")


def test_no_cache_but_the_cli_parser_and_the_pinned_domains():
    # every table the kernels keep lives on a parameter's domain: the only
    # caches are the one parser per process and the kept pinned domains
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if any(map(_is_cache, node.decorator_list)):
                    found.append("%s.%s" % (path.stem, node.name))
            elif isinstance(node, ast.Assign):
                if any(isinstance(n, ast.Call) and _is_cache(n) for n in ast.walk(node.value)):
                    found += ["%s.%s" % (path.stem, _name(t)) for t in node.targets]
    assert sorted(found) == ["cli.build_parser", "field._pinned"]
