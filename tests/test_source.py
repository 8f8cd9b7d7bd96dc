"""Static checks of the package source."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "schubart")
                 .glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # a name counts as used when the module reads it, or when __init__
    # re-exports it through __all__
    tree = ast.parse(path.read_text())
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    unused = {name: line for name, line in imported.items()
              if name not in used}
    assert not unused, "%s imports and never uses %s" % (path.name, unused)


def test_every_private_module_name_is_read():
    # a module-level _name that its own module never reads, and that no
    # other module imports from it, is dead code: a helper left behind when
    # its last caller went.  Each module is checked on its own, so a read of
    # a like-named helper in another module hides nothing.  An import is
    # `from .module import _name`, or `from . import module as m` and a
    # read of `m._name`
    defined, read = {}, set()  # keyed by (module, name)
    for path in SOURCES:
        module = path.stem
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[module, name] = "%s:%d" % (path.name, node.lineno)
        modules = {}  # local name -> package module, from `from . import`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module:
                        read.add((node.module, alias.name))
                    else:
                        modules[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                read.add((modules[node.value.id], node.attr))
    unread = {"%s.%s" % key: where for key, where in defined.items()
              if key not in read}
    assert not unread, "never read in src/: %s" % (unread,)
