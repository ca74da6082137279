"""Guard against dead code: every top-level function in the package is used
somewhere in src/ or tests/, and every parameter is read by its function.

Stdlib only (ast), so it runs wherever the tests run.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fanog2"


def _trees(*dirs):
    return {
        path: ast.parse(path.read_text(), str(path))
        for d in dirs
        for path in sorted(d.rglob("*.py"))
    }


def _references(path, tree):
    """(module, name) pairs that a file refers to.

    A bare name refers to its own module; `mod.name` and
    `from ...mod import name` refer to `mod`.
    """
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add((path.stem, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            refs.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module:
            mod = node.module.rsplit(".", 1)[-1]
            refs.update((mod, alias.name) for alias in node.names)
    return refs


def test_every_function_is_referenced():
    trees = _trees(ROOT / "src", ROOT / "tests")
    refs = set().union(*(_references(p, t) for p, t in trees.items()))
    unused = [
        "%s.%s" % (path.stem, node.name)
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and (path.stem, node.name) not in refs
    ]
    assert not unused, "unreferenced functions: %s" % ", ".join(unused)


def test_every_parameter_is_read():
    ignored = []
    for path, tree in _trees(PACKAGE).items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs
            params += [p for p in (a.vararg, a.kwarg) if p is not None]
            read = {
                n.id
                for stmt in fn.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            for p in params:
                if p.arg in ("self", "cls") or p.arg in read:
                    continue
                if path.stem == "cli" and fn.name.startswith("suite_") and p.arg == "opts":
                    continue
                ignored.append("%s.%s(%s)" % (path.stem, fn.name, p.arg))
    assert not ignored, "parameters never read: %s" % ", ".join(ignored)
