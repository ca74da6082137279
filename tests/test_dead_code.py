"""Guard against dead code: every top-level function in the package, and
every method of a package class that is not a dunder, is used somewhere in
src/ or is one of the entry points named in ENTRY_POINTS; every parameter
is read by its function, every defaulted parameter is passed by some call,
and no required parameter gets the same constant from every call.  A guard also keeps `random` out of the
package: a certificate is exhaustive or an exact identity, never a sample.
Another keeps loops out of the cli suites, so that each claim's sweep is
defined in the module the claim is about, and another keeps each suite a
list of rows whose observed values are functions of that module.  Another
keeps every `except AssertionError` out of the package.  Another keeps
every sum of sparse terms in g2.combine, and another keeps the DOT
incidence graph in radon.incidence_dot.  The last two keep the code of a
collineation inside fano and the -1 flags of a moved sign table in one
builder.

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
    `from ...mod import name` refer to `mod`, and `fanog2.name` to the
    package's `__init__`.
    """
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add((path.stem, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            refs.add((node.value.id, node.attr))
            if node.value.id == PACKAGE.name:
                refs.add(("__init__", node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module:
            mod = node.module.rsplit(".", 1)[-1]
            refs.update((mod, alias.name) for alias in node.names)
    return refs


# Functions, and methods named as "Class.method", called from outside the
# package alone: the kernels benchmark (bench/kernels.py) times these, and
# Python calls the package __getattr__ on `fanog2.<module>`.
ENTRY_POINTS = {
    ("octonion", "mul"),
    ("octonion", "norm"),
    ("linalg", "nullspace"),
    ("lifting", "aug_compose"),
    ("lifting", "aug_apply"),
    ("__init__", "__getattr__"),
}


def test_every_function_is_referenced():
    """A function that only tests call is no part of what the package does:
    a test that needs such a helper keeps it in the test module."""
    trees = _trees(ROOT / "src")
    refs = ENTRY_POINTS.union(*(_references(p, t) for p, t in trees.items()))
    unused = [
        "%s.%s" % (path.stem, node.name)
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and (path.stem, node.name) not in refs
    ]
    assert not unused, "unreferenced functions: %s" % ", ".join(unused)


def test_every_method_is_referenced():
    """A method is used through an attribute of its name, as `field.of` or
    `self._coerce`; one that no attribute in src/ names is called only by
    tests, if at all.  Dunders are called by Python itself."""
    trees = _trees(ROOT / "src")
    attrs = {
        n.attr for t in trees.values() for n in ast.walk(t) if isinstance(n, ast.Attribute)
    }
    unused = [
        "%s.%s.%s" % (path.stem, cls.name, fn.name)
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and fn.name not in attrs
        and (path.stem, "%s.%s" % (cls.name, fn.name)) not in ENTRY_POINTS
    ]
    assert not unused, "unreferenced methods: %s" % ", ".join(unused)


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
                ignored.append("%s.%s(%s)" % (path.stem, fn.name, p.arg))
    assert not ignored, "parameters never read: %s" % ", ".join(ignored)


def _defaulted(fn):
    """(name, position) of each defaulted parameter; position is None for a
    keyword-only one."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = [(p.arg, i) for i, p in enumerate(positional) if i >= first]
    out += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _imported(tree):
    """Bare names that a file imports from a module, mapped to that module."""
    return {
        alias.asname or alias.name: node.module.rsplit(".", 1)[-1]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    }


def _calls(path, tree):
    """(module, name, call) for each call of a bare or `mod.name` function.

    A bare name belongs to the module it was imported from, else to its own.
    """
    imported = _imported(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name):
            yield imported.get(f.id, path.stem), f.id, node
        elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            yield f.value.id, f.attr, node


def _passes(call, name, position):
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(
        isinstance(a, ast.Starred) for a in call.args
    )


def _all_calls(trees):
    """{(module, name): [(path, call), ...]} over the given files."""
    calls = {}
    for path, tree in trees.items():
        for mod, name, call in _calls(path, tree):
            calls.setdefault((mod, name), []).append((path, call))
    return calls


def test_every_default_is_passed():
    """A defaulted parameter that no call passes has one value: make it a
    constant."""
    trees = _trees(ROOT / "src", ROOT / "tests")
    calls = _all_calls(trees)
    never = [
        "%s.%s(%s)" % (path.stem, fn.name, arg)
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for arg, pos in _defaulted(fn)
        if not any(
            _passes(c, arg, pos) for _, c in calls.get((path.stem, fn.name), ())
        )
    ]
    assert not never, "defaulted parameters never passed: %s" % ", ".join(never)


def _required(fn):
    """(name, position) of each required parameter, as in _defaulted."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = [(p.arg, i) for i, p in enumerate(positional) if i < first]
    out += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is None]
    return out


def _constant(path, tree, node):
    """A key for a literal or a `module.NAME` / imported NAME constant, else
    None.  A bare NAME belongs to the module it was imported from, else to
    its own."""
    if isinstance(node, ast.Constant):
        return ("literal", repr(node.value))
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.attr.isupper():
            return (node.value.id, node.attr)
    if isinstance(node, ast.Name) and node.id.isupper():
        return (_imported(tree).get(node.id, path.stem), node.id)
    return None


def _argument(call, name, position):
    """The expression a call passes for a parameter, or None if unknown."""
    for k in call.keywords:
        if k.arg == name:
            return k.value
    if position is None or any(isinstance(a, ast.Starred) for a in call.args):
        return None
    return call.args[position] if len(call.args) > position else None


def test_no_required_parameter_has_one_value():
    """A required parameter that every call sets to the same literal or
    named constant has one value: make it a constant."""
    trees = _trees(ROOT / "src", ROOT / "tests")
    calls = _all_calls(trees)
    one_value = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            sites = calls.get((path.stem, fn.name), ())
            for arg, pos in _required(fn):
                keys = {
                    _constant(p, trees[p], _argument(c, arg, pos)) for p, c in sites
                }
                if len(keys) == 1 and None not in keys:
                    one_value.append("%s.%s(%s)" % (path.stem, fn.name, arg))
    assert not one_value, "required parameters with one value: %s" % ", ".join(
        one_value
    )


def test_package_does_not_import_random():
    importers = sorted(
        path.stem
        for path, tree in _trees(PACKAGE).items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and "random" in (a.name for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "random"
    )
    assert not importers, "modules importing random: %s" % ", ".join(importers)


def test_suites_hold_no_loops():
    """A cli suite lists its claims; a for, while or try in one is a sweep
    or a control flow that belongs in the module the claim is about."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    suites = [
        fn for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("suite_")
    ]
    assert suites
    found = [
        "%s line %d" % (fn.name, node.lineno)
        for fn in suites
        for node in ast.walk(fn)
        if isinstance(node, (ast.For, ast.While, ast.Try))
    ]
    assert not found, "statements in suites: %s" % ", ".join(found)


# the one row whose observed value reads the suite's argument, the field
# that --field parses to
FIELD_ROW = "AC11.chevalley-field"


def _defined_functions(module):
    tree = ast.parse((PACKAGE / (module + ".py")).read_text())
    return {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)}


def test_suites_are_rows_of_module_functions():
    """A cli suite is one import of a module and one _records call over
    rows (claim, description, expected, fn), with fn a function that the
    module defines, named as its attribute: not a lambda, call or subscript
    that computes an observed value in cli.py.  FIELD_ROW alone is
    exempt."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    suites = [
        fn for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("suite_")
    ]
    assert suites
    bad, claims = [], []
    for fn in suites:
        body = fn.body
        call = body[-1].value if isinstance(body[-1], ast.Return) else None
        if not (
            len(body) == 2
            and isinstance(body[0], ast.ImportFrom)
            and len(body[0].names) == 1
            and isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "_records"
            and not call.keywords
            and len(call.args) == 1
            and isinstance(call.args[0], ast.Tuple)
        ):
            bad.append(fn.name)
            continue
        module = body[0].names[0].name
        defined = _defined_functions(module)
        for row in call.args[0].elts:
            if not (
                isinstance(row, ast.Tuple)
                and len(row.elts) == 4
                and isinstance(row.elts[0], ast.Constant)
            ):
                bad.append("%s line %d" % (fn.name, row.lineno))
                continue
            claim, observed = row.elts[0].value, row.elts[3]
            claims.append(claim)
            if claim != FIELD_ROW and not (
                isinstance(observed, ast.Attribute)
                and isinstance(observed.value, ast.Name)
                and observed.value.id == module
                and observed.attr in defined
            ):
                bad.append(claim)
    assert not bad, "suites or rows not of module functions: %s" % ", ".join(bad)
    assert FIELD_ROW in claims


def _catches_assertion_error(handler):
    """Whether an except clause names AssertionError, alone or in a tuple."""
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(k, ast.Name) and k.id == "AssertionError" for k in kinds)


def test_package_catches_no_assertion_error():
    """An internal check reaches a command as a value (a FAIL record, an
    error line), never as an AssertionError that some caller catches."""
    found = [
        "%s line %d" % (path.name, node.lineno)
        for path, tree in _trees(PACKAGE).items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and node.type and _catches_assertion_error(node)
    ]
    assert not found, "except AssertionError in: %s" % ", ".join(found)


# The one place each that sums sparse terms: g2.combine for the package, and
# the two kernels the kernels benchmark calls (add_elt draws its inputs,
# bracket is timed).
ACCUMULATORS = {("g2", "combine"), ("g2", "add_elt"), ("g2", "bracket")}


def _reads_get_zero(node, d):
    """Whether node is a call d.get(k, 0)."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == d
        and len(node.args) == 2
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value == 0
    )


def _accumulates(fn):
    """Whether fn stores into some d[...] a sum that reads d.get(k, 0),
    directly or through a name the function assigns."""
    assigned = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    assigned.setdefault(t.id, []).append(node.value)
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        nodes = list(ast.walk(node.value))
        for n in list(nodes):
            if isinstance(n, ast.Name):
                nodes += [m for v in assigned.get(n.id, ()) for m in ast.walk(v)]
        is_sum = any(
            isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Add, ast.Sub)) for n in nodes
        )
        for t in node.targets:
            if (
                is_sum
                and isinstance(t, ast.Subscript)
                and isinstance(t.value, ast.Name)
                and any(_reads_get_zero(n, t.value.id) for n in nodes)
            ):
                return True
    return False


def test_sparse_terms_are_summed_by_combine():
    """A loop that adds terms into a dict by d[k] = d.get(k, 0) + c is
    g2.combine written out again."""
    found = [
        "%s.%s" % (path.stem, fn.name)
        for path, tree in _trees(PACKAGE).items()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and (path.stem, fn.name) not in ACCUMULATORS
        and _accumulates(fn)
    ]
    assert not found, "sums written out instead of g2.combine: %s" % ", ".join(found)


def test_only_radon_writes_dot_edges():
    """Both diagrams draw through radon.incidence_dot: another module that
    holds the DOT edge literal "-- D" writes the incidence graph again."""
    found = sorted(
        path.stem
        for path in PACKAGE.glob("*.py")
        if path.stem != "radon" and "-- D" in path.read_text()
    )
    assert not found, "modules writing DOT edges besides radon: %s" % ", ".join(found)


def _names(node):
    """The bare names and attribute names under a node."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


# the names under which a collineation's code, the masks of its images of
# P1, P2 and P3 at bits 0, 3 and 6, has been read outside the function of
# fano that builds the product table
CODE_NAMES = {"right_products", "by_code"}


def test_only_fano_knows_the_collineation_code():
    """fano._product_table finds each product by its code and hands out
    positions in all_collineations(); a module that names the code, or a
    function of fano's surface that computes it, decodes the products
    again."""
    found = sorted(
        path.stem
        for path, tree in _trees(PACKAGE).items()
        if path.stem != "fano" and _names(tree) & CODE_NAMES
    )
    assert not found, "modules naming the collineation code: %s" % ", ".join(found)
    assert not _defined_functions("fano") & CODE_NAMES


def test_one_function_builds_the_moved_sign_flags():
    """The -1 flags of a sign table moved by every collineation are one
    translate of each column of fano._pair_columns; a second function that
    translates those columns builds them again."""
    found = sorted(
        "%s.%s" % (path.stem, fn.name)
        for path, tree in _trees(PACKAGE).items()
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and {"_pair_columns", "translate"} <= _names(fn)
    )
    assert found == ["compfactor.moved_flags"], found
