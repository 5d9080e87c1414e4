"""The package code imports only the standard library and itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nodalcover"


def absolute_imports(path: Path) -> list[tuple[int, str]]:
    """(line, module) for each import of an absolute module name in the file,
    at module level or inside a function; relative imports stay inside the
    package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return found


def test_package_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"nodalcover"}
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = [f"{path.name}: {name}" for path in sources
               for _, name in absolute_imports(path) if name.split(".")[0] not in allowed]
    assert not foreign, foreign


def test_no_package_module_imports_dataclasses():
    """Value types are written out by hand, so importing the package
    generates no code: no module imports `dataclasses`, at load time or
    inside a function."""
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line, name in absolute_imports(path) if name.split(".")[0] == "dataclasses"]
    assert not found, found


def package_imports(tree: ast.AST) -> list[tuple[str, int, str]]:
    """(when, line, layer) for each import of a package module: `when` is
    "load" for a statement that runs when the module is imported, "call" for
    one inside a function, and "typing" for one in an `if TYPE_CHECKING:`
    block, which runs only under a type checker."""
    found = []

    def visit(node, when):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            when = "call"
        elif isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                and node.test.id == "TYPE_CHECKING" and when == "load":
            when = "typing"
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                layers = [node.module] if node.module else [a.name for a in node.names]
            elif node.module and node.module.startswith("nodalcover."):
                layers = [node.module.removeprefix("nodalcover.")]
            else:
                layers = []
            found.extend((when, node.lineno, layer) for layer in layers)
        for child in ast.iter_child_nodes(node):
            visit(child, when)

    visit(tree, "load")
    return found


def test_package_imports_classify_load_call_and_typing_time():
    probe = ast.parse(
        "from . import io as spec_io, errors\nfrom nodalcover.curves import c\n"
        "import json\nif TYPE_CHECKING:\n    from .field import F\n"
        "def f():\n    from .groups import g\n    return lambda: g\n")
    assert package_imports(probe) == [
        ("load", 1, "io"), ("load", 1, "errors"), ("load", 2, "curves"),
        ("typing", 5, "field"), ("call", 7, "groups")]


def test_call_time_imports_skip_a_layer_or_break_a_cycle():
    """`cli`'s rule: a module imports a layer inside a function only to skip
    loading it or to break a cycle.  So every call-time import names a layer
    outside the module's load-time closure, the layers that its module-level
    imports load, followed transitively; a `TYPE_CHECKING` import loads
    nothing."""
    imports = {path.stem: package_imports(ast.parse(path.read_text(), str(path)))
               for path in sorted(PACKAGE.glob("*.py"))}
    direct = {module: {layer for when, _, layer in found if when == "load"}
              for module, found in imports.items()}

    def closure(module):
        loaded, stack = {module}, [module]
        while stack:
            for layer in direct.get(stack.pop(), ()):
                if layer not in loaded:
                    loaded.add(layer)
                    stack.append(layer)
        return loaded

    calls = [(module, line, layer) for module, found in imports.items()
             for when, line, layer in found if when == "call"]
    # the cycle breaker: `descent` imports `reps` at load time
    assert any(module == "reps" and layer == "descent" for module, _, layer in calls)
    redundant = [f"{module}.py:{line}: {layer}" for module, line, layer in calls
                 if layer in closure(module)]
    assert not redundant, redundant


def module_scope_reads(tree: ast.AST) -> set[str]:
    """Names read where they resolve to the module scope: a read inside a
    function that binds the same name (an argument or an assignment anywhere
    in its body) reads the local, not the import."""
    reads = set()

    def visit(node, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local = local | {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
            local |= {n.id for n in ast.walk(node)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and node.id not in local:
            reads.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, frozenset())
    return reads


def test_package_modules_use_every_name_they_import():
    """Each name a module imports is read somewhere in that module."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        reads = module_scope_reads(tree)
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in reads]
    assert not unused, unused


ROOT = PACKAGE.parent.parent


def names_read(tree: ast.AST) -> set[str]:
    """Every name a module could reach a definition by: loaded names,
    loaded attributes, names imported with `from ... import`, and string
    constants, since the benchmark tracer patches methods by name."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.add(node.value)
    return reads


def module_level_reads(tree: ast.AST, module: str | None) -> set[tuple[str, str]]:
    """(module, name) for each way a file reads a package module's top-level
    name: `from .module import name` or `from nodalcover.module import
    name`, an attribute `module.name` (also as `lib.module.name`, or through
    `from . import module as alias`), a tuple that starts with the two
    strings "module", "name", as the benchmark tracer's span and counter
    tables do, and a bare read of `name` in the file of `module` itself
    (None for a file outside the package)."""
    aliases = {}  # local name -> package module, for `from . import io as spec_io`
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "nodalcover"):
            aliases |= {alias.asname or alias.name: alias.name for alias in node.names}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            source = node.module.removeprefix("nodalcover.") if node.level == 0 \
                else node.module
            reads.update((source, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value
            if isinstance(owner, ast.Name):
                reads.add((aliases.get(owner.id, owner.id), node.attr))
            elif isinstance(owner, ast.Attribute):
                reads.add((owner.attr, node.attr))
        elif isinstance(node, ast.Tuple) and len(node.elts) >= 2 and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in node.elts[:2]):
            reads.add((node.elts[0].value, node.elts[1].value))
        elif module and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add((module, node.id))
    return reads


def test_module_level_reads_resolve_by_module():
    probe = ast.parse(
        "from .curves import a\nfrom nodalcover.io import b\nfrom . import hopf as h\n"
        "h.c\nlib.field.d\nSPANS = (('reps', 'e', 'reps.e'),)\nf()\n"
        "def run_one(args):\n    return args\n")
    assert module_level_reads(probe, "cli") == {
        ("curves", "a"), ("io", "b"), ("hopf", "c"), ("field", "d"), ("reps", "e"),
        ("cli", "h"), ("cli", "lib"), ("lib", "field"), ("cli", "f"), ("cli", "args")}
    # a file outside the package that defines and calls its own run_one, as
    # perfbench/run.py does, reads no package module's run_one
    outside = ast.parse("def run_one(args):\n    return args\n\nrun_one(1)\n")
    assert module_level_reads(outside, None) == set()
    assert "run_one" in names_read(outside)


def test_every_package_definition_has_a_reader_outside_the_tests():
    """Each def and class in the package is read somewhere in the package,
    the demos or the benchmark (read, never written), so no library code
    exists only for the tests; an oracle belongs in tests/ instead.

    A module-level definition is read only through its own module (see
    `module_level_reads`), so a same-named definition elsewhere does not
    count.  A method or a nested def is matched by name alone, anywhere,
    because an AST shows no receiver types: `x.inv()` may call any `inv`."""
    by_name, by_module = set(), set()
    for folder in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            by_name |= names_read(tree)
            by_module |= module_level_reads(tree, path.stem if path.parent == PACKAGE else None)
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    or (node.name.startswith("__") and node.name.endswith("__")):
                continue
            read = (path.stem, node.name) in by_module if id(node) in top \
                else node.name in by_name
            if not read:
                unread.append(f"{path.name}:{node.lineno}: {node.name}")
    assert not unread, unread


def test_every_test_helper_has_a_reader():
    """Each top-level def, class and constant in tests/helpers.py is read by
    a test module or by another top-level statement of helpers.py, so an
    oracle left behind by a deleted test fails here."""
    tests = ROOT / "tests"
    reads = set()
    for path in sorted(tests.glob("test_*.py")):
        reads |= names_read(ast.parse(path.read_text(), str(path)))
    body = ast.parse((tests / "helpers.py").read_text(), "helpers.py").body
    node_reads = [names_read(node) for node in body]
    unread = []
    for k, node in enumerate(body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        others = set().union(*node_reads[:k], *node_reads[k + 1:])
        unread += [f"helpers.py:{node.lineno}: {name}" for name in names
                   if name not in reads | others]
    assert not unread, unread


# Value types are plain classes, read-only by contract rather than frozen
# dataclasses: generating their code made each import of the package about
# 27 ms dearer, and `frozen` made a word about 3.5 times dearer to build.
# `FiniteGroup` is left out: tests/test_hopf.py replaces a group's table on
# purpose, to show that the Hopf certificates never read it.
READ_ONLY = {
    "field.py": ("FunctionField", "RationalFunction", "MatrixK"),
    "groups.py": ("FPSignature", "FPWord"),
    "curves.py": ("NodalCurve", "Pi1Presentation"),
    "reps.py": ("ContinuousRep", "FiniteQuotientRep"),
    "covering.py": ("ComponentIndex", "FundamentalDomain"),
    "descent.py": ("MeromorphicCocycle", "LatticeAssignment", "FiniteCocycle"),
    "stratified.py": ("FDividedDatum",),
    "hopf.py": ("HopfAlgebra", "QuotientTower"),
}
STORE_CALLS = {"setattr", "delattr", "__setattr__", "__delattr__"}


def read_only_fields() -> dict[str, set[str]]:
    """Field name -> the classes in READ_ONLY that own it: the names in a
    class's `__slots__`, its stores to `self.<name>` in any method, and the
    methods it decorates with `cached_property`, which store on first read.
    Names such as `field` and `rank` have several owners."""
    owners: dict[str, set[str]] = {}
    for module, names in READ_ONLY.items():
        tree = ast.parse((PACKAGE / module).read_text(), module)
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in names):
                continue
            fields = {n.attr for n in ast.walk(cls) if isinstance(n, ast.Attribute)
                      and isinstance(n.ctx, ast.Store) and isinstance(n.value, ast.Name)
                      and n.value.id == "self"}
            for n in cls.body:
                if isinstance(n, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__" for t in n.targets):
                    fields |= set(ast.literal_eval(n.value))
                if isinstance(n, ast.FunctionDef) and any(
                        getattr(d, "id", getattr(d, "attr", None)) == "cached_property"
                        for d in n.decorator_list):
                    fields.add(n.name)
            for name in fields:
                owners.setdefault(name, set()).add(cls.name)
    return owners


def field_stores(tree: ast.AST, owner: dict[str, set[str]]) -> list[tuple[int, str]]:
    """(line, field) of each store to a read-only field outside the body of
    every class that owns it: an attribute target of any assignment or `del`,
    or a setattr, delattr or `__setattr__` call naming the field by a string
    constant.  An AST shows no types, so the attribute name alone decides."""
    found = []

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        names = []
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            names = [node.attr]
        elif isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if callee in STORE_CALLS:
                names = [a.value for a in node.args[:2] if isinstance(a, ast.Constant)]
        found.extend((node.lineno, name) for name in names
                     if name in owner and cls not in owner[name])
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return found


def test_read_only_fields_are_stored_only_in_their_own_class():
    """No code in the package, the demos, the tests or the benchmark (read,
    never written) assigns, augments, annotates, deletes or setattr's a field
    of a class in READ_ONLY outside a class that owns a field of that name."""
    owner = read_only_fields()
    assert set().union(*owner.values()) == {c for names in READ_ONLY.values() for c in names}
    assert owner["letters"] == {"FPWord", "ComponentIndex"}
    assert owner["field"] >= {"RationalFunction", "MatrixK", "ContinuousRep"}
    assert (owner["boundary"], owner["z_det_valuations"], owner["_letter_strings"]) == \
        ({"FundamentalDomain"}, {"ContinuousRep"}, {"FPSignature"})
    assert owner["sig"] >= {"ContinuousRep", "FiniteQuotientRep"}
    probe = ast.parse(
        "w.letters = ()\nf.num += (1,)\nc.j: object = w\nsetattr(w, 'sig', s)\n"
        "object.__setattr__(c, 'j', 1)\ndel f.den\nf.field, x = F, 0\ndom.boundary = ()\n"
        "class MatrixK:\n    def __init__(self):\n        self.j = w\n"
        "        self.letters = ()\n        self.rep._alpha = al\n        self.field = F\n"
        "class FundamentalDomain:\n    def __init__(self):\n        self.field = F\n")
    assert [name for _, name in field_stores(probe, owner)] == \
        ["letters", "num", "j", "sig", "j", "den", "field", "boundary", "j", "letters", "_alpha",
         "field"]
    stores = []
    for folder in ("src", "demos", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            stores += [f"{path.relative_to(ROOT)}:{line}: {name}" for line, name
                       in field_stores(ast.parse(path.read_text(), str(path)), owner)]
    assert not stores, stores


# The functions that may call the `RationalFunction` constructor: each stores
# a form it knows to be canonical.  Every other element, in any package
# module, comes from `_make_rf`, the one normaliser of a (num, den) pair.
RF_CONSTRUCTOR_CALLERS = {
    "FunctionField.__init__", "FunctionField.t_power",
    "RationalFunction.__neg__", "RationalFunction.frobenius", "RationalFunction.pth_root",
    "_rf_mul",  # a nonzero constant scales a canonical element
    "_rf_combine",  # a zero left operand
    "_make_rf",
}


def calls_by_scope(tree: ast.AST, callee: str) -> list[tuple[int, str]]:
    """(line, scope) of each call to `callee`, bare or as an attribute: the
    scope is the dotted path of the enclosing classes and defs, or
    "<module>"."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        elif isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == callee:
                found.append((node.lineno, ".".join(scope) or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_the_listed_functions_build_rational_functions_directly():
    """No package module calls the `RationalFunction` constructor outside
    RF_CONSTRUCTOR_CALLERS, and each listed function still calls it."""
    probe = ast.parse(
        "x = RationalFunction(F, (), (1,))\nclass A:\n    def f(self):\n"
        "        def g():\n            return field.RationalFunction(F, n, d)\n"
        "        return _make_rf(F, n, d)\n")
    assert calls_by_scope(probe, "RationalFunction") == [(1, "<module>"), (5, "A.f.g")]
    calls = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for line, scope in calls_by_scope(ast.parse(path.read_text(), str(path)),
                                          "RationalFunction"):
            calls.setdefault(scope if path.name == "field.py" else f"{path.name}:{scope}",
                             f"{path.name}:{line}")
    extra = sorted(calls[scope] for scope in calls.keys() - RF_CONSTRUCTOR_CALLERS)
    assert not extra, extra
    assert calls.keys() == RF_CONSTRUCTOR_CALLERS
