"""Each module says once, at its top, what it depends on: no import
goes unread; ``ray``, numpy, pyarrow and the standard library (and
pandas in ``__ray_entry__.py``) are imported at module scope, as are
the public ``stages/partition.py`` helpers in the engine; and no
function imports again what its module already imported.  What stays
inside functions on purpose is not counted: intra-package imports
(some break cycles), optional dependencies, pandas and Ray's
submodules in the engine, private partition names that tests patch,
and the registry's imports of the engine.  ``import featurebox_ray``
stays light."""

import ast
import functools
import pathlib
import subprocess
import sys
import warnings

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "featurebox_ray"
ENTRY = ROOT / "__ray_entry__.py"
SOURCES = sorted(PACKAGE.rglob("*.py")) + [ENTRY]
PARTITION = "featurebox_ray.stages.partition"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp,
          ast.SetComp, ast.DictComp, ast.GeneratorExp)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _package(path: pathlib.Path) -> str:
    """The dotted package a relative import in ``path`` starts from."""
    parts = path.relative_to(ROOT).with_suffix("").parts
    return ".".join(parts[:-1])


def _target(path, node: ast.stmt, alias: ast.alias) -> str:
    """The dotted name an import alias loads: the module for ``import``,
    ``module.name`` for ``from module import name``."""
    if isinstance(node, ast.Import):
        return alias.name
    base = node.module or ""
    if node.level:
        pkg = _package(path).split(".")
        pkg = pkg[:len(pkg) - node.level + 1]
        base = ".".join(pkg + ([base] if base else []))
    return f"{base}.{alias.name}"


def _bound(alias: ast.alias) -> str:
    return alias.asname or alias.name.split(".")[0]


def _annotation_names(tree: ast.Module):
    """Name nodes inside string annotations, parsed."""
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            notes = [a.annotation for a in (args.posonlyargs + args.args
                                            + args.kwonlyargs
                                            + [args.vararg, args.kwarg])
                     if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                try:
                    yield from (n for n in ast.walk(ast.parse(note.value))
                                if isinstance(n, ast.Name))
                except SyntaxError:
                    pass


class _Scopes:
    """Which scope each import binds in and which scope each name read
    resolves to: the nearest enclosing function (or comprehension) that
    binds the name, else the module."""

    def __init__(self, tree: ast.Module):
        self.tree = tree
        self.parent = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self.parent[child] = node
        self.binds = {tree: set()}
        self.globals = {}
        for node in ast.walk(tree):
            if isinstance(node, SCOPES):
                self.binds.setdefault(node, set())
        for node in ast.walk(tree):
            scope = self.scope_of(node)
            names = ()
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Load):
                names = (node.id,)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = tuple(_bound(a) for a in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                names = (node.name,)
            elif isinstance(node, ast.arg):
                names = (node.arg,)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                names = (node.name,)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                self.globals.setdefault(scope, set()).update(node.names)
            if isinstance(node, ast.arg):
                # an argument binds in the function it belongs to
                scope = self.parent[self.parent[node]] \
                    if isinstance(self.parent[node], ast.arguments) else scope
            self.binds[scope].update(names)

    def scope_of(self, node):
        """The scope a name at ``node`` is bound in. Comprehension
        targets bind in the comprehension; a def's name and defaults
        bind in the scope around it."""
        grandchild, child, up = None, node, self.parent.get(node)
        while up is not None:
            if isinstance(up, FUNCTIONS) and child not in (
                    getattr(up, "decorator_list", []) + [up.args]
                    + [getattr(up, "returns", None)]):
                return up
            if isinstance(up, SCOPES) and not isinstance(up, FUNCTIONS) and \
                    not (child is up.generators[0]
                         and grandchild is child.iter):
                return up
            grandchild, child, up = child, up, self.parent.get(up)
        return self.tree

    def resolve(self, name: str, node):
        """The scope a read of ``name`` at ``node`` refers to."""
        scope = self.scope_of(node)
        while scope is not self.tree:
            if name in self.globals.get(scope, ()):
                return self.tree
            if name in self.binds[scope]:
                return scope
            scope = self.scope_of(scope)
        return self.tree


def _loads_submodule(node: ast.stmt, line: str) -> bool:
    """``import a.b.c  # noqa: F401``: run for its side effect (loading
    the submodule, which may register types), not for a name."""
    return (isinstance(node, ast.Import) and "noqa: F401" in line
            and all("." in a.name and not a.asname for a in node.names))


@functools.lru_cache(maxsize=None)
def _imports(path: pathlib.Path):
    """``(node, alias, scope, read)`` for every import alias in ``path``:
    ``scope`` is the module or the function the import binds in, and
    ``read`` whether anything reads the name it binds there. Imports run
    only to load a submodule are left out."""
    tree = ast.parse(path.read_text())
    scopes = _Scopes(tree)
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add((scopes.resolve(node.id, node), node.id))
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    for name in _annotation_names(tree):
        reads.add((tree, name.id))
    found = []
    lines = path.read_text().splitlines()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "__future__") or _loads_submodule(
                    node, lines[node.lineno - 1]):
            continue
        scope = scopes.scope_of(node)
        for alias in node.names:
            name = _bound(alias)
            read = (scope, name) in reads or (
                scope is tree and name in exported)
            found.append((node, alias, scope, read))
    return tree, found


def _module_scope_only(target: str, entry: bool) -> bool:
    """Whether an import of ``target`` belongs at module scope: the
    standard library, numpy, pyarrow and ``ray`` itself everywhere, and
    pandas in __ray_entry__.py.  In the engine pandas and Ray's
    submodules stay inside the functions that use them, as not every
    worker task loads them."""
    root = target.split(".")[0]
    return (root in sys.stdlib_module_names or root in ("numpy", "pyarrow")
            or target == "ray" or (entry and root == "pandas"))


def _where(path, node, what):
    return f"{path.relative_to(ROOT)}:{node.lineno} {what}"


def unread_imports() -> list:
    """Imports whose bound name nothing reads."""
    return [_where(path, node, _bound(alias))
            for path in SOURCES
            for node, alias, _, read in _imports(path)[1] if not read]


def entry_local_eager() -> list:
    """Function-local imports in __ray_entry__.py of what belongs at
    module scope (``ray``, numpy, pyarrow, pandas, the standard
    library)."""
    _, found = _imports(ENTRY)
    return [_where(ENTRY, node, _target(ENTRY, node, alias))
            for node, alias, scope, _ in found
            if not isinstance(scope, ast.Module)
            and _module_scope_only(_target(ENTRY, node, alias), True)]


def engine_local_eager() -> list:
    """Function-local imports under featurebox_ray/ of ``ray``, of a
    public ``stages/partition.py`` name, or of what else belongs at
    module scope (numpy, pyarrow, the standard library)."""
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node, alias, scope, _ in _imports(path)[1]:
            target = _target(path, node, alias)
            if isinstance(scope, ast.Module):
                continue
            if _module_scope_only(target, False) or (
                    target.startswith(PARTITION + ".")
                    and not alias.name.startswith("_")):
                out.append(_where(path, node, target))
    return out


def local_reimports() -> list:
    """Function-local imports of what the same file already imports at
    module scope, under any name."""
    out = []
    for path in SOURCES:
        _, found = _imports(path)
        top = {_target(path, node, alias)
               for node, alias, scope, _ in found
               if isinstance(scope, ast.Module)}
        out += [_where(path, node, _target(path, node, alias))
                for node, alias, scope, _ in found
                if not isinstance(scope, ast.Module)
                and _target(path, node, alias) in top]
    return out


def test_no_import_goes_unread():
    assert unread_imports() == []


def test_entry_imports_at_module_scope():
    """``ray``, numpy, pyarrow (and its compute and parquet modules),
    pandas, os and the rest of the standard library are imported at the
    top of __ray_entry__.py only; its queries import the engine inside
    the functions, so loading the registry does not load the engine."""
    assert entry_local_eager() == []


def test_engine_imports_at_module_scope():
    """No engine function imports ``ray``, numpy, pyarrow, a standard
    library module or a public partition helper.  Private partition
    names (``_unreserved``) stay lazy so the drain-counting tests can
    patch them."""
    assert engine_local_eager() == []


def test_no_function_imports_what_its_module_imported():
    assert local_reimports() == []


def test_package_import_stays_light():
    """``import featurebox_ray`` imports neither ray nor pyarrow: its
    API resolves each name on first use."""
    code = ("import sys, featurebox_ray; "
            "print(sorted(m for m in ('ray', 'pyarrow') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_sources_compile_without_warnings():
    """Every tracked Python file compiles with DeprecationWarning and
    SyntaxWarning raised as errors (an invalid string escape is one)."""
    files = subprocess.run(["git", "ls-files", "*.py"], cwd=ROOT,
                           capture_output=True, text=True).stdout.split()
    if not files:  # not a git checkout: every Python file in the tree
        files = [str(p.relative_to(ROOT)) for p in ROOT.rglob("*.py")]
    failed = []
    for name in files:
        path = ROOT / name
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            warnings.simplefilter("error", SyntaxWarning)
            try:
                compile(path.read_text(), str(name), "exec")
            except (SyntaxError, DeprecationWarning, SyntaxWarning) as e:
                failed.append(f"{name}: {e}")
    assert failed == []
