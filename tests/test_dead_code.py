"""Guards against dead code in the package, by AST scan (no linter needed)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "liftrec"
# every directory whose code calls into the package
CALLERS = ("src", "tests", "liftbench", "tools")

# module-level definitions that no module in the package refers to, on purpose
UNREFERENCED_OK = {
    # the documented inverse of emit_table; the CSV round-trip test reads with it
    ("cli", "read_table"),
}
# imports that no code in the importing module uses, on purpose
UNUSED_IMPORT_OK = {
    # liftbench's spans wrap the binding liftrec.certify:nuclear_norm by name
    ("certify", "nuclear_norm"),
}


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _references(tree):
    """(name, line) for every name read or attribute looked up in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_public_definition_is_referenced():
    """Every module-level function and class, private ones included, is
    referenced in ``src/`` outside its own definition."""
    modules = _modules()
    refs = {name: list(_references(tree)) for name, tree in modules.items()}
    unreferenced = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if (module, node.name) in UNREFERENCED_OK:
                continue
            used = any(
                ref == node.name
                and not (other == module and node.lineno <= line <= node.end_lineno)
                for other, found in refs.items() for ref, line in found
            )
            if not used:
                unreferenced.append(f"{module}.{node.name}")
    assert not unreferenced, f"definitions nothing in src refers to: {unreferenced}"


def _is_dataclass(node):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    modules = _modules()
    loaded = {node.attr for tree in modules.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for module, tree in modules.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            for node in cls.body:
                if (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                        and node.target.id not in loaded):
                    unread.append(f"{module}.{cls.name}.{node.target.id}")
    assert not unread, f"dataclass fields nothing in src reads: {unread}"


def test_no_unused_imports():
    unused = []
    for module, tree in _modules().items():
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in names and (module, bound) not in UNUSED_IMPORT_OK:
                        unused.append(f"{module}: {bound}")
    assert not unused, f"imported but never used: {unused}"


def test_imports_sit_at_module_level():
    """No function body in ``src/`` imports: the package has no import
    cycle to break, and a deferred import hides a module's dependencies."""
    nested = []
    for module, tree in _modules().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.extend(f"{module}.{fn.name}:{node.lineno}" for node in ast.walk(fn)
                              if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert not nested, f"imports inside functions: {nested}"


def _defaulted_parameters():
    """``(module, callee, parameter, position, default)`` of every parameter
    with a default; ``position`` is its index among a call's positional
    arguments (None for keyword-only ones), ``default`` the dumped default
    expression, and ``__init__`` goes by its class's name."""
    for module, tree in _modules().items():
        owner = {id(fn): cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            callee = owner[id(fn)] if fn.name == "__init__" else fn.name
            args = fn.args
            positional = args.posonlyargs + args.args
            skip = 1 if id(fn) in owner else 0          # self
            first = len(positional) - len(args.defaults)
            for k, (arg, default) in enumerate(zip(positional[first:], args.defaults),
                                               start=first):
                yield module, callee, arg.arg, k - skip, ast.dump(default)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield module, callee, arg.arg, None, ast.dump(default)


def _passes(call, parameter, position, default):
    """Whether ``call`` may pass ``parameter`` something other than its
    default expression."""
    for kw in call.keywords:
        if kw.arg is None or (kw.arg == parameter and ast.dump(kw.value) != default):
            return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return (position is not None and position < len(call.args)
            and ast.dump(call.args[position]) != default)


def test_every_defaulted_parameter_is_passed():
    """Every parameter with a default is passed something other than that
    default by some call in the repository, by keyword, by position or
    through ``*``/``**``: a default that no call overrides is a constant."""
    calls = {}
    for folder in CALLERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    calls.setdefault(name, []).append(node)
    never = [f"{module}.{callee}({parameter})"
             for module, callee, parameter, position, default in _defaulted_parameters()
             if not any(_passes(call, parameter, position, default)
                        for call in calls.get(callee, ()))]
    assert not never, f"defaulted parameters no call passes: {never}"


def _methods(modules):
    """``{name: [(module, class, def), ...]}`` of every method and property
    defined in a class body."""
    methods = {}
    for module, tree in modules.items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef):
                        methods.setdefault(fn.name, []).append((module, cls.name, fn))
    return methods


def test_every_method_is_referenced():
    """Every method and property of a class in ``src/`` is looked up as an
    attribute in ``src/`` outside its own body.  Only attribute lookups
    count, so a local function of the same name hides nothing.  Dunders are
    exempt, and so are hooks: names that two or more classes define."""
    modules = _modules()
    lookups = {module: [(node.attr, node.lineno) for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute)]
               for module, tree in modules.items()}
    unreferenced = [
        f"{module}.{cls}.{name}"
        for name, defs in _methods(modules).items()
        if len(defs) == 1 and not (name.startswith("__") and name.endswith("__"))
        for module, cls, fn in defs
        if not any(attr == name and not (other == module
                                         and fn.lineno <= line <= fn.end_lineno)
                   for other, found in lookups.items() for attr, line in found)
    ]
    assert not unreferenced, f"methods nothing in src looks up: {unreferenced}"


def test_every_parameter_is_read():
    """Every parameter of a function in ``src/`` is read by its body.  Hooks
    are exempt: a method that another class in the package also defines
    keeps the signature its callers use, read or not."""
    modules = _modules()
    methods = {name: [fn for _, _, fn in defs] for name, defs in _methods(modules).items()}
    hooks = {id(fn) for fns in methods.values() if len(fns) > 1 for fn in fns}
    owned = {id(fn) for fns in methods.values() for fn in fns}
    unread = []
    for module, tree in modules.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or id(fn) in hooks:
                continue
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs \
                + [a for a in (args.vararg, args.kwarg) if a is not None]
            if id(fn) in owned:
                params = params[1:]                     # self
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread.extend(f"{module}.{fn.name}({p.arg})" for p in params
                          if p.arg not in read)
    assert not unread, f"parameters their function never reads: {unread}"
