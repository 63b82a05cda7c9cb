"""Conventions the test modules themselves must keep, checked on their source, and doc references
in the package and the README that must resolve."""

import ast
import functools
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import zeno_limits

TESTS = Path(__file__).resolve().parent
PACKAGE = Path(zeno_limits.__file__).resolve().parent
README = TESTS.parent / "README.md"
#: after a failing example, hypothesis's pytest plugin imports libcst to suggest a patch, and
#: that import warns; under ``filterwarnings = ["error"]`` the warning aborts the whole session
#: (INTERNALERROR) instead of failing the one test, so every property module ignores it
HYPOTHESIS_FILTER = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


def _reads(tree: ast.Module, name: str, module: str | None = None) -> bool:
    """True when the module imports ``name`` (from ``module``, when given) or loads it as an attribute (of
    ``module``): ``_reads(tree, "given", "hypothesis")`` for ``hypothesis.given``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and module in (None, node.module) \
                and any(alias.name == name for alias in node.names):
            return True
        if isinstance(node, ast.Attribute) and node.attr == name and module in (None, getattr(node.value, "id", None)):
            return True
    return False


def _assigned_strings(tree: ast.Module, name: str) -> list[str]:
    """The string constants in the module-level assignment to ``name`` (``pytestmark``, ``__all__``)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return [c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    return []


PROPERTY_MODULES = sorted(path.name for path in TESTS.glob("test_*.py")
                          if _reads(ast.parse(path.read_text()), "given", "hypothesis"))


def test_the_property_modules_are_found():
    assert "test_grid_properties.py" in PROPERTY_MODULES


@pytest.mark.parametrize("name", PROPERTY_MODULES)
def test_property_modules_ignore_the_plugin_warning(name):
    assert HYPOTHESIS_FILTER in _assigned_strings(ast.parse((TESTS / name).read_text()), "pytestmark")


def test_importorskip_is_detected():
    assert _reads(ast.parse('mpmath = pytest.importorskip("mpmath")'), "importorskip")
    assert _reads(ast.parse("from pytest import importorskip"), "importorskip")
    assert not _reads(ast.parse("import mpmath"), "importorskip")


@pytest.mark.parametrize("name", sorted(path.name for path in TESTS.glob("*.py")))
def test_no_module_skips_on_a_missing_import(name):
    """Every test dependency is in the ``test`` extra, so a missing one must fail the run, not skip."""
    assert not _reads(ast.parse((TESTS / name).read_text()), "importorskip")


#: a Sphinx cross-reference in a docstring or comment, and a backticked dotted name in the README
DOC_ROLE = re.compile(r":(?:func|meth|class):`~?([\w.]+)`")
README_NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`")


def _has_path(obj, dotted: str) -> bool:
    """True when each part of ``dotted`` is an attribute (or a dataclass field) of the one before."""
    for name in dotted.split("."):
        fields = getattr(obj, "__dataclass_fields__", {})  # a field without a class-level default is only here
        if not (hasattr(obj, name) or name in fields):
            return False
        obj = getattr(obj, name) if hasattr(obj, name) else fields[name]
    return True


def _package_modules() -> dict[str, object]:
    """Every module of the package by file stem, ``__init__`` as the package itself; once imported,
    each is also an attribute of the package, so ``module.name`` resolves against the package."""
    return {path.stem: importlib.import_module("zeno_limits" if path.stem == "__init__" else f"zeno_limits.{path.stem}")
            for path in sorted(PACKAGE.glob("*.py"))}


def _dangling_roles(stem: str, text: str) -> list[str]:
    """The ``:func:``, ``:meth:`` and ``:class:`` targets in ``text``, the source of module ``stem``,
    that resolve in none of: that module, the package (so also as ``module.name``), ``zeno_limits.errors``."""
    modules = _package_modules()
    scopes = (modules[stem], zeno_limits, modules["errors"])
    return [target for target in DOC_ROLE.findall(text) if not any(_has_path(scope, target) for scope in scopes)]


def _dangling_readme_names(text: str) -> list[str]:
    """The backticked dotted names in ``text`` that are the package's (not another importable
    module's, such as ``scipy.linalg.solve_triangular``) and resolve in neither the package nor
    any of its modules."""
    scopes = _package_modules().values()
    names = [name.removeprefix("zeno_limits.") for name in README_NAME.findall(text)]
    return [name for name in names
            if not any(_has_path(scope, name) for scope in scopes)
            and importlib.util.find_spec(name.partition(".")[0]) is None]


@pytest.mark.parametrize("stem", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_docstring_references_resolve(stem):
    assert _dangling_roles(stem, (PACKAGE / f"{stem}.py").read_text()) == []


def test_readme_references_resolve():
    assert _dangling_readme_names(README.read_text()) == []


def test_dangling_references_are_found():
    assert _dangling_roles("zeno", ":func:`_screened_max` and :meth:`BoundInputs.from_split`") == ["_screened_max"]
    assert _dangling_roles("zeno", ":func:`gkls._hermitian_basis`, :class:`ValidationError`") == []
    assert _dangling_readme_names("`zeno._screened_max`, `ZenoSplit.frame`, `PurityReport.upper`, "
                                  "`zeno_limits.zeno`, `scipy.linalg.solve_triangular`") == ["zeno._screened_max"]


#: the scipy modules the package may import; the rest of scipy costs start-up time and memory
SCIPY_ALLOWED = ("scipy.linalg", "scipy.linalg.lapack")


def _scipy_imports(tree: ast.Module) -> list[str]:
    """The scipy module each import in ``tree`` loads: ``from scipy.linalg import lapack`` loads
    ``scipy.linalg`` (and its ``lapack``), ``from scipy import optimize`` loads ``scipy.optimize``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names += [f"scipy.{alias.name}" for alias in node.names] if node.module == "scipy" else [node.module]
    return [name for name in names if name == "scipy" or name.startswith("scipy.")]


def _disallowed_scipy_imports(tree: ast.Module) -> list[str]:
    return [name for name in _scipy_imports(tree) if name not in SCIPY_ALLOWED]


def test_scipy_imports_are_found():
    tree = ast.parse("import scipy.linalg as sla\nfrom scipy.linalg import lapack, expm\n"
                     "from scipy.linalg.lapack import zgees\nfrom scipy.optimize import brentq\n"
                     "from scipy import optimize\nimport scipy.special\ndef f():\n    import scipy.sparse\n")
    assert _disallowed_scipy_imports(tree) == ["scipy.optimize", "scipy.optimize", "scipy.special", "scipy.sparse"]


#: the one package module that imports scipy; the others take its LAPACK routines from it
SCIPY_IMPORTER = "linalg"


@pytest.mark.parametrize("stem", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_package_imports_only_scipy_linalg(stem):
    tree = ast.parse((PACKAGE / f"{stem}.py").read_text())
    assert (_disallowed_scipy_imports(tree) if stem == SCIPY_IMPORTER else _scipy_imports(tree)) == []


def test_purity_rates_load_no_heavy_scipy_subpackage():
    """After importing what ``bench/workloads.py`` loads (``zeno_limits.cli`` and ``.acceptance``), qubit and
    qutrit purity rates and a no-go check, no module that ``scipy.linalg`` does not need is loaded (its own
    ``numpy.testing`` and ``numpy.f2py`` are not checked), nor a test dependency."""
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys\nimport zeno_limits.acceptance, zeno_limits.cli\n"
            "from zeno_limits import PurityOptions, no_go_check, purity_decay_rate, random_gkls\n"
            "from zeno_limits.zeno import fast_oscillation_zeno\n"
            "opts = PurityOptions(restarts=4, seed=0)\n"
            "assert purity_decay_rate(random_gkls(2, 1, seed=1), opts) > 0\n"
            "assert purity_decay_rate(random_gkls(3, 2, seed=2), opts) > 0\n"
            "sys_ = random_gkls(2, 1, seed=3)\n"
            "no_go_check(sys_, fast_oscillation_zeno(sys_, sys_.hamiltonian))\n"
            "print([name for name in ('scipy.optimize', 'scipy.sparse', 'scipy.special', 'scipy.spatial',\n"
            "                         'scipy.stats', 'scipy.integrate', 'mpmath', 'hypothesis')\n"
            "       if name in sys.modules])\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


#: the per-module input helpers that ``_read`` replaced; none may come back under its old name
REMOVED_READERS = ("_as_complex", "as_complex_matrix", "_require_square", "_checked_times", "_finite_float",
                   "_check_integer", "_mat_and_dim", "_check_tolerance", "_as_matrix", "_checked_gamma_t",
                   "_check_names", "_require_hermitian")


def _defined_or_imported(tree: ast.Module) -> set[str]:
    """Every name a module defines (function, class, assignment target) or imports, under either name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(name for alias in node.names for name in (alias.name.split(".")[0], alias.asname) if name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def test_defined_or_imported_names_are_found():
    tree = ast.parse("import numbers\nfrom .linalg import _require_square as sq\ndef _mat_and_dim(x): y = x\n")
    assert _defined_or_imported(tree) == {"numbers", "_require_square", "sq", "_mat_and_dim", "y"}


@pytest.mark.parametrize("stem", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_only_the_reader_module_reads_inputs(stem):
    """``numbers`` is imported by ``_read`` alone, and no module defines or imports a removed reader."""
    names = _defined_or_imported(ast.parse((PACKAGE / f"{stem}.py").read_text()))
    assert ("numbers" in names) == (stem == "_read")
    assert names.isdisjoint(REMOVED_READERS)


def _superoperator_unwraps(tree: ast.Module) -> list[int]:
    """The lines of the conditional expressions ``a if isinstance(x, Superoperator) else b`` in ``tree``:
    a ``Superoperator`` is read as a matrix by ``_read``, so no call site unwraps it by hand."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.IfExp)
            for call in ast.walk(node.test)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "isinstance"
            and any(isinstance(name, ast.Name) and name.id == "Superoperator"
                    for arg in call.args[1:] for name in ast.walk(arg))]


def test_superoperator_unwraps_are_found():
    tree = ast.parse("m = x.mat if isinstance(x, Superoperator) else read(x)\n"
                     "n = (x.mat, x.d) if ok and isinstance(x, (Superoperator, list)) else read(x)\n"
                     "if isinstance(x, Superoperator) and x.provenance == 'full':\n    pass\n"
                     "k = x.mat if isinstance(x, GklsSystem) else x\n")
    assert _superoperator_unwraps(tree) == [1, 2]


@pytest.mark.parametrize("stem", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_no_call_site_unwraps_a_superoperator(stem):
    assert _superoperator_unwraps(ast.parse((PACKAGE / f"{stem}.py").read_text())) == []


#: the public surface, its parameters and its dataclass fields are what the package computes with: an unused
#: member goes, unless it is here with its reader outside the package (``file:line``) or the ROADMAP item
#: that reads or retires it
ALLOWLIST: dict[str, str] = {
    "acceptance.CriterionResult.elapsed_s": "bench/tracing.py:329 reports each criterion's time",
    "experiments.SweepResult.rows": "bench/tracing.py:235 compares the replay's rows; goes with ROADMAP item 1a",
    "gkls.PurityOptions.grid_density": "bench/tracing.py:49 sets it; goes with ROADMAP item 1a",
    "gkls.PurityReport.argmax": "tests/test_gkls.py:281 checks the rate is attained at it; ROADMAP item 5a",
    "gkls.PurityReport.upper": "ROADMAP item 5 records the purity bracket (gamma, upper)",
    "models.ThreeLevelPeripheral.p_phi": "bench/workloads.py:221 is the three-level oracle's P_phi",
    "spectral.condition_number.nu": "bench/tracing.py:247 passes split.gap_data.nu; goes with ROADMAP item 1a",
    "zeno.ZenoSplit.b": "bench/tracing.py:242 reads it; goes with ROADMAP item 1a",
}


def _decorated(node, name: str) -> bool:
    """True when a decorator of the def or class is ``name`` or ``name(...)``, bare or a module's attribute."""
    return any(getattr(d, "id", getattr(d, "attr", None)) == name
               for d in (d.func if isinstance(d, ast.Call) else d for d in getattr(node, "decorator_list", [])))


def _parameters(node: ast.FunctionDef, method: bool) -> tuple[list[str], dict[str, ast.expr]]:
    """The positional parameters of a function (a method's without ``self`` or ``cls``) and every
    parameter's default by name."""
    positional = [a.arg for a in node.args.posonlyargs + node.args.args]
    defaults = dict(zip(positional[len(positional) - len(node.args.defaults):], node.args.defaults))
    defaults.update((a.arg, d) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None)
    return positional[1:] if method else positional, defaults


def _fields(node: ast.ClassDef) -> tuple[list[str], dict[str, ast.expr]]:
    """A dataclass's fields in order and each default by name: a ``field(default=...)`` is its default,
    a ``field(default_factory=f)`` has the default ``f()``."""
    names, defaults = [], {}
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            names.append(item.target.id)
            keywords = {k.arg: k.value for k in item.value.keywords} if isinstance(item.value, ast.Call) \
                and getattr(item.value.func, "id", None) == "field" else {"default": item.value}
            factory = keywords.get("default_factory")
            defaults[item.target.id] = ast.Call(factory, [], []) if factory else keywords.get("default")
    return names, {name: value for name, value in defaults.items() if value is not None}


def _differs(value: ast.expr, default: ast.expr) -> bool:
    """True unless ``value`` is spelled as the literal ``default`` is (numbers compare by value)."""
    if isinstance(value, ast.Constant) and isinstance(default, ast.Constant):
        return value.value != default.value
    return ast.dump(value) != ast.dump(default)


def _type(ann, classes: set[str]):
    """The type an annotation writes: a package class by name, ``("seq", T)`` for ``tuple[T, ...]`` or
    ``list[T]``, ``("map", T)`` for ``dict[K, T]``, None for none or ``tuple[A, B]``, else ``""``."""
    if isinstance(ann, ast.BinOp):  # a union such as C | None
        return next((t for t in (_type(ann.left, classes), _type(ann.right, classes)) if t in classes), "")
    kind = getattr(ann.value, "id", None) if isinstance(ann, ast.Subscript) else None
    args = (ann.slice.elts if isinstance(ann.slice, ast.Tuple) else [ann.slice]) if kind else []
    if kind in ("dict", "list") or kind == "tuple" and getattr(args[-1], "value", None) is Ellipsis:
        return ("map" if kind == "dict" else "seq", _type(args[-1 if kind == "dict" else 0], classes))
    name = ann.value if isinstance(ann, ast.Constant) else getattr(ann, "id", None)
    return None if ann is None or kind == "tuple" else name if name in classes else ""


def _walk(sources: dict[str, str]) -> dict:
    """Record, in one pass over ``sources`` (stem -> source), each load, call and def's loaded names against
    its owner: a class typed only from the sources' annotations (:func:`_type`) of parameters, ``self`` and
    ``cls``, returns, fields and properties, through bindings (in a def, a name bound to two types has none),
    subscripts and iteration; else None, which stands for every class.  A module owns no member."""
    trees = {stem: ast.parse(text) for stem, text in sorted(sources.items())}
    tops = [node for tree in trees.values() for node in tree.body]
    classes = {node.name for node in tops if isinstance(node, ast.ClassDef)}
    functions = {node.name: _type(node.returns, classes) for node in tops if isinstance(node, ast.FunctionDef)}
    members = {node.name: {getattr(item, "name", None) or item.target.id:
                           _type(getattr(item, "returns", getattr(item, "annotation", None)), classes)
                           for item in node.body if isinstance(item, (ast.FunctionDef, ast.AnnAssign))}
               for node in tops if isinstance(node, ast.ClassDef)}
    record = {"loads": set(), "names": set(), "whole": set(), "calls": [], "params": {}, "trees": trees}
    env, modules = {}, {}  # the current scope's, which the helpers below read

    def module(expr) -> bool:
        return isinstance(expr, ast.Name) and expr.id in modules and expr.id not in env

    def item(t, subscript: bool = False):
        return t[1] if isinstance(t, tuple) and (t[0] == "seq" or subscript) else None

    def callee(call: ast.Call) -> tuple:  # (owner, name); None owns a bare name and a module's attribute
        func, name = call.func, getattr(call.func, "id", None)
        if not isinstance(func, ast.Attribute):
            return None, env.get("cls") if name == "cls" else name
        owner = None if module(func.value) else typ(func.value)
        return (owner, func.attr) if owner in classes or owner is None else (None, None)

    def typ(expr):
        if isinstance(expr, (ast.Attribute, ast.Subscript)):
            owner = None if module(expr.value) else typ(expr.value)
            return item(owner, True) if isinstance(expr, ast.Subscript) else members.get(owner, {}).get(expr.attr)
        if not isinstance(expr, ast.Call):
            return env.get(expr.id, expr.id if expr.id in classes else None) if isinstance(expr, ast.Name) else None
        owner, name = callee(expr)
        bare = isinstance(expr.func, ast.Name) or owner is None and module(getattr(expr.func, "value", None))
        return typ(expr.args[0]) if name == "replace" and expr.args else name if name in classes else \
            members[owner].get(name) if owner else functions.get(name) if bare else None

    def bind(target, t, value=None) -> list:
        if not isinstance(target, (ast.Tuple, ast.List)):  # a starred name is untyped; an attribute binds none
            return [(n.id, t if n is target else None) for n in ast.walk(target)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        values = value.elts if len(getattr(value, "elts", ())) == len(target.elts) else [None] * len(target.elts)
        return [pair for elt, v in zip(target.elts, values) for pair in bind(elt, typ(v) if v else item(t), v)]

    for stem, tree in trees.items():
        modules = {alias.asname or alias.name.split(".")[0]: alias.name for node in tree.body for alias in getattr(
            node, "names", []) if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and not node.module}
        owners = [tree, *(node for node in tree.body if isinstance(node, ast.ClassDef))]
        defs = [(d, getattr(o, "name", None)) for o in owners for d in o.body if isinstance(d, ast.FunctionDef)]
        inner = {id(n) for node, _ in defs for n in ast.walk(node)}
        for node, cls in [(None, None), *defs]:
            nodes = list(ast.walk(node)) if node else [n for n in ast.walk(tree) if id(n) not in inner]
            own = node.args.args[0] if cls and node.args.args and not _decorated(node, "staticmethod") else None
            env = {}
            for n in sorted((n for n in nodes if isinstance(n, (ast.arg, ast.Assign, ast.AnnAssign, ast.NamedExpr,
                                                               ast.For, ast.comprehension))),
                            key=lambda n: (getattr(n, "target", n).lineno, getattr(n, "target", n).col_offset)):
                if isinstance(n, ast.arg):
                    pairs = [(n.arg, cls if n is own else _type(n.annotation, classes))]
                elif isinstance(n, (ast.For, ast.comprehension)):
                    pairs = bind(n.target, item(typ(n.iter)))
                else:
                    t = _type(n.annotation, classes) if isinstance(n, ast.AnnAssign) else typ(n.value)
                    pairs = [pair for target in (n.targets if isinstance(n, ast.Assign) else [n.target])
                             for pair in bind(target, t, n.value)]
                env.update((name, t if env.get(name, t) == t else None) for name, t in pairs)
            for n in nodes:
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    record["names"].add(n.id)
                elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                    if module(n.value):
                        record["names"] |= {n.attr} if modules[n.value.id] in trees else set()
                    elif (owner := typ(n.value)) in classes or owner is None:
                        record["loads"].add((owner, n.attr))
                elif isinstance(n, ast.Call):
                    owner, name = callee(n)
                    record["calls"].append((typ(n.args[0]) if name == "replace" and n.args else owner, name, n))
                    if n.args and (name == "asdict" or name == "fields" and getattr(n.args[0], "id", None) == "self"):
                        record["whole"].add(typ(n.args[0]))
            if node:  # the names the def's body loads, its parameters among them
                record["params"][".".join(filter(None, (stem, cls, node.name)))] = {n.id for n in ast.walk(
                    ast.Module(node.body, [])) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return record


def _audit(sources: dict[str, str]) -> dict[str, list[str]]:
    """The public members of the modules in ``sources`` that they do not use, by check: ``names`` in an
    ``__all__`` and the public methods of its classes, not read (loaded on the class or an unknown owner, see
    :func:`_walk`); public ``parameters`` never loaded, and defaults no call overrides (``*`` and ``**``
    pass all, and ``replace(x, f=...)`` the field f of x's class); ``fields`` not read of dataclasses in an
    ``__all__`` or a public return annotation, unless ``asdict(x)`` or ``fields(self)`` reads them whole."""
    rec = _walk(sources)
    loads, names = rec["loads"], rec["names"] | {attr for owner, attr in rec["loads"] if owner is None}
    flagged, public = {"names": [], "parameters": [], "fields": []}, set()
    for stem, tree in rec["trees"].items():
        tops = {node.name: node for node in tree.body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
        for name in _assigned_strings(tree, "__all__"):
            public.add(name)
            flagged["names"] += [] if name in names else [f"{stem}.{name}"]
            node = tops.get(name)
            methods = [m for m in getattr(node, "body", []) if isinstance(node, ast.ClassDef)
                       and isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
            flagged["names"] += [f"{stem}.{name}.{m.name}" for m in methods
                                 if not {(name, m.name), (None, m.name)} & loads]
            entries = [(f"{stem}.{name}", None, node)] if isinstance(node, ast.FunctionDef) \
                or _decorated(node, "dataclass") else []
            for qualname, owner, entry in entries + [(f"{stem}.{name}.{m.name}", name, m) for m in methods]:
                positional, defaults = _fields(entry) if isinstance(entry, ast.ClassDef) else \
                    _parameters(entry, method=owner is not None and not _decorated(entry, "staticmethod"))
                given = set()
                for called_owner, called, call in rec["calls"]:
                    if isinstance(entry, ast.ClassDef) and called == "replace" and called_owner in (None, name):
                        given |= {k.arg for k in call.keywords}
                    if called != entry.name or called_owner not in (None, owner):
                        continue
                    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
                        given |= set(defaults)
                    values = {**dict(zip(positional, call.args)), **{k.arg: k.value for k in call.keywords if k.arg}}
                    given |= {p for p, value in values.items() if p in defaults and _differs(value, defaults[p])}
                flagged["parameters"] += [f"{qualname}.{p}" for p in defaults if p not in given]
                if isinstance(entry, ast.FunctionDef):
                    flagged["parameters"] += [f"{qualname}.{a.arg}" for a in ast.walk(entry.args) if isinstance(
                        a, ast.arg) and a.arg not in ("self", "cls", *rec["params"][qualname])]
                    public |= {n.id for n in ast.walk(entry.returns or ast.Pass()) if isinstance(n, ast.Name)}
    flagged["fields"] = [f"{stem}.{node.name}.{name}" for stem, tree in rec["trees"].items() for node in tree.body
                         if isinstance(node, ast.ClassDef) and _decorated(node, "dataclass") and node.name in public
                         and node.name not in rec["whole"]
                         for name in _fields(node)[0] if not {(node.name, name), (None, name)} & loads]
    return flagged


@functools.cache
def _package_audit() -> dict[str, list[str]]:
    return _audit({path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))})


def _stale(flagged: dict[str, list[str]], allowlist: dict[str, str]) -> set[str]:
    """The allowlist entries that no check flags any more, each of which must go."""
    return set(allowlist).difference(*flagged.values())


def test_unread_surface_is_found():
    sources = {"m": "__all__ = ['used', 'unused', 'Box']\n"
                    "def used(): pass\ndef unused(): pass\n"
                    "class Box:\n    def read(self): pass\n    @property\n    def idle(self): pass\n"
                    "    def __call__(self): pass\n    def _private(self): pass\n",
               "n": "from .m import used, unused\nused()\nBox().read()\nidle = 1\n"}
    assert _audit(sources)["names"] == ["m.unused", "m.Box.idle"]


def test_unread_parameters_and_unset_defaults_are_found():
    sources = {"m": "__all__ = ['f', 'g', 'Opts', 'Box']\n"
                    "def f(a, b=1, c=None, d=2.0, *, e='x'):\n    return a, b, c, d, e\n"
                    "def g(idle, k=0):\n    return k\n"
                    "@dataclass(frozen=True)\nclass Opts:\n    n: int = 3\n    m: int = field(default=4, repr=False)\n"
                    "    z: int = 5\n    @classmethod\n    def of(cls, n):\n        return cls(z=n)\n"
                    "class Box:\n    def size(self, w=1):\n        return w\n"
                    "    @staticmethod\n    def make(v=0):\n        return v\n",
               "n": "from .m import f\nf(0, 2)\nf(0, c=None, d=2, e=y)\ng(1, *rest)\nOpts(n=3)\n"
                    "replace(o, m=7)\nBox().size(1)\nBox.make(1)\n"}
    assert _audit(sources)["parameters"] == ["m.f.c", "m.f.d", "m.g.idle", "m.Opts.n", "m.Box.size.w"]


def test_unread_fields_are_found():
    """Owners decide: ``Frame.b`` reads no ``Split.b``, ``np.argmax`` no ``Report.argmax``; unknown ones do."""
    sources = {"m": "import numpy as np\n__all__ = ['make', 'Opts', 'Split', 'Report', 'Verdicts', 'Whole']\n"
                    "@dataclass\nclass Opts:\n    n: int = 3\n    idle: int = 0\n"
                    "@dataclass(frozen=True)\nclass Out:\n    value: float\n    extra: list\n"
                    "@dataclass\nclass _Hidden:\n    unread: int\n@dataclass\nclass Frame:\n    b: int\n"
                    "@dataclass\nclass Split:\n    b: int\n    frame: Frame\n"
                    "@dataclass\nclass Report:\n    argmax: int\n"
                    "@dataclass\nclass Verdicts:\n    ok: bool\n    def as_dict(self):\n"
                    "        return {f.name: getattr(self, f.name) for f in fields(self)}\n"
                    "@dataclass\nclass Whole:\n    a: int\ndef make(o: Opts) -> list[Out]:\n    return [Out(o.n, [])]\n"
                    "def split(s: Split, r: Report) -> int:\n    frame = s.frame\n    return frame.b + np.argmax(r)\n",
               "n": "from .m import make\nopts = load()\nvalue = opts.idle + make(Opts())[0].value\nasdict(Whole(1))\n"}
    flagged = _audit(sources)
    assert flagged["fields"] == ["m.Out.extra", "m.Split.b", "m.Report.argmax"]
    assert _stale(flagged, {"m.Split.b": "a reader", "m.Out.value": "a reader"}) == {"m.Out.value"}


def test_every_public_name_is_read_by_the_package():
    assert [name for name in _package_audit()["names"] if name not in ALLOWLIST] == []


def test_every_parameter_is_read_and_set_by_the_package():
    assert [name for name in _package_audit()["parameters"] if name not in ALLOWLIST] == []


def test_every_dataclass_field_is_read_by_the_package():
    assert [name for name in _package_audit()["fields"] if name not in ALLOWLIST] == []


def test_every_allowlist_entry_is_flagged_and_names_its_reader():
    assert _stale(_package_audit(), ALLOWLIST) == set()
    assert [name for name, why in ALLOWLIST.items() if not re.search(r"\.py:\d+|ROADMAP item \d", why)] == []
