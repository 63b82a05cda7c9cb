"""Conventions the test modules themselves must keep, checked on their source, and doc references
in the package and the README that must resolve."""

import ast
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


def _uses_given(tree: ast.Module) -> bool:
    """True when the module imports ``given`` from hypothesis or reads ``hypothesis.given``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "hypothesis" \
                and any(alias.name == "given" for alias in node.names):
            return True
        if isinstance(node, ast.Attribute) and node.attr == "given" \
                and isinstance(node.value, ast.Name) and node.value.id == "hypothesis":
            return True
    return False


def _module_mark_strings(tree: ast.Module) -> list[str]:
    """The string constants in the module-level ``pytestmark`` assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "pytestmark"
                                                for t in node.targets):
            return [c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    return []


def _calls_importorskip(tree: ast.Module) -> bool:
    """True when the module reads ``importorskip``, as ``pytest.importorskip`` or imported by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "importorskip":
            return True
        if isinstance(node, ast.ImportFrom) and any(alias.name == "importorskip" for alias in node.names):
            return True
    return False


PROPERTY_MODULES = sorted(path.name for path in TESTS.glob("test_*.py")
                          if _uses_given(ast.parse(path.read_text())))


def test_the_property_modules_are_found():
    assert "test_grid_properties.py" in PROPERTY_MODULES


@pytest.mark.parametrize("name", PROPERTY_MODULES)
def test_property_modules_ignore_the_plugin_warning(name):
    assert HYPOTHESIS_FILTER in _module_mark_strings(ast.parse((TESTS / name).read_text()))


def test_importorskip_is_detected():
    assert _calls_importorskip(ast.parse('mpmath = pytest.importorskip("mpmath")'))
    assert _calls_importorskip(ast.parse("from pytest import importorskip"))
    assert not _calls_importorskip(ast.parse("import mpmath"))


@pytest.mark.parametrize("name", sorted(path.name for path in TESTS.glob("*.py")))
def test_no_module_skips_on_a_missing_import(name):
    """Every test dependency is in the ``test`` extra, so a missing one must fail the run, not skip."""
    assert not _calls_importorskip(ast.parse((TESTS / name).read_text()))


#: a Sphinx cross-reference in a docstring or comment, and a backticked dotted name in the README
DOC_ROLE = re.compile(r":(?:func|meth|class):`~?([\w.]+)`")
README_NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`")


def _has_path(obj, dotted: str) -> bool:
    """True when each part of ``dotted`` is an attribute (or a dataclass field) of the one before."""
    for name in dotted.split("."):
        fields = getattr(obj, "__dataclass_fields__", {})
        if hasattr(obj, name):
            obj = getattr(obj, name)
        elif name in fields:  # a field without a class-level default
            obj = fields[name]
        else:
            return False
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
    """After qubit and qutrit purity rates and a no-go check, none of the scipy subpackages that
    ``scipy.linalg`` does not need is loaded."""
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "from zeno_limits import PurityOptions, no_go_check, purity_decay_rate, random_gkls\n"
            "from zeno_limits.zeno import fast_oscillation_zeno\n"
            "opts = PurityOptions(restarts=4, seed=0)\n"
            "assert purity_decay_rate(random_gkls(2, 1, seed=1), opts) > 0\n"
            "assert purity_decay_rate(random_gkls(3, 2, seed=2), opts) > 0\n"
            "sys_ = random_gkls(2, 1, seed=3)\n"
            "no_go_check(sys_, fast_oscillation_zeno(sys_, sys_.hamiltonian))\n"
            "print([name for name in ('scipy.optimize', 'scipy.sparse', 'scipy.special', 'scipy.spatial')\n"
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


#: public names that no module of the package reads, each with the paper statement it serves; every
#: other public name and method must be read by the package itself (as the limit, its measured error
#: and its bounds need it), or it goes
UNREAD_BY_DESIGN: dict[str, str] = {}


def _dunder_all(tree: ast.Module) -> list[str]:
    """The names listed in the module-level ``__all__`` of ``tree``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _unread_surface(sources: dict[str, str]) -> list[str]:
    """The public surface of the modules in ``sources`` (stem -> source) that none of them reads.

    The surface is every name in a module's ``__all__``, as ``module.name``, and every public method
    or property (not a dunder) of a class in it, as ``module.Class.method``.  A name is read where it
    is loaded as an ``ast.Name`` or an ``ast.Attribute``; an import, a definition or a string in
    ``__all__`` does not count.
    """
    trees = {stem: ast.parse(text) for stem, text in sources.items()}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    unread = []
    for stem, tree in sorted(trees.items()):
        classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
        for name in _dunder_all(tree):
            unread += [f"{stem}.{name}"] if name not in read else []
            methods = [node.name for node in getattr(classes.get(name), "body", [])
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")]
            unread += [f"{stem}.{name}.{method}" for method in methods if method not in read]
    return unread


def test_unread_surface_is_found():
    sources = {"m": "__all__ = ['used', 'unused', 'Box']\n"
                    "def used(): pass\ndef unused(): pass\n"
                    "class Box:\n    def read(self): pass\n    @property\n    def idle(self): pass\n"
                    "    def __call__(self): pass\n    def _private(self): pass\n",
               "n": "from .m import used, unused\nused()\nBox().read()\nidle = 1\n"}
    assert _unread_surface(sources) == ["m.unused", "m.Box.idle"]


def test_every_public_name_is_read_by_the_package():
    """The public surface is what the package computes with; an unread name needs a paper statement."""
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert [name for name in _unread_surface(sources) if name not in UNREAD_BY_DESIGN] == []
    assert all(UNREAD_BY_DESIGN.values())


#: parameters and dataclass fields that the two audits below flag but that stay for now, each with the
#: line outside the package that still sets it and the ROADMAP item that removes both
UNSET_BY_DESIGN: dict[str, str] = {
    "spectral.condition_number.nu": "bench/tracing.py:247 passes split.gap_data.nu; goes with ROADMAP item 1a",
    "gkls.PurityOptions.grid_density": "bench/tracing.py:49 sets it; goes with ROADMAP item 1a",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    """True when the class is decorated with ``dataclass`` or ``dataclass(...)``."""
    targets = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(getattr(t, "id", getattr(t, "attr", None)) == "dataclass" for t in targets)


def _decorated(node: ast.FunctionDef, name: str) -> bool:
    return any(isinstance(d, ast.Name) and d.id == name for d in node.decorator_list)


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
            value = item.value
            if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
                keywords = {k.arg: k.value for k in value.keywords}
                value = keywords.get("default", ast.Call(keywords["default_factory"], [], [])
                                     if "default_factory" in keywords else None)
            if value is not None:
                defaults[item.target.id] = value
    return names, defaults


def _entries(stem: str, tree: ast.Module) -> list[tuple]:
    """(qualified name, the name a call uses, the def or None, positional parameters, defaults) of every
    public function in the module's ``__all__``, public method of a class in it, and dataclass in it."""
    public, entries = set(_dunder_all(tree)), []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in public:
            entries.append((f"{stem}.{node.name}", node.name, node, *_parameters(node, method=False)))
        elif isinstance(node, ast.ClassDef) and node.name in public:
            if _is_dataclass(node):
                entries.append((f"{stem}.{node.name}", node.name, None, *_fields(node)))
            entries += [(f"{stem}.{node.name}.{item.name}", item.name, item,
                         *_parameters(item, method=not _decorated(item, "staticmethod")))
                        for item in node.body if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return entries


def _unread_parameters(sources: dict[str, str]) -> list[str]:
    """Every parameter of a public function or method (see :func:`_entries`) of the modules in ``sources``
    that its body never loads, as ``qualified.name.parameter``; ``self`` and ``cls`` are not counted."""
    unread = []
    for stem, text in sorted(sources.items()):
        for qualname, _, node, _, _ in _entries(stem, ast.parse(text)):
            if node is None:
                continue
            args = node.args
            loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{qualname}.{a.arg}" for a in args.posonlyargs + args.args + args.kwonlyargs
                       + [a for a in (args.vararg, args.kwarg) if a]
                       if a.arg not in ("self", "cls") and a.arg not in loaded]
    return unread


def _calls(trees) -> list[tuple[str, ast.Call]]:
    """(the name called, the call) for every call in ``trees``: ``f(...)`` and ``x.f(...)`` call ``f``,
    and ``cls(...)`` inside a classmethod calls its class."""
    own_class = {id(call): cls.name for tree in trees for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for item in cls.body if isinstance(item, ast.FunctionDef) and _decorated(item, "classmethod")
                 for call in ast.walk(item)
                 if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "cls"}
    return [(own_class.get(id(call)) or getattr(call.func, "id", None) or getattr(call.func, "attr", None), call)
            for tree in trees for call in ast.walk(tree) if isinstance(call, ast.Call)]


def _differs(value: ast.expr, default: ast.expr) -> bool:
    """True unless ``value`` is spelled as the literal ``default`` is (numbers compare by value)."""
    if isinstance(value, ast.Constant) and isinstance(default, ast.Constant):
        return value.value != default.value
    return ast.dump(value) != ast.dump(default)


def _unset_defaults(sources: dict[str, str]) -> list[str]:
    """Every defaulted parameter or field of a public entry (see :func:`_entries`) of the modules in
    ``sources`` that no call among them passes a value other than its literal default.

    A value counts whether it is passed by keyword or by position.  A call with a ``*`` or ``**``
    argument passes every parameter, and a keyword of ``dataclasses.replace`` passes that field of
    every dataclass.
    """
    trees = {stem: ast.parse(text) for stem, text in sorted(sources.items())}
    calls = _calls(trees.values())
    replaced = {k.arg for name, call in calls if name == "replace" for k in call.keywords}
    unset = []
    for stem, tree in trees.items():
        for qualname, name, node, positional, defaults in _entries(stem, tree):
            given = set(replaced) if node is None else set()
            for called, call in calls:
                if called != name:
                    continue
                if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
                    given |= set(defaults)
                values = {**dict(zip(positional, call.args)), **{k.arg: k.value for k in call.keywords if k.arg}}
                given |= {p for p, value in values.items() if p in defaults and _differs(value, defaults[p])}
            unset += [f"{qualname}.{p}" for p in defaults if p not in given]
    return unset


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
    assert _unread_parameters(sources) == ["m.g.idle"]
    assert _unset_defaults(sources) == ["m.f.c", "m.f.d", "m.Opts.n", "m.Box.size.w"]


def test_every_parameter_is_read_and_set_by_the_package():
    """A public parameter is read by its entry, and a default is overridden by some package caller; else the
    parameter goes, or becomes a constant or a property, unless ``UNSET_BY_DESIGN`` names who still sets it."""
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    flagged = _unread_parameters(sources) + _unset_defaults(sources)
    assert [name for name in flagged if name not in UNSET_BY_DESIGN] == []
    assert set(UNSET_BY_DESIGN) <= set(flagged)  # an entry the audits no longer flag goes from the allowlist
    assert all("bench/tracing.py:" in why and "ROADMAP item 1a" in why for why in UNSET_BY_DESIGN.values())


#: dataclass fields that no module of the package reads, each with its reader outside the package or the
#: ROADMAP item that reads it; every other field of a public dataclass is read by the package, or it goes
UNREAD_FIELDS: dict[str, str] = {
    "acceptance.CriterionResult.elapsed_s": "bench/tracing.py:329 reports each criterion's time",
    "experiments.SweepResult.rows": "bench/tracing.py:235 compares the replay's rows; ROADMAP item 1a",
    "gkls.PurityOptions.grid_density": "bench/tracing.py:49 sets it; goes with ROADMAP item 1a",
    "gkls.PurityReport.upper": "ROADMAP item 5 records the purity bracket (gamma, upper)",
}
#: public dataclasses that the package reads whole, so that no field of theirs is loaded by name
READ_WHOLE = {
    "experiments.SpectralPropertyReport": "its as_dict reads fields(self)",
    "gkls.CptpReport": "cli.cmd_gkls_check writes asdict(cptp_check(...))",
    "gkls.GklsFormReport": "cli.cmd_gkls_check writes asdict(gkls_form_check(...))",
}


def _unread_fields(sources: dict[str, str]) -> list[str]:
    """The fields, as ``module.Class.field``, of the public dataclasses of the modules in ``sources``
    that none of them loads as an attribute.

    A dataclass is public when a module lists it in ``__all__`` or a public function or method (see
    :func:`_entries`) names it in its return annotation.  The audit matches attribute names, not
    owners, so a field is read wherever any object's attribute of that name is loaded: it cannot flag
    ``ZenoSplit.b`` (``Frame.b`` is loaded) or ``PurityReport.argmax`` (``np.argmax`` is loaded).
    """
    trees = {stem: ast.parse(text) for stem, text in sorted(sources.items())}
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    public = {name for tree in trees.values() for name in _dunder_all(tree)}
    public |= {name.id for stem, tree in trees.items() for *_, node, _, _ in _entries(stem, tree)
               if node is not None and node.returns is not None
               for name in ast.walk(node.returns) if isinstance(name, ast.Name)}
    return [f"{stem}.{node.name}.{name}" for stem, tree in trees.items() for node in tree.body
            if isinstance(node, ast.ClassDef) and _is_dataclass(node) and node.name in public
            for name in _fields(node)[0] if name not in loaded]


def test_unread_fields_are_found():
    sources = {"m": "__all__ = ['make', 'Opts']\n"
                    "@dataclass\nclass Opts:\n    n: int = 3\n    idle: int = 0\n"
                    "@dataclass(frozen=True)\nclass Out:\n    value: float\n    extra: list\n"
                    "@dataclass\nclass _Hidden:\n    unread: int\n"
                    "def make(o: Opts) -> tuple[Out, int]:\n    return Out(o.n, []), 0\n",
               "n": "from .m import make\nvalue = make(Opts()).idle.value\n"}
    assert _unread_fields(sources) == ["m.Out.extra"]


def test_every_dataclass_field_is_read_by_the_package():
    """A field of a public dataclass is what the package computes with; a field only tests read goes,
    unless ``UNREAD_FIELDS`` names its reader."""
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    flagged = [name for name in _unread_fields(sources) if name.rpartition(".")[0] not in READ_WHOLE]
    assert [name for name in flagged if name not in UNREAD_FIELDS] == []
    assert set(UNREAD_FIELDS) <= set(flagged)  # an entry the audit no longer flags goes from the allowlist
    assert all(UNREAD_FIELDS.values()) and all(READ_WHOLE.values())
