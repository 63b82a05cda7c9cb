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


@pytest.mark.parametrize("stem", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_package_imports_only_scipy_linalg(stem):
    assert _disallowed_scipy_imports(ast.parse((PACKAGE / f"{stem}.py").read_text())) == []


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
            "no_go_check(sys_, fast_oscillation_zeno(sys_, sys_.hamiltonian), opts=opts)\n"
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
