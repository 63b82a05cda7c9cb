"""Conventions the test modules themselves must keep, checked on their source."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
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
