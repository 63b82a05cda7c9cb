"""A self-check of ``tools/line_trace.py`` on a small synthetic module (the traced suite itself
runs outside tier-1)."""

import importlib.util
import io
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_trace.py"
_spec = importlib.util.spec_from_file_location("line_trace", TOOL)
line_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_trace)

SOURCE = '''\
def sign(x):
    if x >= 0:
        return 1
    raise ValueError(
        "negative")


def unused():
    return 0
'''


def _traced_import(path: Path):
    """Import the module at ``path`` and call ``sign(2)`` under the tracer; return its hits."""
    def run():
        spec = importlib.util.spec_from_file_location("line_trace_synthetic", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.sign(2) == 1
    return line_trace.run_traced([path], run)


def test_executable_lines_come_from_every_code_object(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE)
    assert line_trace.executable_lines(path) == {1, 2, 3, 4, 5, 8, 9}


def test_the_lines_a_run_never_reaches_are_reported(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE)
    missed = line_trace.never_run([path], _traced_import(path))
    assert [(line, text) for _, line, text in missed] == [(4, "raise ValueError("), (5, '"negative")'),
                                                          (9, "return 0")]


def test_only_allowed_lines_may_stay_unreached(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE)
    missed = line_trace.never_run([path], _traced_import(path))
    allowed = {("synthetic.py", "return 0"): "never called"}
    out = io.StringIO()
    assert line_trace.report(missed, allowed, 7, out) == 1
    assert "synthetic.py:9: return 0  [allowed: never called]" in out.getvalue()
    assert "synthetic.py:4: raise ValueError(  [NOT ALLOWED]" in out.getvalue()
    allowed.update({("synthetic.py", 'raise ValueError('): "x", ("synthetic.py", '"negative")'): "x"})
    assert line_trace.report(missed, allowed, 7, io.StringIO()) == 0


def test_the_package_allowlist_names_package_lines():
    for (name, text), reason in line_trace.ALLOWED.items():
        source = (line_trace.PACKAGE / name).read_text().splitlines()
        assert text in (line.strip() for line in source) and reason
