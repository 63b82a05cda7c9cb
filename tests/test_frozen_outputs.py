"""The program's reference outputs, regenerated in process and compared with frozen copies.

``tests/frozen/`` holds what the program printed when the copies were
recorded:

* ``three-level-sweep.csv`` and ``.summary.json``: the README reference
  sweep (three-level model, 5 gammas x 64 linear t), the summary without
  its ``wall_clock_s``;
* ``dissipative-d64.csv``: the D=64 sweeps (5 gammas x 4 log-spaced t) of
  the bench pairs at seeds 101-110, one ``seed`` column in front;
* ``criterion-6.csv``: the figure CSV of acceptance criterion 6;
* ``acceptance.txt``: the ``zeno-limits acceptance`` lines, with the
  elapsed times masked (from the suite's one shared pass);
* ``fingerprint.json``: the platform they were recorded on (numpy and
  scipy versions, their BLAS builds and any ``OPENBLAS_CORETYPE`` kernel
  override, the machine and its CPU flags).

The bytes depend on the BLAS kernels and the CPU.  On the recording
platform every file must match exactly.  On another platform each number
must lie within ``FOREIGN_ULPS`` units in the last place of its copy and
every other character must match, except the acceptance lines' numbers,
which print roundoff residuals to four digits and are masked there; the
test says so in its output.  A mismatch names the file and its first
differing line and cell.

A change that moves an output on purpose rewrites the copies in the same
change, from the repository root::

    PYTHONPATH=src python tests/test_frozen_outputs.py --write

A change that must move none can show it on any platform: ``--digest``
prints the SHA-256 of each output as rendered now, one ``sha256sum``-style
line per file, so the lists of two trees rendered on one machine compare
byte for byte::

    PYTHONPATH=src python tests/test_frozen_outputs.py --digest
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import struct
import sys
from pathlib import Path

import numpy as np
import scipy

from zeno_limits.experiments import SweepConfig, format_csv, run_sweep
from zeno_limits.zeno import BOUNDS, CSV_COLUMNS, VARIANTS, evaluate_grid, zeno_split

from oracles import acceptance_pass, bench_pair

FROZEN = Path(__file__).resolve().parent / "frozen"
OUTPUTS = ("three-level-sweep.csv", "three-level-sweep.summary.json", "dissipative-d64.csv",
           "criterion-6.csv", "acceptance.txt")
#: the bench's gamma grid, its D=64 t-grid and the seeds whose sweeps are frozen
GAMMAS = (10.0, 30.0, 100.0, 300.0, 1000.0)
D64_TIMES = np.geomspace(0.25, 2.0, 4)
D64_SEEDS = range(101, 111)
#: tolerance on another platform, about 1.5e-8 relative.  An error cell is the
#: difference of two nearly equal unit-norm exponentials, so it carries their
#: rounding: with OpenBLAS's Haswell, Sandybridge or Prescott kernels in place of
#: SkylakeX (on an AVX-512 CPU) the cells moved by up to 5.9e6 ulps
FOREIGN_ULPS = 2 ** 26
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")
ELAPSED = re.compile(r"\d+\.\d+s \(limit")


def platform_fingerprint() -> dict:
    """The numpy and scipy versions, their BLAS builds and kernel override, the machine and its CPU flags."""
    def blas(module) -> str:
        dep = module.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
        return dep.get("openblas configuration") or f"{dep.get('name')} {dep.get('version')}"

    try:
        with open("/proc/cpuinfo") as fh:
            flags = next((line.split(":", 1)[1].split() for line in fh if line.startswith("flags")), [])
    except OSError:
        flags = [platform.processor()]
    return {"numpy": np.__version__, "scipy": scipy.__version__, "numpy_blas": blas(np), "scipy_blas": blas(scipy),
            "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"), "machine": platform.machine(),
            "cpu_flags": " ".join(sorted(set(flags)))}


def render() -> dict[str, str]:
    """Every frozen output, computed now, keyed by file name."""
    sweep = run_sweep(SweepConfig(t_count=64))
    summary = {key: value for key, value in sweep.summary.items() if key != "wall_clock_s"}
    d64 = [",".join(("seed", *CSV_COLUMNS))]
    for seed in D64_SEEDS:
        grid = evaluate_grid(zeno_split(*bench_pair(seed)), GAMMAS, D64_TIMES, VARIANTS, tuple(BOUNDS))
        d64 += [f"{seed},{line}" for line in format_csv(grid).splitlines()[1:]]
    _, lines, figure_csv = acceptance_pass()
    return {
        "three-level-sweep.csv": sweep.csv_text,
        "three-level-sweep.summary.json": json.dumps(summary, indent=2) + "\n",
        "dissipative-d64.csv": "\n".join(d64) + "\n",
        "criterion-6.csv": figure_csv,
        "acceptance.txt": ELAPSED.sub("<elapsed>s (limit", lines),
    }


def _ordered(x: float) -> int:
    """The IEEE bits of ``x`` as an integer that counts ulps across zero."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def _cells_match(want: str, got: str, ulps: int, mask_numbers: bool) -> bool:
    if want == got or not ulps:
        return want == got
    want_numbers, got_numbers = NUMBER.findall(want), NUMBER.findall(got)
    if NUMBER.split(want) != NUMBER.split(got) or len(want_numbers) != len(got_numbers):
        return False
    return mask_numbers or all(
        a == b or abs(_ordered(float(a)) - _ordered(float(b))) <= ulps for a, b in zip(want_numbers, got_numbers))


def first_difference(name: str, want: str, got: str, ulps: int = 0) -> str | None:
    """None when ``got`` matches ``want``, else where they first differ.

    Lines are split into comma-separated cells.  ``ulps`` 0 asks for equal
    text; above 0, numbers may differ by that many ulps (the acceptance
    lines' numbers are masked).
    """
    want_lines, got_lines = want.splitlines(), got.splitlines()
    header = want_lines[0].split(",") if name.endswith(".csv") and want_lines else []
    for i, (a, b) in enumerate(zip(want_lines, got_lines)):
        for j, (cell_a, cell_b) in enumerate(zip(a.split(","), b.split(","))):
            if not _cells_match(cell_a, cell_b, ulps, name == "acceptance.txt"):
                column = f" ({header[j]})" if j < len(header) else ""
                return f"{name} line {i + 1} cell {j + 1}{column}: frozen {cell_a!r}, now {cell_b!r}"
        if a.count(",") != b.count(","):
            return f"{name} line {i + 1}: frozen {a!r}, now {b!r}"
    if len(want_lines) != len(got_lines):
        return f"{name}: {len(want_lines)} frozen lines, {len(got_lines)} now"
    return None


def test_outputs_equal_the_frozen_copies(capsys):
    recorded = json.loads((FROZEN / "fingerprint.json").read_text())
    ulps = 0 if recorded == platform_fingerprint() else FOREIGN_ULPS
    if ulps:
        with capsys.disabled():
            print(f"\nfrozen outputs: this platform differs from the recording one "
                  f"({FROZEN / 'fingerprint.json'}); numbers compared within {ulps} ulps, "
                  f"the acceptance lines' numbers masked")
    now = render()
    problems = [first_difference(name, (FROZEN / name).read_text(), now[name], ulps) for name in OUTPUTS]
    assert [p for p in problems if p] == []


def test_comparison_names_the_first_moved_cell():
    frozen = "gamma,t,bound_cptp\n10.0,0.25,0.5\n10.0,0.5,0.75\n"
    moved = frozen.replace("0.75", repr(float(np.nextafter(0.75, 1.0))))
    assert first_difference("x.csv", frozen, frozen) is None
    assert first_difference("x.csv", frozen, moved) == (
        "x.csv line 3 cell 3 (bound_cptp): frozen '0.75', now '0.7500000000000001'")
    assert first_difference("x.csv", frozen, moved, ulps=1) is None
    assert first_difference("x.csv", frozen, frozen.replace("0.75", "0.7500001"), ulps=FOREIGN_ULPS) is not None
    assert first_difference("x.csv", frozen, frozen + "10.0,1.0,1.0\n") == "x.csv: 3 frozen lines, 4 now"


def test_foreign_platform_masks_only_the_acceptance_numbers():
    line = "[PASS] criterion 1: residual = 3.253e-15 (tol 1e-8), <elapsed>s (limit 5s)\n"
    moved = line.replace("3.253e-15", "2.9e-15")
    assert first_difference("acceptance.txt", line, moved, ulps=FOREIGN_ULPS) is None
    assert first_difference("acceptance.txt", line, moved) is not None
    assert first_difference("acceptance.txt", line, moved.replace("PASS", "FAIL"), ulps=FOREIGN_ULPS) is not None


if __name__ == "__main__":
    if sys.argv[1:] not in (["--write"], ["--digest"]):
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write | --digest")
    if sys.argv[1] == "--digest":
        for name, text in render().items():
            print(f"{hashlib.sha256(text.encode()).hexdigest()}  {name}")
        sys.exit()
    FROZEN.mkdir(exist_ok=True)
    for name, text in render().items():
        (FROZEN / name).write_text(text)
    (FROZEN / "fingerprint.json").write_text(json.dumps(platform_fingerprint(), indent=2) + "\n")
