"""JSON encodings shared by the CLI.

Matrix files use ``{"rows": n, "cols": m, "data": [[re, im], ...]}`` with
row-major data.  System files use ``{"d": n, "H": <matrix>, "jumps":
[<matrix>, ...]}``.  Serialized superoperators always record the
column-stacking vectorization convention.  ``write_text`` is the
package's one file writer: the JSON files, the sweep CSV and summary, the
``zeno bounds`` CSV and the criterion-6 CSV all go through it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from . import _read
from .errors import ValidationError
from .gkls import GklsSystem, Superoperator

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "system_to_json",
    "system_from_json",
    "superoperator_to_json",
    "superoperator_from_json",
    "load_json",
    "dump_json",
    "write_text",
]


def matrix_to_json(a) -> dict:
    a = _read.matrix("matrix", a)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": [[float(x.real), float(x.imag)] for x in a.ravel(order="C")],
    }


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed matrix JSON: {exc}") from exc
    rows, cols = _read.integer("matrix JSON rows", rows, 0), _read.integer("matrix JSON cols", cols, 0)
    try:
        flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"matrix JSON data must be a list of [re, im] number pairs: {exc}") from exc
    if flat.size != rows * cols:
        raise ValidationError(
            f"matrix JSON claims {rows}x{cols} but carries {flat.size} entries")
    return flat.reshape((rows, cols), order="C")


def system_to_json(sys: GklsSystem) -> dict:
    return {
        "d": sys.d,
        "H": matrix_to_json(sys.hamiltonian),
        "jumps": [matrix_to_json(L) for L in sys.jumps],
    }


def system_from_json(obj) -> GklsSystem:
    try:
        d = obj["d"]  # GklsSystem checks it
        h = matrix_from_json(obj["H"])
        jumps = tuple(matrix_from_json(j) for j in obj.get("jumps", []))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed system JSON: {exc}") from exc
    return GklsSystem(d=d, hamiltonian=h, jumps=jumps)


def superoperator_to_json(sop: Superoperator) -> dict:
    return {
        "d": sop.d,
        "provenance": sop.provenance,
        "vectorization": "column-stacking",
        "mat": matrix_to_json(sop.mat),
    }


def superoperator_from_json(obj) -> Superoperator:
    """A superoperator file; a bare matrix file is one with every optional key at its default."""
    obj = obj if "mat" in obj else {"mat": obj}
    mat = matrix_from_json(obj["mat"])
    if (conv := obj.get("vectorization", "column-stacking")) != "column-stacking":
        raise ValidationError(f"unsupported vectorization convention {conv!r}")
    d = obj.get("d", round(mat.shape[0] ** 0.5))  # Superoperator checks it
    return Superoperator(d=d, mat=mat, provenance=obj.get("provenance", "full"))


def load_json(path) -> dict:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError covers malformed JSON and bad encodings
        raise ValidationError(f"cannot read JSON from {path}: {exc}") from exc
    if not isinstance(obj, dict):  # every file format of the package is one JSON object
        raise ValidationError(f"{path} must hold a JSON object, not {type(obj).__name__}")
    return obj


def write_text(path, text: str) -> None:
    """Write ``text`` (UTF-8) to ``path``, rewriting an existing file in place.

    The file is opened without truncation, written, and then cut to the new
    length, so a shorter text leaves no stale tail, and a symlinked output
    keeps its link and the file its permissions.  Truncating first, as
    ``Path.write_text`` does, makes closing the file wait for writeback on
    file systems that flush data on truncate-then-rewrite (ext4 with its
    default ``auto_da_alloc``).
    """
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode("utf-8"))
        fh.truncate()


def dump_json(obj, path) -> None:
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
