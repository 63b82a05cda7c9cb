"""JSON encodings shared by the CLI.

Matrix files use ``{"rows": n, "cols": m, "data": [[re, im], ...]}`` with
row-major data.  System files use ``{"d": n, "H": <matrix>, "jumps":
[<matrix>, ...]}``.  Serialized superoperators always record the
column-stacking vectorization convention.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .gkls import GklsSystem, Superoperator
from .linalg import as_complex_matrix

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "system_to_json",
    "system_from_json",
    "superoperator_to_json",
    "superoperator_from_json",
    "load_json",
    "dump_json",
]


def matrix_to_json(a) -> dict:
    a = as_complex_matrix(a)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": [[float(x.real), float(x.imag)] for x in a.ravel(order="C")],
    }


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed matrix JSON: {exc}") from exc
    if len(data) != rows * cols:
        raise ValidationError(
            f"matrix JSON claims {rows}x{cols} but carries {len(data)} entries")
    flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    return flat.reshape((rows, cols), order="C")


def system_to_json(sys: GklsSystem) -> dict:
    return {
        "d": sys.d,
        "H": matrix_to_json(sys.hamiltonian),
        "jumps": [matrix_to_json(L) for L in sys.jumps],
    }


def system_from_json(obj) -> GklsSystem:
    try:
        d = int(obj["d"])
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


def superoperator_from_json(obj, default_provenance: str = "full") -> Superoperator:
    if "mat" in obj:
        mat = matrix_from_json(obj["mat"])
        d = int(obj.get("d", round(mat.shape[0] ** 0.5)))
        prov = obj.get("provenance", default_provenance)
        conv = obj.get("vectorization", "column-stacking")
        if conv != "column-stacking":
            raise ValidationError(f"unsupported vectorization convention {conv!r}")
        return Superoperator(d=d, mat=mat, provenance=prov)
    # bare matrix file
    mat = matrix_from_json(obj)
    d = int(round(mat.shape[0] ** 0.5))
    return Superoperator(d=d, mat=mat, provenance=default_provenance)


def load_json(path) -> dict:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError covers malformed JSON and bad encodings
        raise ValidationError(f"cannot read JSON from {path}: {exc}") from exc
    if not isinstance(obj, dict):  # every file format of the package is one JSON object
        raise ValidationError(f"{path} must hold a JSON object, not {type(obj).__name__}")
    return obj


def dump_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
