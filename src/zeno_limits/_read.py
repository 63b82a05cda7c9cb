"""The package's input readers: every public argument is read once, by one of these.

Each reader returns the argument in the form the package computes with,
or raises :class:`ValidationError` or :class:`DimensionError` with a
message that starts with the argument's name (``names`` reports
``unknown <kind> [...]``).  The paper's domain is spelled here and
nowhere else: gamma > 0 and t >= 0 (``real`` and ``times`` with a sign),
finite square generators of one shape (``matrix``, ``pair``), a Hermitian
K (``matrix`` with a Hermitian tolerance), the counts, sizes and indices
(``integer``) and the lists (``sequence``).  A number is never a bool or
a string (``_numeric``).  A reader does no more array work than its
check: one conversion, one finiteness pass, and the SVDs of a Hermitian
test only when the matrix is not exactly Hermitian.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DimensionError, ValidationError

#: the largest integer :func:`integer` takes without an upper limit: an int64, which every
#: count, size and seed of the package fits
_INT64_MAX = 2 ** 63 - 1


def integer(name: str, value, least: int = 1, most: int | None = None) -> int:
    """``value`` as an int in [least, most]: an integral number, not a bool.

    Without ``most`` the limit is the int64 range and the rule reads "a
    positive integer" (``least`` 1) or "a nonnegative integer" (``least`` 0).
    """
    top = _INT64_MAX if most is None else most
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if integral and least <= value <= top:
        return int(value)
    if most is not None:
        rule = f"an integer in [{least}, {most}]"
    elif integral and value > top:
        rule = "an integer below 2**63"
    else:
        rule = f"a {'positive' if least else 'nonnegative'} integer"
    raise ValidationError(f"{name} must be {rule}, got {value!r}")


def real(name: str, value, sign: str | None = None) -> float:
    """``value`` as a finite float: a real number, not a bool; ``sign`` "positive" or "nonnegative" bounds it below."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond float range
            x = math.nan
        if math.isfinite(x):
            if (sign == "positive" and not x > 0) or (sign == "nonnegative" and not x >= 0):
                raise ValidationError(f"{name} must be {sign}, got {value!r}")
            return x
    raise ValidationError(f"{name} must be a finite number, got {value!r}")


#: what :func:`times` requires of every entry, by ``sign``
_TIME_RULES = {None: "finite", "positive": "positive and finite", "nonnegative": "nonnegative and finite"}


def _numeric(name: str, value, kinds: str) -> np.ndarray:
    """``value`` as an array of a numpy dtype kind in ``kinds``: no bool, string, None or object (an int > 2^64).

    numpy upcasts a bool mixed with numbers, so a list or tuple is scanned for one; an ndarray is not.
    """
    try:
        a = np.asarray(value)
    except ValueError as exc:  # a ragged sequence
        raise ValidationError(f"{name} must be numeric: {exc}") from exc
    if a.dtype.kind not in kinds or (isinstance(value, (list, tuple)) and any(
            isinstance(x, (bool, np.bool_)) for x in np.asarray(value, dtype=object).flat)):
        raise ValidationError(f"{name} must be numeric, got {value!r}")
    return a


def times(name: str, value, sign: str | None = None, ndim: int | None = 1) -> np.ndarray:
    """``value`` as a float array of at most ``ndim`` dimensions (any when None) with finite entries.

    Integer and float input is taken (:func:`_numeric`); ``sign`` "positive" or "nonnegative" bounds each entry.
    """
    ts = _numeric(name, value, "iuf")
    if ndim is not None and ts.ndim > ndim:
        rule = "one number" if ndim == 0 else "a float or 1-dimensional"
        raise DimensionError(f"{name} must be {rule}, got shape {ts.shape}")
    ts = ts.astype(float, copy=False)
    ok = np.isfinite(ts)
    if sign == "positive":
        ok &= ts > 0
    elif sign == "nonnegative":
        ok &= ts >= 0
    if not np.all(ok):
        raise ValidationError(f"{name} must be {_TIME_RULES[sign]}, got {float(ts[~ok].flat[0])!r}")
    return ts


def _norm(m: np.ndarray) -> float:
    """The spectral norm, as :func:`linalg.spectral_norm` takes it of a nonempty matrix."""
    return float(np.linalg.svd(m, compute_uv=False)[0])


def matrix(name: str, value, shape=None, hermitian: tuple[float, float] | None = None,
           ndim: int = 2, dtype=complex) -> np.ndarray:
    """``value`` as a finite array of ``ndim`` dimensions (a matrix by default) and ``dtype``.

    Integer, float and, for a complex ``dtype``, complex input is taken
    (:func:`_numeric`); so is anything with an ``__array__``, such as a
    ``Superoperator``.  ``shape`` is None, "square", or the required
    (rows, cols).  With ``hermitian`` =
    (rtol, floor) the matrix must also satisfy
    ||m - m^dagger||_2 <= rtol max(||m||_2, floor); an exactly Hermitian
    matrix passes without the two SVDs.  Non-numeric and ragged input is a
    :class:`ValidationError`, a wrong number of dimensions or shape a
    :class:`DimensionError`.
    """
    m = _numeric(name, value, "iufc" if np.dtype(dtype).kind == "c" else "iuf").astype(dtype, copy=False)
    if m.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-dimensional, got shape {m.shape}")
    if not np.isfinite(m).all():  # a complex entry is finite when both its parts are
        raise ValidationError(f"{name} contains non-finite entries")
    if shape == "square" and m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    if isinstance(shape, tuple) and m.shape != shape:
        raise DimensionError(f"{name} must be {'x'.join(map(str, shape))}, got shape {m.shape}")
    if hermitian is not None and not np.array_equal(m, m.conj().T):
        rtol, floor = hermitian
        if _norm(m - m.conj().T) > rtol * max(_norm(m), floor):
            raise ValidationError(f"{name} must be Hermitian to {rtol:g} relative")
    return m


def pair(name_a: str, a, name_b: str, b) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b`` as two finite square complex matrices of one shape, such as B and C."""
    a, b = matrix(name_a, a), matrix(name_b, b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name_a} and {name_b} must be square with equal shapes, got {a.shape}, {b.shape}")
    return a, b


def superoperator(name: str, value) -> tuple[np.ndarray, int]:
    """``value`` as a finite d^2 x d^2 complex matrix, with d."""
    m = matrix(name, value)
    d = math.isqrt(m.shape[0])
    if d * d != m.shape[0] or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be d^2 x d^2, got shape {m.shape}")
    return m, d


def complex_parts(name: str, value) -> np.ndarray:
    """``value``, [re, im] pairs of finite ints or floats by exact type (no bool), as an (n, 2) float array.

    The array views as the n complex entries bit for bit, -0.0 parts included.
    """
    try:
        re, im = zip(*value, strict=True) if len(value) else ((), ())  # zip and unpacking: every pair has 2
    except (TypeError, ValueError):  # not a sized iterable of pairs, which the type test below refuses
        re = im = (None,)
    if not {*map(type, re), *map(type, im)} <= {int, float}:
        raise ValidationError(f"{name} must be a list of [re, im] pairs of numbers (not bools, strings or None)")
    parts = np.empty((len(re), 2))
    try:
        parts[:, 0], parts[:, 1] = re, im
    except OverflowError as exc:  # an int beyond float range
        raise ValidationError(f"{name} must hold finite numbers: {exc}") from exc
    if not np.isfinite(parts).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return parts


def instance(name: str, value, cls: type):
    """``value`` itself when it is a ``cls``, a package type that the caller passes in."""
    if not isinstance(value, cls):
        raise ValidationError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def sequence(name: str, value, items: str) -> tuple:
    """``value``, anything iterable, as a tuple of its ``items``."""
    try:
        return tuple(value)
    except TypeError as exc:  # not iterable
        raise ValidationError(f"{name} must be a sequence of {items}, got {value!r}") from exc


def names(kind: str, value, known) -> tuple:
    """``value`` as a tuple of names, each in ``known``; anything else in it is reported as unknown."""
    given = sequence(kind, value, "names")
    unknown = [n for n in given if not isinstance(n, str) or n not in known]
    if unknown:
        raise ValidationError(f"unknown {kind} {unknown}")
    return given
