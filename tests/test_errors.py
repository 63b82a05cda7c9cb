"""Every failure the package raises is a typed ``ZenoLimitsError``."""

import re
from pathlib import Path

import numpy as np
import pytest

import zeno_limits
from zeno_limits.errors import ValidationError
from zeno_limits.linalg import spectral_norm
from zeno_limits.models import ThreeLevelParams, three_level_generators
from zeno_limits.spectral import decompose, reduced_resolvent
from zeno_limits.zeno import adiabatic_error, pulsed_zeno_product, zeno_split

BARE_RAISE = re.compile(r"raise (ValueError|TypeError|IndexError|KeyError)\(")


def test_package_raises_no_bare_builtin_errors():
    offenders = [f"{path.name}:{number}: {line.strip()}"
                 for path in sorted(Path(zeno_limits.__file__).parent.glob("*.py"))
                 for number, line in enumerate(path.read_text().splitlines(), 1)
                 if BARE_RAISE.search(line)]
    assert offenders == []


def test_api_argument_errors_are_typed():
    weak, strong = three_level_generators(ThreeLevelParams())
    split = zeno_split(strong.mat, weak.mat)
    with pytest.raises(ValidationError, match="variant"):
        adiabatic_error(split, 10.0, 1.0, "sideways")
    with pytest.raises(ValidationError, match="positive integer"):
        pulsed_zeno_product(np.eye(4), strong.mat, 1.0, 0)
    dec = decompose(strong.mat)
    with pytest.raises(ValidationError, match="out of range"):
        reduced_resolvent(dec, len(dec.clusters))
    with pytest.raises(ValidationError, match="not a numeric array"):
        spectral_norm([["a"]])
    with pytest.raises(ValidationError, match="not a numeric array"):
        spectral_norm([[1, 2], [3]])
