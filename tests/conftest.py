"""The shared ``rng`` fixture; the oracles and helpers the tests import are in ``oracles.py``."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
