import numpy as np
import pytest

from moeblab import cocycle as cc
from moeblab import fixtures as fx
from moeblab import numtheory as nt

MILLION = 10 ** 6


@pytest.fixture(scope="session")
def table_100k():
    return nt.build_mobius_table(10 ** 5)


@pytest.fixture(scope="session")
def table_1m():
    # shared by the Mertens, bilinear and correlation tests
    return nt.build_mobius_table(MILLION + 64)


@pytest.fixture(scope="session")
def resonant():
    """Expansion, resonance data, envelope cocycle, and split of the
    canonical resonant fixture (tau = 1, C = 1, support 4096)."""
    cf, res, h = fx.resonant_fixture(depth=9, freq_bound=4096)
    split = cc.split_cocycle(h, res)
    return cf, res, h, split


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)
