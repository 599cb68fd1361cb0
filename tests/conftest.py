import numpy as np
import pytest

from splitsim.hamiltonians import PAULI_X, PAULI_Z, TermSet


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def pauli_x():
    return PAULI_X.copy()


@pytest.fixture
def pauli_z():
    return PAULI_Z.copy()


def random_hermitian(rng, d, scale=1.0):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (a + a.conj().T) / 2.0
    return scale * h / np.linalg.norm(h, 2)


def random_density_mat(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w = g @ g.conj().T
    return w / np.trace(w).real


def random_unit_vector(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


@pytest.fixture
def commuting_termset(rng):
    """Diagonal terms: every splitting is exact."""
    return TermSet(tuple(np.diag(rng.standard_normal(4)).astype(complex) for _ in range(2)))
