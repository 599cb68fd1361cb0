import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsim.matkernel import (
    DensityMatrix,
    as_complex_matrix,
    expm_hermitian,
    pure_density,
    spectral_norm,
    trace_distance,
    trace_norm,
)

from conftest import random_density_mat, random_hermitian, random_unit_vector

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestExpmHermitian:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            expm_hermitian(np.ones((2, 3)), 1.0)

    def test_tau_zero_is_identity(self, rng):
        a = random_hermitian(rng, 4)
        assert np.allclose(expm_hermitian(a, 0.0), np.eye(4), atol=1e-14)

    def test_diagonal_generator(self):
        tau = 0.7
        u = expm_hermitian(Z, tau)
        expected = np.diag([np.exp(-1j * tau), np.exp(1j * tau)])
        assert np.allclose(u, expected, atol=1e-14)

    def test_taylor_oracle(self, rng):
        # independent oracle: order-20 Taylor series of exp(-i a tau)
        a = random_hermitian(rng, 4, scale=1.5)
        tau = 0.3
        g = -1j * a * tau
        term = np.eye(4, dtype=complex)
        taylor = np.eye(4, dtype=complex)
        for n in range(1, 21):
            term = term @ g / n
            taylor = taylor + term
        assert spectral_norm(expm_hermitian(a, tau) - taylor) <= 1e-12

    def test_unitarity(self, rng):
        a = random_hermitian(rng, 6, scale=3.0)
        u = expm_hermitian(a, 1.7)
        assert spectral_norm(u.conj().T @ u - np.eye(6)) <= 1e-12 * 6

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), s=st.floats(-1, 1), t=st.floats(-1, 1))
    def test_semigroup_property(self, seed, s, t):
        r = np.random.default_rng(seed)
        a = random_hermitian(r, 3)
        lhs = expm_hermitian(a, s) @ expm_hermitian(a, t)
        rhs = expm_hermitian(a, s + t)
        assert spectral_norm(lhs - rhs) <= 1e-10


class TestNorms:
    def test_spectral_norm_zero(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_spectral_norm_unitary(self, rng):
        u = expm_hermitian(random_hermitian(rng, 4), 0.9)
        assert abs(spectral_norm(u) - 1.0) <= 1e-12

    def test_spectral_norm_random_vector_oracle(self, rng):
        # the true norm dominates every unit-vector image; refining the best
        # of 1000 random probes by power iteration on m^dagger m reaches the
        # norm within 1e-6 from below, without touching any SVD routine
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        norm = spectral_norm(m)
        best_val, best_vec = 0.0, None
        for _ in range(1000):
            v = random_unit_vector(rng, 4)
            val = float(np.linalg.norm(m @ v))
            if val > best_val:
                best_val, best_vec = val, v
        assert best_val <= norm + 1e-12
        v = best_vec
        for _ in range(500):
            v = m.conj().T @ (m @ v)
            v /= np.linalg.norm(v)
        refined = float(np.linalg.norm(m @ v))
        assert refined <= norm + 1e-12
        assert refined >= norm - 1e-6

    def test_trace_norm_zero_and_projector(self):
        assert trace_norm(np.zeros((2, 2))) == 0.0
        proj = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert abs(trace_norm(proj) - 1.0) <= 1e-14

    def test_trace_norm_svd_oracle(self, rng):
        # oracle: eigendecompose m^dagger m, singular values are the sqrt
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        w = np.linalg.eigvalsh(m.conj().T @ m)
        expected = np.sqrt(np.clip(w, 0, None)).sum()
        assert abs(trace_norm(m) - expected) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_norm_ordering(self, seed):
        r = np.random.default_rng(seed)
        m = r.standard_normal((4, 4)) + 1j * r.standard_normal((4, 4))
        rank = np.linalg.matrix_rank(m)
        assert spectral_norm(m) <= trace_norm(m) + 1e-12
        assert trace_norm(m) <= rank * spectral_norm(m) + 1e-12


class TestDensityMatrix:
    def test_valid(self, rng):
        dm = DensityMatrix(random_density_mat(rng, 4))
        assert dm.dim == 4

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_immutable(self, rng):
        dm = DensityMatrix(random_density_mat(rng, 2))
        with pytest.raises(ValueError):
            dm.mat[0, 0] = 0.0


class TestTraceDistance:
    def test_identical_states(self, rng):
        dm = DensityMatrix(random_density_mat(rng, 4))
        assert trace_distance(dm, dm) == 0.0

    def test_orthogonal_pure_states(self):
        # the unhalved convention doubles the textbook value
        zero = pure_density([1, 0])
        one = pure_density([0, 1])
        assert abs(trace_distance(zero, one) - 2.0) <= 1e-14

    def test_eigenvalue_oracle(self, rng):
        a = DensityMatrix(random_density_mat(rng, 4))
        b = DensityMatrix(random_density_mat(rng, 4))
        eigs = np.linalg.eigvalsh(a.mat - b.mat)
        assert abs(trace_distance(a, b) - np.abs(eigs).sum()) <= 1e-10

    def test_dimension_mismatch(self, rng):
        a = DensityMatrix(random_density_mat(rng, 2))
        b = DensityMatrix(random_density_mat(rng, 4))
        with pytest.raises(ValueError, match="dimension"):
            trace_distance(a, b)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_symmetry_and_triangle(self, seed):
        r = np.random.default_rng(seed)
        a, b, c = (DensityMatrix(random_density_mat(r, 3)) for _ in range(3))
        assert abs(trace_distance(a, b) - trace_distance(b, a)) <= 1e-12
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_unitary_invariance(self, seed):
        r = np.random.default_rng(seed)
        a = DensityMatrix(random_density_mat(r, 3))
        b = DensityMatrix(random_density_mat(r, 3))
        u = expm_hermitian(random_hermitian(r, 3), 1.3)
        ua = DensityMatrix(u @ a.mat @ u.conj().T, atol=1e-9)
        ub = DensityMatrix(u @ b.mat @ u.conj().T, atol=1e-9)
        assert abs(trace_distance(ua, ub) - trace_distance(a, b)) <= 1e-10


def test_pure_density_normalizes():
    dm = pure_density([2.0, 0.0])
    assert abs(np.trace(dm.mat) - 1.0) < 1e-14


def test_pure_density_rejects_zero():
    with pytest.raises(ValueError):
        pure_density([0.0, 0.0])


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
def test_as_complex_matrix_rejects_non_matrix(shape):
    with pytest.raises(ValueError, match=f"ndim={len(shape)}"):
        as_complex_matrix(np.zeros(shape))
