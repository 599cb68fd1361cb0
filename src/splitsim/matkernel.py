"""Dense complex matrix kernels.

Hermitian eigendecomposition, unitary exponentials of Hermitian generators,
spectral and trace norms and trace distance. These are the numeric substrate
for everything else in the package.

Conventions fixed here:

* the unitary-difference norm is the spectral (operator 2-) norm;
* trace distance is ``Tr|rho - sigma|`` WITHOUT the customary 1/2 factor, so
  it ranges over [0, 2] and is twice the textbook value.

Cost notes, none of which changes a value:

* :func:`spectral_norm` reads the largest singular value straight from one
  SVD; :func:`spectral_norms` takes a whole (n, d, d) stack in one LAPACK
  call, and each of its values equals the per-matrix one bit for bit;
* a Hermiticity check first bounds ``||m - m^dagger||`` by its Frobenius norm
  and passes with no SVD when that is at most half the tolerance; otherwise
  it falls back to the exact spectral deviation, so accept/reject decisions
  and error messages are those of the exact check. A non-finite entry is
  rejected as an infinite deviation before any SVD. :func:`hermitian_deviation`
  stays public as that exact value.

All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DENSITY_ATOL, HERMITIAN_INPUT_ATOL

__all__ = [
    "DensityMatrix",
    "as_complex_matrix",
    "expm_hermitian",
    "hermitian_deviation",
    "pure_density",
    "spectral_norm",
    "spectral_norms",
    "trace_distance",
    "trace_norm",
]


def as_complex_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-D complex ndarray."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got an array of ndim={m.ndim}")
    return m


def _require_square(m: np.ndarray, what: str) -> None:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")


def hermitian_deviation(m: np.ndarray) -> float:
    """Spectral norm of ``m - m^dagger`` (0 for exactly Hermitian input)."""
    return spectral_norm(m - m.conj().T)


def _hermitian_violation(m: np.ndarray, atol: float) -> float | None:
    """None when ``hermitian_deviation(m) <= atol``; otherwise that deviation.

    ``vdot(D, D)`` is ``||D||_F**2`` for D = m - m^dagger, and the spectral
    norm never exceeds the Frobenius norm, so ``||D||_F <= atol / 2`` passes
    without an SVD; the factor 2 absorbs rounding in both norms. A matrix
    with an infinite or NaN entry never passes that bound and counts as an
    infinite deviation, before any SVD (LAPACK rejects such input). Anything
    else gets the exact deviation.
    """
    d = m - m.conj().T
    if np.vdot(d, d).real <= 0.25 * atol * atol:
        return None
    if not np.isfinite(m).all():
        return math.inf
    dev = hermitian_deviation(m)
    return dev if dev > atol else None


def _require_hermitian(m: np.ndarray, what: str, atol: float) -> None:
    dev = _hermitian_violation(m, atol)
    if dev is not None:
        raise ValueError(
            f"{what} must be Hermitian: ||m - m^dagger|| = {dev:.3e} > {atol:.1e}"
        )


def _spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of a validated Hermitian matrix, eigenvector columns renormalized.

    The renormalization keeps every exponential built from the spectrum
    unitary to machine precision.
    """
    w, v = np.linalg.eigh(m)
    return w, v / np.linalg.norm(v, axis=0, keepdims=True)


def _spectral_exp(w: np.ndarray, v: np.ndarray, tau: float) -> np.ndarray:
    """``exp(-1j * a * tau)`` from the spectrum ``(w, v)`` of ``a``."""
    return (v * np.exp(-1j * w * float(tau))) @ v.conj().T


def expm_hermitian(a, tau: float) -> np.ndarray:
    """``exp(-1j * a * tau)`` for Hermitian ``a``, via eigendecomposition.

    The spectral route is exact up to eigensolver accuracy. Term exponentials
    come from :meth:`splitsim.hamiltonians.TermSet.exp`, which reuses spectra
    taken once; this entry point validates and decomposes on every call.
    """
    m = as_complex_matrix(a)
    _require_square(m, "exponential generator")
    _require_hermitian(m, "exponential generator", HERMITIAN_INPUT_ATOL)
    return _spectral_exp(*_spectrum(m), tau)


def spectral_norm(m) -> float:
    """Largest singular value (0.0 for an empty matrix)."""
    s = np.linalg.svd(as_complex_matrix(m), compute_uv=False)
    return float(s[0]) if s.size else 0.0


def spectral_norms(stack) -> list[float]:
    """Largest singular value of each matrix of an (n, d, d) stack.

    One LAPACK call for the whole stack; each value equals
    :func:`spectral_norm` of that matrix exactly.
    """
    s = np.asarray(stack, dtype=complex)
    if s.ndim != 3:
        raise ValueError(f"expected an (n, d, d) stack, got an array of ndim={s.ndim}")
    return np.linalg.svd(s, compute_uv=False)[:, 0].tolist()


def trace_norm(m) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(as_complex_matrix(m), compute_uv=False).sum())


class DensityMatrix:
    """A validated density matrix.

    Checks Hermiticity, unit trace and positive semidefiniteness, each within
    ``atol``. The stored matrix is a read-only copy; instances are immutable
    and safe to share across threads.
    """

    __slots__ = ("_mat",)

    def __init__(self, mat, *, atol: float = DENSITY_ATOL):
        m = as_complex_matrix(mat)
        _require_square(m, "density matrix")
        dev = _hermitian_violation(m, atol)
        if dev is not None:
            raise ValueError(
                f"density matrix is not Hermitian: deviation {dev:.3e} > {atol:.1e}"
            )
        tr_dev = abs(complex(np.trace(m)) - 1.0)
        if tr_dev > atol:
            raise ValueError(
                f"density matrix does not have unit trace: |Tr - 1| = {tr_dev:.3e} > {atol:.1e}"
            )
        min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0).min())
        if min_eig < -atol:
            raise ValueError(
                f"density matrix is not PSD: min eigenvalue {min_eig:.3e} < -{atol:.1e}"
            )
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "_mat", m)

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DensityMatrix(dim={self.dim})"


def pure_density(vec) -> DensityMatrix:
    """Density matrix of a pure state; the vector is normalized first."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("cannot build a pure state from the zero vector")
    v = v / n
    return DensityMatrix(np.outer(v, v.conj()))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """``Tr|rho - sigma|``, in [0, 2] (twice the 1/2-normalized convention)."""
    if rho.dim != sigma.dim:
        raise ValueError(
            f"trace distance needs equal dimensions, got {rho.dim} and {sigma.dim}"
        )
    return trace_norm(rho.mat - sigma.mat)
