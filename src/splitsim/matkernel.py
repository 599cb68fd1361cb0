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
* a Hermiticity check bounds ``||m - m^dagger||`` by its Frobenius norm and
  passes with no SVD when the Frobenius norms of a whole stack are together
  at most half the tolerance; otherwise it falls back to the exact spectral
  deviation, so accept/reject decisions and error messages are those of the
  exact check. A non-finite entry is rejected first, as an infinite
  deviation. :func:`hermitian_deviation` stays public as that exact value;
* checks, decompositions and exponentials are stack-first: each takes an
  (n, d, d) stack in one call and gives every matrix its one-matrix value
  bit for bit. :class:`DensityMatrix`, :func:`expm_hermitian` and
  :func:`pure_density` are the one-matrix case.

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
    "trace_norms",
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


def _hermitian_violations(stack: np.ndarray, atol: float) -> list:
    """Per matrix of an (n, d, d) stack: None when its ``hermitian_deviation``
    is at most ``atol``, otherwise that deviation.

    An infinite or NaN entry is an infinite deviation, found entrywise before
    any arithmetic on the matrix (m - m^dagger could form inf - inf) or SVD
    (LAPACK rejects such input). For the differences D_i = m_i - m_i^dagger,
    ``vdot(D, D)`` over the stack is the sum of the ``||D_i||_F**2`` and
    ``||D_i||_2 <= ||D_i||_F``, so a sum of at most ``(atol / 2)**2`` passes
    every matrix without an SVD, the factor 2 absorbing rounding in both
    norms. Otherwise every matrix gets its exact deviation, all from one
    stacked SVD.
    """
    out = [None] * len(stack)
    finite = np.isfinite(stack).all(axis=(1, 2))
    for i in np.flatnonzero(~finite).tolist():
        out[i] = math.inf
    index = np.flatnonzero(finite)
    finite_stack = stack if index.size == len(stack) else stack[index]
    diff = finite_stack - finite_stack.conj().transpose(0, 2, 1)
    if np.vdot(diff, diff).real <= 0.25 * atol * atol:
        return out
    for i, dev in zip(index.tolist(), spectral_norms(diff)):
        if dev > atol:
            out[i] = dev
    return out


def _require_hermitian(stack: np.ndarray, what: str, atol: float) -> None:
    """Raises for the first matrix of an (n, d, d) stack that is not Hermitian."""
    for dev in _hermitian_violations(stack, atol):
        if dev is not None:
            raise ValueError(
                f"{what} must be Hermitian: ||m - m^dagger|| = {dev:.3e} > {atol:.1e}"
            )


def _spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of a validated Hermitian matrix or (..., d, d) stack, with
    eigenvector columns renormalized.

    The renormalization keeps every exponential built from the spectrum
    unitary to machine precision. A stack gives each matrix's values bit for
    bit.
    """
    w, v = np.linalg.eigh(m)
    v /= np.linalg.norm(v, axis=-2, keepdims=True)
    return w, v


def _spectral_exp(w: np.ndarray, v: np.ndarray, tau) -> np.ndarray:
    """``exp(-1j * a * tau)`` from the spectrum ``(w, v)`` of ``a``.

    Takes one spectrum and a number, or stacked spectra (..., d) and
    (..., d, d) with durations of the leading shape; each exponential is the
    one-matrix value bit for bit.
    """
    tau = np.asarray(tau, dtype=float)[..., None]
    return (v * np.exp(-1j * w * tau)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def _expm_hermitians(stack: np.ndarray, taus) -> np.ndarray:
    """:func:`expm_hermitian` of each matrix of an (n, d, d) stack, with its
    own duration."""
    _require_hermitian(stack, "exponential generator", HERMITIAN_INPUT_ATOL)
    return _spectral_exp(*_spectrum(stack), taus)


def expm_hermitian(a, tau: float) -> np.ndarray:
    """``exp(-1j * a * tau)`` for Hermitian ``a``, via eigendecomposition.

    The spectral route is exact up to eigensolver accuracy. Word unitaries
    build their term exponentials from the spectra a
    :class:`splitsim.hamiltonians.TermSet` takes once; this entry point
    validates and decomposes on every call.
    """
    m = as_complex_matrix(a)
    _require_square(m, "exponential generator")
    return _expm_hermitians(m[None], float(tau))[0]


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


def trace_norms(stack) -> list[float]:
    """Sum of singular values of each matrix of an (n, d, d) stack.

    One LAPACK call for the whole stack; each value equals :func:`trace_norm`
    of that matrix exactly.
    """
    return np.linalg.svd(stack, compute_uv=False).sum(axis=1).tolist()


def _require_densities(stack: np.ndarray, atol: float) -> None:
    """Raises the :class:`DensityMatrix` error of the first matrix of an
    (n, d, d) stack that is not a density matrix within ``atol``.

    Checks Hermiticity, then unit trace, then positive semidefiniteness, each
    once for the whole stack.
    """
    herm = _hermitian_violations(stack, atol)
    ok = [i for i, dev in enumerate(herm) if dev is None]
    rest = stack if len(ok) == len(stack) else stack[ok]
    tr_dev = np.abs(np.trace(rest, axis1=1, axis2=2) - 1.0).tolist()
    min_eig = np.linalg.eigvalsh((rest + rest.conj().transpose(0, 2, 1)) / 2.0)
    min_eig = min_eig.min(axis=1, initial=math.inf).tolist()
    checked = dict(zip(ok, zip(tr_dev, min_eig)))
    for i, dev in enumerate(herm):
        if dev is not None:
            raise ValueError(
                f"density matrix is not Hermitian: deviation {dev:.3e} > {atol:.1e}"
            )
        tr, low = checked[i]
        if tr > atol:
            raise ValueError(
                f"density matrix does not have unit trace: |Tr - 1| = {tr:.3e} > {atol:.1e}"
            )
        if low < -atol:
            raise ValueError(
                f"density matrix is not PSD: min eigenvalue {low:.3e} < -{atol:.1e}"
            )


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
        _require_densities(m[None], atol)
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


def _pure_densities(vecs: np.ndarray) -> np.ndarray:
    """Unvalidated |v><v| for each row of an (n, d) array, every row
    normalized first by its own one-dimensional norm."""
    norms = [np.linalg.norm(v) for v in vecs]
    if 0 in norms:
        raise ValueError("cannot build a pure state from the zero vector")
    v = vecs / np.array(norms)[:, None]
    return v[:, :, None] * v.conj()[:, None, :]


def pure_density(vec) -> DensityMatrix:
    """Density matrix of a pure state; the vector is normalized first."""
    return DensityMatrix(_pure_densities(np.asarray(vec, dtype=complex).reshape(1, -1))[0])


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """``Tr|rho - sigma|``, in [0, 2] (twice the 1/2-normalized convention)."""
    if rho.dim != sigma.dim:
        raise ValueError(
            f"trace distance needs equal dimensions, got {rho.dim} and {sigma.dim}"
        )
    return trace_norm(rho.mat - sigma.mat)
