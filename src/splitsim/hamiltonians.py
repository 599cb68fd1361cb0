"""Term-set decompositions H = H_1 + ... + H_m.

Provides validated term sets, a reproducible Gaussian random ensemble, a
spin-chain preset with genuinely noncommuting parts, and an exact JSON
writer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import (
    DEGENERATE_COMMUTATOR_FLOOR,
    HERMITIAN_OUTPUT_ATOL,
)
from .matkernel import (
    _hermitian_violation,
    _spectral_exp,
    _spectrum,
    as_complex_matrix,
    spectral_norm,
    spectral_norms,
)

__all__ = [
    "PAULI_X",
    "PAULI_Z",
    "TermSet",
    "min_pairwise_commutator",
    "random_termset",
    "spin_chain_termset",
    "termset_to_json",
    "total",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_MAX_REGENERATION_ATTEMPTS = 64


@dataclass(frozen=True)
class TermSet:
    """m >= 2 Hermitian matrices of a common square shape.

    Each term is decomposed once, right after validation: ``spectra`` holds
    its read-only (eigenvalues, eigenvectors) pair, and :meth:`exp` builds
    every term exponential from it.
    """

    terms: tuple[np.ndarray, ...]
    spectra: tuple[tuple[np.ndarray, np.ndarray], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if len(self.terms) < 2:
            raise ValueError(f"a term set needs m >= 2 terms, got {len(self.terms)}")
        frozen, spectra = [], []
        for i, term in enumerate(self.terms):
            m = as_complex_matrix(term)
            d = len(frozen[0]) if frozen else m.shape[0]
            if m.shape != (d, d):
                raise ValueError(f"term {i + 1} has shape {m.shape}, expected ({d}, {d})")
            dev = _hermitian_violation(m, HERMITIAN_OUTPUT_ATOL)
            if dev is not None:
                raise ValueError(f"term {i + 1} is not Hermitian: deviation {dev:.3e}")
            m = m.copy()
            m.flags.writeable = False
            frozen.append(m)
            w, v = _spectrum(m)
            w.flags.writeable = v.flags.writeable = False
            spectra.append((w, v))
        object.__setattr__(self, "terms", tuple(frozen))
        object.__setattr__(self, "spectra", tuple(spectra))

    @property
    def dim(self) -> int:
        return len(self.terms[0])

    @property
    def m(self) -> int:
        return len(self.terms)

    def exp(self, index: int, tau: float) -> np.ndarray:
        """``exp(-i H_index tau)`` (1-based index) from the stored spectrum."""
        if not 1 <= index <= self.m:
            raise ValueError(f"term index {index} out of range 1..{self.m}")
        return _spectral_exp(*self.spectra[index - 1], tau)


def total(ts: TermSet) -> np.ndarray:
    """Entrywise sum of all terms (Hermitian by construction)."""
    out = np.zeros((ts.dim, ts.dim), dtype=complex)
    for term in ts.terms:
        out += term
    return out


def min_pairwise_commutator(ts: TermSet) -> float:
    """Smallest spectral norm of [H_j, H_k] over pairs j < k."""
    h = ts.terms
    commutators = [
        h[j] @ h[k] - h[k] @ h[j] for j in range(ts.m) for k in range(j + 1, ts.m)
    ]
    return min(spectral_norms(np.stack(commutators)))


def random_termset(d: int, m: int, norm_bound: float, seed: int) -> TermSet:
    """Reproducible random term set.

    Each term is a Gaussian Hermitian matrix (A + A^dagger)/2 with independent
    standard-normal real and imaginary parts, rescaled so its spectral norm
    equals ``norm_bound``. If any pairwise commutator of a draw falls below
    the degeneracy floor the draw is discarded and the seed bumped by one, so
    returned instances are always noncommuting; the output is still a pure
    function of ``(d, m, norm_bound, seed)``. Commutator norms scale as
    norm_bound**2, so a tiny bound can exhaust the attempts: that raises
    ValueError.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if m < 2:
        raise ValueError(f"term count must be >= 2, got {m}")
    if norm_bound <= 0:
        raise ValueError(f"norm bound must be positive, got {norm_bound}")

    for attempt in range(_MAX_REGENERATION_ATTEMPTS):
        rng = np.random.default_rng(int(seed) + attempt)
        terms = []
        for _ in range(m):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            terms.append((a + a.conj().T) / 2.0)
        for h, norm in zip(terms, spectral_norms(np.stack(terms))):
            h *= norm_bound / norm
        ts = TermSet(tuple(terms))
        if min_pairwise_commutator(ts) >= DEGENERATE_COMMUTATOR_FLOOR:
            return ts
    raise ValueError(
        f"no draw in {_MAX_REGENERATION_ATTEMPTS} attempts has every pairwise commutator norm "
        f"at or above the degeneracy floor {DEGENERATE_COMMUTATOR_FLOOR:g} "
        f"(norm_bound={norm_bound:g}; commutator norms scale as norm_bound**2)"
    )


def _site_operator(op: np.ndarray, site: int, n: int) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for i in range(n):
        out = np.kron(out, op if i == site else np.eye(2, dtype=complex))
    return out


def spin_chain_termset(n_qubits: int, jx: float, jz: float, hx: float) -> TermSet:
    """Two-term spin chain on an open line of 2..6 qubits.

    Term 1 collects the X-X bond couplings, term 2 the Z-Z bond couplings plus
    a single-site field of strength ``hx``. The field is applied along Z,
    transverse to the X-X bonds, so the two terms fail to commute whenever
    ``jx * hx != 0`` (already at two qubits, where X(x)X commutes with both
    Z(x)Z and single-site X and a field along X would make the split exactly
    solvable).
    """
    if not 2 <= n_qubits <= 6:
        raise ValueError(f"n_qubits must be in 2..6, got {n_qubits}")
    d = 2**n_qubits
    h1 = np.zeros((d, d), dtype=complex)
    h2 = np.zeros((d, d), dtype=complex)
    for i in range(n_qubits - 1):
        h1 += jx * (_site_operator(PAULI_X, i, n_qubits) @ _site_operator(PAULI_X, i + 1, n_qubits))
        h2 += jz * (_site_operator(PAULI_Z, i, n_qubits) @ _site_operator(PAULI_Z, i + 1, n_qubits))
    for i in range(n_qubits):
        h2 += hx * _site_operator(PAULI_Z, i, n_qubits)
    for name, h in (("XX", h1), ("ZZ+field", h2)):
        if spectral_norm(h) == 0.0:
            raise ValueError(
                f"spin-chain term '{name}' is identically zero with these couplings; "
                "a term set needs two nonzero terms"
            )
    return TermSet((h1, h2))


def termset_to_json(ts: TermSet) -> dict:
    """Exact JSON document: {dim, terms: [[[re, im], ...] row-major]}."""
    return {
        "dim": ts.dim,
        "terms": [
            [[float(z.real), float(z.imag)] for z in term.reshape(-1)]
            for term in ts.terms
        ],
    }

