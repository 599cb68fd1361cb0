"""Term-set decompositions H = H_1 + ... + H_m.

Provides validated term sets, a reproducible Gaussian random ensemble, a
spin-chain preset with genuinely noncommuting parts, and an exact JSON
writer. Validation, decomposition and draws are stack-first
(:func:`_term_spectra`, :func:`_random_term_stack`): :class:`TermSet` and
:func:`random_termset` are their one-set case, and a stack of term sets
gives each set's values bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import (
    DEGENERATE_COMMUTATOR_FLOOR,
    HERMITIAN_OUTPUT_ATOL,
)
from .matkernel import (
    _hermitian_violations,
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


def _term_spectra(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validated spectra of stacked term sets: (..., m, d, d) terms give
    (..., m, d) eigenvalues and (..., m, d, d) eigenvectors, each term's
    bit for bit. Raises for the first term, in stack order, that is not
    Hermitian, naming its place in its own term set."""
    m, d = terms.shape[-3], terms.shape[-1]
    for i, dev in enumerate(_hermitian_violations(terms.reshape(-1, d, d), HERMITIAN_OUTPUT_ATOL)):
        if dev is not None:
            raise ValueError(f"term {i % m + 1} is not Hermitian: deviation {dev:.3e}")
    return _spectrum(terms)


@dataclass(frozen=True)
class TermSet:
    """m >= 2 Hermitian matrices of a common square shape.

    Each term is decomposed once, right after validation: ``spectra`` holds
    its read-only (eigenvalues, eigenvectors) pair, and the word unitaries of
    :mod:`splitsim.schedules` build every term exponential from it.
    """

    terms: tuple[np.ndarray, ...]
    spectra: tuple[tuple[np.ndarray, np.ndarray], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if len(self.terms) < 2:
            raise ValueError(f"a term set needs m >= 2 terms, got {len(self.terms)}")
        checked = []
        for i, term in enumerate(self.terms):
            m = as_complex_matrix(term)
            d = len(checked[0]) if checked else m.shape[0]
            if m.shape != (d, d):
                raise ValueError(f"term {i + 1} has shape {m.shape}, expected ({d}, {d})")
            checked.append(m)
        stack = np.array(checked)
        w, v = _term_spectra(stack)
        for a in (stack, w, v):
            a.flags.writeable = False
        object.__setattr__(self, "terms", tuple(stack))
        object.__setattr__(self, "spectra", tuple(zip(w, v)))

    @property
    def dim(self) -> int:
        return len(self.terms[0])

    @property
    def m(self) -> int:
        return len(self.terms)


def _totals(terms: np.ndarray) -> np.ndarray:
    """Entrywise sum over the term axis of (..., m, d, d) terms, in term order."""
    out = np.zeros(terms.shape[:-3] + terms.shape[-2:], dtype=complex)
    for j in range(terms.shape[-3]):
        out += terms[..., j, :, :]
    return out


def total(ts: TermSet) -> np.ndarray:
    """Entrywise sum of all terms (Hermitian by construction)."""
    return _totals(np.array(ts.terms))


def _min_commutator_norms(terms: np.ndarray) -> np.ndarray:
    """Smallest spectral norm of [H_j, H_k] over pairs j < k, for each term
    set of an (n, m, d, d) stack; all the norms come from one stacked SVD."""
    n, m, d, _ = terms.shape
    pairs = [(j, k) for j in range(m) for k in range(j + 1, m)]
    commutators = np.empty((n, len(pairs), d, d), dtype=complex)
    for c, (j, k) in enumerate(pairs):
        hj, hk = terms[:, j], terms[:, k]
        commutators[:, c] = hj @ hk - hk @ hj
    norms = np.array(spectral_norms(commutators.reshape(-1, d, d)))
    return norms.reshape(n, len(pairs)).min(axis=1)


def min_pairwise_commutator(ts: TermSet) -> float:
    """Smallest spectral norm of [H_j, H_k] over pairs j < k."""
    return float(_min_commutator_norms(np.array(ts.terms)[None])[0])


def _random_term_stack(d: int, m: int, norm_bound: float, seeds) -> np.ndarray:
    """The terms of :func:`random_termset` for each seed, stacked (n, m, d, d).

    Every seed keeps its own generator, so each row is the term set that
    seed draws alone; only the rows whose draw is degenerate are redrawn.
    """
    seeds = [int(s) for s in seeds]
    out = np.empty((len(seeds), m, d, d), dtype=complex)
    pending = np.arange(len(seeds))
    for attempt in range(_MAX_REGENERATION_ATTEMPTS):
        # Per term, the real part's d*d normals and then the imaginary part's.
        draws = np.empty((len(pending), m, 2, d, d))
        for row, i in enumerate(pending.tolist()):
            np.random.default_rng(seeds[i] + attempt).standard_normal(out=draws[row])
        a = draws[:, :, 0] + 1j * draws[:, :, 1]
        terms = a + np.swapaxes(a.conj(), -1, -2)
        terms /= 2.0
        norms = np.array(spectral_norms(terms.reshape(-1, d, d))).reshape(-1, m)
        terms *= (norm_bound / norms)[..., None, None]
        kept = _min_commutator_norms(terms) >= DEGENERATE_COMMUTATOR_FLOOR
        out[pending[kept]] = terms[kept]
        pending = pending[~kept]
        if not pending.size:
            return out
    raise ValueError(
        f"no draw in {_MAX_REGENERATION_ATTEMPTS} attempts has every pairwise commutator norm "
        f"at or above the degeneracy floor {DEGENERATE_COMMUTATOR_FLOOR:g} "
        f"(norm_bound={norm_bound:g}; commutator norms scale as norm_bound**2)"
    )


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
    return TermSet(tuple(_random_term_stack(d, m, norm_bound, [seed])[0]))


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

