import json
import re

import numpy as np
import pytest

from splitsim.hamiltonians import (
    TermSet,
    min_pairwise_commutator,
    random_termset,
    spin_chain_termset,
    termset_to_json,
    total,
)
from splitsim.matkernel import spectral_norm

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestTermSet:
    def test_requires_two_terms(self):
        with pytest.raises(ValueError, match="m >= 2"):
            TermSet((Z,))

    def test_requires_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="term 2 is not Hermitian"):
            TermSet((Z, bad))

    def test_dim_is_the_shape_of_the_terms(self):
        ts = TermSet((np.eye(3), np.diag([1.0, 2.0, 3.0])))
        assert ts.dim == 3

    def test_rejects_a_term_shaped_unlike_the_first(self):
        with pytest.raises(ValueError, match=re.escape("term 2 has shape (3, 3), expected (2, 2)")):
            TermSet((Z, np.eye(3)))
        with pytest.raises(ValueError, match=re.escape("term 3 has shape (2, 3), expected (2, 2)")):
            TermSet((Z, X, np.zeros((2, 3))))

    def test_rejects_a_non_square_first_term(self):
        with pytest.raises(ValueError, match=re.escape("term 1 has shape (2, 3), expected (2, 2)")):
            TermSet((np.zeros((2, 3)), Z))


class TestTotal:
    def test_sum_of_z_and_x(self):
        ts = TermSet((Z, X))
        assert np.array_equal(total(ts), Z + X)

    def test_half_z_twice(self):
        ts = TermSet((Z / 2, Z / 2))
        assert np.allclose(total(ts), Z)

    def test_total_has_real_spectrum(self, rng):
        ts = random_termset(4, 3, 1.0, seed=3)
        h = total(ts)
        assert spectral_norm(h - h.conj().T) <= 1e-8  # Hermitian
        w = np.linalg.eigvalsh(h)
        assert np.all(np.isreal(w))


class TestRandomTermset:
    def test_deterministic(self):
        a = random_termset(2, 2, 1.0, seed=7)
        b = random_termset(2, 2, 1.0, seed=7)
        for ta, tb in zip(a.terms, b.terms):
            assert np.array_equal(ta, tb)

    def test_norm_rescaling(self):
        ts = random_termset(4, 3, 2.5, seed=1)
        for term in ts.terms:
            assert abs(spectral_norm(term) - 2.5) <= 1e-10

    def test_noncommuting_guarantee(self):
        ts = random_termset(4, 3, 1.0, seed=1)
        assert min_pairwise_commutator(ts) > 1e-6

    def test_rejects_small_dims(self):
        with pytest.raises(ValueError):
            random_termset(1, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            random_termset(2, 1, 1.0, seed=0)

    @pytest.mark.parametrize("norm_bound", [0.0, -1.0])
    def test_rejects_non_positive_norm_bound(self, norm_bound):
        with pytest.raises(ValueError, match="norm bound must be positive"):
            random_termset(2, 2, norm_bound, seed=0)


class TestSpinChain:
    def test_rejects_all_zero_term(self):
        with pytest.raises(ValueError, match="zero"):
            spin_chain_termset(2, 1.0, 0.0, 0.0)

    def test_noncommuting_with_field(self):
        ts = spin_chain_termset(2, 1.0, 1.0, 1.0)
        comm = ts.terms[0] @ ts.terms[1] - ts.terms[1] @ ts.terms[0]
        assert spectral_norm(comm) > 1e-8

    def test_three_qubits(self):
        ts = spin_chain_termset(3, 0.5, 0.3, 0.2)
        assert ts.dim == 8
        for term in ts.terms:
            assert spectral_norm(term - term.conj().T) <= 1e-12

    def test_coupling_only_chain_is_commuting_at_two_qubits(self):
        # XX and ZZ on the same bond commute; without the field the split
        # is degenerate (flagged, not rejected)
        ts = spin_chain_termset(2, 1.0, 1.0, 0.0)
        assert min_pairwise_commutator(ts) <= 1e-8

    def test_bond_couplings_noncommuting_at_three_qubits(self):
        ts = spin_chain_termset(3, 1.0, 1.0, 0.0)
        assert min_pairwise_commutator(ts) > 1e-8

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="n_qubits"):
            spin_chain_termset(1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="n_qubits"):
            spin_chain_termset(7, 1.0, 1.0, 1.0)


class TestJsonRoundTrip:
    def test_exact_round_trip(self):
        ts = random_termset(3, 2, 1.0, seed=11)
        doc = json.loads(json.dumps(termset_to_json(ts)))
        d = doc["dim"]
        back = [
            np.array([complex(re, im) for re, im in flat]).reshape(d, d) for flat in doc["terms"]
        ]
        assert d == ts.dim
        assert set(doc) == {"dim", "terms"}
        for a, b in zip(ts.terms, back):
            assert np.array_equal(a, b)  # bit-exact through JSON floats
