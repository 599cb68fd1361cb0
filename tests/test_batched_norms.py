"""Stacked spectral norms and the SVD-free Hermiticity pass change no value.

Oracles: ``np.linalg.norm(x, 2)`` per matrix for every stacked norm, and
``hermitian_deviation`` (the exact spectral deviation) for every Hermiticity
decision and error message. The campaign check recomputes whole Lemma-1
reports with the per-matrix norms patched back in, so it needs no stored
values and holds on any machine.
"""

import math

import numpy as np
import pytest

import splitsim.channels
import splitsim.hamiltonians
import splitsim.harness
import splitsim.matkernel
from splitsim.channels import exact_evolution, word_stack
from splitsim.config import (
    CHANNEL_OUTPUT_ATOL,
    DENSITY_ATOL,
    HERMITIAN_INPUT_ATOL,
    HERMITIAN_OUTPUT_ATOL,
)
from splitsim.hamiltonians import TermSet, random_termset
from splitsim.harness import lemma1_campaign
from splitsim.matkernel import (
    DensityMatrix,
    _hermitian_violation,
    expm_hermitian,
    hermitian_deviation,
    spectral_norm,
    spectral_norms,
)
from splitsim.schedules import alg2_stage_mixture

from conftest import random_density_mat, random_unit_vector


def _per_matrix(stack):
    return [float(np.linalg.norm(x, 2)) for x in stack]


class TestSpectralNorms:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_random_stacks_match_per_matrix_norm(self, rng, d):
        stack = rng.standard_normal((40, d, d)) + 1j * rng.standard_normal((40, d, d))
        stack[::3] *= 1e-9  # tiny entries, as in near-identity differences
        assert spectral_norms(stack) == _per_matrix(stack)
        assert [spectral_norm(x) for x in stack] == _per_matrix(stack)

    def test_large_matrices_match_per_matrix_norm(self, rng):
        stack = rng.standard_normal((3, 64, 64)) + 1j * rng.standard_normal((3, 64, 64))
        assert spectral_norms(stack) == _per_matrix(stack)

    @pytest.mark.parametrize("d", [2, 5, 8])
    def test_unitary_differences_match_per_matrix_norm(self, d):
        ts = random_termset(d, 3, 1.0, seed=d)
        _, us = word_stack(ts, alg2_stage_mixture(ts, 0.07))
        diffs = us - exact_evolution(ts, 0.07)
        assert spectral_norms(diffs) == _per_matrix(diffs)

    def test_empty_matrix_and_bad_stack(self):
        assert spectral_norm(np.zeros((0, 0))) == float(np.linalg.norm(np.zeros((0, 0)), 2))
        with pytest.raises(ValueError, match="stack"):
            spectral_norms(np.eye(3))


ATOLS = {
    "HERMITIAN_INPUT_ATOL": HERMITIAN_INPUT_ATOL,
    "HERMITIAN_OUTPUT_ATOL": HERMITIAN_OUTPUT_ATOL,
    "DENSITY_ATOL": DENSITY_ATOL,
    "CHANNEL_OUTPUT_ATOL": CHANNEL_OUTPUT_ATOL,
}
SIZES = (0.0, 0.3, 0.5, 0.99, 1.01, 2.0)


def _perturbed_density(rng, d: int, rank: str, size: float) -> np.ndarray:
    """A density matrix plus an anti-Hermitian part E with ||E - E^dagger|| = size.

    E = (i size / 2) Q for a Hermitian Q of spectral norm 1: rank 1 (trace 1)
    or full rank with eigenvalues +-1 (trace 0), so the unit-trace and PSD
    checks of a density matrix still pass below the tolerance.
    """
    if rank == "rank1":
        v = random_unit_vector(rng, d)
        q = np.outer(v, v.conj())
    else:
        u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        q = (u * np.resize([1.0, -1.0], d)) @ u.conj().T
    return random_density_mat(rng, d) + 0.5j * size * q


def _build_checked(name: str, m: np.ndarray) -> None:
    """Run the validation that uses tolerance ``name`` on ``m``."""
    if name == "HERMITIAN_INPUT_ATOL":
        expm_hermitian(m, 0.1)
    elif name == "HERMITIAN_OUTPUT_ATOL":
        TermSet((m, np.eye(m.shape[0])))
    elif name == "DENSITY_ATOL":
        DensityMatrix(m)
    else:
        DensityMatrix(m, atol=CHANNEL_OUTPUT_ATOL)


def _message(name: str, dev: float, atol: float) -> str:
    if name == "HERMITIAN_INPUT_ATOL":
        return f"exponential generator must be Hermitian: ||m - m^dagger|| = {dev:.3e} > {atol:.1e}"
    if name == "HERMITIAN_OUTPUT_ATOL":
        return f"term 1 is not Hermitian: deviation {dev:.3e}"
    return f"density matrix is not Hermitian: deviation {dev:.3e} > {atol:.1e}"


class TestHermitianViolation:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("rank", ["rank1", "full"])
    @pytest.mark.parametrize("name", sorted(ATOLS))
    def test_decision_and_message_follow_the_exact_deviation(self, rng, name, rank, size):
        atol = ATOLS[name]
        for d in (2, 4, 7):
            m = _perturbed_density(rng, d, rank, size * atol)
            dev = hermitian_deviation(m)
            if dev <= atol:
                assert _hermitian_violation(m, atol) is None
                _build_checked(name, m)
            else:
                assert _hermitian_violation(m, atol) == dev
                with pytest.raises(ValueError) as exc:
                    _build_checked(name, m)
                assert str(exc.value) == _message(name, dev, atol)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("invalid", ["warn", "raise"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
    @pytest.mark.parametrize("where", [(0, 1), (1, 1)])
    @pytest.mark.parametrize("name", sorted(ATOLS))
    def test_non_finite_input_is_rejected_before_any_svd(self, capfd, name, where, bad, invalid):
        # LAPACK would print "DLASCL parameter number 4 had an illegal value"
        # for an inf entry and let it pass; nothing may reach stderr. An inf
        # on the diagonal must not reach m - m^dagger either, where inf - inf
        # warns, or raises FloatingPointError under the CLI's errstate.
        m = np.eye(3, dtype=complex)
        m[where] = bad
        atol = ATOLS[name]
        with np.errstate(invalid=invalid):
            assert _hermitian_violation(m, atol) == math.inf
            with pytest.raises(ValueError) as exc:
                _build_checked(name, m)
        assert str(exc.value) == _message(name, math.inf, atol)
        assert capfd.readouterr().err == ""

    def test_exact_deviation_of_nan_input_still_raises(self):
        m = np.eye(3, dtype=complex)
        m[0, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            hermitian_deviation(m)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_campaign_reports_equal_the_per_matrix_norm_reports(monkeypatch, seed):
    def reports():
        seen = []

        def record(*args, **kwargs):
            seen.append(real_report(*args, **kwargs))
            return seen[-1]

        with monkeypatch.context() as mp:
            mp.setattr(splitsim.harness, "lemma1_report", record)
            campaign = lemma1_campaign(100, seed)
        return campaign.to_json(), seen

    real_report = splitsim.harness.lemma1_report
    batched = reports()
    with monkeypatch.context() as mp:
        for mod in (splitsim.matkernel, splitsim.hamiltonians, splitsim.channels):
            mp.setattr(mod, "spectral_norms", _per_matrix)
            mp.setattr(mod, "spectral_norm", lambda x: float(np.linalg.norm(x, 2)))
        looped = reports()
    assert len(batched[1]) == 100
    assert batched == looped
