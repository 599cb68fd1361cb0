"""Term exponentials from stored spectra, and one word stack per stage.

Oracles: ``expm_hermitian`` (validate and decompose on every call) for the
term exponentials, and loops over ``word_unitary`` of each mixture entry,
written here, for the stacked mean, squared deviation and Lemma-1 report.
"""

import numpy as np
import pytest

from splitsim.channels import (
    exact_evolution,
    expected_sq_deviation,
    lemma1_report,
    mean_unitary,
    word_stack,
)
from splitsim.hamiltonians import random_termset, spin_chain_termset
from splitsim.matkernel import expm_hermitian, pure_density, spectral_norm
from splitsim.schedules import (
    Word,
    alg1_stage_mixture,
    alg2_stage_mixture,
    mixture_power,
    word_unitary,
)

from conftest import random_unit_vector

TAUS = (1e-3, 0.05, 0.3, 1.0, 7.5)


def _termsets():
    for d in range(2, 9):
        yield random_termset(d, 2 + d % 3, 1.0, seed=100 + d)
    for n in (2, 3):
        yield spin_chain_termset(n, 1.0, 0.7, 0.4)


@pytest.mark.parametrize("ts", list(_termsets()), ids=lambda ts: f"d{ts.dim}m{ts.m}")
def test_term_exponential_is_bitwise_the_oracle(ts):
    for k in range(1, ts.m + 1):
        for tau in TAUS:
            assert np.array_equal(ts.exp(k, tau), expm_hermitian(ts.terms[k - 1], tau))


def test_exp_rejects_out_of_range_index():
    ts = random_termset(3, 2, 1.0, seed=1)
    for bad in (0, 3):
        with pytest.raises(ValueError, match="out of range"):
            ts.exp(bad, 0.1)


def test_stored_spectra_are_read_only():
    ts = random_termset(4, 3, 1.0, seed=2)
    assert len(ts.spectra) == ts.m
    for w, v in ts.spectra:
        assert w.shape == (4,) and v.shape == (4, 4)
        assert not w.flags.writeable and not v.flags.writeable
        with pytest.raises(ValueError):
            v[0, 0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0


def _loop_mean(ts, mix):
    out = np.zeros((ts.dim, ts.dim), dtype=complex)
    for p, w in mix.entries:
        out += p * word_unitary(ts, w)
    return out


def _loop_sq_dev(ts, mix, u0):
    return sum(p * spectral_norm(word_unitary(ts, w) - u0) ** 2 for p, w in mix.entries)


@pytest.mark.parametrize("mix_fn", [alg1_stage_mixture, alg2_stage_mixture])
@pytest.mark.parametrize("d, m", [(2, 2), (4, 3), (6, 4)])
def test_stacked_mean_and_sq_dev_match_per_word_loops(mix_fn, d, m):
    ts = random_termset(d, m, 1.0, seed=d + m)
    dt = 0.2
    mix = mix_fn(ts, dt)
    u0 = exact_evolution(ts, dt)
    probs, us = word_stack(ts, mix)
    assert us.shape == (len(mix), d, d)
    assert np.array_equal(mean_unitary(probs, us), _loop_mean(ts, mix))
    assert expected_sq_deviation(probs, us, u0) == _loop_sq_dev(ts, mix, u0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lemma1_report_matches_loops_over_the_product_mixture(k, rng):
    ts = random_termset(4, 2, 1.0, seed=11)
    dt = 0.1
    mix = alg1_stage_mixture(ts, dt)
    full = mixture_power(mix, k)
    u0 = exact_evolution(ts, k * dt)
    psi = pure_density(random_unit_vector(rng, 4))
    rep = lemma1_report(ts, full, k * dt, psi, psi)
    assert rep.mean_dev == spectral_norm(_loop_mean(ts, full) - u0)
    assert rep.sq_dev == _loop_sq_dev(ts, full, u0)
    assert rep.observed_raw <= rep.bound + 1e-8


def test_sq_dev_rejects_mismatched_reference():
    ts = random_termset(3, 2, 1.0, seed=4)
    with pytest.raises(ValueError, match="reference unitary"):
        expected_sq_deviation(*word_stack(ts, alg1_stage_mixture(ts, 0.1)), np.eye(4))


@pytest.fixture
def eigh_calls(monkeypatch):
    calls = []
    real = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def test_decomposed_once_per_term_when_built(eigh_calls):
    ts = random_termset(4, 3, 1.0, seed=6)
    assert len(eigh_calls) == ts.m


def test_word_unitary_takes_no_decomposition(eigh_calls):
    ts = random_termset(4, 3, 1.0, seed=6)
    eigh_calls.clear()
    w = Word(tuple((1 + i % 3, 0.01 * (1 + i % 7)) for i in range(50)))
    word_unitary(ts, w)
    assert eigh_calls == []


def test_lemma1_report_decomposes_only_the_target(eigh_calls, rng):
    ts = random_termset(4, 3, 1.0, seed=6)
    psi = pure_density(random_unit_vector(rng, 4))
    eigh_calls.clear()
    lemma1_report(ts, alg2_stage_mixture(ts, 0.1), 0.1, psi, psi)
    assert len(eigh_calls) == 1  # exact_evolution of the summed Hamiltonian


@pytest.mark.parametrize("k", [1, 2])
def test_lemma1_report_builds_one_stack(monkeypatch, rng, k):
    import splitsim.channels as channels

    calls = []
    real = channels.word_stack

    def counting(ts, mix):
        calls.append(len(mix))
        return real(ts, mix)

    monkeypatch.setattr(channels, "word_stack", counting)
    ts = random_termset(4, 2, 1.0, seed=8)
    psi = pure_density(random_unit_vector(rng, 4))
    lemma1_report(ts, mixture_power(alg2_stage_mixture(ts, 0.1), k), k * 0.1, psi, psi)
    assert calls == [2**k]
