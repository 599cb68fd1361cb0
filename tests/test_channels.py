import tracemalloc

import numpy as np
import pytest

from splitsim.channels import (
    _basis_pairs,
    _evolve_direct,
    _evolve_liouville,
    _lemma1_reports,
    _liouville_blocks,
    _liouville_matrix,
    _propagation_path,
    apply_channel,
    channel_power,
    evolve_states,
    exact_evolution,
    expected_sq_deviation,
    lemma1_report,
    mean_unitary,
    mixture_superoperator,
    word_stack,
)
from splitsim.hamiltonians import TermSet, random_termset
from splitsim.matkernel import (
    DensityMatrix,
    expm_hermitian,
    pure_density,
    spectral_norm,
    trace_distance,
)
from splitsim.schedules import (
    UnitaryMixture,
    Word,
    alg1_stage_mixture,
    alg2_stage_mixture,
    mixture_power,
    strang_word,
    trotter_word,
    word_unitary,
)

from conftest import random_density_mat, random_unit_vector
from oracles import liouville_matrix_reference

X = np.array([[0, 1], [1, 0]], dtype=complex)


@pytest.fixture
def ts():
    return random_termset(4, 2, 1.0, seed=5)


class TestExactEvolution:
    def test_t_zero(self, ts):
        assert np.allclose(exact_evolution(ts, 0.0), np.eye(4), atol=1e-14)

    def test_commuting_factorization_oracle(self, commuting_termset):
        ts = commuting_termset
        t = 0.8
        product = expm_hermitian(ts.terms[0], t) @ expm_hermitian(ts.terms[1], t)
        assert spectral_norm(exact_evolution(ts, t) - product) <= 1e-10

    def test_half_z_terms_collapse(self, pauli_z):
        ts = TermSet((pauli_z / 2, pauli_z / 2))
        assert spectral_norm(
            exact_evolution(ts, np.pi) - expm_hermitian(pauli_z, np.pi)
        ) <= 1e-12


class TestMixtureSuperoperator:
    def test_identity_word(self, ts):
        mix = UnitaryMixture(((1.0, Word(())),))
        s = mixture_superoperator(ts, mix)
        assert np.allclose(s, np.eye(16), atol=1e-14)

    def test_single_word_is_conjugation(self, ts, rng):
        w = trotter_word(ts, 0.3, 1)
        s = mixture_superoperator(ts, UnitaryMixture(((1.0, w),)))
        u = word_unitary(ts, w)
        rho = random_density_mat(rng, 4)
        direct = u @ rho @ u.conj().T
        # column stacking: rho.flatten(order="F") lists rho's columns in turn
        via_superop = (s @ rho.flatten(order="F")).reshape((4, 4), order="F")
        assert spectral_norm(direct - via_superop) <= 1e-12
        assert spectral_norm(direct - apply_channel(s, DensityMatrix(rho)).mat) <= 1e-12

    def test_unital_fixes_maximally_mixed(self, ts):
        s = mixture_superoperator(ts, alg1_stage_mixture(ts, 0.2))
        out = apply_channel(s, DensityMatrix(np.eye(4) / 4))
        assert spectral_norm(out.mat - np.eye(4) / 4) <= 1e-12

    def test_trace_preserving(self, ts, rng):
        s = mixture_superoperator(ts, alg2_stage_mixture(ts, 0.15))
        rho = DensityMatrix(random_density_mat(rng, 4))
        out = apply_channel(s, rho)
        assert abs(np.trace(out.mat) - 1.0) <= 1e-10


class TestChannelPower:
    def test_zero_is_identity(self, ts):
        s = mixture_superoperator(ts, alg1_stage_mixture(ts, 0.1))
        assert np.array_equal(channel_power(s, 0), np.eye(16))

    def test_square_matches_double_application(self, ts, rng):
        s = mixture_superoperator(ts, alg2_stage_mixture(ts, 0.1))
        rho = DensityMatrix(random_density_mat(rng, 4))
        twice = apply_channel(s, apply_channel(s, rho))
        squared = apply_channel(channel_power(s, 2), rho)
        assert spectral_norm(twice.mat - squared.mat) <= 1e-12

    def test_trace_preserved_at_high_powers(self, ts, rng):
        s = mixture_superoperator(ts, alg1_stage_mixture(ts, 0.05))
        rho = DensityMatrix(random_density_mat(rng, 4))
        for k in (1, 8, 64, 512):
            out = apply_channel(channel_power(s, k), rho)
            assert abs(np.trace(out.mat) - 1.0) <= 1e-9

    def test_rejects_negative(self, ts):
        with pytest.raises(ValueError):
            channel_power(np.eye(16), -1)


class TestApplyChannel:
    def test_identity_channel(self, rng):
        rho = DensityMatrix(random_density_mat(rng, 3))
        out = apply_channel(np.eye(9), rho)
        assert spectral_norm(out.mat - rho.mat) <= 1e-14

    def test_bit_flip(self):
        out = apply_channel(np.kron(X.conj(), X), pure_density([1, 0]))
        assert spectral_norm(out.mat - pure_density([0, 1]).mat) <= 1e-14

    @pytest.mark.parametrize("shape", [(4, 4), (16, 4), (8, 8), (16,)])
    def test_dim_mismatch(self, rng, shape):
        with pytest.raises(ValueError, match="dim 4"):
            apply_channel(np.zeros(shape), DensityMatrix(random_density_mat(rng, 4)))

    def test_output_satisfies_state_invariants(self, ts, rng):
        s = mixture_superoperator(ts, alg2_stage_mixture(ts, 0.2))
        out = apply_channel(channel_power(s, 16), pure_density(random_unit_vector(rng, 4)))
        assert abs(np.trace(out.mat) - 1.0) <= 1e-10
        assert float(np.linalg.eigvalsh(out.mat).min()) >= -1e-9


class TestMeanUnitary:
    def test_single_entry(self, ts):
        w = trotter_word(ts, 0.4, 1)
        mix = UnitaryMixture(((1.0, w),))
        assert spectral_norm(mean_unitary(*word_stack(ts, mix)) - word_unitary(ts, w)) <= 1e-14

    def test_alg2_two_term_formula(self, ts):
        dt = 0.3
        u1 = expm_hermitian(ts.terms[0], dt)
        u2 = expm_hermitian(ts.terms[1], dt)
        mean = mean_unitary(*word_stack(ts, alg2_stage_mixture(ts, dt)))
        assert spectral_norm(mean - 0.5 * (u1 @ u2 + u2 @ u1)) <= 1e-13

    def test_norm_at_most_one(self, rng):
        # convex combinations of unitaries are contractions
        for seed in range(5):
            ts = random_termset(4, 3, 1.0, seed=seed)
            mix = alg2_stage_mixture(ts, float(rng.uniform(0.05, 0.5)))
            assert spectral_norm(mean_unitary(*word_stack(ts, mix))) <= 1.0 + 1e-12


class TestExpectedSqDeviation:
    def test_zero_when_mixture_matches_reference(self, ts):
        w = trotter_word(ts, 0.2, 1)
        mix = UnitaryMixture(((1.0, w),))
        assert expected_sq_deviation(*word_stack(ts, mix), word_unitary(ts, w)) <= 1e-24

    def test_bounded_by_unitary_diameter(self, ts):
        mix = alg1_stage_mixture(ts, 2.0)
        assert expected_sq_deviation(*word_stack(ts, mix), exact_evolution(ts, 2.0)) <= 4.0 + 1e-12

    def test_quadratic_halving_ratio(self, ts):
        # one stage of the single-term scheme deviates at first order in dt,
        # so the squared deviation shrinks 4x under halving (within 20%)
        vals = []
        for dt in (0.04, 0.02):
            mix = alg1_stage_mixture(ts, dt)
            vals.append(expected_sq_deviation(*word_stack(ts, mix), exact_evolution(ts, dt)))
        ratio = vals[0] / vals[1]
        assert abs(ratio - 4.0) <= 0.8


def test_single_permutation_word_deviates_at_second_order(ts):
    # each word of the permutation stage misses the target at O(dt^2): the
    # deviation shrinks ~4x under halving, while the mixture MEAN deviation
    # shrinks ~8x (third order)
    word_devs, mean_devs = [], []
    for dt in (0.04, 0.02):
        mix = alg2_stage_mixture(ts, dt)
        u0 = exact_evolution(ts, dt)
        _, w = mix.entries[0]
        word_devs.append(spectral_norm(word_unitary(ts, w) - u0))
        mean_devs.append(spectral_norm(mean_unitary(*word_stack(ts, mix)) - u0))
    assert abs(word_devs[0] / word_devs[1] - 4.0) <= 1.0
    assert abs(mean_devs[0] / mean_devs[1] - 8.0) <= 2.0


class TestLemma1Report:
    def test_exact_word_zero_bound_and_observed(self, commuting_termset):
        ts = commuting_termset
        dt = 0.2
        mix = UnitaryMixture(((1.0, trotter_word(ts, dt, 1)),))
        psi = pure_density([1, 0, 0, 0])
        rep = lemma1_report(ts, mix, dt, psi, psi)
        assert rep.bound <= 1e-10
        assert rep.observed <= 1e-10

    def test_dominance_alg2_stage(self, ts, rng):
        psi = pure_density(random_unit_vector(rng, 4))
        rep = lemma1_report(ts, alg2_stage_mixture(ts, 0.05), 0.05, psi, psi)
        assert rep.observed_raw <= rep.bound + 1e-8
        assert rep.observed >= 0.0

    def test_mixed_input_includes_input_distance(self, ts, rng):
        psi_vec = random_unit_vector(rng, 4)
        psi = pure_density(psi_vec)
        rho0 = DensityMatrix(
            0.8 * psi.mat + 0.2 * np.asarray(random_density_mat(rng, 4))
        )
        rep = lemma1_report(ts, alg1_stage_mixture(ts, 0.1), 0.1, rho0, psi)
        assert rep.input_dist == trace_distance(rho0, psi)
        assert rep.input_dist > 0
        assert rep.bound >= rep.input_dist

    def test_multi_stage_uses_product_mixture(self, ts, rng):
        # k=2 of the permutation stage: sq_dev must come from the expanded
        # 4-word mixture, not from per-stage numbers
        psi = pure_density(random_unit_vector(rng, 4))
        dt = 0.1
        rep = lemma1_report(ts, mixture_power(alg2_stage_mixture(ts, dt), 2), 2 * dt, psi, psi)
        assert rep.observed_raw <= rep.bound + 1e-8
        assert rep.mean_dev > 0

    def test_rejects_impure_psi0(self, ts):
        with pytest.raises(ValueError, match="pure"):
            lemma1_report(
                ts,
                alg1_stage_mixture(ts, 0.1),
                0.1,
                DensityMatrix(np.eye(4) / 4),
                DensityMatrix(np.eye(4) / 4),
            )

    @pytest.mark.parametrize(
        "dims, message",
        [
            ((2, 4), r"state dims \(2, 4\) do not match term-set dim 4"),
            ((4, 2), r"state dims \(4, 2\) do not match term-set dim 4"),
        ],
    )
    def test_rejects_mismatched_dims(self, ts, dims, message):
        rho0, psi0 = (pure_density([1.0] + [0.0] * (d - 1)) for d in dims)
        with pytest.raises(ValueError, match=message):
            lemma1_report(ts, alg1_stage_mixture(ts, 0.1), 0.1, rho0, psi0)

    def test_per_stage_orders(self):
        # the single-term scheme's m-stage group bound shrinks ~4x under
        # halving; the permutation stage bound shrinks ~8x
        ts = random_termset(4, 2, 1.0, seed=21)
        psi = pure_density([1, 0, 0, 0])
        b1, b2 = [], []
        for dt in (0.02, 0.01):
            rep1 = lemma1_report(ts, mixture_power(alg1_stage_mixture(ts, dt), ts.m), dt, psi, psi)
            rep2 = lemma1_report(ts, alg2_stage_mixture(ts, dt), dt, psi, psi)
            b1.append(2 * rep1.mean_dev + rep1.sq_dev)
            b2.append(2 * rep2.mean_dev + rep2.sq_dev)
        assert abs(b1[0] / b1[1] - 4.0) <= 1.0
        assert abs(b2[0] / b2[1] - 8.0) <= 2.0

    def test_stacked_parts_equal_one_call_per_part(self, rng):
        # Four parts of one dimension with 3, 6, 1 and 1 words (alg1, alg2,
        # trotter, strang at m = 3), their rows interleaved; odd rows mixed.
        builders = (
            alg1_stage_mixture,
            alg2_stage_mixture,
            lambda ts, dt: UnitaryMixture(((1.0, trotter_word(ts, dt, 1)),)),
            lambda ts, dt: UnitaryMixture(((1.0, strang_word(ts, dt, 1)),)),
        )
        d, n = 4, 12
        instances = []
        for row in range(n):
            ts = random_termset(d, 3, 1.0, seed=40 + row)
            dt = 0.03 * (row + 1)
            psi = pure_density(random_unit_vector(rng, d))
            rho = psi if row % 2 == 0 else DensityMatrix(
                0.7 * psi.mat + 0.3 * np.asarray(random_density_mat(rng, d))
            )
            instances.append((ts, builders[row % 4](ts, dt), dt, rho, psi))
        u0 = np.array([exact_evolution(ts, dt) for ts, _, dt, _, _ in instances])
        rho0s = np.array([rho.mat for *_, rho, _ in instances])
        psi0s = np.array([psi.mat for *_, psi in instances])
        parts = []
        for b in range(4):
            rows = list(range(b, n, 4))
            stacks = [word_stack(instances[r][0], instances[r][1]) for r in rows]
            parts.append((rows, np.array([p for p, _ in stacks]), np.array([u for _, u in stacks])))
        assert sorted({part[2].shape[1] for part in parts}) == [1, 3, 6]
        stacked = _lemma1_reports(u0, rho0s, psi0s, parts)
        assert stacked == [lemma1_report(*inst) for inst in instances]
        for rows, probs, us in parts:
            alone = _lemma1_reports(u0[rows], rho0s[rows], psi0s[rows], [([0, 1, 2], probs, us)])
            assert [stacked[r] for r in rows] == alone

        ts, mix, dt, rho, _ = instances[5]
        with pytest.raises(ValueError) as want:
            lemma1_report(ts, mix, dt, rho, rho)
        psi0s[5] = rho0s[5]
        with pytest.raises(ValueError) as got:
            _lemma1_reports(u0, rho0s, psi0s, parts)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("psi0 must be a pure state, got purity ")

    def test_report_serializes(self, ts, rng):
        psi = pure_density(random_unit_vector(rng, 4))
        rep = lemma1_report(ts, alg1_stage_mixture(ts, 0.1), 0.1, psi, psi)
        doc = rep.to_json()
        assert set(doc) == {
            "mean_dev", "sq_dev", "input_dist", "bound", "observed", "observed_raw",
        }


class TestEvolveStates:
    """Both exact paths of the core against the complex superoperator."""

    @pytest.mark.parametrize("mix_fn", [alg1_stage_mixture, alg2_stage_mixture])
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_paths_match_superoperator_oracle(self, mix_fn, d, rng):
        ts = random_termset(d, 3, 1.0, seed=d)
        mix = mix_fn(ts, 0.15)
        probs, us = word_stack(ts, mix)
        states = [
            pure_density(random_unit_vector(rng, d)),
            DensityMatrix(random_density_mat(rng, d)),
        ]
        rhos = np.stack([s.mat for s in states])
        stage = mixture_superoperator(ts, mix)
        for stages in (1, 2, 7, 64):
            oracle = np.stack(
                [apply_channel(channel_power(stage, stages), s).mat for s in states]
            )
            for path in (_evolve_direct, _evolve_liouville):
                got = path(probs, us, stages, rhos)
                assert np.max(np.abs(got - oracle)) <= 1e-12, (path.__name__, stages)

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_basis_pairs_are_cached_read_only_index_maps(self, d):
        first, second = _basis_pairs(d)
        iu, ju = np.triu_indices(d, 1)
        assert np.array_equal(first, np.concatenate([np.arange(d), iu]))
        assert np.array_equal(second, np.concatenate([np.arange(d), ju]))
        assert not first.flags.writeable and not second.flags.writeable
        assert _basis_pairs(d)[0] is first

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 10, 16, 24, 32])
    def test_blocked_liouville_build_equals_reference(self, d, rng):
        """Bit for bit the unblocked build, for random unitaries and random
        probabilities; d = 10 ends in a short block."""
        for n_words in (1, 2, 3, 6, 24):
            z = rng.standard_normal((n_words, d, d)) + 1j * rng.standard_normal((n_words, d, d))
            us = np.linalg.qr(z)[0]
            probs = rng.random(n_words)
            probs /= probs.sum()
            got = _liouville_matrix(probs, us)
            assert np.array_equal(got, liouville_matrix_reference(probs, us)), n_words

    @pytest.mark.parametrize("d", [2, 8, 9, 10, 16, 24])
    def test_liouville_blocks_cover_each_output_row_once(self, d):
        _, blocks = _liouville_blocks(d)
        n_upper = d * (d - 1) // 2
        rows = np.concatenate([
            np.r_[a0:a1, d + s0 : d + s1, d + n_upper + s0 : d + n_upper + s1]
            for a0, a1, s0, s1, _ in blocks
        ])
        assert np.array_equal(np.sort(rows), np.arange(d * d))
        sizes = [a1 - a0 for a0, a1, *_ in blocks]
        assert set(sizes[:-1]) <= {sizes[0]} and sizes[-1] <= sizes[0]
        if d <= 8:
            assert len(blocks) == 1
        if d in (10, 16, 24):
            assert len(blocks) > 1
        if d == 10:
            assert sizes[-1] < sizes[0]

    @pytest.mark.parametrize("d", [16, 24])
    def test_liouville_path_peak_is_about_two_matrices(self, d, rng):
        """Past its build, powering holds the matrix and one spare: the traced
        peak stays within 2.25 d**2 x d**2 float64 matrices."""
        ts = random_termset(d, 3, 1.0, seed=7)
        probs, us = word_stack(ts, alg2_stage_mixture(ts, 1.0 / 256))
        rhos = np.stack([pure_density(random_unit_vector(rng, d)).mat for _ in range(16)])
        assert _propagation_path(d, len(probs), len(rhos), 256) == "liouville"
        evolve_states(probs, us, 256, rhos)  # fill the index caches first
        tracemalloc.start()
        try:
            evolve_states(probs, us, 256, rhos)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * d**4 * 8, peak / (d**4 * 8)

    def test_path_choice_is_a_flop_count(self):
        # a pure function of (d, words, states, stages): same answer every call
        for args in ((8, 6, 16, 300), (24, 3, 16, 768), (64, 720, 16, 64)):
            assert len({_propagation_path(*args) for _ in range(3)}) == 1
        for d in (2, 4, 8, 16, 24, 64):
            for n_words in (2, 6, 720):
                assert _propagation_path(d, n_words, 1, 1) == "direct"
        for n_words, n_states in ((2, 1), (6, 16), (720, 16)):
            assert _propagation_path(8, n_words, n_states, 2**20) == "liouville"
        # the d=64 envelope point propagates directly at modest stage counts
        assert _propagation_path(64, 6, 16, 64) == "direct"

    @pytest.mark.parametrize("mix_fn", [alg1_stage_mixture, alg2_stage_mixture])
    @pytest.mark.parametrize("stages", [2, 3])
    def test_stages_compose_to_one_stage_of_the_power_mixture(self, ts, rng, mix_fn, stages):
        """K stages of a stage stack equal one stage of its expanded K-fold
        mixture: the form in which a K-stage Lemma-1 report takes a run."""
        stage = mix_fn(ts, 0.1)
        rhos = np.stack(
            [pure_density(random_unit_vector(rng, 4)).mat, random_density_mat(rng, 4)]
        )
        composed = evolve_states(*word_stack(ts, stage), stages, rhos)
        expanded = evolve_states(*word_stack(ts, mixture_power(stage, stages)), 1, rhos)
        assert np.max(np.abs(composed - expanded)) <= 1e-12

    @pytest.mark.parametrize("n_states", [1, 3])
    def test_direct_word_blocks_match_superoperator_oracle(self, monkeypatch, rng, n_states):
        """Word blocks of 5 split an alg2 stage at m = 4 (24 words) into 5
        blocks, the last one short; batched and unbatched stacks both match
        the complex superoperator, and the input states are only read."""
        d = 3
        monkeypatch.setattr("splitsim.channels._DIRECT_BLOCK_ENTRIES", 5 * n_states * d * d)
        problems = [random_termset(d, 4, 1.0, seed=s) for s in (11, 12)]
        mixes = [alg2_stage_mixture(ts, 0.2) for ts in problems]
        stacks = [word_stack(ts, mix) for ts, mix in zip(problems, mixes)]
        assert stacks[0][1].shape[0] == 24
        rhos = np.stack([
            np.stack([random_density_mat(rng, d) for _ in range(n_states)]) for _ in problems
        ])
        rhos.setflags(write=False)
        before = rhos.copy()
        probs = np.stack([p for p, _ in stacks])
        us = np.stack([u for _, u in stacks])
        for stages in (1, 4):
            batched = _evolve_direct(probs, us, stages, rhos)
            for i, (ts, mix) in enumerate(zip(problems, mixes)):
                power = channel_power(mixture_superoperator(ts, mix), stages)
                oracle = np.stack(
                    [apply_channel(power, DensityMatrix(r)).mat for r in rhos[i]]
                )
                alone = _evolve_direct(probs[i], us[i], stages, rhos[i])
                assert np.max(np.abs(alone - oracle)) <= 1e-12
                assert np.array_equal(batched[i], alone)
        assert np.array_equal(rhos, before)

    def test_public_entry_agrees_with_direct_path(self, ts, rng):
        mix = alg2_stage_mixture(ts, 0.1)
        probs, us = word_stack(ts, mix)
        rhos = np.stack([random_density_mat(rng, 4) for _ in range(3)])
        for stages in (1, 1000):
            got = evolve_states(probs, us, stages, rhos)
            assert got.shape == rhos.shape
            assert np.max(np.abs(got - _evolve_direct(probs, us, stages, rhos))) <= 1e-12

    def test_rejects_bad_arguments(self, ts):
        mix = alg1_stage_mixture(ts, 0.1)
        with pytest.raises(ValueError, match="stage count"):
            evolve_states(*word_stack(ts, mix), 0, np.eye(4)[None] / 4)
        with pytest.raises(ValueError, match="stacked"):
            evolve_states(*word_stack(ts, mix), 1, np.eye(4) / 4)
