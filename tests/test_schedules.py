import numpy as np
import pytest

from splitsim.channels import exact_evolution
from splitsim.hamiltonians import random_termset
from splitsim.matkernel import expm_hermitian, spectral_norm
from splitsim.schedules import (
    UnitaryMixture,
    Word,
    alg1_stage_mixture,
    alg2_stage_mixture,
    mixture_power,
    strang_word,
    trotter_word,
    word_from_json,
    word_to_json,
    word_unitary,
)


@pytest.fixture
def ts():
    return random_termset(4, 2, 1.0, seed=5)


@pytest.fixture
def ts3():
    return random_termset(4, 3, 1.0, seed=9)


class TestWord:
    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError, match="strictly positive"):
            Word(((1, 0.0),))
        with pytest.raises(ValueError, match="strictly positive"):
            Word(((1, -0.5),))

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError, match="1-based"):
            Word(((0, 0.5),))

    def test_term_total(self):
        w = Word(((1, 0.5), (2, 1.0), (1, 0.25)))
        assert w.term_total(1) == 0.75
        assert w.term_total(2) == 1.0
        assert w.term_total(3) == 0.0

    @pytest.mark.parametrize("factor", [0.0, -1.0])
    def test_scaled_rejects_non_positive_factor(self, factor):
        with pytest.raises(ValueError, match="scale factor must be positive"):
            Word(((1, 0.5),)).scaled(factor)


class TestWordUnitary:
    def test_empty_word_is_identity(self, ts):
        assert np.array_equal(word_unitary(ts, Word(())), np.eye(4))

    def test_single_step(self, ts):
        w = Word(((2, 0.3),))
        assert np.allclose(word_unitary(ts, w), expm_hermitian(ts.terms[1], 0.3))

    def test_operator_order_first_step_leftmost(self, ts):
        w = Word(((1, 0.4), (2, 0.7)))
        expected = expm_hermitian(ts.terms[0], 0.4) @ expm_hermitian(ts.terms[1], 0.7)
        assert spectral_norm(word_unitary(ts, w) - expected) <= 1e-14

    def test_semigroup_merge(self, ts):
        split = word_unitary(ts, Word(((1, 0.2), (1, 0.5))))
        merged = word_unitary(ts, Word(((1, 0.7),)))
        assert spectral_norm(split - merged) <= 1e-10

    def test_rejects_out_of_range_index(self, ts):
        with pytest.raises(ValueError, match="term 3"):
            word_unitary(ts, Word(((3, 0.1),)))

    def test_unitary_output(self, ts):
        w = trotter_word(ts, 0.3, 4)
        u = word_unitary(ts, w)
        assert spectral_norm(u.conj().T @ u - np.eye(4)) <= 1e-10 * 4


class TestTrotterWord:
    def test_single_pass(self, ts):
        assert trotter_word(ts, 0.5, 1).steps == ((1, 0.5), (2, 0.5))

    def test_two_passes(self, ts):
        assert trotter_word(ts, 0.5, 2).steps == ((1, 0.5), (2, 0.5), (1, 0.5), (2, 0.5))

    def test_total_duration_per_term(self, ts3):
        w = trotter_word(ts3, 0.25, 8)
        for k in (1, 2, 3):
            assert abs(w.term_total(k) - 2.0) <= 1e-12

    def test_exact_on_commuting_instance(self, commuting_termset):
        ts = commuting_termset
        w = trotter_word(ts, 0.25, 4)
        u0 = exact_evolution(ts, 1.0)
        assert spectral_norm(word_unitary(ts, w) - u0) <= 1e-10


def _literal_palindrome(m: int, dt: float, reps: int) -> Word:
    """The Strang palindrome with no adjacent steps merged."""
    ascending = [(k, dt / 2.0) for k in range(1, m + 1)]
    return Word(tuple((ascending + ascending[::-1]) * reps))


class TestStrangWord:
    def test_merged_palindrome(self, ts):
        assert strang_word(ts, 1.0, 1).steps == ((1, 0.5), (2, 1.0), (1, 0.5))

    def test_merge_does_not_change_unitary(self, ts3):
        merged = strang_word(ts3, 0.4, 3)
        literal = _literal_palindrome(3, 0.4, 3)
        assert spectral_norm(word_unitary(ts3, merged) - word_unitary(ts3, literal)) <= 1e-12

    def test_bookkeeping_m3(self, ts3):
        literal = _literal_palindrome(3, 0.2, 2)
        merged = strang_word(ts3, 0.2, 2)
        assert len(literal) == 2 * 3 * 2
        assert len(merged) == 9  # middle merges within reps, boundaries across reps
        for k in (1, 2, 3):
            assert abs(merged.term_total(k) - 0.4) <= 1e-12

    def test_time_symmetry_of_error(self, ts):
        # reversing the palindrome leaves the distance to the exact
        # evolution unchanged: ||U - U0|| = ||U^dagger - U0^dagger||
        w = strang_word(ts, 0.3, 2)
        u = word_unitary(ts, w)
        u_rev = word_unitary(ts, Word(tuple(reversed(w.steps))))
        u0 = exact_evolution(ts, 0.6)
        assert abs(
            spectral_norm(u - u0) - spectral_norm(u_rev.conj().T - u0.conj().T)
        ) <= 1e-12

    def test_exact_on_commuting_instance(self, commuting_termset):
        ts = commuting_termset
        w = strang_word(ts, 0.5, 2)
        assert spectral_norm(word_unitary(ts, w) - exact_evolution(ts, 1.0)) <= 1e-10


class TestMixtures:
    def test_alg1_two_terms(self, ts):
        mix = alg1_stage_mixture(ts, 0.1)
        assert len(mix) == 2
        assert mix.entries[0] == (0.5, Word(((1, 0.1),)))
        assert mix.entries[1] == (0.5, Word(((2, 0.1),)))
        assert sum(p for p, _ in mix.entries) == 1.0

    def test_alg1_three_terms(self, ts3):
        mix = alg1_stage_mixture(ts3, 0.2)
        assert len(mix) == 3
        assert all(abs(p - 1 / 3) <= 1e-15 for p, _ in mix.entries)

    def test_alg2_both_orders(self, ts):
        mix = alg2_stage_mixture(ts, 0.1)
        words = {w.steps for _, w in mix.entries}
        assert words == {((1, 0.1), (2, 0.1)), ((2, 0.1), (1, 0.1))}

    def test_alg2_factorial_count(self, ts3):
        assert len(alg2_stage_mixture(ts3, 0.1)) == 6

    def test_alg2_preserves_per_term_duration(self, ts3):
        mix = alg2_stage_mixture(ts3, 0.3)
        for _, w in mix.entries:
            for k in (1, 2, 3):
                assert abs(w.term_total(k) - 0.3) <= 1e-15

    def test_alg2_cap(self):
        ts = random_termset(2, 7, 1.0, seed=2)
        with pytest.raises(ValueError, match="m <= 6"):
            alg2_stage_mixture(ts, 0.1)

    def test_probabilities_must_sum_to_one(self):
        w = Word(((1, 0.1),))
        with pytest.raises(ValueError, match="sum"):
            UnitaryMixture(((0.5, w), (0.4, w)))

    def test_mixture_nonempty(self):
        with pytest.raises(ValueError, match="at least one"):
            UnitaryMixture(())

    @pytest.mark.parametrize("p", [0.0, -0.5, 1.5])
    def test_probability_outside_unit_interval(self, p):
        with pytest.raises(ValueError, match=r"outside \(0, 1\]"):
            UnitaryMixture(((p, Word(((1, 0.1),))),))

    def test_entries_must_be_words(self):
        with pytest.raises(ValueError, match="entry 0 holds a tuple, expected a Word"):
            UnitaryMixture(((1.0, ((1, 0.1), (2, 0.1))),))


_BUILDERS = {
    "trotter": lambda ts, dt, reps: trotter_word(ts, dt, reps),
    "strang": lambda ts, dt, reps: strang_word(ts, dt, reps),
    "alg1": lambda ts, dt, reps: alg1_stage_mixture(ts, dt),
    "alg2": lambda ts, dt, reps: alg2_stage_mixture(ts, dt),
}


@pytest.mark.parametrize("builder", sorted(_BUILDERS))
@pytest.mark.parametrize("dt", [0.0, -0.1])
def test_builders_reject_non_positive_dt(ts, builder, dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        _BUILDERS[builder](ts, dt, 1)


@pytest.mark.parametrize("builder", ["trotter", "strang"])
def test_word_builders_reject_zero_repetitions(ts, builder):
    with pytest.raises(ValueError, match="repetition count must be >= 1"):
        _BUILDERS[builder](ts, 0.1, 0)


class TestMixturePower:
    def test_entry_count_and_probabilities(self, ts):
        sq = mixture_power(alg1_stage_mixture(ts, 0.1), 2)
        assert len(sq) == 4
        assert all(abs(p - 0.25) <= 1e-15 for p, _ in sq.entries)

    def test_cap(self, ts):
        with pytest.raises(ValueError, match="cap"):
            mixture_power(alg2_stage_mixture(ts, 0.1), 20)

    def test_rejects_zero_stages(self, ts):
        with pytest.raises(ValueError, match="stage count must be >= 1"):
            mixture_power(alg1_stage_mixture(ts, 0.1), 0)


class TestJson:
    def test_word_round_trip(self):
        w = Word(((1, 0.125), (2, 0.6)))
        assert word_from_json(word_to_json(w)) == w


def test_commuting_instance_all_schemes_exact(commuting_termset):
    ts = commuting_termset
    t = 1.0
    u0 = exact_evolution(ts, t)
    for w in (trotter_word(ts, 0.25, 4), strang_word(ts, 0.25, 4)):
        assert spectral_norm(word_unitary(ts, w) - u0) <= 1e-10
    # every word of either randomized stage is exact too
    for mix in (alg1_stage_mixture(ts, t / 2), alg2_stage_mixture(ts, t)):
        for _, w in mix.entries:
            per_term = [w.term_total(k) for k in (1, 2)]
            u_ref = expm_hermitian(
                sum(tot * ts.terms[k - 1] for k, tot in zip((1, 2), per_term)), 1.0
            )
            assert spectral_norm(word_unitary(ts, w) - u_ref) <= 1e-10
