import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsim.hamiltonians import random_termset
from splitsim.matkernel import expm_hermitian, spectral_norm
from splitsim.schedules import (
    Word,
    alg1_stage_mixture,
    alg2_stage_mixture,
    mixture_power,
    strang_word,
    trotter_word,
    word_unitary,
)
from splitsim.series import (
    TruncatedSeries,
    exact_series,
    exp_step_series,
    interleaving_profile,
    mixture_mean_series,
    s_value,
    series_mul,
    series_to_json,
    series_to_matrix,
    third_order_pair_sum,
    word_series,
)


def random_normalized_word(rng, m, max_len=12):
    """Random positive-duration word containing terms 1 and 2 with unit totals."""
    while True:
        length = int(rng.integers(2, max_len + 1))
        ks = rng.integers(1, m + 1, size=length)
        if 1 in ks and 2 in ks:
            break
    taus = rng.uniform(0.05, 1.0, size=length)
    steps = []
    totals = {k: taus[ks == k].sum() for k in (1, 2)}
    for k, tau in zip(ks, taus):
        scale = totals.get(int(k), 1.0)
        steps.append((int(k), float(tau / scale) if k in (1, 2) else float(tau)))
    return Word(tuple(steps))


class TestExpStepSeries:
    def test_tau_zero_is_identity(self):
        s = exp_step_series(1, 0.0, 2)
        assert s.coeff(()) == 1.0
        assert s.coeff((1,)) == 0.0
        assert s.coeff((1, 1)) == 0.0

    def test_taylor_coefficients(self):
        tau = 0.7
        s = exp_step_series(2, tau, 3)
        assert s.coeff((2,)) == -1j * tau
        assert s.coeff((2, 2)) == -(tau**2) / 2
        assert s.coeff((2, 2, 2)) == 1j * tau**3 / 6
        assert s.coeff((1,)) == 0.0

    def test_rejects_out_of_range_symbol(self):
        with pytest.raises(ValueError):
            exp_step_series(3, 0.1, 2)

    def test_matrix_oracle_quartic_residual(self, rng):
        # truncation at degree 3 leaves an O(tau^4) residual: halving tau
        # shrinks it ~16x
        ts = random_termset(4, 2, 1.0, seed=13)
        resid = []
        for tau in (0.1, 0.05):
            s = exp_step_series(1, tau, 2)
            resid.append(
                spectral_norm(series_to_matrix(s, ts.terms) - expm_hermitian(ts.terms[0], tau))
            )
        assert abs(resid[0] / resid[1] - 16.0) <= 0.3 * 16.0


class TestSeriesMul:
    def test_identity_is_neutral(self):
        a = exp_step_series(1, 0.4, 2)
        prod = series_mul(a, TruncatedSeries(2, {(): 1}))
        assert prod.coeffs == a.coeffs

    def test_two_step_cross_coefficient(self):
        tau = 0.5
        prod = series_mul(exp_step_series(1, tau, 2), exp_step_series(2, tau, 2))
        assert prod.coeff((1, 2)) == -(tau**2)
        assert prod.coeff((2, 1)) == 0.0

    def test_associativity(self, rng):
        factors = [
            exp_step_series(int(rng.integers(1, 4)), float(rng.uniform(0.1, 1.0)), 3)
            for _ in range(3)
        ]
        a, b, c = factors
        left = series_mul(series_mul(a, b), c)
        right = series_mul(a, series_mul(b, c))
        for word in set(left.coeffs) | set(right.coeffs):
            assert abs(left.coeff(word) - right.coeff(word)) <= 1e-14

    def test_rejects_symbol_count_mismatch(self):
        with pytest.raises(ValueError, match="symbol counts"):
            series_mul(TruncatedSeries(2, {(): 1}), TruncatedSeries(3, {(): 1}))


class TestWordSeries:
    def test_permutation_word_ordering(self):
        # the identity-ordering word of the permutation stage has cross
        # coefficient only on the ordered product (1, 2)
        dt = 0.3
        s = word_series(Word(((1, dt), (2, dt))), 2)
        assert s.coeff((1, 2)) == -(dt**2)
        assert s.coeff((2, 1)) == 0.0

    def test_semigroup_at_coefficient_level(self):
        split = word_series(Word(((1, 0.3), (1, 0.4))), 2)
        merged = word_series(Word(((1, 0.7),)), 2)
        for word in set(split.coeffs) | set(merged.coeffs):
            assert abs(split.coeff(word) - merged.coeff(word)) <= 1e-15

    def test_matrix_oracle_quartic_residual(self):
        ts = random_termset(4, 2, 1.0, seed=17)
        resid = []
        for dt in (0.1, 0.05):
            w = trotter_word(ts, dt, 1)
            s = word_series(w, 2)
            resid.append(
                spectral_norm(series_to_matrix(s, ts.terms) - word_unitary(ts, w))
            )
        assert abs(resid[0] / resid[1] - 16.0) <= 0.3 * 16.0


def series_mul_fold(w, m):
    """The word series as the plain product of step series, step by step."""
    s = TruncatedSeries(m, {(): 1})
    for k, tau in w.steps:
        s = series_mul(s, exp_step_series(k, tau, m))
    return s


def bits(s):
    return {word: (repr(c.real), repr(c.imag)) for word, c in s.coeffs.items()}


def brute_force_values(w):
    """Exact r_n per word, with coefficient (-i)**n r_n, by brute force.

    A word of length n gathers one term per nondecreasing n-tuple of step
    positions whose symbols spell it: the product of those durations over the
    factorial of each repeated position's multiplicity.
    """
    out = {}
    steps = [(k, Fraction(tau)) for k, tau in w.steps]
    for n in (1, 2, 3):
        for pos in itertools.combinations_with_replacement(range(len(steps)), n):
            word = tuple(steps[i][0] for i in pos)
            term = Fraction(1)
            for i in pos:
                term *= steps[i][1]
            for i in set(pos):
                term /= math.factorial(pos.count(i))
            out[word] = out.get(word, 0) + term
    return out


def closed_form_values(w):
    """Exact r_n per word, with coefficient (-i)**n r_n, from prefix sums.

    With P_a(j) and S_a(j) the durations of symbol a strictly before and
    strictly after step j, and T_a its total: r(a) = T_a, r(a,a) = T_a**2/2,
    r(a,a,a) = T_a**3/6; r(a,b) sums tau_j P_a(j) over the b steps;
    r(a,a,c) sums tau_j P_a(j)**2/2 over the c steps; r(a,b,b) sums
    tau_j S_b(j)**2/2 over the a steps; any other r(a,b,c) sums
    tau_j P_a(j) S_c(j) over the b steps.
    """
    steps = [(k, Fraction(tau)) for k, tau in w.steps]
    symbols = sorted({k for k, _ in steps})
    total = {a: sum(t for k, t in steps if k == a) for a in symbols}
    before = []  # before[j][a] = P_a(j)
    run = dict.fromkeys(symbols, Fraction(0))
    for k, t in steps:
        before.append(dict(run))
        run[k] += t

    def after(j, a):
        return total[a] - before[j][a] - (steps[j][1] if steps[j][0] == a else 0)

    def over(b, f):
        return sum(t * f(j) for j, (k, t) in enumerate(steps) if k == b)

    out = {}
    for a in symbols:
        out[(a,)] = total[a]
        for b in symbols:
            out[(a, b)] = total[a] ** 2 / 2 if a == b else over(b, lambda j: before[j][a])
            for c in symbols:
                if a == b == c:
                    v = total[a] ** 3 / 6
                elif a == b:
                    v = over(c, lambda j: before[j][a] ** 2 / 2)
                elif b == c:
                    v = over(a, lambda j: after(j, b) ** 2 / 2)
                else:
                    v = over(b, lambda j: before[j][a] * after(j, c))
                out[(a, b, c)] = v
    return out


def exact_bits(values):
    """:func:`bits` of the series that rounds each nonzero exact r_n once,
    as (-i)**n r_n; the empty word is always present."""
    phase = {
        1: lambda x: complex(0.0, -x), 2: lambda x: complex(-x, 0.0), 3: lambda x: complex(0.0, x),
    }
    coeffs = {(): 1.0 + 0j} | {w: phase[len(w)](float(v)) for w, v in values.items() if v}
    return {word: (repr(c.real), repr(c.imag)) for word, c in coeffs.items()}


def long_alg2_word(rng_seed, stages):
    """Each stage applies terms 1-3 once, for 1/stages, in a random order."""
    rng = random.Random(rng_seed)
    steps = []
    for _ in range(stages):
        order = [1, 2, 3]
        rng.shuffle(order)
        steps += [(k, 1.0 / stages) for k in order]
    return Word(tuple(steps))


def random_short_word(rng, scales):
    m = rng.randint(1, 5)
    top = rng.randint(1, m)  # m above the word's largest index half the time
    scale = rng.choice(scales)
    steps = tuple(
        (rng.randint(1, top), scale * rng.uniform(0.01, 2.0)) for _ in range(rng.randint(0, 9))
    )
    return Word(steps), m


class TestExactWordSeries:
    """word_series against independent Fraction oracles: every coefficient
    is the correctly rounded exact value, and the keys are exactly the words
    whose exact coefficient is nonzero."""

    def test_random_short_words_equal_the_brute_force(self):
        rng = random.Random(2024)
        checked = overflowed = 0
        for _ in range(600):
            # tau**2 and tau**3 underflow at the small scales; at 2e102 sums of
            # degree-3 products exceed the float range.
            w, m = random_short_word(rng, [1.0, 1.0, 1e-110, 1e-160, 1e-300, 2e102])
            exact = brute_force_values(w)
            try:
                expected = exact_bits(exact)
            except OverflowError:
                with pytest.raises(OverflowError, match="overflows a float"):
                    word_series(w, m)
                overflowed += 1
                continue
            assert bits(word_series(w, m)) == expected
            checked += 1
        assert checked > 400 and overflowed > 10

    @pytest.mark.parametrize(
        "rng_seed, stages, m",
        [(3, 300, 3), (5, 300, 5)]
        # The benchmark's lemma2-obstruction expand word at seeds 1-3.
        + [(f"splitsim-bench:lemma2-obstruction:{seed}", 200, 3) for seed in (1, 2, 3)],
    )
    def test_long_alg2_word_equals_the_closed_form(self, rng_seed, stages, m):
        w = long_alg2_word(rng_seed, stages)
        assert bits(word_series(w, m)) == exact_bits(closed_form_values(w))

    def test_closed_form_equals_the_brute_force(self):
        # The two oracles share no code; on short words they agree exactly.
        rng = random.Random(7)
        for _ in range(60):
            w, _ = random_short_word(rng, [1.0])
            nonzero = {word: v for word, v in closed_form_values(w).items() if v}
            assert nonzero == brute_force_values(w)

    def test_fold_stays_within_a_few_ulps(self):
        # The floating-point fold rounds at every step; on these words it
        # stays within 8 * 2**-52 relative of the exact values (worst 6.8).
        rng = random.Random(11)
        words = [random_short_word(rng, [1.0]) for _ in range(300)]
        words += [
            (long_alg2_word(f"splitsim-bench:lemma2-obstruction:{seed}", 200), 3)
            for seed in (1, 2, 3)
        ]
        for w, m in words:
            exact, fold = word_series(w, m).coeffs, series_mul_fold(w, m).coeffs
            assert exact.keys() == fold.keys()
            for word, c in exact.items():
                assert abs(fold[word] - c) <= 8 * 2.0**-52 * abs(c)

    def test_underflowing_coefficient_keeps_its_key(self):
        # (5e-324)**2 / 2 rounds to 0.0, but the exact coefficient is nonzero.
        w = Word(((1, 5e-324), (2, 1.0), (1, 5e-324), (3, 0.5)))
        s = word_series(w, 3)
        assert s.coeffs[(1, 1)] == 0 and s.coeffs[(1, 2, 1)] == 0
        assert s.coeffs[(1, 2)] == -5e-324 + 0j
        assert (3, 1) not in s.coeffs  # no step of 1 follows the step of 3
        assert bits(s) == exact_bits(brute_force_values(w))

    @pytest.mark.parametrize(
        "steps",
        [
            ((1, 5e102), (1, 5e102), (2, 5e102), (2, 5e102), (3, 1.0), (1, 1.0), (3, 2.0)),
            ((1, 5e102), (2, 5e102), (1, 5e102), (2, 5e102), (3, 1.0), (3, 1.0)),
        ],
        ids=["blocks", "alternating"],
    )
    def test_coefficient_beyond_the_float_range_raises(self, steps):
        # Each duration cubed is finite, but the exact (1, 1, 2) sum, the
        # first in (length, lexicographic) order, exceeds the range.
        with pytest.raises(OverflowError, match=r"coefficient of word \(1, 1, 2\) overflows a float"):
            word_series(Word(steps), 3)

    def test_overflowing_step_duration_is_named(self):
        with pytest.raises(OverflowError, match=r"step duration 1e\+110"):
            word_series(Word(((1, 1e110),)), 2)


class TestExactSeries:
    def test_triple_coefficient_is_one_sixth_of_i_t_cubed(self):
        t = 1.0
        s = exact_series(2, t)
        assert s.coeff((1, 2, 1)) == 1j * t**3 / 6

    def test_pair_coefficient(self):
        t = 0.5
        s = exact_series(3, t)
        assert s.coeff((1, 2)) == -(t**2) / 2
        assert s.coeff((2, 2)) == -(t**2) / 2

    def test_single_symbol_reduces_to_exp_step(self):
        t = 0.9
        a = exact_series(1, t)
        b = exp_step_series(1, t, 1)
        for word in set(a.coeffs) | set(b.coeffs):
            assert abs(a.coeff(word) - b.coeff(word)) <= 1e-15


class TestMixtureMeanSeries:
    def test_alg2_matches_exact_through_degree_two(self):
        ts = random_termset(4, 2, 1.0, seed=23)
        dt = 0.25
        mean = mixture_mean_series(alg2_stage_mixture(ts, dt), 2)
        exact = exact_series(2, dt)
        assert mean.coeff((1, 2)) == -(dt**2) / 2
        assert mean.coeff((2, 1)) == -(dt**2) / 2
        for word in [w for w in exact.coeffs if len(w) <= 2]:
            assert abs(mean.coeff(word) - exact.coeff(word)) <= 1e-15

    def test_alg2_degree_three_deviation_is_cubic(self):
        # the degree-3 coefficient gap scales exactly like dt^3 on matrices
        ts = random_termset(4, 2, 1.0, seed=29)
        gaps = []
        for dt in (0.2, 0.1):
            mean = mixture_mean_series(alg2_stage_mixture(ts, dt), 2)
            exact = exact_series(2, dt)
            diff = TruncatedSeries(
                m=2,
                coeffs={
                    w: mean.coeff(w) - exact.coeff(w)
                    for w in set(mean.coeffs) | set(exact.coeffs)
                },
            )
            gaps.append(spectral_norm(series_to_matrix(diff, ts.terms)))
        assert gaps[0] > 0
        assert abs(gaps[0] / gaps[1] - 8.0) <= 1e-6

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_alg2_matches_exact_through_degree_two_for_m_terms(self, m):
        ts = random_termset(2, m, 1.0, seed=m)
        dt = 0.1
        gap = _max_gap(mixture_mean_series(alg2_stage_mixture(ts, dt), m), exact_series(m, dt), 2)
        assert gap <= 2e-15

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_alg1_group_is_off_at_degree_two(self, m):
        # m single-term stages: term j lands before term k with probability
        # (m - 1) / (2m), so each ordered pair gets -dt**2 (m - 1) / (2m)
        # instead of -dt**2 / 2, and each square is low by the same amount
        # (Childs, Ostrander, Su, arXiv:1805.08385).
        ts = random_termset(2, m, 1.0, seed=m)
        dt = 0.1
        group = mixture_mean_series(mixture_power(alg1_stage_mixture(ts, dt), m), m)
        exact = exact_series(m, dt)
        assert _max_gap(group, exact, 1) <= 1e-15
        assert _max_gap(group, exact, 2) == pytest.approx(dt**2 * (m - 1) / (2 * m), abs=1e-15)

    def test_alg1_single_stage_mean(self):
        ts = random_termset(4, 2, 1.0, seed=31)
        dt = 0.4
        mean = mixture_mean_series(alg1_stage_mixture(ts, dt), 2)
        assert mean.coeff((1,)) == -1j * dt / 2

    def test_single_entry_mixture(self):
        ts = random_termset(4, 2, 1.0, seed=37)
        from splitsim.schedules import UnitaryMixture

        w = trotter_word(ts, 0.2, 1)
        mean = mixture_mean_series(UnitaryMixture(((1.0, w),)), 2)
        direct = word_series(w, 2)
        for word in set(mean.coeffs) | set(direct.coeffs):
            assert abs(mean.coeff(word) - direct.coeff(word)) <= 1e-15


def _max_gap(s, ref, degree):
    """Largest coefficient gap between two series over words of length <= degree."""
    words = [w for w in set(s.coeffs) | set(ref.coeffs) if len(w) <= degree]
    return max(abs(s.coeff(w) - ref.coeff(w)) for w in words)


def _comm(x, y):
    return x @ y - y @ x


def random_palindrome(rng):
    """Random two-term palindromic word, each term's durations totalling one."""
    while True:
        n = int(rng.integers(2, 6))
        half = list(zip(rng.integers(1, 3, size=n).tolist(), rng.uniform(0.05, 1.0, size=n)))
        if {k for k, _ in half} == {1, 2}:
            break
    steps = half + half[::-1]
    totals = {k: sum(tau for j, tau in steps if j == k) for k in (1, 2)}
    return Word(tuple((k, tau / totals[k]) for k, tau in steps))


# The merged Strang stage, then random palindromes.
_PALINDROMES = [Word(((1, 0.5), (2, 1.0), (1, 0.5)))] + [
    random_palindrome(np.random.default_rng(seed)) for seed in range(39)
]


class TestThirdOrderAlgebra:
    """A palindromic two-term stage with unit per-term totals matches the
    exact evolution through degree 2, and its degree-3 residual is the Lie
    element alpha [A,[A,B]] + beta [B,[B,A]]: [A,[A,B]] = AAB - 2ABA + BAA
    fixes alpha = -delta_aba / 2, likewise beta = -delta_bab / 2, and since the
    exact aba + bab coefficient is i/3, alpha + beta = i (1/3 - s) / 2."""

    @pytest.mark.parametrize("index", range(len(_PALINDROMES)))
    def test_palindromic_stage_residuals(self, index):
        w = _PALINDROMES[index]
        a, b = random_termset(4, 2, 1.0, seed=index).terms
        ws, exact = word_series(w, 2), exact_series(2, 1.0)
        assert _max_gap(ws, exact, 2) <= 1e-15
        delta = {k: ws.coeff(k) - exact.coeff(k) for k in exact.coeffs if len(k) == 3}
        alpha, beta = -delta[(1, 2, 1)] / 2, -delta[(2, 1, 2)] / 2
        residual = series_to_matrix(TruncatedSeries(m=2, coeffs=delta), (a, b))
        lie = alpha * _comm(a, _comm(a, b)) + beta * _comm(b, _comm(b, a))
        assert spectral_norm(residual - lie) <= 1e-14
        s = third_order_pair_sum(ws, 1, 2)
        assert abs(alpha + beta - 1j * (1.0 / 3.0 - s) / 2) <= 1e-12

    def test_strang_stage_weights(self):
        # alpha = -i/24 and beta = i/12, the constants of the two-term
        # Strang commutator bound, and s = 1/4.
        ws = word_series(_PALINDROMES[0], 2)
        exact = exact_series(2, 1.0)
        alpha = -(ws.coeff((1, 2, 1)) - exact.coeff((1, 2, 1))) / 2
        beta = -(ws.coeff((2, 1, 2)) - exact.coeff((2, 1, 2))) / 2
        assert abs(alpha + 1j / 24) <= 1e-16 and abs(beta - 1j / 12) <= 1e-16
        assert third_order_pair_sum(ws, 1, 2) == 0.25

    def test_non_palindromic_stage_misses_degree_two(self):
        w = Word(((1, 0.3), (2, 1.0), (1, 0.7)))
        assert _max_gap(word_series(w, 2), exact_series(2, 1.0), 2) > 0.1


class TestThirdOrderPairSum:
    def test_exact_series_gives_one_third(self):
        assert third_order_pair_sum(exact_series(2, 1.0), 1, 2) == pytest.approx(
            1.0 / 3.0, abs=1e-15
        )

    def test_merged_palindrome_word(self):
        w = Word(((1, 0.5), (2, 1.0), (1, 0.5)))
        assert third_order_pair_sum(word_series(w, 2), 1, 2) == pytest.approx(0.25, abs=1e-15)

    def test_plain_split_has_no_interleaving(self):
        w = Word(((1, 1.0), (2, 1.0)))
        assert third_order_pair_sum(word_series(w, 2), 1, 2) == 0.0

    def test_rejects_equal_pair(self):
        with pytest.raises(ValueError, match="distinct"):
            third_order_pair_sum(exact_series(2, 1.0), 1, 1)

    def test_rejects_pair_outside_the_symbols(self):
        with pytest.raises(ValueError, match=r"outside the series symbols 1\.\.2"):
            third_order_pair_sum(exact_series(2, 1.0), 1, 3)


class TestInterleavingProfile:
    def test_transparent_other_terms(self):
        # seven steps over four terms; for the pair (1, 2) the middle term-3
        # step splits nothing and the two trailing term-1 stretches merge
        # across the term-4 step
        lam = (0.3, 0.2, 0.9, 0.4, 0.25, 0.8, 0.15)
        w = Word(
            (
                (1, lam[0]),
                (2, lam[1]),
                (3, lam[2]),
                (2, lam[3]),
                (1, lam[4]),
                (4, lam[5]),
                (1, lam[6]),
            )
        )
        prof = interleaving_profile(w, 1, 2)
        assert prof == pytest.approx((lam[0], lam[1] + lam[3], lam[4] + lam[6]))

    def test_strang_read_off(self):
        w = Word(((1, 0.5), (2, 1.0), (1, 0.5)))
        assert interleaving_profile(w, 1, 2) == (0.5, 1.0, 0.5)

    def test_pair_oriented_to_leading_block(self):
        w = Word(((2, 0.4), (1, 1.0), (2, 0.6)))
        assert interleaving_profile(w, 1, 2) == (0.4, 1.0, 0.6)

    def test_block_counts_differ_by_at_most_one(self, rng):
        for _ in range(200):
            w = random_normalized_word(rng, m=4)
            prof = interleaving_profile(w, 1, 2)
            na = sum(1 for i in range(len(prof)) if i % 2 == 0)
            nb = len(prof) - na
            assert abs(na - nb) <= 1

    def test_rejects_missing_term(self):
        w = Word(((1, 1.0), (3, 0.5)))
        with pytest.raises(ValueError, match="no step"):
            interleaving_profile(w, 1, 2)


class TestSValue:
    def test_uniform_three(self):
        assert s_value([2 / 3, 2 / 3, 2 / 3]) == pytest.approx(8 / 27, abs=1e-15)

    def test_uniform_five(self):
        assert s_value([0.4] * 5) == pytest.approx(8 / 25, abs=1e-15)

    def test_single_qualifying_triple(self):
        assert s_value([0.5, 1.0, 0.5]) == 0.25

    def test_empty_and_short(self):
        assert s_value([]) == 0.0
        assert s_value([1.0, 1.0]) == 0.0


class TestBridgeIdentity:
    """Symbolic extraction and combinatorial formula must agree exactly."""

    def test_strang_words(self):
        ts = random_termset(4, 2, 1.0, seed=41)
        w = strang_word(ts, 1.0, 1)
        prof = interleaving_profile(w, 1, 2)
        assert third_order_pair_sum(word_series(w, 2), 1, 2) == pytest.approx(
            s_value(prof), abs=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_normalized_words(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 5))
        w = random_normalized_word(rng, m)
        via_series = third_order_pair_sum(word_series(w, m), 1, 2)
        via_profile = s_value(interleaving_profile(w, 1, 2))
        assert abs(via_series - via_profile) <= 1e-12
        assert via_series < 1.0 / 3.0


class TestSeriesJson:
    def test_stable_sorted_dump(self):
        s = word_series(Word(((2, 0.5), (1, 0.5))), 2)
        doc = series_to_json(s)
        words = [tuple(c["word"]) for c in doc["coeffs"]]
        assert words == sorted(words, key=lambda w: (len(w), w))
        assert doc["m"] == 2
        assert words[0] == ()

    def test_dump_round_trips_through_json_text(self):
        import json

        s = exact_series(2, 0.3)
        doc = json.loads(json.dumps(series_to_json(s)))
        coeff_map = {tuple(c["word"]): complex(c["re"], c["im"]) for c in doc["coeffs"]}
        assert coeff_map[(1, 2, 1)] == 1j * 0.3**3 / 6


_PALINDROME = Word(((1, 0.5), (2, 1.0), (1, 0.5)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: TruncatedSeries(m=0, coeffs={}), "symbol count must be >= 1"),
        (lambda: TruncatedSeries(m=2, coeffs={(1, 2, 1, 2): 1.0}), "exceeds the degree-3"),
        (lambda: TruncatedSeries(m=2, coeffs={(1, 3): 1.0}), r"outside 1\.\.2"),
        (lambda: word_series(Word(((3, 0.1),)), 2), "references symbol 3 but m=2"),
        (lambda: series_to_matrix(TruncatedSeries(3, {(): 1}), [np.eye(2)] * 2), "need 3 matrices, got 2"),
        (lambda: interleaving_profile(_PALINDROME, 2, 2), "two distinct terms"),
        (
            lambda: word_series(Word(tuple((k, 0.01) for k in range(1, 34))), 33),
            "uses 33 distinct terms, above the maximum 32",
        ),
    ],
    ids=[
        "series-no-symbols", "series-word-too-long", "series-symbol-out-of-range",
        "word-symbol-above-m", "too-few-matrices", "interleaving-equal-pair",
        "word-too-many-terms",
    ],
)
def test_rejected_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
