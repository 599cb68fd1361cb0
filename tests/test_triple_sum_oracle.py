"""The Lemma-2 triple sum and its maximizer against a brute-force oracle.

The oracle below is the definition of S written as a plain triple loop; it
shares no code with the package.
"""

import functools
import itertools
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from splitsim.bounds import (
    _hessian,
    _pair_move_max,
    _polish,
    _solve,
    lemma2_max,
)
from splitsim.series import s_value

THIRD = 1.0 / 3.0


def brute_s(x):
    """Sum of x_i x_j x_k over i<j<k with j-i odd and k-i even."""
    n = len(x)
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if (j - i) % 2 == 1 and (k - i) % 2 == 0:
                    total += x[i] * x[j] * x[k]
    return total


def feasible_point(rng, n):
    while True:
        x = rng.dirichlet(np.ones(n)) * 2.0
        if x.max() <= 1.0:
            return x


class TestHessian:
    @pytest.mark.parametrize("seed", range(4))
    def test_pair_move_coefficients_on_fraction_points(self, seed):
        # Along x + d*e_i - d*e_j, S is a quadratic in d whose d coefficient is
        # g_i - g_j and whose d**2 coefficient is -H_ij (the diagonal is zero),
        # with g = H x / 2. Fractions make every comparison exact.
        rng = np.random.default_rng(seed)
        for n in range(3, 10):
            x = [Fraction(int(v), 97) for v in rng.integers(0, 98, size=n)]
            h = _hessian(x)
            g = [sum(hab * xb for hab, xb in zip(row, x)) / 2 for row in h]
            assert all(h[a][a] == 0 for a in range(n))
            for i, j in itertools.permutations(range(n), 2):

                def along(d):
                    y = list(x)
                    y[i] += d
                    y[j] -= d
                    return brute_s(y)

                f_minus, f0, f_plus = along(-1), along(0), along(1)
                c1, c2 = (f_plus - f_minus) / 2, (f_plus + f_minus) / 2 - f0
                assert c2 == -h[i][j]
                assert c1 == g[i] - g[j]
                assert along(2) == f0 + 2 * c1 + 4 * c2  # no cubic term


class TestSolve:
    def test_solves_past_a_zero_diagonal(self):
        rng = np.random.default_rng(6)
        for m in (2, 5, 12):
            a = rng.standard_normal((m, m))
            a[0, 0] = 0.0
            b = rng.standard_normal(m)
            z = _solve(a.tolist(), b.tolist())
            assert np.allclose(a @ np.array(z), b, rtol=0, atol=1e-12)

    def test_singular_system_gives_none(self):
        assert _solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]) is None
        assert _solve([[0.0]], [1.0]) is None


class TestSValue:
    @settings(max_examples=200, deadline=None)
    @given(x=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=12))
    def test_point_matches_oracle(self, x):
        got = s_value(x)
        assert isinstance(got, float)
        assert abs(got - brute_s(x)) <= 1e-12

    def test_float_rows_match_oracle(self):
        rng = np.random.default_rng(3)
        for n in range(13):
            for row in rng.uniform(0.0, 1.0, size=(20, n)):
                got = s_value(row)
                assert isinstance(got, float)
                assert abs(got - brute_s(row.tolist())) <= 1e-12

    def test_integer_rows_are_exact(self):
        rng = np.random.default_rng(4)
        for n in range(13):
            for row in rng.integers(0, 1000, size=(20, n), dtype=np.int64):
                assert s_value(row) == brute_s(row.tolist())

    def test_list_path_gives_the_array_path_bits(self):
        rng = np.random.default_rng(5)
        for n in range(13):
            for _ in range(20):
                x = rng.uniform(0.0, 1.0, size=n)
                assert s_value(x.tolist()) == s_value(x)
            ints = rng.integers(0, 1000, size=n)
            assert s_value(ints.tolist()) == s_value(ints)

    def test_only_points_are_accepted(self):
        with pytest.raises(ValueError, match="1-D point"):
            s_value(np.ones((2, 3)))
        with pytest.raises(ValueError, match="1-D point"):
            s_value(1.0)


class TestPairMove:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_beats_dense_sampling(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 10))
        x = feasible_point(rng, n)
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        lo = max(-x[i], x[j] - 1.0)
        hi = min(1.0 - x[i], x[j])

        def oracle_along(d):
            y = x.copy()
            y[i] += d
            y[j] -= d
            return brute_s(y.tolist())

        d, v = _pair_move_max(x, i, j, lo, hi)
        assert _pair_move_max(x.tolist(), i, j, lo, hi) == (d, v)
        assert lo <= d <= hi
        assert abs(v - oracle_along(d)) <= 1e-12
        assert v >= max(oracle_along(s) for s in np.linspace(lo, hi, 201)) - 1e-15


# (n, steps) of the 2/steps lattices on the slice: n = 3..7 on the grids 2, 3,
# 4, 6 and 7, two larger grids, and the finest grid of each n that enumerates
# in well under a second.
LATTICES = [(n, steps) for n in range(3, 8) for steps in (2, 3, 4, 6, 7)] + [
    (4, 8), (5, 10), (3, 12), (4, 12), (5, 12), (6, 10), (7, 10),
]


@functools.cache
def lattice_best(n, steps):
    """Exact largest S over every point of the 2/steps lattice on the slice,
    scored with the plain triple loop, and the first (lexicographic) integer
    point of the lattice that reaches it."""
    cap = steps // 2
    lattice = [c for c in itertools.product(range(cap + 1), repeat=n) if sum(c) == steps]
    values = [brute_s(c) for c in lattice]
    best = max(values)
    return Fraction(best) * Fraction(2, steps) ** 3, lattice[values.index(best)]


class TestLemma2Max:
    @pytest.mark.parametrize("n, steps", LATTICES)
    def test_no_lattice_point_beats_the_search(self, n, steps):
        best, _ = lattice_best(n, steps)
        assert lemma2_max(n).max_s >= best - 1e-15

    @pytest.mark.parametrize("n, steps", LATTICES)
    def test_search_reaches_the_polished_lattice_best(self, n, steps):
        # The deleted grid path: polish the best lattice point. The polish
        # loses nothing, and the one search reaches what it finds.
        best, point = lattice_best(n, steps)
        _, v = _polish(np.array(point) * (2.0 / steps))
        assert v >= best - 1e-15
        assert lemma2_max(n).max_s >= v - 1e-15

    def test_ten_coordinates_reach_the_uniform_floor(self):
        # Padding with a zero coordinate leaves S unchanged, so the maximum at
        # n=10 is at least the closed-form uniform value at n=9.
        res = lemma2_max(10)
        assert (1.0 - 1.0 / 81) / 3.0 - 1e-15 <= res.max_s < THIRD

    @pytest.mark.parametrize("n", range(3, 65))
    def test_default_run_lands_on_the_closed_form(self, n):
        # Numerically the maximum is the uniform value at the largest odd
        # n' <= n (at even n, an odd uniform point padded with a zero). The
        # argmax, rescaled exactly onto sum 2, reaches it in exact arithmetic,
        # and at odd n it is the uniform point.
        odd = n if n % 2 else n - 1
        closed = Fraction(1, 3) * (1 - Fraction(1, odd**2))
        res = lemma2_max(n)
        assert abs(res.max_s - float(closed)) <= 1e-15
        # Every float is an integer over a common power of two, 2**e.
        e = max(Fraction(v).denominator for v in res.argmax).bit_length() - 1
        ints = [int(v * 2**e) for v in res.argmax]
        exact = Fraction(8 * brute_s(ints), sum(ints) ** 3)
        assert exact >= closed - Fraction(1, 10**17)
        if n % 2:
            assert max(abs(v - 2.0 / n) for v in res.argmax) <= 1e-12
