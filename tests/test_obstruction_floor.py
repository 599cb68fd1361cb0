"""Two K-fold schemes against the Lemma-2 floor, in closed form.

``third_order_pair_sum`` gives the combined aba + bab third-order coefficient
s of a series; the exact evolution has s = 1/3. Over t = 1 with two terms the
gap 1/3 - s of each scheme below has a closed form, and it sits at or above
the floor 1/3 - lemma2_max(n).max_s of the block count n its words reach:

* K Strang steps of dt = 1/K, one word of 2K + 1 alternating blocks:
  gap 1/(12 K**2);
* the mean series of K alg2 stages of dt = 1/K, whose 2**K words have at most
  2K blocks each: gap 1/(3 K**2). The mean series is linear in its words, so
  its pair sum is at most its best word's, which Lemma 2 bounds.
"""

import pytest

from splitsim.bounds import lemma2_max
from splitsim.hamiltonians import PAULI_X, PAULI_Z, TermSet
from splitsim.schedules import alg2_stage_mixture, mixture_power, strang_word
from splitsim.series import third_order_pair_sum, word_series

from oracles import mixture_mean_series

TWO_TERMS = TermSet((PAULI_X, PAULI_Z))


@pytest.mark.parametrize("k", range(1, 16))
def test_strang_gap_is_one_over_twelve_k_squared(k):
    w = strang_word(TWO_TERMS, 1.0 / k, k)
    assert len(w) == 2 * k + 1
    gap = 1.0 / 3.0 - third_order_pair_sum(word_series(w, 2), 1, 2)
    assert gap == pytest.approx(1.0 / (12 * k**2), rel=1e-12, abs=0)
    assert gap >= 1.0 / 3.0 - lemma2_max(2 * k + 1).max_s


@pytest.mark.parametrize("k", range(1, 7))
def test_alg2_mean_gap_is_one_over_three_k_squared(k):
    mix = mixture_power(alg2_stage_mixture(TWO_TERMS, 1.0 / k), k)
    assert max(len(w) for _, w in mix.entries) == 2 * k
    gap = 1.0 / 3.0 - third_order_pair_sum(mixture_mean_series(mix, 2), 1, 2)
    assert gap == pytest.approx(1.0 / (3 * k**2), rel=1e-12, abs=0)
    # Two blocks are three with an empty one: S is 0 on both, below max_s(3).
    assert gap >= 1.0 / 3.0 - lemma2_max(max(2 * k, 3)).max_s
