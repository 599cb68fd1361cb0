"""Lemma 2's upper side, proven in exact integer arithmetic at small n.

The search in ``splitsim.bounds.lemma2_max`` returns a point it reached, so
its ``max_s`` is only a lower bound on the maximum of S over the slice
{0 <= x_i <= 1, sum x_i = 2}. This module proves the other side, S < 1/3 on
the whole slice, by branch and bound. It imports nothing from the package.

Coordinates are integers in units of 2**-30, so S of a point is an integer in
units of 2**-90 and every comparison is exact. S is a sum of products
x_i x_j x_k with i < j < k and nonnegative factors, and telescoping each one
from its first index gives, on a box [l, u],

    x_i x_j x_k - l_i l_j l_k
        = (x_i - l_i) l_j l_k + x_i (x_j - l_j) l_k + x_i x_j (x_k - l_k)
       <= (x_i - l_i) l_j l_k + (x_j - l_j) u_i l_k + (x_k - l_k) u_i u_j.

So the box cut by the sum constraint is bounded above by
S(l) + sum_i (x_i - l_i) * slope_i, each slope summing those products over
the triples of i. Its maximum over the cut is a fractional knapsack: fill
the budget 2 - sum(l) in decreasing order of slope. A box whose bound is
below the target is pruned; any other is halved across its widest side.
"""

import itertools
import random

import pytest

UNIT_BITS = 30
ONE = 1 << UNIT_BITS
TOTAL = 2 * ONE


def triples(n):
    """Index triples i < j < k with j - i odd and k - i even: the terms of S."""
    return [
        (i, j, k)
        for i, j, k in itertools.combinations(range(n), 3)
        if (j - i) % 2 == 1 and (k - i) % 2 == 0
    ]


def tighten(lo, hi):
    """The box cut to the points of [lo, hi] that can meet sum x = TOTAL, or
    None when none can."""
    slack_up, slack_down = TOTAL - sum(lo), sum(hi) - TOTAL
    if slack_up < 0 or slack_down < 0:
        return None
    hi = [min(h, l + slack_up) for l, h in zip(lo, hi)]
    lo = [max(l, h - slack_down) for l, h in zip(lo, hi)]
    return lo, hi


def upper_bound(terms, lo, hi):
    """An integer no smaller than S anywhere on the box cut by the sum
    constraint, in units of 2**-90."""
    n = len(lo)
    base = sum(lo[i] * lo[j] * lo[k] for i, j, k in terms)
    slope = [0] * n
    for i, j, k in terms:
        slope[i] += lo[j] * lo[k]
        slope[j] += hi[i] * lo[k]
        slope[k] += hi[i] * hi[j]
    budget = TOTAL - sum(lo)
    for c in sorted(range(n), key=slope.__getitem__, reverse=True):
        step = min(budget, hi[c] - lo[c])
        base += step * slope[c]
        budget -= step
    return base


def prove_below(n, num, den, max_boxes):
    """Number of boxes searched to prove S < num/den on the n-coordinate
    slice; fails if a box that cannot be split reaches the target or the
    search outgrows ``max_boxes``."""
    terms = triples(n)
    # S(x) < num/den  <=>  den * S_int < num * 2**90.
    target = num << 3 * UNIT_BITS
    stack = [tighten([0] * n, [ONE] * n)]
    boxes = 0
    while stack:
        box = stack.pop()
        if box is None:
            continue
        boxes += 1
        assert boxes <= max_boxes, f"n={n}: no proof within {max_boxes} boxes"
        lo, hi = box
        if den * upper_bound(terms, lo, hi) < target:
            continue
        c = max(range(n), key=lambda i: hi[i] - lo[i])
        assert hi[c] - lo[c] > 1, f"n={n}: the box {lo}..{hi} reaches {num}/{den}"
        # The halves share the midpoint, so they cover every real point.
        mid = (lo[c] + hi[c]) // 2
        stack.append(tighten(lo, hi[:c] + [mid] + hi[c + 1:]))
        stack.append(tighten(lo[:c] + [mid] + lo[c + 1:], hi))
    return boxes


@pytest.mark.parametrize("n", range(3, 7))
def test_bound_holds_on_random_points_of_random_boxes(n):
    # The bound of a box is no smaller than S at any point of its cut.
    rng = random.Random(n)
    terms = triples(n)
    checked = 0
    while checked < 200:
        a = [rng.randrange(ONE + 1) for _ in range(n)]
        b = [rng.randrange(ONE + 1) for _ in range(n)]
        box = tighten([min(p, q) for p, q in zip(a, b)], [max(p, q) for p, q in zip(a, b)])
        if box is None:
            continue
        lo, hi = box
        # A point of the cut: walk up from lo until the budget is spent.
        x, budget = list(lo), TOTAL - sum(lo)
        for c in rng.sample(range(n), n):
            step = rng.randint(0, min(budget, hi[c] - lo[c]))
            x[c] += step
            budget -= step
        for c in range(n):
            step = min(budget, hi[c] - x[c])
            x[c] += step
            budget -= step
        assert budget == 0 and sum(x) == TOTAL
        s = sum(x[i] * x[j] * x[k] for i, j, k in terms)
        assert s <= upper_bound(terms, lo, hi)
        checked += 1


def cut_vertices(lo, hi):
    """The vertices of the box [lo, hi] cut by sum x = TOTAL: every coordinate
    but one at an end of its range, the last one inside its range."""
    n = len(lo)
    for c in range(n):
        others = [i for i in range(n) if i != c]
        for ends in itertools.product(*((lo[i], hi[i]) for i in others)):
            rest = TOTAL - sum(ends)
            if lo[c] <= rest <= hi[c]:
                x = list(ends)
                x.insert(c, rest)
                yield x


@pytest.mark.parametrize("n", range(3, 7))
def test_bound_holds_at_every_vertex_of_small_boxes(n):
    # At a vertex several coordinates can sit at their upper ends at once, so
    # S there has cross terms that a slope taken below its telescoped form
    # misses (u_i for the middle member, u_i u_j for the last). Small boxes
    # around points of the slice keep S away from zero.
    rng = random.Random(100 + n)
    terms = triples(n)
    for _ in range(40):
        # A point of the slice, one coordinate at a time; the last one takes
        # what is left.
        x, budget = [0] * n, TOTAL
        for left, c in zip(range(n - 1, -1, -1), rng.sample(range(n), n)):
            x[c] = rng.randint(max(0, budget - left * ONE), min(ONE, budget))
            budget -= x[c]
        lo = [max(0, v - rng.randrange(ONE >> 3)) for v in x]
        hi = [min(ONE, v + rng.randrange(ONE >> 3)) for v in x]
        lo, hi = tighten(lo, hi)
        bound = upper_bound(terms, lo, hi)
        for v in cut_vertices(lo, hi):
            assert sum(v[i] * v[j] * v[k] for i, j, k in terms) <= bound


@pytest.mark.parametrize(
    "n, num, den, boxes",
    [(3, 1, 3, 53), (3, 17, 54, 79), (4, 1, 3, 517), (4, 17, 54, 871),
     (5, 1, 3, 19_311), (5, 49, 150, 29_619)],
    ids=["3-third", "3-halfway", "4-third", "4-halfway", "5-third", "5-halfway"],
)
def test_maximum_is_below(n, num, den, boxes):
    # Lemma 2: S < 1/3 on the whole slice, not only at the point a search
    # found; and the sharper target halfway between 1/3 and the value the
    # search reaches: S(2/3, 2/3, 2/3) = 8/27 at n = 3 and 4, giving 17/54,
    # and (1/3)(1 - 1/25) = 8/25 at n = 5, giving 49/150. The box count pins
    # the search, so a looser bound shows.
    assert prove_below(n, num, den, max_boxes=40_000) == boxes


def test_a_target_the_maximum_reaches_is_not_proven():
    # S(2/3, 2/3, 2/3) = 8/27, so no proof of S < 8/27 exists; the search
    # must end on a box that it can neither prune nor split.
    with pytest.raises(AssertionError, match="reaches 8/27"):
        prove_below(3, 8, 27, max_boxes=20_000)
