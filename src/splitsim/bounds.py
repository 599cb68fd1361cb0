"""Numerical verification of the third-order obstruction.

Maximizes the alternating triple-product sum S over the constrained box slice
{0 <= x_i <= 1, sum x_i = 2} (an exact integer grid scan, then coordinate
ascent whose pair moves are solved as exact quadratics), audits arbitrary
schedules for the per-stage obstruction.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .config import (
    LEMMA2_GRID_MAX_ROWS,
    LEMMA2_MAX_N,
    NORMALIZATION_ATOL,
    POLISH_IMPROVEMENT_TOL,
)
from .schedules import Word
from .series import interleaving_profile, s_value

__all__ = [
    "Lemma2Result",
    "ScheduleAudit",
    "audit_schedule",
    "lemma2_max",
    "lemma2_uniform_value",
]

_GRID_EXHAUSTIVE_MAX_N = 9
_DEFAULT_GRID_SMALL = 40  # N <= 6
_DEFAULT_GRID_LARGE = 20  # N in 7..9
_LOCAL_STARTS = 8


@dataclass(frozen=True)
class Lemma2Result:
    """Outcome of maximizing S over the feasible slice."""

    n: int
    max_s: float
    argmax: tuple[float, ...]
    method: str  # "grid" or "refined-local"
    grid_steps: int | None = None

    def to_json(self) -> dict:
        return asdict(self)


def _composition_count(total: int, parts: int, cap: int) -> int:
    """Number of int vectors of length ``parts`` with entries in [0, cap]
    summing to ``total``."""
    counts = [1 if t <= cap else 0 for t in range(total + 1)]  # one part
    for _ in range(parts - 1):
        counts = [sum(counts[t - v] for v in range(min(t, cap) + 1)) for t in range(total + 1)]
    return counts[total]


def _suffix_table(total: int, parts: int, cap: int, memo: dict) -> np.ndarray:
    """Statistics of every int vector of length ``parts`` with entries in [0, cap]
    summing to ``total``, in lexicographic order: one int64 row each for S, E,
    O, Q_eo and Q_oe, one column per vector.

    With local index parity: E and O are the sums of the even- and odd-index
    entries, Q_eo sums r_j r_k over even j < odd k and Q_oe over odd j < even
    k, and S is the triple sum of :func:`splitsim.series.s_value`. Prepending
    v flips every parity, so each block of the table follows from the
    sub-table of ``total - v`` in O(1) per vector. Sub-tables are read from
    and stored in ``memo``; this table itself is not stored.
    """
    if parts == 1:  # the vector (total), if it fits
        table = np.zeros((5, 1 if total <= cap else 0), dtype=np.int64)
        table[1] = total
        return table
    subs = []
    for v in range(min(total, cap) + 1):
        key = (total - v, parts - 1)
        if key not in memo:
            memo[key] = _suffix_table(*key, cap, memo)
        subs.append(memo[key])
    table = np.empty((5, sum(sub.shape[1] for sub in subs)), dtype=np.int64)
    start = 0
    for v, (s, e, o, q_eo, q_oe) in enumerate(subs):
        stop = start + len(s)
        table[:, start:stop] = (s + v * q_eo, o + v, e, v * e + q_oe, q_eo)
        start = stop
    return table


def _grid_argmax(total: int, n: int, cap: int) -> tuple[int, list[int]]:
    """Largest S over int vectors of length ``n`` >= 3 with entries in [0, cap]
    summing to ``total``, and the lexicographically smallest vector reaching it.

    A vector is (a, b, r) with r holding indices 2..n-1 at their global
    parity, so S = S(r) + a*b*E(r) + a*Q_oe(r) + b*Q_eo(r), exact in int64.
    The suffix table of each total t is built once, serves every leading pair
    with a + b = total - t and is dropped before the next one is built.
    """
    memo: dict = {}

    def candidates(t: int):
        """(-S, a, b, column, t) of the first maximizer for each leading pair."""
        s, e, _, q_eo, q_oe = _suffix_table(t, n - 2, cap, memo)
        for a in range(min(total - t, cap) + 1):
            b = total - t - a
            if b <= cap:
                vals = e * (a * b)
                vals += s
                vals += a * q_oe
                vals += b * q_eo
                i = int(np.argmax(vals))
                yield -int(vals[i]), a, b, i, t

    # Every t in range leaves at least one leading pair and one suffix.
    suffix_totals = range(max(total - 2 * cap, 0), min(total, (n - 2) * cap) + 1)
    neg_s, a, b, i, t = min(cand for t in suffix_totals for cand in candidates(t))
    # Unrank column i of the lexicographic table of (t, n - 2).
    row = [a, b]
    for parts in range(n - 2, 1, -1):
        v = 0
        while i >= (size := _composition_count(t - v, parts - 1, cap)):
            i -= size
            v += 1
        row.append(v)
        t -= v
    row.append(t)
    return -neg_s, row


def _pair_move_max(
    x: list | np.ndarray, i: int, j: int, lo: float, hi: float
) -> tuple[float, float]:
    """Maximize S(x + d*e_i - d*e_j) over d in [lo, hi]; ``x`` is a list of
    floats or a 1-D array.

    Every triple holds x_i and x_j at most once each, so S along the pair move
    is a quadratic in d, and the parabola through the values at lo, the
    midpoint and hi is exact. Its vertex is the only interior candidate and
    counts only when the curvature is negative; candidates are scored by the
    true S. Returns (best_d, best_value).
    """
    span = hi - lo

    def f(d: float) -> float:
        y = x.copy()
        y[i] += d
        y[j] -= d
        return s_value(y)

    f0, fm, f1 = f(lo), f(lo + 0.5 * span), f(hi)
    # q(u) = curv*u**2 + slope*u + f0 passes through all three values, u in [0, 1].
    curv = 2.0 * (f1 - 2.0 * fm + f0)
    slope = f1 - f0 - curv
    best_d, best_v = (lo, f0) if f0 >= f1 else (hi, f1)
    if curv < 0.0:
        u = -slope / (2.0 * curv)
        if 0.0 < u < 1.0:
            d = lo + u * span
            v = f(d)
            if v > best_v:
                best_d, best_v = d, v
    return best_d, best_v


def _polish(x0: Sequence[float]) -> tuple[np.ndarray, float]:
    """Coordinate ascent over coordinate pairs on the sum-constrained slice.

    Works on a list of Python floats, which :func:`splitsim.series.s_value`
    evaluates without numpy; the arithmetic is the same as on an array.
    """
    x = np.asarray(x0, dtype=float).tolist()
    n = len(x)
    best = s_value(x)
    while True:
        sweep_gain = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                lo = max(-x[i], x[j] - 1.0)
                hi = min(1.0 - x[i], x[j])
                if hi - lo < 1e-15:
                    continue
                d, v = _pair_move_max(x, i, j, lo, hi)
                if v > best:
                    sweep_gain += v - best
                    x[i] += d
                    x[j] -= d
                    best = v
        if sweep_gain < POLISH_IMPROVEMENT_TOL:
            return np.array(x), best


def lemma2_max(n: int, grid_steps: int | None = None) -> Lemma2Result:
    """Maximize S over {0 <= x_i <= 1, sum x_i = 2} numerically.

    For n <= 9 the feasible set is enumerated on a grid of resolution
    2/grid_steps (defaults: 40 for n <= 6, 20 for n in 7..9), scored in exact
    integer counts from per-suffix statistics (:func:`_grid_argmax`), and the
    best cell is polished by coordinate ascent; ties break toward the
    lexicographically smallest grid point. A grid of more than
    ``LEMMA2_GRID_MAX_ROWS`` points is rejected before it is scanned. Larger n
    takes no grid: it polishes several seeded starting points instead. The
    maximum always lands strictly below 1/3; at odd n the maximizer is the
    uniform point x_i = 2/n. The polish costs about n**3, so n above
    ``LEMMA2_MAX_N`` is rejected before any work.
    """
    if n < 3:
        raise ValueError(f"need at least 3 coordinates, got {n}")
    if n > LEMMA2_MAX_N:
        raise ValueError(f"n={n} is above the supported maximum of {LEMMA2_MAX_N} coordinates")

    if n > _GRID_EXHAUSTIVE_MAX_N:
        if grid_steps is not None:
            raise ValueError(
                f"a grid applies only to n <= {_GRID_EXHAUSTIVE_MAX_N}; n={n} is searched "
                "by refined-local polish without one"
            )
        starts = [np.full(n, 2.0 / n)]
        rng = np.random.default_rng(n)
        for _ in range(_LOCAL_STARTS):
            while True:
                p = rng.dirichlet(np.ones(n)) * 2.0
                if p.max() <= 1.0:
                    break
            starts.append(p)
    else:
        if grid_steps is None:
            grid_steps = _DEFAULT_GRID_SMALL if n <= 6 else _DEFAULT_GRID_LARGE
        if grid_steps < 2:
            raise ValueError(f"grid_steps must be >= 2, got {grid_steps}")
        h = 2.0 / grid_steps
        cap = grid_steps // 2  # enforces x_i <= 1
        rows = _composition_count(grid_steps, n, cap)
        if rows > LEMMA2_GRID_MAX_ROWS:
            raise ValueError(
                f"the n={n} grid with {grid_steps} steps has {rows} points, above the cap of "
                f"{LEMMA2_GRID_MAX_ROWS}; choose a coarser grid"
            )
        # S of the counts is an exact integer (h**3 times S of the point), so ties
        # are exact and the lexicographically smallest grid point wins.
        _, best_row = _grid_argmax(grid_steps, n, cap)
        starts = [[c * h for c in best_row]]
    # The first start with the largest polished S wins.
    x, v = max((_polish(x0) for x0 in starts), key=lambda polished: polished[1])
    method = "refined-local" if grid_steps is None else "grid"
    return Lemma2Result(n=n, max_s=v, argmax=tuple(x), method=method, grid_steps=grid_steps)


def lemma2_uniform_value(n: int) -> float:
    """Closed form (1/3)(1 - 1/n^2) of S at the uniform point, odd n only."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if n % 2 == 0:
        raise ValueError(f"the closed form holds for odd n only, got {n}")
    return (1.0 / 3.0) * (1.0 - 1.0 / n**2)


@dataclass(frozen=True)
class ScheduleAudit:
    """Third-order verdict for one schedule and one term pair.

    A correctly timed schedule (both per-term totals equal to one stage unit)
    is 'obstructed': its combined aba + bab coefficient s lands strictly below
    1/3, gap = 1/3 - s. Mistimed schedules already incur a second-order error
    per stage, so s is not computed for them.
    """

    pair: tuple[int, int]
    normalized: bool
    alpha_sum: float
    beta_sum: float
    s: float | None
    gap: float | None
    verdict: str  # "obstructed" or "mistimed"

    def to_json(self) -> dict:
        return asdict(self)


def audit_schedule(w: Word, a: int, b: int, dt_unit: float) -> ScheduleAudit:
    """Audit one word for the per-stage third-order obstruction.

    Durations are divided by ``dt_unit`` so the check is against simulating
    one stage of length dt_unit. If either per-term total differs from 1 the
    verdict is 'mistimed'; otherwise s comes from the interleaving profile.
    """
    if not (math.isfinite(dt_unit) and dt_unit > 0):
        raise ValueError(f"dt_unit must be finite and positive, got {dt_unit}")
    if a == b:
        raise ValueError("the pair must consist of two distinct terms")
    alpha = w.term_total(a) / dt_unit
    beta = w.term_total(b) / dt_unit
    if alpha == 0.0 or beta == 0.0:
        missing = [k for k, tot in ((a, alpha), (b, beta)) if tot == 0.0]
        raise ValueError(f"word has no step of term(s) {missing}")
    normalized = (
        abs(alpha - 1.0) <= NORMALIZATION_ATOL and abs(beta - 1.0) <= NORMALIZATION_ATOL
    )
    s = s_value(interleaving_profile(w.scaled(1.0 / dt_unit), a, b)) if normalized else None
    return ScheduleAudit(
        pair=(a, b),
        normalized=normalized,
        alpha_sum=alpha,
        beta_sum=beta,
        s=s,
        gap=None if s is None else 1.0 / 3.0 - s,
        verdict="obstructed" if normalized else "mistimed",
    )

