"""Numerical verification of the third-order obstruction.

Maximizes the alternating triple-product sum S over the constrained box slice
{0 <= x_i <= 1, sum x_i = 2} (from the uniform point, coordinate ascent whose
pair moves are solved as exact quadratics, finished by Newton steps on the
active face in pure-Python floats), audits arbitrary schedules for the
per-stage obstruction.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from typing import Sequence

from .config import (
    LEMMA2_MAX_N,
    NORMALIZATION_ATOL,
    POLISH_IMPROVEMENT_TOL,
    POLISH_NEWTON_GAIN,
)
from .schedules import Word
from .series import interleaving_profile, s_value

__all__ = [
    "Lemma2Result",
    "ScheduleAudit",
    "audit_schedule",
    "lemma2_max",
]

# Newton steps per polish round; no default run for n <= 64 took more than 6.
_NEWTON_MAX_STEPS = 30


@dataclass(frozen=True)
class Lemma2Result:
    """Outcome of maximizing S over the feasible slice."""

    n: int
    max_s: float
    argmax: tuple[float, ...]

    def to_json(self) -> dict:
        return asdict(self)


def _pair_move_max(x, i: int, j: int, lo: float, hi: float) -> tuple[float, float]:
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


def _hessian(x: list) -> list[list]:
    """Hessian of S at ``x``, from per-parity prefix sums.

    S is multilinear, so the diagonal is zero and entry (a, b), a < b, sums
    the third coordinate of every triple that holds both. At equal parity a
    and b are the triple's ends, and the middle runs over the opposite parity
    strictly between them. At opposite parity the triple is (a, b, k) with
    k > b of a's parity, or (i, a, b) with i < a of b's parity. Each is a
    range sum of one parity's prefix sums. Only + and - are used, so
    Fraction entries give the exact matrix.
    """
    n = len(x)
    # pre[p][k] sums the entries of parity p at indices below k.
    pre = ([0], [0])
    for k, v in enumerate(x):
        pre[k % 2].append(pre[k % 2][-1] + v)
        pre[1 - k % 2].append(pre[1 - k % 2][-1])
    h = [[0] * n for _ in range(n)]
    for a in range(n):
        same, other = pre[a % 2], pre[1 - a % 2]
        for b in range(a + 1, n):
            if (b - a) % 2:
                h[a][b] = h[b][a] = other[a] + same[n] - same[b + 1]
            else:
                h[a][b] = h[b][a] = other[b] - other[a + 1]
    return h


def _solve(a: list[list[float]], b: list[float]) -> list[float] | None:
    """Solution z of a·z = b by Gaussian elimination with partial pivoting, or
    None when a pivot is zero. Overwrites ``a`` and ``b``."""
    m = len(b)
    for c in range(m):
        p = max(range(c, m), key=lambda r: abs(a[r][c]))
        if a[p][c] == 0.0:
            return None
        a[c], a[p] = a[p], a[c]
        b[c], b[p] = b[p], b[c]
        pivot, tail = a[c][c], a[c][c + 1:]
        for r in range(c + 1, m):
            row = a[r]
            f = row[c] / pivot
            if f:
                row[c + 1:] = [u - f * w for u, w in zip(row[c + 1:], tail)]
                b[r] -= f * b[c]
    z = [0.0] * m
    for c in range(m - 1, -1, -1):
        row = a[c]
        z[c] = (b[c] - sum(map(operator.mul, row[c + 1:m], z[c + 1:]))) / row[c]
    return z


def _newton_step(
    x: list, h: list[list], g: list, free: list[int], fixed: dict[int, float]
) -> list | None:
    """``x`` after one Newton step of S on a face of the slice, or None.

    The coordinates of ``fixed`` (index -> bound) move to their bounds, those
    of ``free`` move by the stationary point dx of the quadratic model under
    sum(dx) = 0: H_FF·dx - λ·1 = -(g_F + H_FO·δ_O), sum(dx_F) = -sum(δ_O),
    with δ_O the moves of the fixed coordinates. A free coordinate that the
    step would push out of [0, 1] joins ``fixed`` at that bound and the step
    is solved again. None when the system is singular or no coordinate stays
    free.
    """
    fixed = dict(fixed)
    while free:
        delta = [(i, bound - x[i]) for i, bound in fixed.items()]
        a = [[h[i][j] for j in free] + [-1.0] for i in free] + [[1.0] * len(free) + [0.0]]
        rhs = [-g[i] - sum(h[i][k] * d for k, d in delta) for i in free]
        rhs.append(-sum(d for _, d in delta))
        z = _solve(a, rhs)
        if z is None:
            return None
        out = {i: 0.0 if x[i] + dx < 0.0 else 1.0
               for i, dx in zip(free, z) if not 0.0 <= x[i] + dx <= 1.0}
        if not out:
            y = list(x)
            for i, dx in zip(free, z):
                y[i] += dx
            for i, bound in fixed.items():
                y[i] = bound
            return y
        fixed.update(out)
        free = [i for i in free if i not in out]
    return None


def _newton(x: list, best: float) -> tuple[list, float]:
    """Newton steps of S on the active face of ``x`` while they raise S.

    The active face frees every coordinate strictly inside (0, 1). When the
    step on it does not raise S, one retry moves the smallest free
    coordinate to 0.
    """
    for _ in range(_NEWTON_MAX_STEPS):
        free = [i for i, v in enumerate(x) if 0.0 < v < 1.0]
        if not free:
            break
        h = _hessian(x)
        # Each triple holding a counts twice in (H x)_a, once per other member.
        g = [0.5 * sum(map(operator.mul, row, x)) for row in h]
        y = _newton_step(x, h, g, free, {})
        if y is None or (v := s_value(y)) <= best:
            smallest = min(free, key=x.__getitem__)
            y = _newton_step(x, h, g, [i for i in free if i != smallest], {smallest: 0.0})
            if y is None or (v := s_value(y)) <= best:
                break
        x, best = y, v
    return x, best


def _sweep(x: list, best: float) -> tuple[float, float]:
    """One pass of pair moves over every i < j, in place; returns the new S
    and the sweep's gain."""
    start = best
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            lo = max(-x[i], x[j] - 1.0)
            hi = min(1.0 - x[i], x[j])
            if hi - lo < 1e-15:
                continue
            d, v = _pair_move_max(x, i, j, lo, hi)
            if v > best:
                x[i] += d
                x[j] -= d
                best = v
    return best, best - start


def _polish(x0: Sequence[float]) -> tuple[list, float]:
    """Local maximum of S on the sum-constrained slice, from ``x0``.

    Pair-move sweeps run until one gains less than ``POLISH_NEWTON_GAIN``;
    Newton steps on the active face then finish the climb. The polish ends on
    a full sweep that gains less than ``POLISH_IMPROVEMENT_TOL``; otherwise it
    sweeps again and retries Newton. Everything works on lists of Python
    floats, with no numpy linear algebra, so the result does not depend on the
    BLAS build.
    """
    x = [float(v) for v in x0]
    best = s_value(x)
    while True:
        best, gain = _sweep(x, best)
        if gain < POLISH_IMPROVEMENT_TOL:
            return x, best
        if gain < POLISH_NEWTON_GAIN:
            x, best = _newton(x, best)


def lemma2_max(n: int) -> Lemma2Result:
    """Maximize S over {0 <= x_i <= 1, sum x_i = 2} numerically.

    Polishes (:func:`_polish`: pair-move sweeps, then Newton steps on the
    active face) the uniform point x_i = 2/n, once. The result is a point the
    search reached, so ``max_s`` bounds the maximum from below. It always
    lands strictly below 1/3; at odd n the maximizer is the uniform point, and
    up to n = 64 every run lands within 1e-15 of (1/3)(1 - 1/n'**2), n' the
    largest odd number <= n. Each sweep and each Newton solve costs about
    n**3, so n above ``LEMMA2_MAX_N`` is rejected before any work.
    """
    if n < 3:
        raise ValueError(f"need at least 3 coordinates, got {n}")
    if n > LEMMA2_MAX_N:
        raise ValueError(f"n={n} is above the supported maximum of {LEMMA2_MAX_N} coordinates")
    x, v = _polish([2.0 / n] * n)
    return Lemma2Result(n=n, max_s=v, argmax=tuple(x))


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
    unit = w if dt_unit == 1.0 else w.scaled(1.0 / dt_unit)  # tau * 1.0 == tau
    s = s_value(interleaving_profile(unit, a, b)) if normalized else None
    return ScheduleAudit(
        pair=(a, b),
        normalized=normalized,
        alpha_sum=alpha,
        beta_sum=beta,
        s=s,
        gap=None if s is None else 1.0 / 3.0 - s,
        verdict="obstructed" if normalized else "mistimed",
    )

