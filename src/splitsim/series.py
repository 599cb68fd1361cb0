"""Noncommutative power series in m symbols, truncated at total degree 3.

A :class:`TruncatedSeries` maps ordered symbol words (tuples over 1..m, length
0..3) to complex coefficients; durations are numeric and folded into the
coefficients. Ordered words, not symmetrized monomials, because the ordering
is exactly what the third-order obstruction analysis needs: a positive-time
schedule can never reproduce both aba and bab coefficients of the exact
evolution at once, and the shortfall is a purely combinatorial function of the
schedule's interleaving profile.

The degree-3 truncation is hard-coded; the entire analysis lives at third
order. :func:`word_series` evaluates a word's coefficients exactly, in
integers over the word's common binary denominator, and rounds each once;
:func:`series_mul` folded over :func:`exp_step_series` is the plain
floating-point product it replaces, kept as a reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import SUPPORTED_MAX_TERMS
from .schedules import Word

__all__ = [
    "TruncatedSeries",
    "exact_series",
    "exp_step_series",
    "interleaving_profile",
    "mixture_mean_series",
    "s_value",
    "series_mul",
    "series_to_json",
    "series_to_matrix",
    "third_order_pair_sum",
    "word_series",
]

MAX_DEGREE = 3


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients per ordered symbol word, words no longer than 3."""

    m: int
    coeffs: Mapping[tuple[int, ...], complex]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"symbol count must be >= 1, got {self.m}")
        clean: dict[tuple[int, ...], complex] = {}
        for word, c in self.coeffs.items():
            word = tuple(int(k) for k in word)
            if len(word) > MAX_DEGREE:
                raise ValueError(f"word {word} exceeds the degree-{MAX_DEGREE} truncation")
            if any(not 1 <= k <= self.m for k in word):
                raise ValueError(f"word {word} uses symbols outside 1..{self.m}")
            clean[word] = complex(c)
        clean.setdefault((), 0j)
        object.__setattr__(self, "coeffs", clean)

    def coeff(self, word: Sequence[int]) -> complex:
        return self.coeffs.get(tuple(word), 0j)


def exp_step_series(k: int, tau: float, m: int) -> TruncatedSeries:
    """Expansion of exp(-i H_k tau) through degree 3.

    Coefficients: 1 on the identity, -i*tau on (k), -tau^2/2 on (k, k) and
    +i*tau^3/6 on (k, k, k).
    """
    if not 1 <= k <= m:
        raise ValueError(f"symbol {k} outside 1..{m}")
    return TruncatedSeries(
        m=m, coeffs=dict(zip(((), (k,), (k, k), (k, k, k)), _step_coeffs(float(tau))))
    )


def _step_coeffs(tau: float) -> tuple[complex, complex, complex, complex]:
    """Coefficients of 1, k, kk and kkk in exp(-i H_k tau)."""
    try:
        return 1.0 + 0j, complex(-1j * tau), complex(-0.5 * tau**2), complex(1j * tau**3 / 6.0)
    except OverflowError:
        raise OverflowError(f"step duration {tau!r} overflows its degree-3 coefficient") from None


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Word-concatenation convolution, discarding words longer than 3."""
    if a.m != b.m:
        raise ValueError(f"symbol counts differ: {a.m} vs {b.m}")
    out: dict[tuple[int, ...], complex] = {}
    for wa, ca in a.coeffs.items():
        if ca == 0 and wa:
            continue
        room = MAX_DEGREE - len(wa)
        for wb, cb in b.coeffs.items():
            if len(wb) > room:
                continue
            key = wa + wb
            out[key] = out.get(key, 0j) + ca * cb
    return TruncatedSeries(m=a.m, coeffs=out)


def word_series(w: Word, m: int) -> TruncatedSeries:
    """Expansion of a word's unitary, factors multiplied in operator order.

    The first step of the word is the leftmost factor, matching
    :func:`splitsim.schedules.word_unitary`, so for the two-step word
    ((1, t), (2, t)) the coefficient of (1, 2) is -t**2 and (2, 1) is absent.

    Evaluated exactly: every duration is a binary rational, so with D the
    word's largest denominator each step is an integer t = tau*D. A degree-n
    coefficient is (-i)**n r_n, and the step recurrence runs on the integers
    R1 = r1*D, R2 = 2*r2*D**2 and R3 = 6*r3*D**3. Step (k, t) reads every
    right-hand side before it updates:

        R3[a][b][k] += 3*R2[a][b]*t     R3[a][k][k] += 3*R1[a]*t**2
        R3[k][k][k] += t**3             R2[a][k] += 2*R1[a]*t
        R2[k][k] += t**2                R1[k] += t

    One int/int true division rounds each coefficient correctly. A word is
    present exactly when its exact coefficient is nonzero, even where that
    rounds to 0.0, and ``()`` always is. An OverflowError names a duration
    whose cube overflows, or a coefficient beyond the float range. The cost
    is O(u**2) integer products per step for the word's u distinct symbols.
    """
    alphabet = sorted({k for k, _ in w.steps})
    if alphabet and alphabet[-1] > m:
        raise ValueError(f"word references symbol {alphabet[-1]} but m={m}")
    u = len(alphabet)
    if u > SUPPORTED_MAX_TERMS:  # the dense form holds about u**3 slots
        raise ValueError(f"word uses {u} distinct terms, above the maximum {SUPPORTED_MAX_TERMS}")
    index = {k: i for i, k in enumerate(alphabet)}
    ratios = {tau: tau.as_integer_ratio() for _, tau in w.steps}
    for tau in ratios:
        _step_coeffs(tau)  # names the first duration whose cube overflows
    den = max((d for _, d in ratios.values()), default=1)
    scaled = {tau: num * (den // d) for tau, (num, d) in ratios.items()}
    r1, r2, r3 = [0] * u, [0] * u**2, [0] * u**3
    for k, tau in w.steps:
        k = index[k]
        t = scaled[tau]
        t2 = t * t
        t_3, t2_3, t_2 = 3 * t, 3 * t2, 2 * t
        for ab, v in enumerate(r2):
            r3[ab * u + k] += v * t_3
        for a, v in enumerate(r1):
            ak = a * u + k
            r3[ak * u + k] += v * t2_3
            r2[ak] += v * t_2
        kk = k * u + k
        r3[kk * u + k] += t2 * t
        r2[kk] += t2
        r1[k] += t
    coeffs: dict[tuple[int, ...], complex] = {(): 1.0 + 0j}
    # (-i)**n times the exact value x, for n = 1, 2, 3
    phases = (lambda x: complex(0.0, -x), lambda x: complex(-x, 0.0), lambda x: complex(0.0, x))
    for n, r, scale, phase in zip((1, 2, 3), (r1, r2, r3), (den, 2 * den**2, 6 * den**3), phases):
        for word, v in zip(itertools.product(alphabet, repeat=n), r):
            if v:
                try:
                    coeffs[word] = phase(v / scale)
                except OverflowError:
                    raise OverflowError(f"coefficient of word {word} overflows a float") from None
    return TruncatedSeries(m=m, coeffs=coeffs)


def exact_series(m: int, t: float) -> TruncatedSeries:
    """Expansion of exp(-i (H_1 + ... + H_m) t) through degree 3.

    Every ordered pair gets -t^2/2 and every ordered triple gets +i t^3/6,
    since (-i)^3 / 3! = i/6.
    """
    t = float(t)
    coeffs: dict[tuple[int, ...], complex] = {(): 1.0 + 0j}
    symbols = range(1, m + 1)
    for j in symbols:
        coeffs[(j,)] = -1j * t
    for j in symbols:
        for k in symbols:
            coeffs[(j, k)] = -0.5 * t**2
    for j in symbols:
        for k in symbols:
            for l in symbols:
                coeffs[(j, k, l)] = 1j * t**3 / 6.0
    return TruncatedSeries(m=m, coeffs=coeffs)


def mixture_mean_series(mix, m: int) -> TruncatedSeries:
    """Probability-weighted coefficientwise mean of the entry word series."""
    out: dict[tuple[int, ...], complex] = {}
    for p, w in mix.entries:
        s = word_series(w, m)
        for word, c in s.coeffs.items():
            out[word] = out.get(word, 0j) + p * c
    return TruncatedSeries(m=m, coeffs=out)


def series_to_matrix(s: TruncatedSeries, terms: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate the series on concrete matrices for the symbols."""
    if len(terms) < s.m:
        raise ValueError(f"need {s.m} matrices, got {len(terms)}")
    mats = [np.asarray(t, dtype=complex) for t in terms]
    d = mats[0].shape[0]
    out = np.zeros((d, d), dtype=complex)
    for word, c in s.coeffs.items():
        if c == 0:
            continue
        prod = np.eye(d, dtype=complex)
        for k in word:
            prod = prod @ mats[k - 1]
        out += c * prod
    return out


def third_order_pair_sum(s: TruncatedSeries, a: int, b: int) -> float:
    """Combined aba + bab third-order coefficient, in units of i * dt^3.

    Returns Re[(coeff(a,b,a) + coeff(b,a,b)) / i]. The exact evolution gives
    exactly 1/3 (1/6 from each ordering); the series of any strictly
    positive-duration word whose terms ``a`` and ``b`` each total one comes
    out below 1/3.
    """
    if a == b:
        raise ValueError("the pair must consist of two distinct terms")
    if max(a, b) > s.m:
        raise ValueError(f"pair ({a}, {b}) outside the series symbols 1..{s.m}")
    combined = s.coeff((a, b, a)) + s.coeff((b, a, b))
    return float((combined / 1j).real)


def interleaving_profile(w: Word, a: int, b: int) -> tuple[float, ...]:
    """Alternating block totals of two terms within a word.

    The word is projected onto ``a`` and ``b``; steps of other terms are
    transparent, so blocks of the same term merge across them. The first
    block belongs to whichever of the two terms the word applies first, and
    consecutive blocks alternate between the terms, so their block counts
    differ by at most one.
    """
    if a == b:
        raise ValueError("the pair must consist of two distinct terms")
    blocks: list[tuple[int, float]] = []
    for k, tau in w.steps:
        if k != a and k != b:
            continue
        if blocks and blocks[-1][0] == k:
            blocks[-1] = (k, blocks[-1][1] + tau)
        else:
            blocks.append((k, tau))
    present = {k for k, _ in blocks}
    if a not in present or b not in present:
        missing = [k for k in (a, b) if k not in present]
        raise ValueError(f"word has no step of term(s) {missing}")
    return tuple(tau for _, tau in blocks)


def s_value(x: Sequence[float] | np.ndarray) -> float:
    """Sum of x_i x_j x_k over triples i<j<k with k-i even and j-i odd.

    On an alternating block profile this is exactly the combined aba + bab
    third-order coefficient of the schedule: the odd/even index parities pick
    out the blocks of the two terms.

    One pass over the middle index: j pairs every opposite-parity entry before
    it with every one after it, so S = sum_j x_j P_j (T_j - P_j), where P_j is
    the running sum of the opposite parity before j and T_j is that parity's
    total. The entries are walked two at a time (even, then odd) as Python
    numbers, so integer points are summed exactly. A list is read as it is,
    with no array made: the Lemma-2 polish evaluates S tens of thousands of
    times on lists.
    """
    if type(x) is not list:
        arr = np.asarray(x)
        if arr.ndim != 1:
            raise ValueError(f"expected a 1-D point, got {arr.ndim} dimensions")
        # Python scalars: the same loop over numpy scalars is several times slower.
        x = arr.tolist()
    even, odd = x[0::2], x[1::2]
    total_e, total_o = sum(even), sum(odd)
    out = run_e = run_o = 0
    for ve, vo in zip(even, odd):
        out = out + ve * run_o * (total_o - run_o)
        run_e = run_e + ve
        out = out + vo * run_e * (total_e - run_e)
        run_o = run_o + vo
    if len(even) > len(odd):
        out = out + even[-1] * run_o * (total_o - run_o)
    return float(out)


def series_to_json(s: TruncatedSeries) -> dict:
    """Stable dump: coefficients sorted by word length, then lexicographic."""
    items = sorted(s.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return {
        "m": s.m,
        "coeffs": [
            {"word": list(word), "re": float(c.real), "im": float(c.imag)}
            for word, c in items
        ],
    }
