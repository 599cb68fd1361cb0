"""Noncommutative power series in m symbols, truncated at total degree 3.

A :class:`TruncatedSeries` maps ordered symbol words (tuples over 1..m, length
0..3) to complex coefficients; durations are numeric and folded into the
coefficients. Ordered words, not symmetrized monomials, because the ordering
is exactly what the third-order obstruction analysis needs: a positive-time
schedule can never reproduce both aba and bab coefficients of the exact
evolution at once, and the shortfall is a purely combinatorial function of the
schedule's interleaving profile.

The degree-3 truncation is hard-coded; the entire analysis lives at third
order.
"""

from __future__ import annotations

import cmath
import functools
import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .schedules import Word

__all__ = [
    "InterleavingProfile",
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


@functools.lru_cache(maxsize=8)
def _suffix_plans(u: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple, ...]]:
    """Words over symbols 0..u-1 in (length, lexicographic) order, and the
    rewrite plan of each symbol.

    The plan of symbol k lists every word ending in k, with the prefixes
    whose removed suffix is a power k**r, shortest prefix first:
    (position of the word, ((position of the prefix, r), ...)).
    """
    words = tuple(w for n in range(MAX_DEGREE + 1) for w in itertools.product(range(u), repeat=n))
    pos = {w: q for q, w in enumerate(words)}
    plans: list[list] = [[] for _ in range(u)]
    for q, w in enumerate(words[1:], start=1):
        k, cut = w[-1], len(w) - 1
        while cut and w[cut - 1] == k:  # w[cut:] is the longest suffix k**r
            cut -= 1
        plans[k].append((q, tuple((pos[w[:c]], len(w) - c) for c in range(cut, len(w) + 1))))
    return words, tuple(tuple(p) for p in plans)


def word_series(w: Word, m: int) -> TruncatedSeries:
    """Expansion of a word's unitary, factors multiplied in operator order.

    The first step of the word is the leftmost factor, matching
    :func:`splitsim.schedules.word_unitary`, so for the two-step word
    ((1, t), (2, t)) the coefficient of (1, 2) is -t**2 and (2, 1) gets 0.

    Equal, coefficient for coefficient and bit for bit, to folding
    :func:`series_mul` with :func:`exp_step_series` over the steps, at O(u**2)
    per step for the u distinct symbols of the word. Only the key order
    differs: the fold inserts words in the order its products first reach
    them, while this form lists them in (length, lexicographic) order. That fold adds the
    contributions to a word in the order of the left factor's words, which is
    prefix order, so the dense form rebuilds each word ending in the step's
    symbol k as ``0j`` plus old[prefix] times the step coefficient of k**r,
    shortest prefix first. It skips a prefix that is absent or nonempty with
    value exactly 0, as the fold does. A word that does not end in k keeps its
    value, since ``0j + c * (1 + 0j) == c`` for the finite values the fold
    stores; the exceptions (exact zeros, which the next step drops, and
    non-finite values) are tracked and stepped explicitly. Words over symbols
    the word never uses stay absent.
    """
    if w.max_index() > m:
        raise ValueError(f"word references symbol {w.max_index()} but m={m}")
    alphabet = sorted({k for k, _ in w.steps})
    index = {k: i for i, k in enumerate(alphabet)}
    words, plans = _suffix_plans(len(alphabet))
    c: list[complex | None] = [None] * len(words)  # None: the word is absent
    c[0] = 1.0 + 0j
    unsettled: list[int] = []  # positions holding 0 or a non-finite value
    for k, tau in w.steps:
        e = _step_coeffs(tau)
        k = index[k]
        new = []
        for q, prefixes in plans[k]:
            acc = None
            for p, r in prefixes:
                a = c[p]
                if a is None or (p and a == 0):
                    continue
                acc = 0j + a * e[r] if acc is None else acc + a * e[r]
            new.append((q, acc))
        keep = []
        for q in unsettled:
            if words[q][-1] != k:
                if c[q] == 0:
                    c[q] = None
                else:
                    c[q] = 0j + c[q] * e[0]
                    keep.append(q)
        for q, v in new:
            c[q] = v
            if v is not None and not (v and cmath.isfinite(v)):
                keep.append(q)
        unsettled = keep
    return TruncatedSeries(
        m=m,
        coeffs={tuple(alphabet[i] for i in wd): v for wd, v in zip(words, c) if v is not None},
    )


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


@dataclass(frozen=True)
class InterleavingProfile:
    """Alternating block totals of two chosen terms within a word.

    ``x[0]`` is the leading block and belongs to ``pair[0]``; consecutive
    blocks belong to alternating members of the pair. Steps of other terms
    are transparent: they separate nothing, so blocks of the same term merge
    across them.
    """

    pair: tuple[int, int]
    x: tuple[float, ...]
    total: float

    def __post_init__(self):
        if len(self.pair) != 2 or self.pair[0] == self.pair[1]:
            raise ValueError(f"pair must be two distinct terms, got {self.pair}")
        if any(not xi > 0 for xi in self.x):
            raise ValueError("all block durations must be strictly positive")


def interleaving_profile(w: Word, a: int, b: int) -> InterleavingProfile:
    """Project a word onto two terms and merge into alternating blocks.

    The returned pair is oriented so that ``pair[0]`` owns the leading block.
    The block counts of the two terms can differ by at most one, since blocks
    alternate.
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
    lead = blocks[0][0]
    other = b if lead == a else a
    x = tuple(tau for _, tau in blocks)
    return InterleavingProfile(pair=(lead, other), x=x, total=float(sum(x)))


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
