"""Reference evaluations that only the tests use.

Each is a plain, direct form of a value the package computes another way:
step and exact-evolution series, a mixture's mean series, a series evaluated
on matrices, the closed form of S at the uniform point and a term
exponential from a term set's stored spectrum. Tests import them as
``from oracles import ...``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from splitsim.hamiltonians import TermSet
from splitsim.matkernel import _spectral_exp
from splitsim.series import TruncatedSeries, word_series


def exp_step_series(k: int, tau: float, m: int) -> TruncatedSeries:
    """Expansion of exp(-i H_k tau) through degree 3.

    Coefficients: 1 on the identity, -i*tau on (k), -tau^2/2 on (k, k) and
    +i*tau^3/6 on (k, k, k).
    """
    if not 1 <= k <= m:
        raise ValueError(f"symbol {k} outside 1..{m}")
    tau = float(tau)
    coeffs = (1.0 + 0j, complex(-1j * tau), complex(-0.5 * tau**2), complex(1j * tau**3 / 6.0))
    return TruncatedSeries(m=m, coeffs=dict(zip(((), (k,), (k, k), (k, k, k)), coeffs)))


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


def lemma2_uniform_value(n: int) -> float:
    """Closed form (1/3)(1 - 1/n^2) of S at the uniform point, odd n only."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if n % 2 == 0:
        raise ValueError(f"the closed form holds for odd n only, got {n}")
    return (1.0 / 3.0) * (1.0 - 1.0 / n**2)


def term_exp(ts: TermSet, index: int, tau: float) -> np.ndarray:
    """``exp(-i H_index tau)`` (1-based index) from the term set's stored spectrum."""
    return _spectral_exp(*ts.spectra[index - 1], tau)
