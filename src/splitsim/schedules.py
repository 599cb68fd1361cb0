"""Positive-duration exponential schedules.

A :class:`Word` is an ordered list of (term index, duration) steps with every
duration strictly positive. Steps are listed in operator order: the first
step is the LEFTMOST factor of the product, so the last listed step acts on a
state first. Deterministic schedules (plain splitting, palindromic splitting)
and the per-stage mixtures of the two randomized schemes all produce Words;
evaluation to a concrete unitary happens against a TermSet.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .config import PROBABILITY_SUM_ATOL
from .hamiltonians import TermSet
from .matkernel import _spectral_exp

__all__ = [
    "UnitaryMixture",
    "Word",
    "alg1_stage_mixture",
    "alg2_stage_mixture",
    "mixture_power",
    "mixture_to_json",
    "strang_word",
    "trotter_word",
    "word_from_json",
    "word_to_json",
    "word_unitary",
]

_ALG2_MAX_TERMS = 6
_MIXTURE_POWER_CAP = 4096


@dataclass(frozen=True)
class Word:
    """Ordered (term index, duration) steps, durations finite and strictly positive."""

    steps: tuple[tuple[int, float], ...]

    def __post_init__(self):
        clean = []
        for i, (k, tau) in enumerate(self.steps):
            k = int(k)
            tau = float(tau)
            if k < 1:
                raise ValueError(f"step {i} has term index {k}, indices are 1-based")
            if not tau > 0.0:
                raise ValueError(
                    f"step {i} has duration {tau}; every duration must be strictly positive"
                )
            if not math.isfinite(tau):
                raise ValueError(f"step {i} has duration {tau}; every duration must be finite")
            clean.append((k, tau))
        object.__setattr__(self, "steps", tuple(clean))

    def __len__(self) -> int:
        return len(self.steps)

    def term_total(self, index: int) -> float:
        """Total duration spent on one term."""
        return sum(tau for k, tau in self.steps if k == index)

    def max_index(self) -> int:
        return max((k for k, _ in self.steps), default=0)

    def scaled(self, factor: float) -> "Word":
        """Word with every duration multiplied by ``factor`` (> 0)."""
        if not factor > 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return Word(tuple((k, tau * factor) for k, tau in self.steps))


def _word_plan(words, m: int) -> tuple[tuple, tuple]:
    """Words as tuples of slot numbers, and their slots: each distinct
    (term index, duration) step, in order of first appearance.

    The stage mixtures of one scheme and term count share their words'
    slot numbers; only the slot durations differ.
    """
    slots: dict[tuple[int, float], int] = {}
    plan = []
    for w in words:
        bad = w.max_index()
        if bad > m:
            raise ValueError(f"word references term {bad} but the term set has m={m}")
        plan.append(tuple(slots.setdefault(step, len(slots)) for step in w.steps))
    return tuple(plan), tuple(slots)


def _stacked_spectra(ts: TermSet) -> tuple[np.ndarray, np.ndarray]:
    """A term set's spectra as a stack of one: (1, m, d) and (1, m, d, d)."""
    w, v = zip(*ts.spectra)
    return np.array(w)[None], np.array(v)[None]


def _word_unitaries(w: np.ndarray, v: np.ndarray, words: tuple, slots: tuple, taus) -> np.ndarray:
    """Word unitaries (n, M, d, d) of n term sets given by their stacked
    spectra (n, m, d) and (n, m, d, d), all with the words of one
    :func:`_word_plan`; ``taus`` (n, S) holds each set's slot durations.

    Every slot is exponentiated once, and each word multiplies its factors
    in listed order from the identity. Each unitary is bit for bit the one
    its term set and word give alone.
    """
    k = np.array([index for index, _ in slots], dtype=int) - 1
    exps = _spectral_exp(w[:, k], v[:, k], taus)
    n, d = w.shape[0], w.shape[-1]
    eye = np.eye(d, dtype=complex)
    out = np.empty((n, len(words), d, d), dtype=complex)
    for j, word in enumerate(words):
        u = eye
        for slot in word:
            u = u @ exps[:, slot]
        out[:, j] = u
    return out


def word_unitary(ts: TermSet, w: Word) -> np.ndarray:
    """Evaluate a word to its unitary.

    Factors multiply in listed order (first step leftmost), so the product is
    ``exp(-i H_{k_1} t_1) @ exp(-i H_{k_2} t_2) @ ...``; an empty word gives
    the identity. Each distinct factor is built once from the term set's
    stored spectra.
    """
    words, slots = _word_plan([w], ts.m)
    taus = [[tau for _, tau in slots]]
    return _word_unitaries(*_stacked_spectra(ts), words, slots, taus)[0, 0]


def _merge_adjacent(steps: list[tuple[int, float]]) -> tuple[tuple[int, float], ...]:
    merged: list[tuple[int, float]] = []
    for k, tau in steps:
        if merged and merged[-1][0] == k:
            merged[-1] = (k, merged[-1][1] + tau)
        else:
            merged.append((k, tau))
    return tuple(merged)


def trotter_word(ts: TermSet, dt: float, reps: int) -> Word:
    """``reps`` repetitions of one pass (1, dt), (2, dt), ..., (m, dt)."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if reps < 1:
        raise ValueError(f"repetition count must be >= 1, got {reps}")
    one_pass = [(k, dt) for k in range(1, ts.m + 1)]
    return Word(tuple(one_pass * reps))


def strang_word(ts: TermSet, dt: float, reps: int) -> Word:
    """``reps`` repetitions of the half-step palindrome.

    One repetition is (1, dt/2), ..., (m, dt/2), (m, dt/2), ..., (1, dt/2).
    Adjacent equal-index steps are summed, which shortens the word without
    changing its unitary.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if reps < 1:
        raise ValueError(f"repetition count must be >= 1, got {reps}")
    half = dt / 2.0
    ascending = [(k, half) for k in range(1, ts.m + 1)]
    palindrome = ascending + ascending[::-1]
    return Word(_merge_adjacent(palindrome * reps))


@dataclass(frozen=True)
class UnitaryMixture:
    """Finite probability distribution over words; one randomized stage."""

    entries: tuple[tuple[float, Word], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("a mixture needs at least one entry")
        clean = []
        for i, (p, w) in enumerate(self.entries):
            p = float(p)
            if not 0.0 < p <= 1.0:
                raise ValueError(f"entry {i} has probability {p}, outside (0, 1]")
            if not isinstance(w, Word):
                raise ValueError(f"entry {i} holds a {type(w).__name__}, expected a Word")
            clean.append((p, w))
        s = sum(p for p, _ in clean)
        if abs(s - 1.0) > PROBABILITY_SUM_ATOL:
            raise ValueError(f"probabilities sum to {s!r}, expected 1 within {PROBABILITY_SUM_ATOL:.0e}")
        object.__setattr__(self, "entries", tuple(clean))

    def __len__(self) -> int:
        return len(self.entries)


def alg1_stage_mixture(ts: TermSet, dt: float) -> UnitaryMixture:
    """One stage of the single-term scheme (alg1).

    Uniform choice among the m one-step words (k, dt); m consecutive stages
    together approximate the evolution over dt.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    p = 1.0 / ts.m
    return UnitaryMixture(tuple((p, Word(((k, dt),))) for k in range(1, ts.m + 1)))


def alg2_stage_mixture(ts: TermSet, dt: float) -> UnitaryMixture:
    """One stage of the random-ordering scheme (alg2).

    Uniform choice among the m! words that apply every term once, for dt, in
    a uniformly random order. Capped at m <= 6.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if ts.m > _ALG2_MAX_TERMS:
        raise ValueError(
            f"m={ts.m} would enumerate {ts.m}! words; the factorial mixture is capped at "
            f"m <= {_ALG2_MAX_TERMS}"
        )
    perms = list(itertools.permutations(range(1, ts.m + 1)))
    p = 1.0 / len(perms)
    return UnitaryMixture(
        tuple((p, Word(tuple((k, dt) for k in sigma))) for sigma in perms)
    )


def mixture_power(mix: UnitaryMixture, stages: int) -> UnitaryMixture:
    """The mixture of ``stages`` independent copies, expanded explicitly.

    Enumerates every ordered tuple of entries, multiplying probabilities and
    concatenating words with later stages leftmost (a later stage acts later
    in time, hence further left in the operator product). Entry count grows
    as len(mix)**stages and is capped.
    """
    if stages < 1:
        raise ValueError(f"stage count must be >= 1, got {stages}")
    n = len(mix.entries) ** stages
    if n > _MIXTURE_POWER_CAP:
        raise ValueError(
            f"expanding {stages} stages of a {len(mix.entries)}-entry mixture needs {n} words, "
            f"above the cap of {_MIXTURE_POWER_CAP}"
        )
    out = []
    for combo in itertools.product(mix.entries, repeat=stages):
        p = 1.0
        for q, _ in combo:
            p *= q
        steps = itertools.chain.from_iterable(w.steps for _, w in reversed(combo))
        out.append((p, Word(tuple(steps))))
    return UnitaryMixture(tuple(out))


def word_to_json(w: Word) -> dict:
    return {"steps": [[k, tau] for k, tau in w.steps]}


def _is_number(x, kind) -> bool:
    return isinstance(x, kind) and not isinstance(x, bool)


def word_from_json(doc: dict) -> Word:
    """Inverse of :func:`word_to_json`; rejects anything but
    ``{"steps": [[index, duration], ...]}`` with ValueError."""
    if not isinstance(doc, dict) or not isinstance(doc.get("steps"), list):
        raise ValueError('a word must be a JSON object {"steps": [[index, duration], ...]}')
    steps = []
    for i, step in enumerate(doc["steps"]):
        pair = isinstance(step, list) and len(step) == 2
        if not (
            pair and _is_number(step[0], numbers.Integral) and _is_number(step[1], numbers.Real)
        ):
            raise ValueError(f"step {i} must be an [index, duration] pair of numbers, got {step!r}")
        steps.append((int(step[0]), float(step[1])))
    return Word(tuple(steps))


def mixture_to_json(mix: UnitaryMixture) -> dict:
    return {"entries": [{"p": p, "word": word_to_json(w)} for p, w in mix.entries]}

