"""Exact evaluation of randomized schedules as mixed-unitary channels.

No sampling noise anywhere: mixtures are enumerated exactly, and stages are
independent and identical, so a K-stage algorithm is the K-fold composition
of its single-stage channel.

:func:`word_stack` evaluates a stage mixture once, to its probabilities and
stacked word unitaries, building each distinct (term, duration) exponential
once; the mean unitary, the expected squared deviation and propagation all
read that stack.

The Lemma-1 bound report is stack-first: :func:`_lemma1_reports` evaluates
n instances whose word stacks share one shape (in the campaign, one scheme,
d and m) with one numpy call per check, product and norm, and
:func:`lemma1_report` is its one-instance case. Every stacked call keeps the operand shapes of one instance, so each
report is bit for bit the one that instance gives alone.

:func:`evolve_states` is the evaluation core. It applies K stages of a
stacked mixture to a stack of density matrices along one of two exact paths:

* **real Liouville powering**: the stage is written in an orthonormal basis
  of Hermitian operators, where its d**2 x d**2 matrix is real. It is built
  from one product over the stacked word unitaries plus an index map, raised
  to the K-th power by binary squaring in float64, and each set bit of K is
  applied to the panel's coordinate columns rather than folded into a full
  product;
* **fused direct propagation**: the panel ``R = [rho_1|...|rho_n]`` (d x nd)
  goes through K stages of ``rho' = sum_w p_w U_w (U_w rho)^dagger`` (valid
  for Hermitian rho), two large products and one block conjugate-transpose
  copy per stage.

The path is the one with the smaller flop count, a pure function of
(d, mixture size, panel size, K); it never depends on timing or settings.

:func:`mixture_superoperator`, :func:`channel_power` and
:func:`apply_channel` are the complex reference: plain d**2 x d**2 arrays
acting on density matrices stacked column by column, so conjugation by U is
kron(conj(U), U), as A @ rho @ B stacks to kron(B.T, A) applied to stacked rho.

Envelope: dim <= 64 and, for alg2, m <= 6 (720 words per stage).
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .config import CHANNEL_OUTPUT_ATOL
from .hamiltonians import TermSet, total
from .matkernel import (
    DensityMatrix,
    _require_densities,
    expm_hermitian,
    spectral_norms,
    trace_norms,
)
from .schedules import (
    UnitaryMixture,
    _stacked_spectra,
    _word_plan,
    _word_unitaries,
    word_unitary,
)

__all__ = [
    "BoundReport",
    "apply_channel",
    "channel_power",
    "evolve_states",
    "exact_evolution",
    "expected_sq_deviation",
    "lemma1_report",
    "mean_unitary",
    "mixture_superoperator",
    "word_stack",
]


def exact_evolution(ts: TermSet, t: float) -> np.ndarray:
    """The target unitary exp(-i (sum of terms) t)."""
    return expm_hermitian(total(ts), t)


def mixture_superoperator(ts: TermSet, mix: UnitaryMixture) -> np.ndarray:
    """sum_w p_w kron(conj(U_w), U_w); trace preserving by construction."""
    d = ts.dim
    s = np.zeros((d * d, d * d), dtype=complex)
    for p, w in mix.entries:
        u = word_unitary(ts, w)
        s += p * np.kron(u.conj(), u)
    return s


def channel_power(s: np.ndarray, k: int) -> np.ndarray:
    """The channel composed with itself ``k`` times; k = 0 gives the identity."""
    if k < 0:
        raise ValueError(f"composition count must be >= 0, got {k}")
    return np.linalg.matrix_power(s, k)


def apply_channel(s: np.ndarray, rho: DensityMatrix) -> DensityMatrix:
    """Apply the channel to a state; the output is validated as a state."""
    d = rho.dim
    if s.shape != (d * d, d * d):
        raise ValueError(f"channel of shape {s.shape} does not act on states of dim {d}")
    out = (s @ rho.mat.flatten(order="F")).reshape((d, d), order="F")
    return DensityMatrix(out, atol=CHANNEL_OUTPUT_ATOL)


# Direct propagation splits the mixture into word blocks so the (words*d) x
# (n*d) intermediate stays under this many complex entries (32 MB).
_DIRECT_BLOCK_ENTRIES = 2**21

_SQRT2 = float(np.sqrt(2.0))


def _propagation_path(d: int, n_words: int, n_states: int, stages: int) -> str:
    """Cheaper exact path by flop count: ``"direct"`` or ``"liouville"``.

    Direct costs two complex (words*d) x d x (n*d) products per stage;
    Liouville costs one complex build product, a real d**2 squaring per extra
    bit of ``stages`` and a real application to the n coordinate columns per
    set bit. Ties go to direct, which builds nothing.
    """
    direct = stages * 16 * n_words * n_states * d**3
    liouville = (
        (stages.bit_length() - 1) * 2 * d**6
        + 8 * n_words * d**4
        + bin(stages).count("1") * 2 * n_states * d**4
    )
    return "direct" if direct <= liouville else "liouville"


def word_stack(ts: TermSet, mix: UnitaryMixture) -> tuple[np.ndarray, np.ndarray]:
    """Mixture probabilities (M,) and word unitaries stacked to (M, d, d).

    Each distinct (term, duration) exponential is built once.
    """
    words, slots = _word_plan([w for _, w in mix.entries], ts.m)
    taus = [[tau for _, tau in slots]]
    probs = np.array([p for p, _ in mix.entries])
    return probs, _word_unitaries(*_stacked_spectra(ts), words, slots, taus)[0]


def _evolve_direct(probs: np.ndarray, us: np.ndarray, stages: int, rhos: np.ndarray) -> np.ndarray:
    """K stages of rho -> sum_w p_w U_w (U_w rho)^dagger on the whole panel.

    Leading batch axes of ``probs`` (..., M), ``us`` (..., M, d, d) and
    ``rhos`` (..., n, d, d) are independent problems; every product keeps
    the operand shapes of one problem, so each gives its unbatched bits.
    """
    *batch, n_words, d, _ = us.shape
    n = rhos.shape[-3]
    block = max(1, _DIRECT_BLOCK_ENTRIES // (n * d * d))
    pieces = []
    for lo in range(0, n_words, block):
        u = us[..., lo : lo + block, :, :]
        weighted = np.swapaxes(probs[..., lo : lo + block, None, None] * u, -3, -2)
        pieces.append((u.reshape(*batch, -1, d), weighted.reshape(*batch, d, -1)))
    r = np.swapaxes(rhos, -3, -2).reshape(*batch, d, n * d)  # [rho_1|...|rho_n]
    for _ in range(stages):
        acc = None
        for ustack, weighted in pieces:
            z = ustack @ r  # blocks U_w rho_j
            zh = np.swapaxes(z.reshape(*batch, -1, d, n, d), -3, -1).conj()
            term = weighted @ zh.reshape(*batch, -1, n * d)
            acc = term if acc is None else acc + term
        r = acc
    return np.swapaxes(r.reshape(*batch, d, n, d), -3, -2).copy()


@lru_cache(maxsize=None)
def _basis_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (a, b) of the Hermitian basis, read-only: the diagonal
    ``first[:d] == second[:d] == arange(d)``, then ``triu_indices(d, 1)``."""
    iu, ju = np.triu_indices(d, 1)
    first = np.concatenate([np.arange(d), iu])
    second = np.concatenate([np.arange(d), ju])
    first.setflags(write=False)
    second.setflags(write=False)
    return first, second


def _liouville_matrix(probs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Real matrix of the stage in the Hermitian basis of :func:`_to_coords`.

    Entry (k, l) is Tr(B_k Phi(B_l)). With G = X^T conj(X) for the rows X_w,
    sqrt(p_w) U_w flattened row by row, Phi(B)[a, b] = sum_{c,e} G[ac, be]
    B[c, e], so only an index map over the diagonal and upper pairs remains.
    """
    n_words, d, _ = us.shape
    x = np.sqrt(probs)[:, None] * us.reshape(n_words, d * d)
    g = (x.T @ x.conj()).reshape(d, d, d, d)  # g[a, c, b, e]
    first, second = _basis_pairs(d)
    a, b = first[:, None], second[:, None]  # output entry (a, b)
    c, e = first[None, :], second[None, :]  # input matrix unit E_ce
    f, f_swap = g[a, c, b, e], g[a, e, b, c]  # Phi(E_ce), Phi(E_ec) at (a, b)
    fu, fs = f[:, d:], f_swap[:, d:]
    image = np.concatenate(
        [f[:, :d], (fu + fs) / _SQRT2, 1j * (fu - fs) / _SQRT2], axis=1
    )  # image[(a, b), l] = Phi(B_l)[a, b]
    return np.concatenate([image[:d].real, _SQRT2 * image[d:].real, _SQRT2 * image[d:].imag])


def _to_coords(rhos: np.ndarray) -> np.ndarray:
    """Hermitian (n, d, d) stack to real (d**2, n) coordinates.

    The orthonormal basis is E_aa, then (E_ab + E_ba)/sqrt2 and
    i(E_ab - E_ba)/sqrt2 over a < b, so the coordinates are the diagonal,
    sqrt2 Re rho_ab and sqrt2 Im rho_ab.
    """
    d = rhos.shape[1]
    first, second = _basis_pairs(d)
    iu, ju = first[d:], second[d:]
    upper = _SQRT2 * rhos[:, iu, ju]
    diag = rhos[:, first[:d], first[:d]].real
    return np.concatenate([diag, upper.real, upper.imag], axis=1).T


def _from_coords(coords: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`_to_coords`; the output is exactly Hermitian."""
    n = coords.shape[1]
    first, second = _basis_pairs(d)
    iu, ju = first[d:], second[d:]
    n_upper = len(iu)
    out = np.zeros((n, d, d), dtype=complex)
    out[:, first[:d], first[:d]] = coords[:d].T
    upper = (coords[d : d + n_upper] + 1j * coords[d + n_upper :]).T / _SQRT2
    out[:, iu, ju] = upper
    out[:, ju, iu] = upper.conj()
    return out


def _evolve_liouville(probs: np.ndarray, us: np.ndarray, stages: int, rhos: np.ndarray) -> np.ndarray:
    """K stages by binary powering of the real Liouville matrix."""
    power = _liouville_matrix(probs, us)
    coords = _to_coords(rhos)
    k = stages
    while True:
        if k & 1:
            coords = power @ coords
        k >>= 1
        if not k:
            break
        power = power @ power
    return _from_coords(coords, us.shape[1])


def evolve_states(probs: np.ndarray, us: np.ndarray, stages: int, rhos) -> np.ndarray:
    """Apply ``stages`` independent copies of a stacked stage to each state.

    ``(probs, us)`` is a :func:`word_stack`. ``rhos`` is a stack of Hermitian
    (n, d, d) matrices, usually density matrices; the result has the same
    shape. The exact path, real Liouville powering or fused direct
    propagation, is the one with the smaller flop count for
    (d, words, n, stages); both agree to rounding.
    """
    stages = operator.index(stages)
    if stages < 1:
        raise ValueError(f"stage count must be >= 1, got {stages}")
    n_words, d, _ = us.shape
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.ndim != 3 or rhos.shape[1:] != (d, d):
        raise ValueError(
            f"states must be stacked as (n, {d}, {d}), got shape {rhos.shape}"
        )
    if _propagation_path(d, n_words, rhos.shape[0], stages) == "direct":
        return _evolve_direct(probs, us, stages, rhos)
    return _evolve_liouville(probs, us, stages, rhos)


def mean_unitary(probs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Probability-weighted mean of stacked word unitaries (generally not
    unitary), summed in entry order. Leading batch axes of ``probs``
    (..., M) and ``us`` (..., M, d, d) give one mean each."""
    out = np.zeros(us.shape[:-3] + us.shape[-2:], dtype=complex)
    for j in range(us.shape[-3]):
        out += probs[..., j, None, None] * us[..., j, :, :]
    return out


def _sq_deviations(probs: np.ndarray, us: np.ndarray, u0: np.ndarray) -> list[float]:
    """:func:`expected_sq_deviation` of each of n problems, stacked as probs
    (n, M), words (n, M, d, d) and references (n, d, d); all the norms come
    from one stacked SVD."""
    n, n_words, d, _ = us.shape
    norms = spectral_norms((us - u0[:, None]).reshape(-1, d, d))
    return [
        float(sum(p * x**2 for p, x in zip(row, norms[i * n_words : (i + 1) * n_words])))
        for i, row in enumerate(probs.tolist())
    ]


def expected_sq_deviation(probs: np.ndarray, us: np.ndarray, u0: np.ndarray) -> float:
    """sum_w p_w ||U_w - U0||^2 in the spectral norm, over stacked words,
    summed in entry order."""
    u0 = np.asarray(u0, dtype=complex)
    if u0.shape != us.shape[1:]:
        raise ValueError(f"reference unitary has shape {u0.shape}, expected {us.shape[1:]}")
    return _sq_deviations(probs[None], us[None], u0[None])[0]


@dataclass(frozen=True)
class BoundReport:
    """Trace-distance error bound versus what a run actually produced.

    ``bound = input_dist + 2 * mean_dev + sq_dev`` dominates the observed
    increase in trace distance; ``observed`` is clamped at zero for reporting
    while ``observed_raw`` keeps the (possibly microscopically negative)
    floating-point value.
    """

    mean_dev: float
    sq_dev: float
    input_dist: float
    bound: float
    observed: float
    observed_raw: float

    def to_json(self) -> dict:
        return asdict(self)


def _require_pure(psi0s: np.ndarray) -> None:
    for purity in np.trace(psi0s @ psi0s, axis1=1, axis2=2).real.tolist():
        if abs(purity - 1.0) > 1e-8:
            raise ValueError(f"psi0 must be a pure state, got purity {purity:.6f}")


def _lemma1_reports(
    u0: np.ndarray, probs: np.ndarray, us: np.ndarray, rho0s: np.ndarray, psi0s: np.ndarray
) -> list[BoundReport]:
    """:func:`lemma1_report` of n instances at once, each value bit for bit.

    Instance i has the exact evolution ``u0[i]`` (d, d), the word stack
    ``(probs[i], us[i])`` of its mixture and validated states ``rho0s[i]``
    and pure ``psi0s[i]``. Every check, product and norm runs once on the
    whole (n, ...) stack.
    """
    _require_pure(psi0s)
    mean_dev = spectral_norms(mean_unitary(probs, us) - u0)
    sq_dev = _sq_deviations(probs, us, u0)
    input_dist = trace_norms(rho0s - psi0s)
    # One stage of one state: the direct path, cheaper than Liouville for d >= 2.
    out = _evolve_direct(probs, us, 1, rho0s[:, None])[:, 0]
    target = u0 @ psi0s @ np.swapaxes(u0.conj(), -1, -2)
    _require_densities(np.concatenate([out, target]), CHANNEL_OUTPUT_ATOL)
    reports = []
    for mean, sq, dist, out_dist in zip(mean_dev, sq_dev, input_dist, trace_norms(out - target)):
        observed_raw = out_dist - dist
        reports.append(BoundReport(
            mean_dev=mean,
            sq_dev=sq,
            input_dist=dist,
            bound=dist + 2.0 * mean + sq,
            observed=max(observed_raw, 0.0),
            observed_raw=observed_raw,
        ))
    return reports


def lemma1_report(
    ts: TermSet, mix: UnitaryMixture, t: float, rho0: DensityMatrix, psi0: DensityMatrix
) -> BoundReport:
    """Evaluate the trace-distance error bound for one run of a mixture.

    The reference is the exact evolution over time ``t``; one stack of
    ``mix`` feeds the bound terms and the observed output. A K-stage run of
    a stage over dt is the mixture ``mixture_power(stage, K)`` over K * dt.
    This is the one-instance case of the stacked evaluation that the
    campaign runs.
    """
    if rho0.dim != ts.dim or psi0.dim != ts.dim:
        raise ValueError(
            f"state dims ({rho0.dim}, {psi0.dim}) do not match term-set dim {ts.dim}"
        )
    probs, us = word_stack(ts, mix)
    u0 = exact_evolution(ts, t)
    return _lemma1_reports(u0[None], probs[None], us[None], rho0.mat[None], psi0.mat[None])[0]
