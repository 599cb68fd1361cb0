"""Exact evaluation of randomized schedules as mixed-unitary channels.

No sampling noise anywhere: mixtures are enumerated exactly, and stages are
independent and identical, so a K-stage algorithm is the K-fold composition
of its single-stage channel.

:func:`word_stack` evaluates a stage mixture once, to its probabilities and
stacked word unitaries, building each distinct (term, duration) exponential
once; the mean unitary, the expected squared deviation and propagation all
read that stack.

The Lemma-1 bound report is stack-first: :func:`_lemma1_reports` evaluates
the instances of one dimension, their word stacks in parts of one word
count, with one stacked norm call per bound term and one density check, and
:func:`lemma1_report` is its one-instance case. Every stacked call keeps the
operand shapes of one instance, so each report is bit for bit the one that
instance gives alone.

:func:`evolve_states` is the evaluation core. It applies K stages of a
stacked mixture to a stack of density matrices along one of two exact paths:

* **real Liouville powering**: the stage is written in an orthonormal basis
  of Hermitian operators, where its d**2 x d**2 matrix is real. It is built
  from row blocks of one product over the stacked word unitaries plus an
  index map, one block at a time straight into the output, raised to the
  K-th power by binary squaring in float64 (alternating between two
  buffers), and each set bit of K is applied to the panel's coordinate
  columns rather than folded into a full product. The path's memory floor
  is those two buffers: it peaks at about two d**2 x d**2 float64 matrices;
* **fused direct propagation**: the panel ``R = [rho_1|...|rho_n]`` (d x nd)
  goes through K stages of ``rho' = sum_w p_w U_w (U_w rho)^dagger`` (valid
  for Hermitian rho), two large products and one block conjugate-transpose
  pass per stage, each written into buffers allocated once per call.

The path is the one with the smaller flop count, a pure function of
(d, mixture size, panel size, K); it never depends on timing or settings.

:func:`mixture_superoperator`, :func:`channel_power` and
:func:`apply_channel` are the complex reference: plain d**2 x d**2 arrays
acting on density matrices stacked column by column, so conjugation by U is
kron(conj(U), U), as A @ rho @ B stacks to kron(B.T, A) applied to stacked rho.

Envelope: dim <= 64 and, for alg2, m <= 6 (720 words per stage).
"""

from __future__ import annotations

import math
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


# Direct propagation splits the mixture into word blocks so each of its two
# (words*d) x (n*d) buffers, the block product and its conjugate transpose,
# stays under this many complex entries (32 MB each).
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
    The block product, its conjugate transpose and the panel are written into
    buffers allocated once per call; ``rhos`` is only read.
    """
    *batch, n_words, d, _ = us.shape
    n = rhos.shape[-3]
    block = min(n_words, max(1, _DIRECT_BLOCK_ENTRIES // (n * d * d)))
    pieces = []
    for lo in range(0, n_words, block):
        u = us[..., lo : lo + block, :, :]
        weighted = np.swapaxes(probs[..., lo : lo + block, None, None] * u, -3, -2)
        pieces.append((u.reshape(*batch, -1, d), weighted.reshape(*batch, d, -1)))
    per_row = math.prod(batch) * n * d
    z_buf, zh_buf = (np.empty(block * d * per_row, dtype=complex) for _ in range(2))
    panels = [np.empty((*batch, d, n * d), dtype=complex) for _ in range(2)]
    term = np.empty_like(panels[0]) if len(pieces) > 1 else None
    r = np.swapaxes(rhos, -3, -2).reshape(*batch, d, n * d)  # [rho_1|...|rho_n]
    for stage in range(stages):
        out = panels[stage % 2]
        for i, (ustack, weighted) in enumerate(pieces):
            rows = ustack.shape[-2]
            z = z_buf[: rows * per_row].reshape(*batch, rows, n * d)
            np.matmul(ustack, r, out=z)  # blocks U_w rho_j
            zh = zh_buf[: z.size].reshape(*batch, rows // d, d, n, d)
            np.conjugate(np.swapaxes(z.reshape(zh.shape), -3, -1), out=zh)
            np.matmul(weighted, zh.reshape(z.shape), out=out if i == 0 else term)
            if i:
                out += term
        r = out
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


# The Liouville build takes G in row blocks of at most this many complex
# entries (128 KB; a block's temporaries are a few times that): d <= 9 is one
# block, and from d = 16 on the temporaries stay below the d**2 x d**2 output.
_LIOUVILLE_BLOCK_ENTRIES = 2**13


@lru_cache(maxsize=None)
def _liouville_blocks(d: int) -> tuple:
    """Read-only index maps of :func:`_liouville_matrix`: ``(columns, blocks)``.

    ``columns`` (d**2, 1) holds each input's offset c*d**2 + e in a block of
    G: E_cc, then E_ce and E_ec over the upper pairs c < e. A block covers the
    first indices a0 <= a < a1 and is ``(a0, a1, s0, s1, rows)``. Its output
    rows are the diagonal rows a0:a1, then the upper rows d+s0:d+s1 and their
    imaginary twins, and ``rows`` (1, n_rows) holds each row's offset
    (a - a0)*d**3 + b*d for its basis pair (a, b).
    """
    first, second = _basis_pairs(d)
    iu, ju = first[d:], second[d:]
    columns = np.concatenate([first[:d] * (d * d + 1), iu * d * d + ju, ju * d * d + iu])
    step = max(1, _LIOUVILLE_BLOCK_ENTRIES // d**3)
    blocks = []
    for a0 in range(0, d, step):
        a1 = min(a0 + step, d)
        s0, s1 = (a * (2 * d - a - 1) // 2 for a in (a0, a1))  # upper pairs before a
        pairs = np.r_[a0:a1, d + s0 : d + s1]
        rows = (first[pairs] - a0) * d**3 + second[pairs] * d
        rows.setflags(write=False)
        blocks.append((a0, a1, s0, s1, rows[None]))
    columns.setflags(write=False)
    return columns[:, None], tuple(blocks)


def _liouville_matrix(probs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Real matrix of the stage in the Hermitian basis of :func:`_to_coords`.

    Entry (k, l) is Tr(B_k Phi(B_l)). With G = X^T conj(X) for the rows X_w,
    sqrt(p_w) U_w flattened row by row, Phi(B)[a, b] = sum_{c,e} G[ac, be]
    B[c, e], so only an index map over the diagonal and upper pairs remains.

    G is built one block of first indices a at a time, as row blocks of one
    product (bit for bit its rows), so the build holds only the output and
    one block's temporaries. A block's output rows are contiguous: its
    diagonal rows, then a run of upper rows and its imaginary twin. One
    gather per block takes Phi(E_cc), Phi(E_ce) and Phi(E_ec) at those rows'
    pairs, one input per row; the symmetric and antisymmetric images are
    formed in place on those contiguous rows (numpy buffers strided
    operands), and each row run is copied straight into the output.
    """
    n_words, d, _ = us.shape
    x = np.sqrt(probs)[:, None] * us.reshape(n_words, d * d)
    xt, xc = x.T, x.conj()
    n_upper = d * (d - 1) // 2
    columns, blocks = _liouville_blocks(d)
    out = np.empty((d * d, d * d))
    for a0, a1, s0, s1, rows in blocks:
        # the block's rows of G, g[(a - a0)*d + c, b*d + e], gathered to
        # image[l, row] = Phi(B_l) at the row's pair
        image = (xt[a0 * d : a1 * d] @ xc).reshape(-1)[columns + rows]
        fu, fs = image[d : d + n_upper], image[d + n_upper :]
        anti = np.subtract(fu, fs)
        np.add(fu, fs, out=fu)
        np.multiply(1j, anti, out=fs)
        image[d:] /= _SQRT2
        n_diag = a1 - a0
        re, im = out[d + s0 : d + s1], out[d + n_upper + s0 : d + n_upper + s1]
        out[a0:a1] = image[:, :n_diag].real.T
        re[...] = image[:, n_diag:].real.T
        im[...] = image[:, n_diag:].imag.T
        re *= _SQRT2
        im *= _SQRT2
        del image, anti  # freed before the next block's product
    return out


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
    """K stages by binary powering of the real Liouville matrix; the
    squarings alternate between two buffers, freed before the coordinates
    go back to matrices."""
    coords = _to_coords(rhos)
    power = _liouville_matrix(probs, us)
    spare = np.empty_like(power)
    k = stages
    while True:
        if k & 1:
            coords = power @ coords
        k >>= 1
        if not k:
            break
        power, spare = np.matmul(power, power, out=spare), power
    del power, spare
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


def _sq_deviations(u0: np.ndarray, parts) -> list[float]:
    """:func:`expected_sq_deviation` of n problems in row order, with
    references ``u0`` (n, d, d) and the word stacks of ``parts`` as in
    :func:`_lemma1_reports`; all the norms come from one stacked SVD."""
    d = u0.shape[-1]
    devs = [(us - u0[rows][:, None]).reshape(-1, d, d) for rows, _, us in parts]
    norms = iter(spectral_norms(np.concatenate(devs)))
    out = [0.0] * len(u0)
    for rows, probs, _ in parts:
        for row, p_row in zip(rows, probs.tolist()):
            out[row] = float(sum(p * x**2 for p, x in zip(p_row, norms)))
    return out


def expected_sq_deviation(probs: np.ndarray, us: np.ndarray, u0: np.ndarray) -> float:
    """sum_w p_w ||U_w - U0||^2 in the spectral norm, over stacked words,
    summed in entry order."""
    u0 = np.asarray(u0, dtype=complex)
    if u0.shape != us.shape[1:]:
        raise ValueError(f"reference unitary has shape {u0.shape}, expected {us.shape[1:]}")
    return _sq_deviations(u0[None], [([0], probs[None], us[None])])[0]


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
    u0: np.ndarray, rho0s: np.ndarray, psi0s: np.ndarray, parts
) -> list[BoundReport]:
    """:func:`lemma1_report` of n instances of one dimension, each value bit
    for bit, in row order.

    Instance i has the exact evolution ``u0[i]`` (d, d) and validated states
    ``rho0s[i]`` and pure ``psi0s[i]``. Each part (rows, probs (r, M), us
    (r, M, d, d)) holds the word stacks of the instances ``rows``; every
    instance is in one part, and M may differ between parts. The means, the
    word deviations, the input differences and the outputs each take one
    stacked norm call, and one density check covers outputs and targets.
    """
    _require_pure(psi0s)
    means, out = np.empty_like(u0), np.empty_like(rho0s)
    for rows, probs, us in parts:
        means[rows] = mean_unitary(probs, us)
        # One stage of one state: the direct path, cheaper than Liouville for d >= 2.
        out[rows] = _evolve_direct(probs, us, 1, rho0s[rows][:, None])[:, 0]
    mean_dev = spectral_norms(means - u0)
    sq_dev = _sq_deviations(u0, parts)
    input_dist = trace_norms(rho0s - psi0s)
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
    parts = [([0], probs[None], us[None])]
    return _lemma1_reports(u0[None], rho0.mat[None], psi0.mat[None], parts)[0]
