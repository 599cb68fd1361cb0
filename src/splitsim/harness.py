"""Experiment driver: convergence sweeps, slope fits, bound campaigns and
cost-scaling cross-checks.

Error statistic everywhere: the maximum trace distance over a fixed panel of
16 seeded pure input states. That is cheap, reproducible, and a lower bound
on the worst-case error. Deterministic segment words are raised to the K-th
power and each evolved vector b is compared with its target a in closed form,
``Tr| |b><b| - |a><a| | = 2 ||b - <a|b> a||`` for unit a and b. Randomized
stages go through :func:`splitsim.channels.evolve_states`, which picks real
Liouville powering or fused direct propagation of the whole panel by flop
count; both are exact evaluations of the full schedule.

Envelope: dim <= 64 (checked by :class:`RunConfig` before anything is
allocated), alg2 m <= 6, scaling eps >= 1e-8 and k_cap <= 2**22.

Cost cross-checks find, per cell, the smallest K with panel error <= eps by
doubling from K = 1 and then bisecting. There is one evaluator and one probe
log per (scheme, t), shared by every cell at that t, so no K is probed twice.
An outcome "error(k) > eps" comes from the probe at k or from a logged probe
outside a relative band of 1e-3 around eps, which certifies every smaller
(above the band) or larger (below it) k; the error's measured wobble about a
local power law is at most 3.6e-5, so this is the K a probe at every step
finds. Each cell is then checked on probed values, error(K) <= eps <
error(K - 1), and walked again with a probe at every step if the check fails.

The Lemma-1 campaign (:func:`lemma1_campaign`) has two layers: a shard
draws its instances in chunks of 500 and groups each chunk by dimension, and
each dimension is evaluated as one stack, with one stage build per (d, m,
scheme). Every report is bit for bit the one its instance gives alone.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import os
import pickle
import signal
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace
from typing import NamedTuple, NoReturn

import numpy as np

from .config import (
    COMMUTING_ERROR_FLOOR,
    DENSITY_ATOL,
    DOMINANCE_SLACK,
    SCALING_MAX_K_CAP,
    SCALING_MIN_EPS,
    SUPPORTED_MAX_DIM,
    SUPPORTED_MAX_PANEL,
    SUPPORTED_MAX_TERMS,
)
from .channels import _lemma1_reports, evolve_states, exact_evolution, word_stack
from .hamiltonians import (
    TermSet,
    _random_term_stack,
    _term_spectra,
    _totals,
    random_termset,
    spin_chain_termset,
    termset_to_json,
)
from .matkernel import (
    _expm_hermitians,
    _pure_densities,
    _require_densities,
    spectral_norm,
    trace_norms,
)
from .schedules import (
    UnitaryMixture,
    _word_plan,
    _word_unitaries,
    alg1_stage_mixture,
    alg2_stage_mixture,
    mixture_to_json,
    strang_word,
    trotter_word,
)

__all__ = [
    "CampaignReport",
    "RunConfig",
    "SCHEMES",
    "ScalingConfig",
    "ScalingReport",
    "SchemeEvaluator",
    "SweepResult",
    "fit_loglog",
    "k_list_errors",
    "lemma1_campaign",
    "scaling_cross_check",
    "stable_json_dumps",
    "state_panel",
    "sweep_error_vs_K",
]

SCHEMES = ("trotter", "strang", "alg1", "alg2")
# One stage of each scheme over a step dt; the deterministic schemes are
# one-word mixtures.
_STAGE_MIXTURES = {
    "trotter": lambda ts, dt: UnitaryMixture(((1.0, trotter_word(ts, dt, 1)),)),
    "strang": lambda ts, dt: UnitaryMixture(((1.0, strang_word(ts, dt, 1)),)),
    "alg1": alg1_stage_mixture,
    "alg2": alg2_stage_mixture,
}

_PANEL_SIZE = 16
# Bisection certificates (see _bisect_min_k): the relative band around eps
# inside which a probed error decides only its own k, where the warm-up aims
# (in units of the margin) and how many warm-up probes a cell may take.
_CERTIFICATE_MARGIN = 1e-3
_AIM = 1.5
_WARM_UP_PROBES = 6
# A sweep fit of five or more points whose largest-K log residual exceeds the
# tolerance is refitted without the two smallest K, where the preasymptotic
# bend sits. A constant, not a config field: every run fits this way, and no
# workload, tool or example sets another value.
_BEND_RESIDUAL_TOL = 0.25
# Fewest Lemma-1 campaign instances per shard: a campaign shorter than two
# shards' worth runs in process, where forking a worker costs more than it saves.
_MIN_SHARD_INSTANCES = 250
# A shard evaluates its instances in chunks of this many, one stack per
# dimension. Per-stack overhead dominates small chunks and the stacks' memory
# large ones: a 500-instance shard takes 0.18, 0.14, 0.10 and 0.09 s in chunks
# of 64, 125, 250 and 500 (one core, one BLAS thread, 2-vCPU VM), and the
# caller of `bound-check --instances 100000` peaks at 40.0 and 41.0 MB in
# chunks of 250 and 500. A 500-instance shard is one chunk.
_CHUNK_INSTANCES = 500

# Default time grids for the cost cross-check, one per scheme. First-order
# coherent error stops accumulating once ||H|| * t passes the inverse level
# spacings (the leading error generator has no secular part), so the
# first-order pair is probed at short times; the second-order pair needs
# longer times for segment counts large enough that integer rounding does not
# bias the fit. The trotter grid stops at ||H|| * t of about 1 for the
# 3-qubit chain: on 0.05..0.4 its panel fit fell to 1.76-1.79 on 8 of 400
# benchmark panel seeds, on 0.025..0.2 all 400 give 1.88-2.07.
DEFAULT_SCALING_T_GRID = {
    "trotter": (0.025, 0.05, 0.1, 0.2),
    "strang": (2.0, 4.0, 8.0, 16.0),
    "alg1": (0.5, 1.0, 2.0, 4.0),
    "alg2": (1.0, 2.0, 4.0, 8.0),
}
DEFAULT_SCALING_EPS_GRID = (1e-3, 1e-4, 1e-5)
EXPECTED_EXPONENTS = {
    "trotter": (2.0, 1.0),
    "strang": (1.5, 0.5),
    "alg1": (2.0, 1.0),
    "alg2": (1.5, 0.5),
}


def stable_json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _require_int(name: str, value, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _require_finite(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def _require_positive(name: str, value) -> None:
    _require_finite(name, value)
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")


def _require_grid(name: str, values) -> None:
    """``values`` must be a nonempty list of distinct positive finite numbers."""
    if not isinstance(values, (list, tuple)) or not values:
        raise ValueError(f"{name} must be a nonempty list of positive numbers, got {values!r}")
    for v in values:
        _require_positive(f"each {name} entry", v)
    if len(set(values)) != len(values):
        raise ValueError(f"{name} must not repeat a value, got {list(values)!r}")


def _require_qubits(n_qubits) -> None:
    n = _require_int("n_qubits", n_qubits, 2)
    if n >= 64 or 2**n > SUPPORTED_MAX_DIM:
        raise ValueError(
            f"n_qubits={n} gives dim 2**{n}, above the supported maximum {SUPPORTED_MAX_DIM}"
        )


def _require_panel(panel_size) -> None:
    if _require_int("panel_size", panel_size, 1) > SUPPORTED_MAX_PANEL:
        raise ValueError(
            f"panel_size={panel_size} is above the supported maximum {SUPPORTED_MAX_PANEL}"
        )


def _config_from_json(cls, doc):
    """``cls(**doc)`` for a JSON object whose keys all name fields of ``cls``."""
    if not isinstance(doc, dict):
        raise ValueError(f"a {cls.__name__} must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return cls(**doc)


@dataclass(frozen=True)
class RunConfig:
    """One experiment: a scheme, an instance, and a list of segment counts."""

    scheme: str
    t: float
    k_list: tuple[int, ...]
    seed: int = 0
    n_qubits: int | None = None
    jx: float = 1.0
    jz: float = 1.0
    hx: float = 1.0
    d: int = 4
    m: int = 2
    norm_bound: float = 1.0
    panel_size: int = _PANEL_SIZE

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        for name in ("norm_bound", "jx", "jz", "hx"):
            _require_finite(name, getattr(self, name))
        _require_positive("t", self.t)
        # Checked before any instance is built, so nothing oversized is allocated.
        if self.n_qubits is not None:
            _require_qubits(self.n_qubits)
        # A spin chain never reads d or m, so only a random term set caps them.
        for name, cap in (("d", SUPPORTED_MAX_DIM), ("m", SUPPORTED_MAX_TERMS)):
            value = _require_int(name, getattr(self, name), 2)
            if self.n_qubits is None and value > cap:
                raise ValueError(f"{name}={value} is above the supported maximum {cap}")
        _require_int("seed", self.seed, 0)
        _require_panel(self.panel_size)
        if not hasattr(self.k_list, "__iter__"):
            raise ValueError(f"k_list must be a list of integers, got {self.k_list!r}")
        ks = tuple(_require_int("segment count", k, 1) for k in self.k_list)
        if not ks:
            raise ValueError("k_list must be nonempty")
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError(f"k_list must be strictly increasing, got {ks}")
        object.__setattr__(self, "k_list", ks)

    from_json = classmethod(_config_from_json)

    def to_json(self) -> dict:
        return asdict(self)

    def build_termset(self) -> TermSet:
        if self.n_qubits is not None:
            return spin_chain_termset(self.n_qubits, self.jx, self.jz, self.hx)
        return random_termset(self.d, self.m, self.norm_bound, self.seed)


@dataclass(frozen=True)
class ScalingConfig:
    """One cost cross-check: schemes, t and eps grids, and a spin chain.

    ``t_values`` is a list applied to every scheme, a mapping from scheme
    name to its grid, or None for ``DEFAULT_SCALING_T_GRID``. The config
    keeps its own copies of the caller's lists and dicts, grids as tuples.
    """

    t_values: list | dict | None = None
    eps_values: tuple[float, ...] = DEFAULT_SCALING_EPS_GRID
    schemes: tuple[str, ...] = SCHEMES
    fixed_eps: float = 1e-4
    fixed_t: float = 1.0
    n_qubits: int = 2
    couplings: dict = field(default_factory=lambda: {"jx": 1.0, "jz": 1.0, "hx": 1.0})
    seed: int = 7
    panel_size: int = _PANEL_SIZE
    k_cap: int = SCALING_MAX_K_CAP

    def __post_init__(self):
        schemes = self.schemes
        if not isinstance(schemes, (list, tuple)) or not schemes:
            raise ValueError(f"schemes must be a nonempty list of scheme names, got {schemes!r}")
        bad = [s for s in schemes if s not in SCHEMES]
        if bad:
            raise ValueError(f"unknown scheme(s) {bad}, expected names from {SCHEMES}")
        repeated = sorted({s for s in schemes if schemes.count(s) > 1})
        if repeated:
            raise ValueError(f"schemes must not repeat a name, got {repeated} more than once")
        if isinstance(self.t_values, dict):
            bad = [s for s in self.t_values if s not in SCHEMES]
            if bad:
                raise ValueError(f"unknown t_values key(s) {bad}, expected names from {SCHEMES}")
        for scheme in schemes:
            _require_grid(f"t_values[{scheme}]", self.t_grid(scheme))
        _require_grid("eps_values", self.eps_values)
        _require_positive("fixed_eps", self.fixed_eps)
        for name, eps in (("eps_values", min(self.eps_values)), ("fixed_eps", self.fixed_eps)):
            if eps < SCALING_MIN_EPS:
                raise ValueError(f"{name} has {eps!r}, below the eps floor {SCALING_MIN_EPS!r}")
        _require_positive("fixed_t", self.fixed_t)
        _require_qubits(self.n_qubits)
        c = self.couplings
        if not isinstance(c, dict) or set(c) != {"jx", "jz", "hx"}:
            raise ValueError(
                f'couplings must be an object {{"jx": .., "jz": .., "hx": ..}}, got {c!r}'
            )
        for name, value in c.items():
            _require_finite(name, value)
        _require_int("seed", self.seed, 0)
        _require_panel(self.panel_size)
        if _require_int("k_cap", self.k_cap, 1) > SCALING_MAX_K_CAP:
            raise ValueError(f"k_cap={self.k_cap} is above the supported maximum 2**22")
        # Keep copies, so a list the caller changes later cannot skip the checks.
        grids = self.t_values
        if isinstance(grids, dict):
            grids = {s: tuple(g) if isinstance(g, list) else g for s, g in grids.items()}
        elif grids is not None:
            grids = tuple(grids)
        object.__setattr__(self, "t_values", grids)
        object.__setattr__(self, "eps_values", tuple(self.eps_values))
        object.__setattr__(self, "schemes", tuple(schemes))
        object.__setattr__(self, "couplings", dict(c))

    from_json = classmethod(_config_from_json)

    def t_grid(self, scheme: str):
        """The t grid of ``scheme``."""
        if self.t_values is None:
            return DEFAULT_SCALING_T_GRID[scheme]
        if not isinstance(self.t_values, dict):
            return self.t_values
        if scheme not in self.t_values:
            raise ValueError(f"t_values has no grid for scheme {scheme!r}")
        return self.t_values[scheme]


def state_panel(dim: int, n_states: int, seed: int) -> np.ndarray:
    """n_states seeded random pure states, rows of a (n_states, dim) array."""
    rng = np.random.default_rng(seed)
    out = np.empty((n_states, dim), dtype=complex)
    for i in range(n_states):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        out[i] = v / np.linalg.norm(v)
    return out


def _projectors(vecs: np.ndarray) -> np.ndarray:
    """Read-only stack of |v><v| for the rows of ``vecs``."""
    out = vecs[:, :, None] * vecs.conj()[:, None, :]
    out.setflags(write=False)
    return out


class SchemeEvaluator:
    """Panel-max error of one scheme at any segment count, target cached.

    For deterministic schemes the evolved panel state is U_seg**K applied to
    the vector, compared with its target in closed form; for randomized
    schemes the panel projectors go through :func:`evolve_states` for the
    stage count and the trace norms of the differences are taken.
    """

    def __init__(self, ts: TermSet, scheme: str, t: float, panel: np.ndarray):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        self.ts = ts
        self.scheme = scheme
        self.t = float(t)
        self.panel = panel
        self._target_vecs = panel @ exact_evolution(ts, t).T  # rows U0 v
        if scheme in ("alg1", "alg2"):
            self._panel_projectors = _projectors(panel)
            self._target_projectors = _projectors(self._target_vecs)

    def n_exponentials(self, k: int) -> int:
        m = self.ts.m
        if self.scheme == "strang":
            return k * (2 * m - 2) + 1  # merged palindrome, merged across segments
        return m * k

    def stage_count(self, k: int) -> int:
        return self.ts.m * k if self.scheme == "alg1" else k

    def error(self, k: int) -> float:
        targets = self._target_vecs
        probs, us = word_stack(self.ts, _STAGE_MIXTURES[self.scheme](self.ts, self.t / k))
        if self.scheme in ("trotter", "strang"):
            evolved = self.panel @ np.linalg.matrix_power(us[0], k).T  # rows U v
            overlaps = np.einsum("ij,ij->i", targets.conj(), evolved)
            return float(2.0 * np.linalg.norm(evolved - overlaps[:, None] * targets, axis=1).max())
        out = evolve_states(probs, us, self.stage_count(k), self._panel_projectors)
        return max(trace_norms(out - self._target_projectors))


def fit_loglog(points) -> tuple[float, float, float]:
    """Least-squares line through (log x, log y) of positive points, such as
    (K, error) or (t, N); returns (slope, intercept, r2)."""
    pts = [(float(k), float(e)) for k, e in points]
    if len(pts) < 2:
        raise ValueError(f"need at least 2 points for a fit, got {len(pts)}")
    if any(e <= 0 for _, e in pts):
        raise ValueError("all errors must be positive for a log-log fit")
    lx = np.log([k for k, _ in pts])
    ly = np.log([e for _, e in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), float(intercept), float(r2)


@dataclass(frozen=True)
class SweepResult:
    """Error-versus-K sweep with its log-log fit."""

    scheme: str
    t: float
    points: tuple[tuple[int, int, float], ...]  # (K, N_exponentials, error)
    slope: float | None
    intercept: float | None
    r2: float | None
    commuting: bool
    dropped_smallest: int
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)

    def points_csv(self) -> str:
        lines = ["K,N,error"]
        for k, n, e in self.points:
            lines.append(f"{k},{n},{e!r}")
        return "\n".join(lines) + "\n"


def k_list_errors(cfg: RunConfig) -> tuple[TermSet, list[tuple[int, int, float]]]:
    """The config's term set and (K, N_exponentials, error) at each K of its list."""
    ts = cfg.build_termset()
    ev = SchemeEvaluator(ts, cfg.scheme, cfg.t, state_panel(ts.dim, cfg.panel_size, cfg.seed))
    return ts, [(k, ev.n_exponentials(k), ev.error(k)) for k in cfg.k_list]


def sweep_error_vs_K(cfg: RunConfig) -> SweepResult:
    """Evaluate one scheme over the config's K list and fit the decay slope.

    Commuting instances (every error below the floor) are flagged and left
    unfitted. A fit of five or more points whose largest-K log residual
    exceeds ``_BEND_RESIDUAL_TOL`` is retried without the two smallest K
    points (preasymptotic bend); the result records how many were dropped.
    """
    ts, points = k_list_errors(cfg)

    meta = {
        "d": ts.dim,
        "m": ts.m,
        "seed": cfg.seed,
        "n_qubits": cfg.n_qubits,
        "couplings": None if cfg.n_qubits is None else {"jx": cfg.jx, "jz": cfg.jz, "hx": cfg.hx},
        "norm_bound": None if cfg.n_qubits is not None else cfg.norm_bound,
        "term_norms": [spectral_norm(term) for term in ts.terms],
        "panel_size": cfg.panel_size,
    }

    commuting = all(e < COMMUTING_ERROR_FLOOR for _, _, e in points)
    slope = intercept = r2 = None
    dropped = 0
    if not commuting and len(points) >= 3:
        slope, intercept, r2 = fit_loglog([(k, e) for k, _, e in points])
        if len(points) >= 5:
            k_last, e_last = points[-1][0], points[-1][2]
            resid_last = abs(np.log(e_last) - (slope * np.log(k_last) + intercept))
            if resid_last > _BEND_RESIDUAL_TOL:
                slope, intercept, r2 = fit_loglog([(k, e) for k, _, e in points[2:]])
                dropped = 2
    return SweepResult(
        scheme=cfg.scheme,
        t=cfg.t,
        points=tuple(points),
        slope=slope,
        intercept=intercept,
        r2=r2,
        commuting=commuting,
        dropped_smallest=dropped,
        meta=meta,
    )


@dataclass(frozen=True)
class CampaignReport:
    """Outcome of a randomized bound-dominance campaign."""

    n_instances: int
    seed: int
    violations: tuple[dict, ...]
    best_observed_over_bound: float
    best_observed_over_mean_dev: float
    best_observed_over_sq_dev: float
    n_controls: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {**asdict(self), "ok": self.ok, "n_violations": len(self.violations)}


class _Instance(NamedTuple):
    """One campaign instance's inputs, as drawn from the campaign generator.

    A commuting control has ``scheme == "control"``, two real ``diagonals``
    and no ``seed`` or ``m``; a random instance builds its term set from
    ``seed``. ``mixing`` is None for a pure input state, else the weight and
    the complex Gaussian matrix of the mixed part.
    """

    index: int
    scheme: str
    d: int
    m: int | None
    seed: int | None
    dt: float
    state_seed: int
    diagonals: tuple | None = None
    mixing: tuple | None = None


def _draw_instance(rng: np.random.Generator, index: int) -> _Instance:
    """Draws instance ``index``; every 25th instance is a commuting control.

    The control is diagonal terms under single-word plain splitting: the
    schedule reproduces the evolution exactly, so both the bound and the
    observed increase must vanish.
    """
    if index % 25 == 24:
        d = int(rng.integers(2, 5))
        diagonals = tuple(rng.standard_normal(d) for _ in range(2))
        dt = float(rng.uniform(0.05, 0.2))
        state_seed = int(rng.integers(0, 2**31))
        return _Instance(index, "control", d, None, None, dt, state_seed, diagonals)
    d = int(rng.integers(2, 9))
    m = int(rng.integers(2, 4))
    seed = int(rng.integers(0, 2**31))
    dt = float(rng.uniform(0.01, 0.2))
    scheme = ("alg1", "alg2", "trotter", "strang")[int(rng.integers(0, 4))]
    state_seed = int(rng.integers(0, 2**31))
    mixing = None
    if rng.random() >= 0.5:
        weight = float(rng.uniform(0.0, 0.3))
        mixing = (weight, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return _Instance(index, scheme, d, m, seed, dt, state_seed, mixing=mixing)


def _campaign_states(d: int, insts: list[_Instance]) -> tuple[np.ndarray, np.ndarray]:
    """Validated input states (rho0, psi0) of instances of dimension ``d``,
    each stacked (n, d, d).

    psi0 is the pure state of the instance's ``state_seed``. rho0 is psi0,
    or for a mixed instance (1 - weight) |psi><psi| + weight W, with W the
    unit-trace G G^dagger of its Gaussian matrix G.
    """
    psis = np.array([state_panel(d, 1, inst.state_seed)[0] for inst in insts])
    psi0s = _pure_densities(psis)
    rho0s = psi0s.copy()
    mixed = [i for i, inst in enumerate(insts) if inst.mixing is not None]
    if mixed:
        weight = np.array([insts[i].mixing[0] for i in mixed])[:, None, None]
        g = np.array([insts[i].mixing[1] for i in mixed])
        w = g @ np.swapaxes(g.conj(), -1, -2)
        w /= np.trace(w, axis1=1, axis2=2).real[:, None, None]
        psi = psis[mixed]
        rho0s[mixed] = (1.0 - weight) * (psi[:, :, None] * psi.conj()[:, None, :]) + weight * w
    _require_densities(np.concatenate([psi0s, rho0s[mixed]]), DENSITY_ATOL)
    return rho0s, psi0s


def _evaluate_dimension(d: int, insts: list[_Instance]) -> tuple:
    """Tally (see :func:`_merge_tallies`) of instances of one dimension,
    commuting controls included.

    Term sets and spectra are built once per term count (``m`` None for the
    controls). Each (m, scheme) group builds its stage mixture and word plan
    once, at dt = 1: every slot duration is dt or dt/2, so a row's durations
    are the plan's times its dt, exactly. Exact evolutions, input states and
    bound reports are one stack each; a violation record rebuilds its
    instance's term set and stage mixture.
    """
    groups: dict = {}
    for row, inst in enumerate(insts):
        groups.setdefault(inst.m, []).append(row)
    totals = np.empty((len(insts), d, d), dtype=complex)
    kept, parts = [None] * len(insts), []  # per row: its terms
    for m, rows in groups.items():
        if m is None:
            terms = np.zeros((len(rows), 2, d, d), dtype=complex)
            terms[:, :, range(d), range(d)] = [insts[row].diagonals for row in rows]
        else:
            terms = _random_term_stack(d, m, 1.0, [insts[row].seed for row in rows])
        totals[rows] = _totals(terms)
        w, v = _term_spectra(terms)
        # The stage builders read only the term count, the same for every row.
        count = SimpleNamespace(m=terms.shape[1])
        schemes: dict[str, list[int]] = {}
        for i, row in enumerate(rows):
            kept[row] = terms[i]
            schemes.setdefault(insts[row].scheme, []).append(i)
        for scheme, idx in schemes.items():
            mix = _STAGE_MIXTURES["trotter" if m is None else scheme](count, 1.0)
            words, slots = _word_plan([word for _, word in mix.entries], count.m)
            dts = np.array([insts[rows[i]].dt for i in idx])
            taus = dts[:, None] * np.array([tau for _, tau in slots])
            probs = np.tile([p for p, _ in mix.entries], (len(idx), 1))
            us = _word_unitaries(w[idx], v[idx], words, slots, taus)
            parts.append(([rows[i] for i in idx], probs, us))
    u0 = _expm_hermitians(totals, [inst.dt for inst in insts])
    reports = _lemma1_reports(u0, *_campaign_states(d, insts), parts)
    violations, best = [], [0.0, 0.0, 0.0]
    for inst, terms, rep in zip(insts, kept, reports):
        if rep.observed_raw > rep.bound + DOMINANCE_SLACK:
            ts = TermSet(tuple(terms))
            mix = _STAGE_MIXTURES["trotter" if inst.m is None else inst.scheme](ts, inst.dt)
            violations.append({
                "index": inst.index,
                "scheme": inst.scheme,
                "dt": inst.dt,
                "report": rep.to_json(),
                "termset": termset_to_json(ts),
                "mixture": mixture_to_json(mix),
            })
        if inst.m is not None:
            scales = (rep.bound, rep.mean_dev, rep.sq_dev)
            ratios = (rep.observed / s if s > 1e-12 else 0.0 for s in scales)
            best = [max(b, r) for b, r in zip(best, ratios)]
    return violations, len(groups.get(None, ())), *best


def _merge_tallies(tallies) -> tuple:
    """One tally from several, violation records put in index order.

    A tally is (violation records, number of controls, best observed over
    bound, over mean_dev and over sq_dev); a best ratio is 0.0 where no
    instance has one. Ratios are finite and non-negative, so their maxima do
    not depend on the merge order.
    """
    violations: list[dict] = []
    n_controls = 0
    best = [0.0, 0.0, 0.0]
    for tally_violations, tally_controls, *tally_best in tallies:
        violations += tally_violations
        n_controls += tally_controls
        best = [max(a, b) for a, b in zip(best, tally_best)]
    violations.sort(key=operator.itemgetter("index"))
    return violations, n_controls, *best


def _shard_outcomes(seed: int, start: int, stop: int) -> tuple:
    """Tally of instances start..stop-1 of the campaign at ``seed``.

    Draws instances 0..stop-1 from a fresh generator, as an unsharded
    campaign would, and evaluates only the last ones, a chunk of
    ``_CHUNK_INSTANCES`` at a time, one dimension at a time; no more than
    one chunk of drawn instances is kept.
    """
    rng = np.random.default_rng(seed)
    for index in range(start):
        _draw_instance(rng, index)
    tallies = []
    for lo in range(start, stop, _CHUNK_INSTANCES):
        dims: dict[int, list[_Instance]] = {}
        for index in range(lo, min(lo + _CHUNK_INSTANCES, stop)):
            inst = _draw_instance(rng, index)
            dims.setdefault(inst.d, []).append(inst)
        tallies += [_evaluate_dimension(d, insts) for d, insts in dims.items()]
    return _merge_tallies(tallies)


def _shard_count(n_instances: int) -> int:
    """Shards for a campaign: one per usable core, each of at least
    ``_MIN_SHARD_INSTANCES`` instances. Without CPU affinity (not Linux) a
    campaign stays in process."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_instances // _MIN_SHARD_INSTANCES))


def _run_forked_shard(write_fd: int, seed: int, start: int, stop: int) -> NoReturn:
    """Body of a forked shard: pickles (True, its tally) or (False, exception)
    into ``write_fd`` and exits, with status 0 only after a complete dump."""
    status = 1
    try:
        try:
            result = (True, _shard_outcomes(seed, start, stop))
        except BaseException as exc:  # raised again by the caller
            result = (False, exc)
        with open(write_fd, "wb") as pipe:
            pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _evaluate_sharded(n_instances: int, seed: int) -> list[tuple]:
    """Tally of each contiguous shard of the campaign, in order.

    The caller forks one child per shard after the first, evaluates the
    first shard itself and then reads each child's pickled tally from a
    pipe. A child's exception is raised here; a child that ends any other
    way (a signal, a failed dump) raises :class:`ChildProcessError`. Forked
    children keep the caller's numpy error handling, and none outlives this
    call: on any error the uncollected ones are killed and reaped.
    """
    n_shards = _shard_count(n_instances)
    cuts = [n_instances * j // n_shards for j in range(n_shards + 1)]
    children = []  # (first instance, pid, read end of its pipe), not yet reaped
    try:
        for start, stop in zip(cuts[1:], cuts[2:]):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _run_forked_shard(write_fd, seed, start, stop)
            os.close(write_fd)  # so that no later child holds it open
            children.append((start, pid, open(read_fd, "rb")))
        shards = [_shard_outcomes(seed, 0, cuts[1])]
        while children:
            start, pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if status != 0:
                names = {s.value: s.name for s in signal.Signals}
                ending = (
                    f"was killed by {names.get(-status, f'signal {-status}')}"
                    if status < 0
                    else f"exited with status {status}"
                )
                raise ChildProcessError(f"campaign shard from instance {start} {ending}")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            shards.append(value)
        return shards
    finally:
        for _, pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def lemma1_campaign(n_instances: int, seed: int) -> CampaignReport:
    """Random-instance dominance campaign for the trace-distance bound.

    Draws (term set, stage mixture, dt, input state) instances, evaluates the
    bound report for each, and records any instance whose observed increase
    exceeds the bound plus ``DOMINANCE_SLACK``, serialized for reproduction. Also
    tracks the best tightness ratios seen, plus exact commuting controls
    where bound and observed must both vanish.

    Instances are drawn in index order from one generator seeded by
    ``seed``. They are evaluated in contiguous shards, one per usable core
    (``os.sched_getaffinity``), each of at least ``_MIN_SHARD_INSTANCES``:
    the caller takes the first shard and forked children the rest. Each
    shard draws that one seeded stream up to its last instance and
    evaluates its own instances in chunks of ``_CHUNK_INSTANCES``, each
    split by dimension d, commuting controls included. That is two layers:
    :func:`_shard_outcomes` draws and groups, and :func:`_evaluate_dimension`
    evaluates one d. Term sets and spectra are built once per (d, m), the
    stage mixture and its word plan once per (d, m, scheme) at dt = 1 and
    scaled to each instance's dt, and exact evolutions, input states and
    bound reports once per d. Every check, decomposition, product and norm
    runs on whole stacks, and each report is bit for bit the one
    :func:`splitsim.channels.lemma1_report` gives for that instance alone. A
    violation record rebuilds its term set and stage mixture. A shard keeps
    at most one chunk of drawn instances, so memory does not grow with
    ``n_instances`` apart from violation records. :func:`_merge_tallies`
    puts violations in index order, so the report is the same for any core
    count; a campaign of fewer than two shards' worth of instances runs in
    process. A shard killed by a signal raises :class:`ChildProcessError`.
    There is no knob for this.
    """
    if n_instances < 1:
        raise ValueError(f"need at least one instance, got {n_instances}")
    _require_int("seed", seed, 0)
    violations, n_controls, *best = _merge_tallies(_evaluate_sharded(n_instances, seed))
    return CampaignReport(
        n_instances=n_instances,
        seed=seed,
        violations=tuple(violations),
        best_observed_over_bound=best[0],
        best_observed_over_mean_dev=best[1],
        best_observed_over_sq_dev=best[2],
        n_controls=n_controls,
    )


def _walk(above, k_cap: int) -> int | None:
    """Doubling from K = 1, then bisection, over the outcomes ``above(k)``.

    ``above(k)`` says whether the error at k exceeds eps. Returns the K where
    the walk ends, or None when the largest power of two <= k_cap is above.
    """
    k = 1
    while above(k):
        k *= 2
        if k > k_cap:
            return None
    lo, hi = max(1, k // 2), k
    while lo < hi:
        mid = (lo + hi) // 2
        if above(mid):
            lo = mid + 1
        else:
            hi = mid
    return hi


class _ProbeLog:
    """Probed errors of one evaluator, shared by every cell at its t.

    Against an eps, a probe whose error is above eps * (1 + margin) certifies
    "above" at every smaller k; one below eps * (1 - margin) certifies
    "reached" at every larger k. Any other k is decided by its own probe.
    """

    def __init__(self, ev: SchemeEvaluator):
        self.ev = ev
        self.values: dict[int, float] = {}

    def probe(self, k: int) -> float:
        if k not in self.values:
            self.values[k] = self.ev.error(k)
        return self.values[k]

    def certificates(self, eps: float) -> tuple[int, float]:
        """Largest k certified above eps (0: none) and smallest k certified
        reached (inf: none)."""
        above = [k for k, e in self.values.items() if e > eps * (1.0 + _CERTIFICATE_MARGIN)]
        reached = [k for k, e in self.values.items() if e < eps * (1.0 - _CERTIFICATE_MARGIN)]
        return max(above, default=0), min(reached, default=math.inf)

    def above(self, k: int, eps: float) -> bool:
        """Outcome at k from a probe: k's own, a certificate, or a new one."""
        if k not in self.values:
            above_cert, reached_cert = self.certificates(eps)
            if k <= above_cert:
                return True
            if k >= reached_cert:
                return False
        return self.probe(k) > eps


def _warm_up(log: _ProbeLog, eps: float, order: float, top: int) -> None:
    """Model-guided probes just outside the certificate band around eps.

    Starts at K = 1. The model is a power law through the probe closest to
    eps (in log error), with slope -order, or the two-point slope of the two
    closest probes once both lie within a factor e**0.5 of eps and that slope
    is within a factor two of -order. From it, aim at error = eps * (1 +-
    ``_AIM`` * margin) until each side holds a certificate no farther from
    its aim than half the aimed width. Never probes beyond ``top``.
    """
    if log.probe(1) <= eps:
        return
    aims = (math.log1p(_AIM * _CERTIFICATE_MARGIN), math.log1p(-_AIM * _CERTIFICATE_MARGIN))
    x_cap = math.log(2.0 * top)  # keeps exp() finite; aims are clamped to top
    for _ in range(_WARM_UP_PROBES):
        gs = {k: math.log(e / eps) for k, e in log.values.items() if e > 0}
        pts = sorted((abs(g), math.log(k), g) for k, g in gs.items())  # closest to eps first
        _, x0, g0 = pts[0]
        slope = -order
        if len(pts) > 1 and pts[1][0] <= 0.5:
            local = (g0 - pts[1][2]) / (x0 - pts[1][1])
            if -2.0 * order <= local <= -0.5 * order:
                slope = local
        ka, kb = (math.exp(min(x0 + (g - g0) / slope, x_cap)) for g in aims)
        slack = max(kb - ka, 1.0) / 2
        above_cert, reached_cert = log.certificates(eps)
        if above_cert < math.floor(ka) - slack:
            k = min(top, math.floor(ka))
        elif reached_cert > math.ceil(kb) + slack:
            k = min(top, math.ceil(kb))
        else:
            return
        if k in log.values:
            return
        log.probe(k)


def _bisect_min_k(log: _ProbeLog, eps: float, k_cap: int) -> tuple[int, float] | None:
    """Smallest K with panel error <= eps, by doubling then bisection.

    The walk is the plain one: K = 1, 2, 4, ... until the error is reached,
    then bisection between the last two powers of two. Each outcome "error
    at k > eps" is read from a probe, but not always from a probe at k: a
    probed error above eps * (1 + margin) decides "above" at every smaller k,
    and one below eps * (1 - margin) decides "reached" at every larger k,
    with ``_CERTIFICATE_MARGIN`` = 1e-3. Within 0.05 % of each bisected K
    of the default grids (n_qubits = 3, panel seeds 2 and 3) the error
    departs from a local power law by at most 3.6e-5 relative (alg1; 8.9e-6
    alg2, 5.2e-6 strang, 1.4e-6 trotter on its grid 0.025..0.2, fitted over
    K +- max(2, 0.05 % of K)), 28 times inside the margin, so the
    walk takes the same path as with a probe at every step. A short warm-up
    (:func:`_warm_up`) places probes just outside the band; its power-law
    model only chooses where to probe. Every probe already in ``log``, from
    earlier cells at the same t, counts as well.

    The result is checked on probed values: error(K) <= eps < error(K - 1)
    (or K = 1), and None only on a probed error above eps at the largest
    power of two <= k_cap. If that check fails, the cell is walked again
    with a probe at every step (logged probes are reused, not repeated).
    Returns (K, error at K), or None when eps is unreachable below the cap.
    """
    top = 1 << (k_cap.bit_length() - 1)
    _warm_up(log, eps, 1.0 / EXPECTED_EXPONENTS[log.ev.scheme][1], top)
    k = _walk(lambda j: log.above(j, eps), k_cap)
    if k is None:
        bracketed = log.probe(top) > eps
    else:
        bracketed = log.probe(k) <= eps and (k == 1 or log.probe(k - 1) > eps)
    if not bracketed:
        k = _walk(lambda j: log.probe(j) > eps, k_cap)
    return None if k is None else (k, log.values[k])


@dataclass(frozen=True)
class ScalingReport:
    """Fitted N(t) and N(1/eps) exponents per scheme, with all cells."""

    per_scheme: dict
    fixed_eps: float
    fixed_t: float

    def to_json(self) -> dict:
        return asdict(self)


def scaling_cross_check(cfg: ScalingConfig) -> ScalingReport:
    """Minimum exponential count versus t and versus 1/eps, with fits.

    For each scheme, bisects the smallest K reaching the target error in
    every cell: (t, ``fixed_eps``) for each t of its grid, then
    (``fixed_t``, eps) for each eps. Fits log N against log t (expected
    exponent 2 for the first-order pair, 3/2 for the second-order pair) and
    against log(1/eps) (expected 1 and 1/2). The cells at ``fixed_t`` share
    one evaluator and its probe log, built before the scheme's cells; a cell
    at any other t is the only one there and gets a log that lives only for
    that cell, so at most two logs are alive. Unreachable cells are
    reported, not raised.
    """
    ts = spin_chain_termset(cfg.n_qubits, **cfg.couplings)
    panel = state_panel(ts.dim, cfg.panel_size, cfg.seed)
    per_scheme: dict = {}
    for scheme in cfg.schemes:
        t_grid = cfg.t_grid(scheme)
        cells: dict = {"t": [], "eps": []}
        failures = []
        fixed = _ProbeLog(SchemeEvaluator(ts, scheme, cfg.fixed_t, panel))
        grid = [("t", t, t, cfg.fixed_eps) for t in t_grid]
        grid += [("eps", eps, cfg.fixed_t, eps) for eps in cfg.eps_values]
        for axis, x, t, eps in grid:
            # t grids do not repeat, so a t other than fixed_t has this one cell.
            found = _bisect_min_k(
                fixed if t == cfg.fixed_t else _ProbeLog(SchemeEvaluator(ts, scheme, t, panel)),
                eps,
                cfg.k_cap,
            )
            if found is None:
                failures.append({"t": t, "eps": eps, "reason": "k_cap"})
                continue
            k, achieved = found
            # N depends on the scheme and m only, not on t.
            cells[axis].append(
                {axis: x, "K": k, "N": fixed.ev.n_exponentials(k), "achieved": achieved}
            )
        t_cells, eps_cells = cells["t"], cells["eps"]
        exponent_t = exponent_eps = None
        if len(t_cells) >= 3:
            exponent_t = fit_loglog([(c["t"], c["N"]) for c in t_cells])[0]
        if len(eps_cells) >= 2:
            exponent_eps = fit_loglog([(1.0 / c["eps"], c["N"]) for c in eps_cells])[0]
        per_scheme[scheme] = {
            "t_grid": list(t_grid),
            "t_cells": t_cells,
            "exponent_t": exponent_t,
            "eps_cells": eps_cells,
            "exponent_eps": exponent_eps,
            "expected": list(EXPECTED_EXPONENTS[scheme]),
            "failures": failures,
        }
    return ScalingReport(per_scheme=per_scheme, fixed_eps=cfg.fixed_eps, fixed_t=cfg.fixed_t)
