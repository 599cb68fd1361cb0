"""The certified bisection walk against the walk that probes every step.

``_bisect_min_k`` decides an outcome "error(k) > eps" from an earlier probe
whenever that probe lies outside a relative band of ``_CERTIFICATE_MARGIN``
around eps. These tests hold it to the plain walk it replaces: the same
(K, error at K) on the scaling cells, in at most half the probes, and the
bracket error(K) <= eps < error(K - 1) whatever the evaluator does.
"""

import collections
import math
import random

import numpy as np
import pytest

from splitsim import harness
from splitsim.hamiltonians import spin_chain_termset
from splitsim.harness import (
    SCHEMES,
    ScalingConfig,
    SchemeEvaluator,
    _CERTIFICATE_MARGIN,
    _ProbeLog,
    _bisect_min_k,
    scaling_cross_check,
    state_panel,
)


def reference_min_k(ev, eps, k_cap):
    """Doubling from K = 1, then bisection, with a probe at every step."""
    k = 1
    while (err := ev.error(k)) > eps:
        k *= 2
        if k > k_cap:
            return None
    lo, hi = max(1, k // 2), k
    while lo < hi:
        mid = (lo + hi) // 2
        if (e := ev.error(mid)) <= eps:
            hi, err = mid, e
        else:
            lo = mid + 1
    return hi, err


class Counted:
    """A scheme evaluator that counts its probes."""

    def __init__(self, ev):
        self.ev, self.scheme, self.probes = ev, ev.scheme, 0

    def error(self, k):
        self.probes += 1
        return self.ev.error(k)


class Wobbly:
    """C k^-p (1 + w sin k), read with the power-law order of ``scheme``."""

    def __init__(self, scheme, c, p, w):
        self.scheme, self.c, self.p, self.w = scheme, c, p, w

    def error(self, k):
        return self.c * k**-self.p * (1.0 + self.w * math.sin(k))


class Table:
    """A scheme evaluator reading its errors from a dict, logging each probe."""

    scheme = "trotter"

    def __init__(self, values):
        self.values, self.probes = values, []

    def error(self, k):
        self.probes.append(k)
        return self.values[k]


M = _CERTIFICATE_MARGIN


@pytest.mark.parametrize(
    "ratio, k, outcome, probed",
    [
        (1 + 2 * M, 50, True, False),  # above the band: decides every smaller k
        (1 + 2 * M, 150, False, True),  # but no larger one
        (1 + M / 2, 50, True, True),  # inside the band: decides only k = 100
        (1 + M / 2, 100, True, False),
        (1 - M / 2, 150, False, True),
        (1 - M / 2, 100, False, False),
        (1 - 2 * M, 150, False, False),  # below the band: decides every larger k
        (1 - 2 * M, 50, True, True),  # but no smaller one
    ],
)
def test_only_probes_outside_the_band_decide_other_k(ratio, k, outcome, probed):
    eps = 1e-3
    ev = Table({50: 2 * eps, 100: ratio * eps, 150: eps / 2})
    log = _ProbeLog(ev)
    log.probe(100)
    assert log.above(k, eps) is outcome
    assert ev.probes == ([100, k] if probed else [100])


def scaling_cells(monkeypatch, **kwargs):
    """(evaluator, eps, k_cap, result, probes) of every cell of one report."""
    cells = []

    def recording(log, eps, k_cap):
        logged = len(log.values)
        found = _bisect_min_k(log, eps, k_cap)
        cells.append((log.ev, eps, k_cap, found, len(log.values) - logged))
        return found

    monkeypatch.setattr(harness, "_bisect_min_k", recording)
    scaling_cross_check(ScalingConfig(**kwargs))
    return cells


@pytest.mark.parametrize("n_qubits, seed", [(2, 7), (3, 1)])
def test_scaling_cells_match_the_reference_in_half_the_probes(monkeypatch, n_qubits, seed):
    cells = scaling_cells(monkeypatch, n_qubits=n_qubits, seed=seed)
    assert len(cells) == 28
    ours = reference = 0
    for ev, eps, k_cap, found, probes in cells:
        ref = Counted(ev)
        assert found == reference_min_k(ref, eps, k_cap), (ev.scheme, ev.t, eps)
        ours += probes
        reference += ref.probes
    assert 2 * ours <= reference, (ours, reference)


def test_a_scaling_pass_probes_no_k_twice(monkeypatch):
    """Cells at the same t share one probe log, so no (scheme, t, K) is
    evaluated twice: not error(1) of each eps cell, nor the cell at
    (fixed_t, fixed_eps) that is both a t cell and an eps cell."""
    probed = collections.Counter()
    error = SchemeEvaluator.error

    def counted(ev, k):
        probed[ev.scheme, ev.t, k] += 1
        return error(ev, k)

    monkeypatch.setattr(SchemeEvaluator, "error", counted)
    scaling_cross_check(ScalingConfig(n_qubits=2))
    assert probed
    assert [key for key, n in probed.items() if n > 1] == []


def random_cell(rng, w):
    """A power law with random scale, order and wobble, an eps it reaches
    near a K up to 2**23, and a k_cap up to 2**22."""
    f = Wobbly(rng.choice(SCHEMES), 10 ** rng.uniform(-2, 2), rng.uniform(0.5, 3.0), w)
    eps = f.c * (2 ** rng.uniform(0, 23)) ** -f.p
    return f, eps, rng.randint(1, 2**22)


def test_wobble_inside_the_margin_gives_the_reference_result():
    rng = random.Random(13)
    for _ in range(400):
        f, eps, k_cap = random_cell(rng, rng.uniform(0.5, 1.0) * _CERTIFICATE_MARGIN / 10)
        assert _bisect_min_k(_ProbeLog(f), eps, k_cap) == reference_min_k(f, eps, k_cap), vars(f)


def test_wobble_beyond_the_margin_keeps_the_bracket():
    rng = random.Random(17)
    for _ in range(400):
        f, eps, k_cap = random_cell(rng, rng.uniform(10 * _CERTIFICATE_MARGIN, 0.5))
        found = _bisect_min_k(_ProbeLog(f), eps, k_cap)
        if found is None:
            assert f.error(2 ** (k_cap.bit_length() - 1)) > eps, vars(f)
        else:
            k, achieved = found
            assert achieved == f.error(k) <= eps, vars(f)
            assert k == 1 or f.error(k - 1) > eps, vars(f)


class Dipped(Wobbly):
    """1/k, except for an error of 1e-4 at k = 700."""

    def error(self, k):
        return 1e-4 if k == 700 else super().error(k)


def test_a_failed_bracket_sends_the_cell_to_the_plain_walk(monkeypatch):
    """Warm-up probes that certify "reached" at 700 and "above" at 800 end
    the certified walk at K = 801, where the error is above eps."""
    f = Dipped("trotter", 1.0, 1.0, 0.0)
    monkeypatch.setattr(harness, "_warm_up", lambda log, eps, order, top: [log.probe(k) for k in (1, 700, 800)])
    assert _bisect_min_k(_ProbeLog(f), 1e-3, 2**22) == reference_min_k(f, 1e-3, 2**22) == (1000, 1e-3)


@pytest.fixture(scope="module")
def chain_panel():
    ts = spin_chain_termset(2, 1.0, 1.0, 1.0)
    return ts, state_panel(ts.dim, 16, 7)


@pytest.mark.parametrize(
    "scheme, t, eps_at, eps, k_cap",
    [
        ("trotter", 0.05, 1, None, 2**22),  # eps = error(1): K = 1
        ("strang", 2.0, None, 2.0, 2**22),  # every K reaches eps
        ("strang", 2.0, None, 1e-4, 1),  # k_cap = 1, unreachable
        ("strang", 2.0, None, 2.0, 1),  # k_cap = 1, reached at K = 1
        ("trotter", 0.5, None, 1e-6, 8),  # unreachable below k_cap = 8
        ("strang", 2.0, 6, None, 12),  # K = 6 below a k_cap of 12
        ("strang", 2.0, 10, None, 12),  # K = 10 lies past 8, the last probed power
        ("alg1", 0.5, 3, None, 12),
    ],
)
def test_edge_cells_match_the_reference(chain_panel, scheme, t, eps_at, eps, k_cap):
    ts, panel = chain_panel
    ev = SchemeEvaluator(ts, scheme, t, panel)
    if eps_at is not None:
        eps = ev.error(eps_at)
    assert _bisect_min_k(_ProbeLog(ev), eps, k_cap) == reference_min_k(ev, eps, k_cap)


def test_alg1_error_is_a_local_power_law_to_a_tenth_of_the_margin(chain_panel):
    """The certificates assume that, within a few K of the bisected K, the
    error departs from a power law by far less than the margin."""
    ts, panel = chain_panel
    doc = scaling_cross_check(ScalingConfig(schemes=("alg1",), n_qubits=2)).per_scheme["alg1"]
    far_t, small_eps = doc["t_cells"][-1], doc["eps_cells"][-1]
    cells = [(far_t["t"], far_t["K"]), (1.0, small_eps["K"])]
    for t, k in cells:
        ev = SchemeEvaluator(ts, "alg1", t, panel)
        ks = np.arange(k - 20, k + 21)
        log_err = np.log([ev.error(int(j)) for j in ks])
        slope, intercept = np.polyfit(np.log(ks), log_err, 1)
        deviation = np.abs(np.expm1(log_err - (slope * np.log(ks) + intercept))).max()
        assert deviation < _CERTIFICATE_MARGIN / 10, (t, k, deviation)
