"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import time

import numpy as np

from splitsim.bounds import lemma2_max
from splitsim.channels import apply_channel, channel_power, mixture_superoperator
from splitsim.harness import (
    RunConfig,
    ScalingConfig,
    lemma1_campaign,
    SchemeEvaluator,
    scaling_cross_check,
    state_panel,
    sweep_error_vs_K,
    stable_json_dumps,
)
from splitsim.hamiltonians import random_termset, spin_chain_termset
from splitsim.matkernel import (
    DensityMatrix,
    expm_hermitian,
    pure_density,
    spectral_norm,
    trace_distance,
)
from splitsim.schedules import Word, alg2_stage_mixture
from splitsim.series import (
    interleaving_profile,
    s_value,
    third_order_pair_sum,
    word_series,
)

from conftest import random_density_mat, random_hermitian, random_unit_vector
from oracles import exact_series, lemma2_uniform_value

THIRD = 1.0 / 3.0


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")


def test_criterion_1_bound_dominance():
    """1000 random instances, observed <= bound + 1e-8, under two minutes."""
    start = time.perf_counter()
    report = lemma1_campaign(1000, seed=2024)
    elapsed = time.perf_counter() - start
    ok = report.ok and elapsed < 120.0
    _verdict(
        1,
        ok,
        f"bound dominance on {report.n_instances} instances, "
        f"{len(report.violations)} violations, {elapsed:.1f}s "
        f"(best observed/bound {report.best_observed_over_bound:.3f})",
    )
    assert report.ok, f"violations: {report.violations[:1]}"
    assert elapsed < 120.0


def test_criterion_2_per_stage_orders():
    """Group error ratio 4 +/- 25% (alg1) and stage ratio 8 +/- 25% (alg2)."""
    ts = spin_chain_termset(2, 1.0, 1.0, 1.0)
    panel = state_panel(ts.dim, 16, 7)
    # One segment of length dt: m single-term stages for alg1, one for alg2.
    ratios = {}
    for scheme in ("alg1", "alg2"):
        e = [SchemeEvaluator(ts, scheme, dt, panel).error(1) for dt in (0.1, 0.05, 0.025)]
        ratios[scheme] = [a / b for a, b in zip(e, e[1:])]
    r1, r2 = ratios["alg1"], ratios["alg2"]
    ok = all(abs(r - 4.0) <= 1.0 for r in r1) and all(abs(r - 8.0) <= 2.0 for r in r2)
    _verdict(
        2,
        ok,
        f"halving ratios alg1={[f'{r:.2f}' for r in r1]} (4 +/- 1), "
        f"alg2={[f'{r:.2f}' for r in r2]} (8 +/- 2)",
    )
    for r in r1:
        assert abs(r - 4.0) <= 1.0
    for r in r2:
        assert abs(r - 8.0) <= 2.0


def test_criterion_3_global_scaling_slopes():
    """Fitted slopes at t=1, K in 8..512: -1 (first order), -2 (second)."""
    start = time.perf_counter()
    expected = {"trotter": -1.0, "alg1": -1.0, "strang": -2.0, "alg2": -2.0}
    slopes, r2s = {}, {}
    for scheme in expected:
        cfg = RunConfig(
            scheme=scheme,
            t=1.0,
            k_list=(8, 16, 32, 64, 128, 256, 512),
            seed=7,
            n_qubits=2,
        )
        res = sweep_error_vs_K(cfg)
        slopes[scheme] = res.slope
        r2s[scheme] = res.r2
    elapsed = time.perf_counter() - start
    ok = (
        all(abs(slopes[s] - expected[s]) <= 0.15 for s in expected)
        and all(r2s[s] >= 0.98 for s in expected)
        and abs(slopes["alg1"] - slopes["trotter"]) <= 0.1
        and abs(slopes["alg2"] - slopes["strang"]) <= 0.1
        and elapsed < 300.0
    )
    _verdict(
        3,
        ok,
        "slopes "
        + " ".join(f"{s}={slopes[s]:.3f}(r2={r2s[s]:.4f})" for s in expected)
        + f", {elapsed:.1f}s",
    )
    for s in expected:
        assert abs(slopes[s] - expected[s]) <= 0.15, s
        assert r2s[s] >= 0.98, s
    assert abs(slopes["alg1"] - slopes["trotter"]) <= 0.1
    assert abs(slopes["alg2"] - slopes["strang"]) <= 0.1
    assert elapsed < 300.0


def test_criterion_4_cost_exponents():
    """Bisected N(t, eps): exponents 1.5/0.5 (second order), 2.0/1.0 (first)."""
    report = scaling_cross_check(ScalingConfig(fixed_eps=1e-4, fixed_t=1.0, seed=7))
    want = {
        "trotter": (2.0, 0.2, 1.0, 0.1),
        "alg1": (2.0, 0.2, 1.0, 0.1),
        "strang": (1.5, 0.2, 0.5, 0.1),
        "alg2": (1.5, 0.2, 0.5, 0.1),
    }
    lines = []
    ok = True
    for scheme, (et, tol_t, ee, tol_e) in want.items():
        cell = report.per_scheme[scheme]
        ok = (
            ok
            and not cell["failures"]
            and abs(cell["exponent_t"] - et) <= tol_t
            and abs(cell["exponent_eps"] - ee) <= tol_e
        )
        lines.append(f"{scheme}: t^{cell['exponent_t']:.2f}, (1/eps)^{cell['exponent_eps']:.2f}")
    _verdict(4, ok, "; ".join(lines))
    for scheme, (et, tol_t, ee, tol_e) in want.items():
        cell = report.per_scheme[scheme]
        assert not cell["failures"], scheme
        assert abs(cell["exponent_t"] - et) <= tol_t, scheme
        assert abs(cell["exponent_eps"] - ee) <= tol_e, scheme


def test_criterion_5_triple_sum_maxima():
    """Searched maxima: 8/27 at n=3, 0.32 at n=5, below 1/3 through n=9."""
    res3 = lemma2_max(3)
    res5 = lemma2_max(5)
    maxima = {3: res3.max_s, 5: res5.max_s}
    for n in (4, 6, 7, 8, 9):
        maxima[n] = lemma2_max(n).max_s
    uniform_ok = all(
        abs(lemma2_uniform_value(n) - s_value([2.0 / n] * n)) <= 1e-14
        for n in (3, 5, 7, 9)
    )
    ok = (
        abs(res3.max_s - 8 / 27) <= 1e-4
        and abs(res5.max_s - 0.32) <= 1e-3
        and all(v < THIRD - 1e-6 for v in maxima.values())
        and uniform_ok
    )
    _verdict(
        5,
        ok,
        "max S: "
        + " ".join(f"n={n}:{maxima[n]:.5f}" for n in sorted(maxima))
        + f"; closed form matches to 1e-14: {uniform_ok}",
    )
    assert abs(res3.max_s - 8 / 27) <= 1e-4
    assert abs(res5.max_s - 0.32) <= 1e-3
    for n, v in maxima.items():
        assert v < THIRD - 1e-6, n
    assert uniform_ok


def test_criterion_6_bridge_identity():
    """10^4 random normalized words: series extraction == profile formula."""
    rng = np.random.default_rng(99)
    worst_gap = 0.0
    max_value = -np.inf
    for _ in range(10_000):
        m = int(rng.integers(2, 5))
        a, b = rng.choice(np.arange(1, m + 1), size=2, replace=False)
        a, b = int(a), int(b)
        while True:
            length = int(rng.integers(2, 13))
            ks = list(rng.integers(1, m + 1, size=length))
            if a in ks and b in ks:
                break
        taus = rng.uniform(0.05, 1.0, size=length)
        totals = {
            a: sum(t for k, t in zip(ks, taus) if k == a),
            b: sum(t for k, t in zip(ks, taus) if k == b),
        }
        steps = tuple(
            (int(k), float(t / totals[k]) if k in (a, b) else float(t))
            for k, t in zip(ks, taus)
        )
        w = Word(steps)
        via_series = third_order_pair_sum(word_series(w, m), a, b)
        via_profile = s_value(interleaving_profile(w, a, b))
        worst_gap = max(worst_gap, abs(via_series - via_profile))
        max_value = max(max_value, via_series)
    exact_sum = third_order_pair_sum(exact_series(2, 1.0), 1, 2)
    ok = worst_gap <= 1e-12 and max_value < THIRD and exact_sum == THIRD
    _verdict(
        6,
        ok,
        f"bridge gap <= {worst_gap:.2e} over 10^4 words, max value {max_value:.5f} < 1/3, "
        f"exact-series pair sum = {exact_sum:.15f}",
    )
    assert worst_gap <= 1e-12
    assert max_value < THIRD
    assert exact_sum == THIRD


def test_criterion_7_kernel_correctness():
    """Exponential vs Taylor oracle, channel-output invariants, distance oracle."""
    rng = np.random.default_rng(4321)

    worst_expm = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        aa = random_hermitian(rng, d, scale=float(rng.uniform(0.5, 2.0)))
        tau = float(rng.uniform(0.05, 0.5))
        g = -1j * aa * tau
        term = np.eye(d, dtype=complex)
        taylor = np.eye(d, dtype=complex)
        for n in range(1, 21):
            term = term @ g / n
            taylor = taylor + term
        worst_expm = max(worst_expm, spectral_norm(expm_hermitian(aa, tau) - taylor))

    worst_trace = worst_psd = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 7))
        ts = random_termset(d, 2, 1.0, seed=int(rng.integers(0, 2**31)))
        s = mixture_superoperator(ts, alg2_stage_mixture(ts, float(rng.uniform(0.02, 0.2))))
        out = apply_channel(
            channel_power(s, int(rng.integers(1, 16))),
            pure_density(random_unit_vector(rng, d)),
        )
        worst_trace = max(worst_trace, abs(complex(np.trace(out.mat)) - 1.0))
        worst_psd = max(worst_psd, max(0.0, -float(np.linalg.eigvalsh(out.mat).min())))

    worst_dist = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        x = DensityMatrix(random_density_mat(rng, d))
        y = DensityMatrix(random_density_mat(rng, d))
        oracle = float(np.abs(np.linalg.eigvalsh(x.mat - y.mat)).sum())
        worst_dist = max(worst_dist, abs(trace_distance(x, y) - oracle))

    ok = worst_expm <= 1e-12 and worst_trace <= 1e-9 and worst_psd <= 1e-9 and worst_dist <= 1e-10
    _verdict(
        7,
        ok,
        f"expm vs Taylor {worst_expm:.2e} <= 1e-12; channel trace/PSD deviations "
        f"{worst_trace:.2e}/{worst_psd:.2e} <= 1e-9; distance oracle {worst_dist:.2e} <= 1e-10",
    )
    assert worst_expm <= 1e-12
    assert worst_trace <= 1e-9
    assert worst_psd <= 1e-9
    assert worst_dist <= 1e-10


def test_criterion_8_reproducibility(tmp_path):
    """Identical config produces byte-identical JSON and CSV twice in a row."""
    cfg = RunConfig(
        scheme="alg2", t=1.0, k_list=(8, 16, 32, 64), seed=13, n_qubits=2
    )
    outputs = []
    for run_dir in ("first", "second"):
        d = tmp_path / run_dir
        d.mkdir()
        res = sweep_error_vs_K(cfg)
        (d / "sweep_result.json").write_text(stable_json_dumps(res.to_json()))
        (d / "points.csv").write_text(res.points_csv())
        outputs.append(
            ((d / "sweep_result.json").read_bytes(), (d / "points.csv").read_bytes())
        )
    ok = outputs[0] == outputs[1]
    json_bytes = len(outputs[0][0])
    _verdict(8, ok, f"two consecutive runs byte-identical ({json_bytes} JSON bytes + CSV)")
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
