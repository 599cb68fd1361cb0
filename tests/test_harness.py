import math
import weakref

import numpy as np
import pytest

from splitsim.harness import (
    DEFAULT_SCALING_T_GRID,
    RunConfig,
    ScalingConfig,
    fit_loglog,
    lemma1_campaign,
    scaling_cross_check,
    SchemeEvaluator,
    state_panel,
    sweep_error_vs_K,
)
import splitsim.harness
from splitsim.channels import lemma1_report, word_stack
from splitsim.hamiltonians import random_termset, spin_chain_termset
from splitsim.matkernel import pure_density
from splitsim.schedules import (
    _stacked_spectra,
    _word_plan,
    _word_unitaries,
    alg1_stage_mixture,
    alg2_stage_mixture,
    mixture_power,
    strang_word,
    trotter_word,
    word_unitary,
)


@pytest.fixture
def chain_cfg():
    return RunConfig(
        scheme="trotter",
        t=1.0,
        k_list=(8, 16, 32, 64),
        seed=7,
        n_qubits=2,
    )


class TestRunConfig:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            RunConfig(scheme="magic", t=1.0, k_list=(1, 2, 4))

    def test_rejects_unsorted_k_list(self):
        with pytest.raises(ValueError, match="increasing"):
            RunConfig(scheme="trotter", t=1.0, k_list=(4, 2))

    def test_rejects_empty_k_list(self):
        with pytest.raises(ValueError, match="nonempty"):
            RunConfig(scheme="trotter", t=1.0, k_list=())

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_json({"scheme": "trotter", "t": 1.0, "k_list": [2, 4], "zz": 1})

    @pytest.mark.parametrize(
        "key, value, match",
        [
            ("panel_size", 0, "panel_size"),
            ("k_list", [8.7, 16], "integer"),
            ("k_list", 8, "list of integers"),
            ("t", "1", "finite"),
            ("t", float("nan"), "finite"),
            ("norm_bound", float("inf"), "finite"),
            ("d", 200, "supported maximum"),
            ("d", "4", "integer"),
            ("n_qubits", 7, "supported maximum"),
            ("n_qubits", 10**6, "supported maximum"),
            ("seed", 1.5, "integer"),
            ("t", 0.0, "positive"),
            # Not fields: --out is the only output path and the bend drop is fixed.
            ("out", "report.json", "unknown config keys.*'out'"),
            ("drop_bend_points", False, "unknown config keys.*'drop_bend_points'"),
            ("bend_residual_tol", 0.0, "unknown config keys.*'bend_residual_tol'"),
            ("panel_size", 1025, "supported maximum"),
        ],
    )
    def test_rejects_malformed_fields(self, key, value, match):
        doc = {"scheme": "alg1", "t": 1.0, "k_list": [8, 16], key: value}
        with pytest.raises(ValueError, match=match):
            RunConfig.from_json(doc)

    def test_round_trip(self, chain_cfg):
        doc = chain_cfg.to_json()
        assert RunConfig.from_json(doc) == chain_cfg


class TestFitLoglog:
    def test_exact_square_law(self):
        points = [(k, 5.0 * k**-2) for k in (4, 8, 16, 32)]
        slope, intercept, r2 = fit_loglog(points)
        assert abs(slope - (-2.0)) <= 1e-12
        assert abs(intercept - np.log(5.0)) <= 1e-12
        assert abs(r2 - 1.0) <= 1e-12

    def test_exact_linear_law(self):
        points = [(k, 0.3 / k) for k in (2, 4, 8)]
        slope, _, _ = fit_loglog(points)
        assert abs(slope - (-1.0)) <= 1e-12

    def test_noisy_synthetic(self, rng):
        ks = [2**i for i in range(3, 12)]
        points = [(k, 2.0 * k**-1.5 * float(rng.uniform(0.95, 1.05))) for k in ks]
        slope, _, _ = fit_loglog(points)
        assert abs(slope - (-1.5)) <= 0.1

    def test_rejects_nonpositive_error(self):
        with pytest.raises(ValueError, match="positive"):
            fit_loglog([(2, 1.0), (4, 0.0), (8, 0.1)])

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError, match="2 points"):
            fit_loglog([(2, 1.0)])

    def test_two_points_suffice(self):
        # a two-value eps grid of a scaling config fits from two cells; the
        # least-squares solve lands within rounding of -1, not on it
        slope, _, r2 = fit_loglog([(2, 1.0), (4, 0.5)])
        assert abs(slope - (-1.0)) <= 1e-12
        assert r2 == 1.0


class TestStatePanel:
    def test_deterministic_and_normalized(self):
        a = state_panel(4, 16, seed=7)
        b = state_panel(4, 16, seed=7)
        assert np.array_equal(a, b)
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0)

    def test_seed_changes_panel(self):
        assert not np.array_equal(state_panel(4, 4, 0), state_panel(4, 4, 1))


class TestSchemeEvaluator:
    def test_rejects_unknown_scheme(self):
        ts = spin_chain_termset(2, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="unknown scheme 'suzuki4'"):
            SchemeEvaluator(ts, "suzuki4", 1.0, state_panel(4, 2, seed=3))

    def test_matches_direct_word_evaluation(self):
        # the segment-power shortcut equals evaluating the full word
        ts = spin_chain_termset(2, 1.0, 1.0, 1.0)
        panel = state_panel(4, 4, seed=3)
        ev = SchemeEvaluator(ts, "trotter", 1.0, panel)
        k = 5
        u_full = word_unitary(ts, trotter_word(ts, 1.0 / k, k))
        u_seg = np.linalg.matrix_power(
            word_unitary(ts, trotter_word(ts, 1.0 / k, 1)), k
        )
        assert np.max(np.abs(u_full - u_seg)) <= 1e-12
        assert ev.error(k) > 0

    def test_randomized_probes_share_read_only_projectors(self):
        ts = spin_chain_termset(2, 1.0, 1.0, 1.0)
        panel = state_panel(4, 4, seed=3)
        for scheme in ("alg1", "alg2"):
            ev = SchemeEvaluator(ts, scheme, 1.0, panel)
            first = ev.error(3)
            assert not ev._panel_projectors.flags.writeable
            assert not ev._target_projectors.flags.writeable
            assert ev.error(3) == first

    def test_closed_form_matches_svd_distance(self):
        # deterministic panels use 2||b - <a|b>a||; check it against Tr|.|
        from splitsim.channels import exact_evolution
        from splitsim.matkernel import trace_norm

        ts = spin_chain_termset(2, 1.0, 1.0, 1.0)
        panel = state_panel(4, 4, seed=3)
        for scheme, k in (("trotter", 5), ("strang", 3)):
            word_fn = trotter_word if scheme == "trotter" else strang_word
            u = word_unitary(ts, word_fn(ts, 1.0 / k, k))
            u0 = exact_evolution(ts, 1.0)
            oracle = max(
                trace_norm(np.outer(u @ v, (u @ v).conj()) - np.outer(u0 @ v, (u0 @ v).conj()))
                for v in panel
            )
            got = SchemeEvaluator(ts, scheme, 1.0, panel).error(k)
            assert abs(got - oracle) <= 1e-12

    def test_exponential_counts(self):
        ts = spin_chain_termset(2, 1.0, 1.0, 1.0)
        panel = state_panel(4, 2, seed=3)
        counts = {
            scheme: SchemeEvaluator(ts, scheme, 1.0, panel).n_exponentials(10)
            for scheme in ("trotter", "strang", "alg1", "alg2")
        }
        assert counts == {"trotter": 20, "strang": 21, "alg1": 20, "alg2": 20}

    def test_counts_match_schedule_lengths(self):
        from splitsim.schedules import strang_word, trotter_word

        for m in (2, 3):
            ts = spin_chain_termset(2, 1.0, 1.0, 1.0) if m == 2 else None
            if ts is None:
                from splitsim.hamiltonians import random_termset

                ts = random_termset(4, 3, 1.0, seed=1)
            panel = state_panel(ts.dim, 2, seed=3)
            for k in (1, 3, 8):
                assert SchemeEvaluator(ts, "trotter", 1.0, panel).n_exponentials(k) == len(
                    trotter_word(ts, 1.0 / k, k)
                )
                assert SchemeEvaluator(ts, "strang", 1.0, panel).n_exponentials(k) == len(
                    strang_word(ts, 1.0 / k, k)
                )


class TestSweep:
    def test_sweep_structure_and_slope(self, chain_cfg):
        res = sweep_error_vs_K(chain_cfg)
        assert res.scheme == "trotter"
        assert [k for k, _, _ in res.points] == [8, 16, 32, 64]
        assert all(e > 0 for _, _, e in res.points)
        assert not res.commuting
        assert res.slope == pytest.approx(-1.0, abs=0.15)
        assert res.r2 >= 0.98

    def test_monotone_decay_under_doubling(self, chain_cfg):
        res = sweep_error_vs_K(chain_cfg)
        errs = [e for _, _, e in res.points]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_commuting_instance_flagged(self):
        cfg = RunConfig(
            scheme="strang", t=1.0, k_list=(2, 4, 8), seed=1, n_qubits=2,
            jx=1.0, jz=1.0, hx=0.0,  # XX and ZZ commute on two qubits
        )
        res = sweep_error_vs_K(cfg)
        assert res.commuting
        assert res.slope is None

    def test_reproducible_outputs(self, chain_cfg):
        a = sweep_error_vs_K(chain_cfg)
        b = sweep_error_vs_K(chain_cfg)
        assert a.to_json() == b.to_json()
        assert a.points_csv() == b.points_csv()

    def test_csv_format(self, chain_cfg):
        csv = sweep_error_vs_K(chain_cfg).points_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "K,N,error"
        first = lines[1].split(",")
        assert int(first[0]) == 8
        assert float(first[2]) > 0
        assert "," not in first[2] or "." in first[2]

    def test_second_order_schemes_beat_first_order(self):
        errors = {}
        for scheme in ("trotter", "strang", "alg1", "alg2"):
            cfg = RunConfig(scheme=scheme, t=1.0, k_list=(64,), seed=7, n_qubits=2)
            errors[scheme] = sweep_error_vs_K(cfg).points[0][2]
        assert errors["strang"] < errors["trotter"]
        assert errors["alg2"] < errors["alg1"]

    def test_bend_drop_is_recorded(self, chain_cfg, monkeypatch):
        from dataclasses import replace

        # forcing the residual tolerance to zero makes any 5+ point sweep
        # count as bent, so the two smallest K are dropped and recorded;
        # with no residual above an infinite tolerance none are
        cfg = replace(chain_cfg, k_list=(8, 16, 32, 64, 128))
        monkeypatch.setattr(splitsim.harness, "_BEND_RESIDUAL_TOL", 0.0)
        assert sweep_error_vs_K(cfg).dropped_smallest == 2
        monkeypatch.setattr(splitsim.harness, "_BEND_RESIDUAL_TOL", math.inf)
        assert sweep_error_vs_K(cfg).dropped_smallest == 0


_HALVING_DTS = (0.1, 0.05, 0.025)
# Per halving of dt, an alg1 group of m stages loses 4x and an alg2 stage 8x:
# (stage mixture, expected ratio, allowed deviation).
_STAGE_ORDERS = {
    "alg1": (alg1_stage_mixture, 4.0, 1.0),
    "alg2": (alg2_stage_mixture, 8.0, 2.0),
}
_HALVING_TERMSETS = {
    "chain2": lambda: spin_chain_termset(2, 1.0, 1.0, 1.0),
    "chain3": lambda: spin_chain_termset(3, 1.0, 1.0, 1.0),
    "random": lambda: random_termset(4, 3, 1.0, 5),
}


def _assert_halving_ratios(values, scheme):
    _, target, slack = _STAGE_ORDERS[scheme]
    for r in [a / b for a, b in zip(values, values[1:])]:
        assert abs(r - target) <= slack, (scheme, r)


class TestStageOrderRatios:
    @pytest.mark.parametrize("scheme", sorted(_STAGE_ORDERS))
    def test_panel_error_halving_ratios(self, scheme):
        # One segment of length dt: m single-term stages for alg1, one for alg2.
        ts = spin_chain_termset(2, 1.0, 1.0, 1.0)
        panel = state_panel(ts.dim, 16, 7)
        errors = [SchemeEvaluator(ts, scheme, dt, panel).error(1) for dt in _HALVING_DTS]
        _assert_halving_ratios(errors, scheme)

    @pytest.mark.parametrize("scheme", sorted(_STAGE_ORDERS))
    @pytest.mark.parametrize("name", sorted(_HALVING_TERMSETS))
    def test_lemma1_bound_halving_ratios(self, name, scheme):
        ts = _HALVING_TERMSETS[name]()
        psi0 = pure_density(state_panel(ts.dim, 16, 7)[0])
        stage_mixture = _STAGE_ORDERS[scheme][0]
        stages = ts.m if scheme == "alg1" else 1
        bounds = [
            lemma1_report(ts, mixture_power(stage_mixture(ts, dt), stages), dt, psi0, psi0).bound
            for dt in _HALVING_DTS
        ]
        _assert_halving_ratios(bounds, scheme)


class TestCampaign:
    def test_small_campaign_clean(self):
        report = lemma1_campaign(60, seed=11)
        assert report.ok
        assert report.n_instances == 60
        assert report.n_controls >= 1
        assert 0 < report.best_observed_over_bound <= 1.0 + 1e-12

    def test_tightness_witnesses_found(self):
        # some inputs push the observed increase to a constant fraction of
        # each bound term; the campaign must find such witnesses
        report = lemma1_campaign(200, seed=5)
        assert report.best_observed_over_mean_dev > 0.1
        assert report.best_observed_over_sq_dev > 0.1

    def test_report_serializes(self):
        doc = lemma1_campaign(10, seed=2).to_json()
        assert doc["ok"] is True
        assert doc["n_violations"] == 0

    @pytest.mark.parametrize("n_instances", [0, -3])
    def test_rejects_no_instances(self, n_instances):
        with pytest.raises(ValueError, match="need at least one instance"):
            lemma1_campaign(n_instances, seed=0)

    @pytest.mark.parametrize("m", range(2, 7))
    @pytest.mark.parametrize("scheme", ["trotter", "strang", "alg1", "alg2"])
    def test_unit_step_plan_scales_to_any_dt_exactly(self, scheme, m, rng):
        # The campaign builds each (m, scheme) stage once, at dt = 1, and
        # scales its slot durations by each instance's dt.
        ts = random_termset(3, m, 1.0, seed=m)
        build = splitsim.harness._STAGE_MIXTURES[scheme]
        unit = build(ts, 1.0)
        words, slots = _word_plan([word for _, word in unit.entries], m)
        units = np.array([tau for _, tau in slots])
        dts = np.concatenate([rng.uniform(0.01, 0.2, 3), 10.0 ** rng.uniform(-6, 3, 3)])
        w, v = (np.repeat(a, len(dts), axis=0) for a in _stacked_spectra(ts))
        us = _word_unitaries(w, v, words, slots, dts[:, None] * units)
        for dt, got in zip(dts, us):
            probs, want = word_stack(ts, build(ts, dt))
            assert np.array_equal(got, want), dt
            assert np.array_equal(probs, [p for p, _ in unit.entries])


class TestScaling:
    def test_alg2_exponents_quick(self):
        report = scaling_cross_check(ScalingConfig(
            schemes=("alg2",),
            t_values={"alg2": (1.0, 2.0, 4.0)},
            eps_values=(1e-3, 1e-4),
            fixed_eps=1e-3,
        ))
        cell = report.per_scheme["alg2"]
        assert cell["exponent_t"] == pytest.approx(1.5, abs=0.25)
        assert not cell["failures"]

    def test_unreachable_eps_reported_not_raised(self):
        report = scaling_cross_check(ScalingConfig(
            schemes=("trotter",),
            t_values={"trotter": (0.5,)},
            eps_values=(1e-6,),
            fixed_eps=1e-6,
            k_cap=8,
        ))
        cell = report.per_scheme["trotter"]
        assert cell["failures"]
        assert cell["exponent_t"] is None

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"eps_values": [1e-3, 1e-3]}, "eps_values"),
            ({"t_values": [1.0, 1.0, 1.0]}, r"t_values\[strang\]"),
        ],
    )
    def test_repeated_grid_value_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} must not repeat a value"):
            scaling_cross_check(ScalingConfig(schemes=("strang",), **kwargs))

    def test_at_most_the_fixed_t_log_and_one_other_are_alive(self, monkeypatch):
        """The cells at fixed_t share one probe log; a cell at any other t has
        a log of its own, dropped before the next cell builds one."""
        live, built = set(), []

        class CountedLog(splitsim.harness._ProbeLog):
            def __init__(self, ev):
                super().__init__(ev)
                live.add(id(self))
                weakref.finalize(self, live.discard, id(self))
                built.append((ev.t, len(live)))

        monkeypatch.setattr(splitsim.harness, "_ProbeLog", CountedLog)
        scaling_cross_check(ScalingConfig(
            schemes=("strang",), t_values=[0.5, 1.0, 2.0, 4.0], eps_values=(1e-2, 1e-3),
            fixed_eps=1e-3, n_qubits=2,
        ))
        assert built == [(1.0, 1), (0.5, 2), (2.0, 2), (4.0, 2)]

    def test_envelope_limits_are_accepted(self):
        cfg = ScalingConfig(eps_values=(1e-3, 1e-8), fixed_eps=1e-8, k_cap=2**22)
        assert (cfg.eps_values, cfg.fixed_eps, cfg.k_cap) == ((1e-3, 1e-8), 1e-8, 2**22)
        assert ScalingConfig().k_cap == 2**22

    def test_t_values_may_name_an_unselected_scheme(self):
        cfg = ScalingConfig(schemes=("alg2",), t_values={"alg2": [1, 2, 4], "strang": "junk"})
        assert cfg.t_grid("alg2") == (1, 2, 4)

    def test_caller_lists_changed_later_change_nothing(self):
        eps, grid, couplings = [1e-3], [1.0, 2.0], {"jx": 1.0, "jz": 1.0, "hx": 1.0}
        t_map = {"strang": [4.0, 8.0]}
        schemes = ["strang"]
        listed = ScalingConfig(schemes=schemes, eps_values=eps, t_values=grid, couplings=couplings)
        mapped = ScalingConfig(schemes=schemes, t_values=t_map)
        eps.append(-1.0)
        grid.append(-2.0)
        t_map["strang"].append(-4.0)
        t_map["alg1"] = "junk"
        couplings["jx"] = math.nan
        schemes.append("bogus")
        assert listed.eps_values == (1e-3,)
        assert listed.t_grid("strang") == (1.0, 2.0)
        assert listed.couplings == {"jx": 1.0, "jz": 1.0, "hx": 1.0}
        assert listed.schemes == mapped.schemes == ("strang",)
        assert mapped.t_values == {"strang": (4.0, 8.0)}

    def test_default_grids_cover_all_schemes(self):
        assert set(DEFAULT_SCALING_T_GRID) == {"trotter", "strang", "alg1", "alg2"}

    # Panel seeds of the scaling-bisect benchmark at seeds 93, 100, 153, 169,
    # 197, 227, 236 and 279. A trotter grid reaching ||H|| t = 2.1 (0.05 to
    # 0.4) fits exponents of 1.76-1.79 on them, outside the band.
    @pytest.mark.parametrize("seed", [
        1308746342, 1881030729, 124734866, 1677412232,
        1287923920, 1260387136, 118911457, 1494883876,
    ])
    def test_trotter_default_grid_exponent_on_three_qubits(self, seed):
        cfg = ScalingConfig(schemes=("trotter",), n_qubits=3, seed=seed)
        cell = scaling_cross_check(cfg).per_scheme["trotter"]
        assert not cell["failures"]
        assert abs(cell["exponent_t"] - 2.0) <= 0.2, cell["exponent_t"]
