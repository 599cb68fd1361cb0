"""The package's public surface: exports, result-record layouts, the
benchmark tracer's targets and the bisection bracket of the scaling report."""

import dataclasses
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

import splitsim
import splitsim.cli  # noqa: F401  (loads every module the tracer patches)
from splitsim.bounds import audit_schedule, lemma2_max
from splitsim.channels import lemma1_report
from splitsim.hamiltonians import TermSet, spin_chain_termset
from splitsim.harness import (
    RunConfig,
    ScalingConfig,
    SchemeEvaluator,
    lemma1_campaign,
    scaling_cross_check,
    stable_json_dumps,
    state_panel,
    sweep_error_vs_K,
)
from splitsim.matkernel import pure_density
from splitsim.schedules import Word, alg2_stage_mixture

MODULES = ("matkernel", "hamiltonians", "schedules", "channels", "series", "bounds", "harness")
DELETED = (
    "min_exponentials", "fit_cost_constant", "cubic_sum", "equal_split_floor", "hermitian_eig",
    "maximally_mixed", "sample_schedule", "mixture_from_json", "termset_from_json",
    "Superoperator", "vec", "unvec", "stage_order_ratios", "identity_series", "concat_words",
    "InterleavingProfile", "exp_step_series", "exact_series", "mixture_mean_series",
    "series_to_matrix", "lemma2_uniform_value",
)


@pytest.fixture(scope="module")
def default_scaling():
    return scaling_cross_check(ScalingConfig(n_qubits=2))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve_and_deleted_names_are_gone(name):
    mod = importlib.import_module(f"splitsim.{name}")
    for attr in mod.__all__:
        assert hasattr(mod, attr), f"{name}.__all__ names missing {attr}"
    for attr in DELETED:
        assert not hasattr(mod, attr), f"{name} still defines {attr}"


def test_package_exports_come_from_module_all():
    exported = {}
    for name in MODULES:
        mod = importlib.import_module(f"splitsim.{name}")
        exported.update((attr, getattr(mod, attr)) for attr in mod.__all__)
    submodules = MODULES + ("cli", "config")
    for attr in [a for a in vars(splitsim) if not a.startswith("_") and a not in submodules]:
        assert attr in exported and getattr(splitsim, attr) is exported[attr], attr


def test_lemma1_report_takes_one_mixture_and_no_stage_count():
    assert list(inspect.signature(lemma1_report).parameters) == ["ts", "mix", "t", "rho0", "psi0"]


def test_term_set_is_built_from_its_terms_alone():
    assert [f.name for f in dataclasses.fields(TermSet) if f.init] == ["terms"]
    assert isinstance(inspect.getattr_static(TermSet, "dim"), property)
    assert not hasattr(TermSet, "exp")  # a test-side oracle, tests/oracles.py


def test_tracer_targets_resolve():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, module, attr in spans.TARGETS:
        mod = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), (module, attr)
        else:
            assert callable(getattr(mod, attr)), (module, attr)


# Each record's JSON keys, as the hand-written serializers laid them out.
RECORD_KEYS = {
    "RunConfig": {
        "scheme", "t", "k_list", "seed", "n_qubits", "jx", "jz", "hx", "d", "m",
        "norm_bound", "panel_size",
    },
    "SweepResult": {
        "scheme", "t", "points", "slope", "intercept", "r2", "commuting",
        "dropped_smallest", "meta",
    },
    "BoundReport": {
        "mean_dev", "sq_dev", "input_dist", "bound", "observed", "observed_raw",
    },
    "Lemma2Result": {"n", "max_s", "argmax"},
    "ScheduleAudit": {"pair", "normalized", "alpha_sum", "beta_sum", "s", "gap", "verdict"},
    "ScalingReport": {"fixed_eps", "fixed_t", "per_scheme"},
    "CampaignReport": {
        "n_instances", "seed", "ok", "n_violations", "violations",
        "best_observed_over_bound", "best_observed_over_mean_dev",
        "best_observed_over_sq_dev", "n_controls",
    },
}


def _bound_report():
    ts = spin_chain_termset(2, 1.0, 1.0, 1.0)
    psi0 = pure_density(state_panel(ts.dim, 1, 3)[0])
    return lemma1_report(ts, alg2_stage_mixture(ts, 0.1), 0.1, psi0, psi0)


_CHAIN_CFG = RunConfig(scheme="trotter", t=1.0, k_list=(2, 4, 8), n_qubits=2)
RECORDS = {
    "RunConfig": lambda: _CHAIN_CFG,
    "SweepResult": lambda: sweep_error_vs_K(_CHAIN_CFG),
    "BoundReport": _bound_report,
    "Lemma2Result": lambda: lemma2_max(3),
    "ScheduleAudit": lambda: audit_schedule(Word(((1, 0.5), (2, 1.0), (1, 0.5))), 1, 2, 1.0),
    "ScalingReport": lambda: scaling_cross_check(ScalingConfig(schemes=("strang",), eps_values=(1e-3,))),
    "CampaignReport": lambda: lemma1_campaign(3, seed=0),
}


@pytest.mark.parametrize("name", sorted(RECORD_KEYS))
def test_result_record_keys(name):
    doc = RECORDS[name]().to_json()
    assert set(doc) == RECORD_KEYS[name]
    assert json.loads(stable_json_dumps(doc)) == json.loads(json.dumps(doc))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_values_are_not_serialized(value):
    with pytest.raises(ValueError, match="JSON compliant"):
        stable_json_dumps({"error": value})


def test_bisection_bracket(default_scaling):
    """Every bisected K > 1 is the first to reach its eps:
    error(K) <= eps < error(K - 1)."""
    ts = spin_chain_termset(2, 1.0, 1.0, 1.0)
    panel = state_panel(ts.dim, 16, 7)
    checked = 0
    for scheme, doc in default_scaling.per_scheme.items():
        assert not doc["failures"]
        cells = [(c["t"], default_scaling.fixed_eps, c) for c in doc["t_cells"]]
        cells += [(default_scaling.fixed_t, c["eps"], c) for c in doc["eps_cells"]]
        for t, eps, cell in cells:
            k = cell["K"]
            if k == 1:
                continue
            ev = SchemeEvaluator(ts, scheme, t, panel)
            assert cell["achieved"] == ev.error(k) <= eps, (scheme, t, eps, k)
            assert ev.error(k - 1) > eps, (scheme, t, eps, k)
            checked += 1
    assert checked == 28
