"""Lemma 1 as an upper bracket on the randomized scaling cells.

Channels contract the trace distance, so K stages of a stage channel are off
from the exact evolution by at most K times one stage's Lemma-1 bound with no
input distance, ``2 ||E U - U_0|| + E ||U - U_0||**2`` (the mixing-lemma form
of Campbell, PRA 95, 042306, 2017). For alg2 the stage is one step dt; for
alg1 it is the m-stage group ``mixture_power(alg1 stage, m)`` over dt. The
panel error is a lower bound on that worst-case distance, and a cell's K is
the smallest with panel error <= eps, so the panel error at K - 1 exceeds
eps, and with it ``(K - 1) * bound(t / (K - 1))``.
"""

import pytest

from splitsim.channels import lemma1_report
from splitsim.hamiltonians import spin_chain_termset
from splitsim.harness import ScalingConfig, scaling_cross_check
from splitsim.matkernel import pure_density
from splitsim.schedules import alg1_stage_mixture, alg2_stage_mixture, mixture_power

SCHEMES = ("alg1", "alg2")


@pytest.fixture(scope="module")
def report():
    return scaling_cross_check(ScalingConfig(schemes=SCHEMES, n_qubits=2))


def _segment_bound(ts, scheme: str, dt: float) -> float:
    stage = alg2_stage_mixture(ts, dt)
    if scheme == "alg1":
        stage = mixture_power(alg1_stage_mixture(ts, dt), ts.m)
    psi = pure_density([1.0, 0.0, 0.0, 0.0])
    rep = lemma1_report(ts, stage, dt, psi, psi)
    assert rep.input_dist == 0.0
    return rep.bound


@pytest.mark.parametrize("scheme", SCHEMES)
def test_k_minus_one_segments_stay_above_eps(report, scheme):
    ts = spin_chain_termset(2, 1.0, 1.0, 1.0)
    doc = report.per_scheme[scheme]
    cells = [(cell["t"], report.fixed_eps, cell["K"]) for cell in doc["t_cells"]]
    cells += [(report.fixed_t, cell["eps"], cell["K"]) for cell in doc["eps_cells"]]
    assert not doc["failures"] and len(cells) == 7
    for t, eps, k in cells:
        assert k >= 2, (t, eps, k)
        assert (k - 1) * _segment_bound(ts, scheme, t / (k - 1)) > eps, (t, eps, k)
