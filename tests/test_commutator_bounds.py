"""Commutator error bounds as independent oracles for the deterministic schemes.

The spectral-norm bounds of Childs, Su, Tran, Wiebe and Zhu (PRX 11, 011020,
2021; arXiv:1912.08854) on one segment of length dt:

* plain splitting: ``||S_1(dt) - exp(-iH dt)|| <= dt**2/2 * sum_{j<k} ||[H_j, H_k]||``;
* two-term palindromic splitting with A = H_1 as the half-step term:
  ``||S_2(dt) - exp(-iH dt)|| <= dt**3/12 ||[B,[B,A]]|| + dt**3/24 ||[A,[A,B]]||``.

K segments multiply the bound by at most K. The package's trace distance has
no 1/2, so on a pure state it is at most twice the unitary distance: every
panel error satisfies ``error <= 2 K bound(t / K)``.
"""

import math

import pytest

from splitsim.hamiltonians import spin_chain_termset
from splitsim.harness import RunConfig, ScalingConfig, k_list_errors, scaling_cross_check
from splitsim.matkernel import spectral_norm


def _comm(a, b):
    return a @ b - b @ a


def _trotter_bound(ts, dt):
    h = ts.terms
    pairs = [(j, k) for j in range(ts.m) for k in range(j + 1, ts.m)]
    return dt**2 / 2 * sum(spectral_norm(_comm(h[j], h[k])) for j, k in pairs)


def _strang_bound(ts, dt):
    a, b = ts.terms
    return (
        dt**3 / 12 * spectral_norm(_comm(b, _comm(b, a)))
        + dt**3 / 24 * spectral_norm(_comm(a, _comm(a, b)))
    )


_INSTANCES = [
    {"d": d, "m": m, "seed": seed} for d in (4, 6, 8) for m in (2, 3) for seed in range(4)
] + [{"n_qubits": 2}, {"n_qubits": 3}]
_CASES = [("trotter", inst) for inst in _INSTANCES] + [
    ("strang", inst) for inst in _INSTANCES if inst.get("m", 2) == 2
]


@pytest.mark.parametrize("scheme, instance", _CASES)
def test_panel_errors_stay_under_the_commutator_bound(scheme, instance):
    bound = {"trotter": _trotter_bound, "strang": _strang_bound}[scheme]
    cfg = RunConfig(scheme=scheme, t=1.0, k_list=tuple(range(1, 129)), **instance)
    ts, points = k_list_errors(cfg)
    for k, _, error in points:
        assert error <= 2 * k * bound(ts, cfg.t / k), (k, error)


@pytest.mark.parametrize("n_qubits, seed", [(2, 7), (3, 7), (3, 1), (3, 93)])
def test_trotter_scaling_cells_stay_under_the_commutator_bound(n_qubits, seed):
    """With two terms, error(K) <= t**2 ||[H_1, H_2]|| / K, so the smallest K
    reaching eps is at most ceil(t**2 ||[H_1, H_2]|| / eps). Seed 93 at three
    qubits is the panel whose fitted exponent the benchmark oracle rejects."""
    report = scaling_cross_check(ScalingConfig(schemes=("trotter",), n_qubits=n_qubits, seed=seed))
    ts = spin_chain_termset(n_qubits, 1.0, 1.0, 1.0)
    c = spectral_norm(_comm(*ts.terms))
    doc = report.per_scheme["trotter"]
    cells = [(cell["t"], report.fixed_eps, cell["K"]) for cell in doc["t_cells"]]
    cells += [(report.fixed_t, cell["eps"], cell["K"]) for cell in doc["eps_cells"]]
    assert not doc["failures"] and len(cells) == 7
    for t, eps, k in cells:
        assert k <= math.ceil(t * t * c / eps), (t, eps, k)
