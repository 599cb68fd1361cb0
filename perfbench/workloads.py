"""The benchmark's workloads: inputs made from the seed, and their oracles.

Each workload is a list of ``splitsim`` CLI calls. ``build`` writes the input
files a workload needs into a work directory and returns its calls; every
generated input (random instance seed, panel seed, campaign seed, expand
word) is drawn from a generator seeded by the workload name and ``--seed``.
The program sees only those files and its argv.

Each call has an oracle that holds for every seed, with the tolerances of the
matching acceptance criterion. A call's outputs are its stdout and the files
it writes. The oracles read them as text and import nothing from the package.

Sizes: ``full`` is what the benchmark times; ``tiny`` keeps every call and
oracle but shrinks the problem, for the benchmark's self-test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

THIRD = 1.0 / 3.0


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[[dict], list]


def _slope(ks, errors) -> float:
    """Least-squares slope of log(error) against log(K)."""
    lx = [math.log(k) for k in ks]
    ly = [math.log(e) for e in errors]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sum((x - mx) ** 2 for x in lx)


def _load(out: dict, path: str):
    text = out["files"][path]
    if text is None:
        raise ValueError(f"{path} was not written")
    return json.loads(text)


def _check_errors(ks, errors, expected: float, what: str) -> list:
    problems = []
    if not all(0.0 < e <= 2.0 for e in errors):
        problems.append(f"{what}: errors outside (0, 2]: {errors}")
    else:
        slope = _slope(ks, errors)
        if abs(slope - expected) > 0.15:
            problems.append(f"{what}: fitted slope {slope:.4f}, expected {expected} +/- 0.15")
    return problems


# --- sweep-randomized -------------------------------------------------------

def _sweep(rng: random.Random, size: str, work: Path) -> list:
    d, ks = (24, [8, 16, 32, 64, 128, 256]) if size == "full" else (4, [8, 16, 32, 64])
    instance_seed = rng.randrange(2**31)
    configs = {}
    for scheme in ("alg1", "alg2"):
        configs[scheme] = work / f"{scheme}.json"
        configs[scheme].write_text(json.dumps(
            {"scheme": scheme, "t": 1.0, "k_list": ks, "seed": instance_seed, "d": d, "m": 3}
        ))

    points = str(work / "alg1_points.json")

    def check_simulate(o):
        doc = _load(o, points)
        if [p["K"] for p in doc["points"]] != ks:
            return [f"simulate: K list {[p['K'] for p in doc['points']]} != {ks}"]
        return _check_errors(ks, [p["error"] for p in doc["points"]], -1.0, "alg1")

    out_dir = work / "alg2_sweep"
    result, csv = str(out_dir / "sweep_result.json"), str(out_dir / "points.csv")

    def check_sweep(o):
        doc = _load(o, result)
        rows = doc["points"]
        if [r[0] for r in rows] != ks:
            return [f"sweep: K list {[r[0] for r in rows]} != {ks}"]
        problems = _check_errors(ks, [r[2] for r in rows], -2.0, "alg2")
        if doc["slope"] is None or abs(doc["slope"] + 2.0) > 0.15:
            problems.append(f"sweep: reported slope {doc['slope']}, expected -2 +/- 0.15")
        if (o["files"][csv] or "").splitlines() != ["K,N,error"] + [f"{k},{n},{e!r}" for k, n, e in rows]:
            problems.append("sweep: points.csv does not match sweep_result.json")
        return problems

    return [
        Call(("simulate", "--config", str(configs["alg1"]), "--out", points), (points,), check_simulate),
        Call(("sweep", "--config", str(configs["alg2"]), "--out", str(out_dir)), (result, csv), check_sweep),
    ]


# --- scaling-bisect ---------------------------------------------------------

# Acceptance criterion 4: (exponent in t, tolerance, exponent in 1/eps, tolerance).
_EXPONENTS = {
    "trotter": (2.0, 0.2, 1.0, 0.1),
    "alg1": (2.0, 0.2, 1.0, 0.1),
    "strang": (1.5, 0.2, 0.5, 0.1),
    "alg2": (1.5, 0.2, 0.5, 0.1),
}


def _scaling(rng: random.Random, size: str, work: Path) -> list:
    cfg = work / "scaling.json"
    cfg.write_text(json.dumps(
        {"n_qubits": 3 if size == "full" else 2, "seed": rng.randrange(2**31)}
    ))
    out = str(work / "scaling_report.json")

    def check(o):
        per = _load(o, out)["per_scheme"]
        problems = []
        if sorted(per) != sorted(_EXPONENTS):
            return [f"scaling: schemes {sorted(per)}"]
        for scheme, (et, tol_t, ee, tol_e) in _EXPONENTS.items():
            cell = per[scheme]
            if cell["failures"]:
                problems.append(f"scaling {scheme}: failures {cell['failures']}")
            if cell["exponent_t"] is None or abs(cell["exponent_t"] - et) > tol_t:
                problems.append(f"scaling {scheme}: exponent_t {cell['exponent_t']}, expected {et} +/- {tol_t}")
            if cell["exponent_eps"] is None or abs(cell["exponent_eps"] - ee) > tol_e:
                problems.append(f"scaling {scheme}: exponent_eps {cell['exponent_eps']}, expected {ee} +/- {tol_e}")
        return problems

    return [Call(("scaling", "--config", str(cfg), "--out", out), (out,), check)]


# --- bound-campaign ---------------------------------------------------------

def _campaign(rng: random.Random, size: str, work: Path) -> list:
    n = 1000 if size == "full" else 50
    seed = rng.randrange(2**31)
    out = str(work / "campaign.json")

    def check(o):
        doc = _load(o, out)
        problems = []
        if not doc["ok"] or doc["n_violations"] != 0 or doc["violations"]:
            problems.append(f"bound-check: {doc['n_violations']} violation(s)")
        if doc["n_controls"] != n // 25:
            problems.append(f"bound-check: {doc['n_controls']} controls, expected {n // 25}")
        if doc["n_instances"] != n or doc["seed"] != seed:
            problems.append("bound-check: report names another campaign")
        return problems

    return [Call(("bound-check", "--instances", str(n), "--seed", str(seed), "--out", out),
                 (out,), check)]


# --- lemma2-obstruction -----------------------------------------------------

def uniform_value(n: int) -> float:
    """S at the uniform point of odd n, (1/3)(1 - 1/n^2)."""
    return THIRD * (1.0 - 1.0 / n**2)


def _lemma2(rng: random.Random, size: str, work: Path) -> list:
    ns, stages = ((9, 10), 200) if size == "full" else ((5, 10), 20)
    calls = []
    for n in ns:
        out = str(work / f"lemma2_n{n}.json")

        def check(o, out=out, n=n):
            doc = _load(o, out)
            # Padding with zero coordinates leaves S unchanged, so the maximum
            # at n is at least the uniform value at the largest odd n' <= n.
            floor = uniform_value(n if n % 2 else n - 1) - 1e-9
            if doc["n"] != n or not floor <= doc["max_s"] < THIRD:
                return [f"verify-lemma2 n={n}: max_s {doc['max_s']!r} outside [{floor!r}, 1/3)"]
            return []

        calls.append(Call(("verify-lemma2", "--n", str(n), "--out", out), (out,), check))

    # An alg2 word: each stage applies the m=3 terms once, for dt = 1/stages,
    # in a random order, so each term's durations total one stage unit.
    dt = 1.0 / stages
    steps = []
    for _ in range(stages):
        order = [1, 2, 3]
        rng.shuffle(order)
        steps += [[k, dt] for k in order]
    word = work / "word.json"
    word.write_text(json.dumps({"steps": steps}))
    out = str(work / "expand.json")

    def check(o):
        doc = _load(o, out)
        audit = doc["audit"]
        coeffs = {tuple(c["word"]): complex(c["re"], c["im"]) for c in doc["series"]["coeffs"]}
        # third_order_pair_sum from the series: Re[(c_aba + c_bab) / i].
        s_series = ((coeffs.get((1, 2, 1), 0j) + coeffs.get((2, 1, 2), 0j)) / 1j).real
        if audit["verdict"] != "obstructed":
            return [f"expand: verdict {audit['verdict']}"]
        if not abs(audit["s"] - s_series) <= 1e-9:
            return [f"expand: profile s {audit['s']!r} != series s {s_series!r}"]
        return []

    calls.append(Call(("expand", "--word", str(word), "--pair", "1,2", "--out", out),
                      (out,), check))
    return calls


# name -> (input maker, why)
WORKLOADS = {
    "sweep-randomized": (_sweep, "alg1 simulate and alg2 sweep at d=24: channel construction and superoperator powers dominate"),
    "scaling-bisect": (_scaling, "bisected minimum K for all four schemes at d=8: per-probe overhead and SVD distances, huge K"),
    "bound-campaign": (_campaign, "1000 tiny Lemma-1 instances: validation, eigendecompositions and term-set draws, not BLAS"),
    "lemma2-obstruction": (_lemma2, "verify-lemma2 at n=9,10 and expand of a 600-step word: series and bounds, pure Python"),
}


def build(name: str, seed: int, size: str, work: Path) -> list:
    rng = random.Random(f"splitsim-bench:{name}:{seed}")
    return WORKLOADS[name][0](rng, size, work)
