#!/usr/bin/env python3
"""Median timings of the exact kernels that the benchmark workloads hide.

Times, as the median of repeated calls in this process:

* ``evolve_states`` at the documented envelope, an alg2 stage at d = 64,
  m = 6 (720 words) over K = 8 stages on a 16-state panel, which takes the
  direct path, with the ``tracemalloc`` peak of one more call;
* ``evolve_states`` at d = 24, an alg2 stage at m = 3 over K = 256 stages,
  and at d = 32 over K = 512 stages, both on the Liouville path, each with
  the ``tracemalloc`` peak of one more call;
* ``_liouville_matrix`` of that d = 24 stage, with its peak, and of an alg2
  stage at d = 8, m = 2, the build behind each ``scaling-bisect`` probe;
* ``lemma2_max(9)``, the whole Lemma-2 search at n = 9, with its
  ``tracemalloc`` peak, and ``lemma2_max(64)`` at the largest supported n;
* one ``_sweep`` of pair moves from the uniform point at n = 16 and 32, the
  inner loop of the Lemma-2 polish;
* ``word_series`` of a 600-step alg2 word at m = 3 (200 stages, each term
  once per stage in a seeded random order), the series behind ``expand``;
* ``cli.main(["verify-lemma2", "--n", "3", "--out", FILE])``, the per-call
  floor of the command line in one process: argument parsing, a tiny search
  and the JSON write.
* ``_shard_outcomes(7, 0, 500)``, one 500-instance shard of the Lemma-1
  campaign (one evaluation chunk) evaluated in process, with its
  ``tracemalloc`` peak.

It prints one JSON line that also records the numpy and BLAS versions and
the BLAS thread setting. It takes no options and under a minute:

    python3 tools/kernel_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from splitsim import cli  # noqa: E402
from splitsim.bounds import _sweep, lemma2_max  # noqa: E402
from splitsim.channels import (  # noqa: E402
    _liouville_matrix,
    _propagation_path,
    evolve_states,
    word_stack,
)
from splitsim.harness import _projectors, _shard_outcomes, state_panel  # noqa: E402
from splitsim.hamiltonians import random_termset  # noqa: E402
from splitsim.schedules import Word, alg2_stage_mixture  # noqa: E402
from splitsim.series import s_value, word_series  # noqa: E402

SEED = 7
N_STATES = 16


def _timed(fn, repeats: int, traced: bool = False) -> dict:
    """Median wall time of ``repeats`` calls, then, if ``traced``, the
    ``tracemalloc`` peak of one more call."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    out = {"median_s": statistics.median(times), "repeats": repeats}
    if traced:
        tracemalloc.start()
        try:
            fn()
            out["peak_traced_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return out


def _evolve_case(d: int, m: int, stages: int):
    """An alg2 stage over t/stages at t = 1 and its panel, seeded as the
    documented envelope point."""
    ts = random_termset(d, m, 1.0, SEED)
    probs, us = word_stack(ts, alg2_stage_mixture(ts, 1.0 / stages))
    rhos = _projectors(state_panel(d, N_STATES, SEED))
    path = _propagation_path(d, len(probs), N_STATES, stages)
    return probs, us, rhos, path


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {"name": None, "version": None}
    return {"name": blas.get("name"), "version": blas.get("version")}


def main() -> int:
    # Small kernels first: the envelope's large buffers change what later
    # allocations cost.
    kernels = {
        "lemma2_max_9": _timed(lambda: lemma2_max(9), 7, traced=True),
        "lemma2_max_64": _timed(lambda: lemma2_max(64), 5),
    }
    for n in (16, 32):
        # _sweep moves the point it is given, so each call starts from a copy.
        uniform = [2.0 / n] * n
        kernels[f"sweep_uniform_{n}"] = _timed(lambda: _sweep(list(uniform), s_value(uniform)), 7)
    # One seeded draw of 200 alg2 stages at m = 3 over t = 1, the shape of the
    # word the benchmark hands to ``expand``.
    stage = alg2_stage_mixture(random_termset(4, 3, 1.0, SEED), 1.0 / 200)
    rng = random.Random(SEED)
    word = Word(tuple(step for _ in range(200) for step in rng.choice(stage.entries)[1].steps))
    kernels["word_series_alg2_m3_600"] = _timed(lambda: word_series(word, 3), 7)
    # verify-lemma2 prints one line per call; keep it out of the record.
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        argv = ["verify-lemma2", "--n", "3", "--out", os.path.join(tmp, "lemma2.json")]
        kernels["cli_verify_lemma2_n3"] = _timed(lambda: cli.main(argv), 25)
    kernels["campaign_shard_500"] = _timed(lambda: _shard_outcomes(SEED, 0, 500), 7, traced=True)
    probs, us, _, _ = _evolve_case(8, 2, 2**16)
    kernels["liouville_matrix_d8_m2"] = _timed(lambda: _liouville_matrix(probs, us), 101)
    probs, us, rhos, path = _evolve_case(24, 3, 256)
    kernels["liouville_matrix_d24_m3"] = _timed(lambda: _liouville_matrix(probs, us), 7, traced=True)
    kernels["evolve_states_d24_m3_K256"] = {
        "path": path, **_timed(lambda: evolve_states(probs, us, 256, rhos), 7, traced=True),
    }
    probs, us, rhos, path = _evolve_case(32, 3, 512)
    kernels["evolve_states_d32_m3_K512"] = {
        "path": path, **_timed(lambda: evolve_states(probs, us, 512, rhos), 3, traced=True),
    }
    probs, us, rhos, path = _evolve_case(64, 6, 8)
    kernels["evolve_states_d64_m6_K8"] = {
        "path": path, **_timed(lambda: evolve_states(probs, us, 8, rhos), 3, traced=True),
    }
    record = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "usable_cpus": len(os.sched_getaffinity(0)),
        },
        "kernels": kernels,
    }
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
