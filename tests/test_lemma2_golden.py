"""Lemma-2 outputs pinned bit for bit.

``data/lemma2_golden.json`` holds ``lemma2_max(n, grid_steps).to_json()`` for
n = 3..12 at the default grid, n = 3..9 on the grids 2, 3, 4, 6, 7, 10 and 12,
(5, 40) and (6, 30), recorded from the polish that finishes each start with
Newton steps on its active face. Every float must come back exactly; this path
uses no BLAS, so the values do not depend on the machine's linear-algebra
library. Beside each result, ``parent_max_s`` keeps the maximum that the
pair-move-only polish found before it, which the new one must not fall below.
"""

import json
from pathlib import Path

import pytest

from splitsim.bounds import lemma2_max

GOLDEN = json.loads((Path(__file__).parent / "data" / "lemma2_golden.json").read_text())
CASES = pytest.mark.parametrize(
    "case", GOLDEN["lemma2_max"], ids=lambda c: f"n{c['n']}-grid{c['grid_steps']}"
)


def _roundtrip(doc):
    return json.loads(json.dumps(doc))


@CASES
def test_lemma2_max_is_unchanged(case):
    assert _roundtrip(lemma2_max(case["n"], case["grid_steps"]).to_json()) == case["result"]


@CASES
def test_no_case_falls_below_the_pair_move_polish(case):
    assert case["result"]["max_s"] >= case["parent_max_s"] - 1e-15
