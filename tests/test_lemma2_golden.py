"""Lemma-2 outputs pinned bit for bit.

``data/lemma2_golden.json`` holds ``lemma2_max(n, grid_steps).to_json()`` for
n = 3..12 at the default grid, n = 3..9 on the grids 2, 3, 4, 6, 7, 10 and 12,
(5, 40) and (6, 30), all recorded from the array-based grid scan and polish
that the current code replaced. Every float must come back exactly; this path
uses no BLAS, so the values do not depend on the machine's linear-algebra
library.
"""

import json
from pathlib import Path

import pytest

from splitsim.bounds import lemma2_max

GOLDEN = json.loads((Path(__file__).parent / "data" / "lemma2_golden.json").read_text())


def _roundtrip(doc):
    return json.loads(json.dumps(doc))


@pytest.mark.parametrize(
    "case", GOLDEN["lemma2_max"], ids=lambda c: f"n{c['n']}-grid{c['grid_steps']}"
)
def test_lemma2_max_is_unchanged(case):
    assert _roundtrip(lemma2_max(case["n"], case["grid_steps"]).to_json()) == case["result"]

