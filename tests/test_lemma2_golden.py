"""Lemma-2 outputs pinned bit for bit.

``data/lemma2_golden.json`` holds ``lemma2_max(n).to_json()`` for n = 3..33,
recorded from the one-start search: the uniform point, polished by pair moves
and Newton steps on its active face. Every float must come back exactly; this
path uses no BLAS, so the values do not depend on the machine's linear-algebra
library. Beside each result, ``parent_max_s`` keeps the maximum of the default
run before the grid scan was deleted (an exhaustive grid start, then the same
polish, for n <= 9; the uniform point and eight seeded starts, each polished,
for n >= 10), which the search must not fall below. ``former_grid_runs`` keeps the maximum of
every fixed-grid run (n = 3..9 on the grids 2, 3, 4, 6, 7, 10 and 12, (5, 40)
and (6, 30)) that the deleted ``grid_steps`` knob offered; the one search must
reach each of them too.
"""

import json
from pathlib import Path

import pytest

from splitsim.bounds import lemma2_max

GOLDEN = json.loads((Path(__file__).parent / "data" / "lemma2_golden.json").read_text())
CASES = pytest.mark.parametrize("case", GOLDEN["lemma2_max"], ids=lambda c: f"n{c['n']}")


def _roundtrip(doc):
    return json.loads(json.dumps(doc))


@CASES
def test_lemma2_max_is_unchanged(case):
    assert _roundtrip(lemma2_max(case["n"]).to_json()) == case["result"]


@CASES
def test_no_case_falls_below_the_pair_move_polish(case):
    assert case["result"]["max_s"] >= case["parent_max_s"] - 1e-15


@pytest.mark.parametrize(
    "run", GOLDEN["former_grid_runs"], ids=lambda r: f"n{r['n']}-grid{r['grid_steps']}"
)
def test_search_reaches_every_former_grid_run(run):
    assert lemma2_max(run["n"]).max_s >= run["max_s"] - 1e-15
