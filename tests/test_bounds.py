import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsim.bounds import audit_schedule, lemma2_max, lemma2_uniform_value
from splitsim.schedules import Word
from splitsim.series import s_value

THIRD = 1.0 / 3.0


class TestLemma2Max:
    def test_three_coordinates(self):
        res = lemma2_max(3)
        assert abs(res.max_s - 8 / 27) <= 1e-4
        assert np.allclose(res.argmax, [2 / 3] * 3, atol=1e-3)
        assert abs(sum(res.argmax) - 2.0) <= 1e-9

    def test_five_coordinates(self):
        res = lemma2_max(5)
        assert abs(res.max_s - 0.32) <= 1e-3
        assert np.allclose(res.argmax, [0.4] * 5, atol=1e-2)

    def test_four_coordinates_below_third(self):
        # no closed form at even counts; the polished maximum stays below 1/3
        res = lemma2_max(4)
        assert res.max_s < THIRD - 1e-6

    def test_argmax_feasible(self):
        res = lemma2_max(4)
        assert all(-1e-12 <= x <= 1.0 + 1e-12 for x in res.argmax)
        assert abs(sum(res.argmax) - 2.0) <= 1e-9

    def test_polish_matches_uniform_value_closely(self):
        res = lemma2_max(5)
        assert abs(res.max_s - lemma2_uniform_value(5)) <= 1e-9

    def test_eleven_coordinates(self):
        res = lemma2_max(11)
        assert res.max_s < THIRD
        assert abs(res.max_s - lemma2_uniform_value(11)) <= 1e-14

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            lemma2_max(2)

    def test_repeated_runs_give_the_same_argmax(self):
        # determinism contract: the one start, the uniform point, depends on n alone
        assert lemma2_max(4).argmax == lemma2_max(4).argmax

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_polish_result_is_consistent(self, seed):
        # the reported maximum must be the value AT the reported point, and
        # polishing never loses ground
        from splitsim.bounds import _polish

        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        while True:
            x0 = rng.dirichlet(np.ones(n)) * 2.0
            if x0.max() <= 1.0:
                break
        x, v = _polish(x0)
        assert abs(s_value(x) - v) <= 1e-12
        assert v >= s_value(x0) - 1e-12
        assert abs(sum(x) - 2.0) <= 1e-9
        assert min(x) >= -1e-12 and max(x) <= 1.0 + 1e-12


class TestLemma2UniformValue:
    def test_closed_form_values(self):
        assert lemma2_uniform_value(3) == pytest.approx(8 / 27, abs=1e-15)
        assert lemma2_uniform_value(5) == pytest.approx(8 / 25, abs=1e-15)
        assert lemma2_uniform_value(7) == pytest.approx(16 / 49, abs=1e-15)

    def test_matches_s_value_at_uniform_point(self):
        for n in (3, 5, 7, 9):
            uniform = [2.0 / n] * n
            assert abs(lemma2_uniform_value(n) - s_value(uniform)) <= 1e-14

    def test_increasing_toward_one_third(self):
        vals = [lemma2_uniform_value(n) for n in (3, 5, 7, 9, 11)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v < THIRD for v in vals)

    def test_rejects_even(self):
        with pytest.raises(ValueError, match="odd"):
            lemma2_uniform_value(4)


class TestAuditSchedule:
    def test_merged_palindrome(self):
        w = Word(((1, 0.5), (2, 1.0), (1, 0.5)))
        audit = audit_schedule(w, 1, 2, dt_unit=1.0)
        assert audit.verdict == "obstructed"
        assert audit.s == pytest.approx(0.25, abs=1e-12)
        assert audit.gap == pytest.approx(1 / 12, abs=1e-12)

    def test_plain_split(self):
        w = Word(((1, 1.0), (2, 1.0)))
        audit = audit_schedule(w, 1, 2, dt_unit=1.0)
        assert audit.verdict == "obstructed"
        assert audit.s == 0.0
        assert audit.gap == pytest.approx(THIRD, abs=1e-15)

    def test_mistimed(self):
        w = Word(((1, 0.9), (2, 1.0)))
        audit = audit_schedule(w, 1, 2, dt_unit=1.0)
        assert audit.to_json() == {
            "pair": (1, 2), "normalized": False, "alpha_sum": 0.9, "beta_sum": 1.0,
            "s": None, "gap": None, "verdict": "mistimed",
        }

    def test_dt_unit_rescaling(self):
        w = Word(((1, 0.05), (2, 0.1), (1, 0.05)))
        audit = audit_schedule(w, 1, 2, dt_unit=0.1)
        assert audit.verdict == "obstructed"
        assert audit.s == pytest.approx(0.25, abs=1e-12)

    def test_rejects_missing_term(self):
        with pytest.raises(ValueError, match="no step"):
            audit_schedule(Word(((1, 1.0),)), 1, 2, dt_unit=1.0)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_normalized_words_always_obstructed(self, seed):
        rng = np.random.default_rng(seed)
        while True:
            length = int(rng.integers(2, 13))
            ks = list(rng.integers(1, 4, size=length))
            if 1 in ks and 2 in ks:
                break
        taus = rng.uniform(0.05, 1.0, size=length)
        totals = {k: sum(t for kk, t in zip(ks, taus) if kk == k) for k in (1, 2)}
        steps = tuple(
            (int(k), float(t / totals[k]) if k in (1, 2) else float(t))
            for k, t in zip(ks, taus)
        )
        audit = audit_schedule(Word(steps), 1, 2, dt_unit=1.0)
        assert audit.verdict == "obstructed"
        assert audit.s < THIRD
        assert audit.gap > 0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: lemma2_uniform_value(2), "need n >= 3, got 2"),
        (
            lambda: audit_schedule(Word(((1, 0.5), (2, 1.0), (1, 0.5))), 2, 2, dt_unit=1.0),
            "two distinct terms",
        ),
    ],
    ids=["uniform-value-n2", "audit-equal-pair"],
)
def test_rejected_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
