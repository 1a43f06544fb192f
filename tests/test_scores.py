"""Score-based metrics: indicator aggregation and the provision checklist."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdsres.errors import ValidationError
from wdsres.scoremetrics import (
    WPR_CATEGORIES,
    Criterion,
    Indicator,
    WprChecklist,
    balaei_aggregate,
    load_answers,
    load_checklist,
    load_indicators,
    wpr_score,
)


class TestIndicator:
    def test_scaled_value(self):
        assert Indicator("x", 3.0, 4.0).scaled == pytest.approx(0.75)

    def test_raw_above_max_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            Indicator("x", 5.0, 4.0)

    def test_nonpositive_max_rejected(self):
        with pytest.raises(ValidationError, match="max_observed"):
            Indicator("x", 0.0, 0.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError, match="weight"):
            Indicator("x", 1.0, 2.0, weight=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["raw", "max_observed", "weight"])
    def test_non_finite_field_rejected(self, field, value):
        fields = {"raw": 1.0, "max_observed": 2.0, "weight": 1.0, field: value}
        with pytest.raises(ValidationError, match=f"{field} must be a finite number"):
            Indicator("x", **fields)

    def test_weight_sum_overflow_rejected(self):
        big = [Indicator("a", 1.0, 1.0, 1e308), Indicator("b", 1.0, 1.0, 1e308)]
        with pytest.raises(ValidationError, match="overflow"):
            balaei_aggregate(big)


class TestBalaeiAggregate:
    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError) as info:
            balaei_aggregate([])
        assert str(info.value) == "indicator list must not be empty"

    def test_single_full_indicator(self):
        for weight in (0.1, 1.0, 7.0):
            assert balaei_aggregate([Indicator("x", 2.0, 2.0, weight)]) == pytest.approx(1.0)

    def test_two_indicator_fixture(self):
        indicators = [Indicator("a", 0.5, 1.0, 1.0), Indicator("b", 1.0, 1.0, 1.0)]
        assert balaei_aggregate(indicators) == pytest.approx(0.625, abs=1e-9)

    def test_all_zero(self):
        indicators = [Indicator("a", 0.0, 1.0), Indicator("b", 0.0, 2.0)]
        assert balaei_aggregate(indicators) == 0.0

    def test_zero_total_weight(self):
        with pytest.raises(ValidationError, match="zero"):
            balaei_aggregate([Indicator("a", 1.0, 1.0, 0.0)])

    @given(
        data=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.01, 10.0)),
            min_size=1,
            max_size=10,
        ),
        scale=st.floats(0.01, 100.0),
    )
    @settings(max_examples=300)
    def test_weight_scaling_invariance(self, data, scale):
        base = [Indicator(f"i{n}", v, 1.0, w) for n, (v, w) in enumerate(data)]
        scaled = [Indicator(f"i{n}", v, 1.0, w * scale) for n, (v, w) in enumerate(data)]
        assert balaei_aggregate(scaled) == pytest.approx(
            balaei_aggregate(base), rel=1e-9, abs=1e-12
        )

    def test_monotone_in_indicator_value(self):
        low = [Indicator("a", 0.3, 1.0), Indicator("b", 0.6, 1.0)]
        high = [Indicator("a", 0.4, 1.0), Indicator("b", 0.6, 1.0)]
        assert balaei_aggregate(high) > balaei_aggregate(low)

    def test_csv_loader(self, tmp_path):
        path = tmp_path / "ind.csv"
        path.write_text(
            "name,raw,max_observed,weight\nserviceability,0.5,1.0,1\nquality,1.0,1.0,1\n"
        )
        assert balaei_aggregate(load_indicators(path)) == pytest.approx(0.625)


class TestChecklist:
    def test_criterion_with_unknown_category_rejected(self):
        with pytest.raises(ValidationError) as info:
            Criterion("c", "nope", ("x",))
        assert str(info.value) == "criterion 'c': unknown category 'nope'"

    def test_empty_checklist_rejected(self):
        with pytest.raises(ValidationError) as info:
            WprChecklist(())
        assert str(info.value) == "checklist must contain criteria"

    def test_default_has_36_criteria(self):
        checklist = load_checklist()
        assert checklist.total == 36
        by_cat = Counter(c.category for c in checklist.criteria)
        assert sum(by_cat[cat] for cat in WPR_CATEGORIES) == 36
        assert all(by_cat[cat] == 6 for cat in WPR_CATEGORIES)

    def test_criteria_carry_tags(self):
        for criterion in load_checklist().criteria:
            assert criterion.tags

    def test_duplicate_names_rejected(self, tmp_path):
        doc = {
            "categories": {
                "supply": [{"name": "x", "tags": ["monitor"]},
                           {"name": "x", "tags": ["react"]}]
            }
        }
        path = tmp_path / "cl.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="unique"):
            load_checklist(path)

    @pytest.mark.parametrize("doc, message", [
        ([1], "must be a JSON object"),
        ({"categories": {"supply": 5}}, "'supply' must be a list of objects"),
        ({"categories": {"supply": [5]}}, r"supply\[0\] must be an object"),
        ({"categories": {"supply": [{"tags": ["react"]}]}}, "needs a string name"),
        ({"categories": {"supply": [{"name": ["x"], "tags": ["react"]}]}}, "string name"),
        ({"categories": {"supply": [{"name": "x", "tags": "react"}]}}, "list of strings"),
        ({"categories": {"supply": [{"name": "x", "tags": [["react"]]}]}}, "list of strings"),
    ])
    def test_malformed_document_rejected(self, tmp_path, doc, message):
        path = tmp_path / "cl.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=message):
            load_checklist(path)

    def test_unknown_category_rejected(self, tmp_path):
        path = tmp_path / "cl.json"
        path.write_text(json.dumps({"categories": {"bogus": []}}))
        with pytest.raises(ValidationError, match="unknown checklist categories"):
            load_checklist(path)


class TestWprScore:
    def test_all_false_scores_zero(self):
        checklist = load_checklist()
        answers = {name: False for name in checklist.names()}
        assert wpr_score(checklist, answers) == 0

    def test_all_true_scores_36(self):
        checklist = load_checklist()
        answers = {name: True for name in checklist.names()}
        assert wpr_score(checklist, answers) == 36

    def test_half_true(self):
        checklist = load_checklist()
        names = checklist.names()
        answers = {name: i < 18 for i, name in enumerate(names)}
        assert wpr_score(checklist, answers) == 18

    def test_missing_answer_rejected(self):
        checklist = load_checklist()
        answers = {name: True for name in checklist.names()[:-1]}
        with pytest.raises(ValidationError, match="unanswered"):
            wpr_score(checklist, answers)

    def test_unknown_criterion_rejected(self):
        checklist = load_checklist()
        answers = {name: True for name in checklist.names()}
        answers["made up"] = False
        with pytest.raises(ValidationError, match="unknown criteria"):
            wpr_score(checklist, answers)

    @given(bits=st.lists(st.booleans(), min_size=36, max_size=36),
           flip=st.integers(0, 35))
    @settings(max_examples=300)
    def test_single_flip_changes_score_by_one(self, bits, flip):
        checklist = load_checklist()
        names = checklist.names()
        answers = dict(zip(names, bits))
        base = wpr_score(checklist, answers)
        answers[names[flip]] = not answers[names[flip]]
        delta = wpr_score(checklist, answers) - base
        assert delta == (1 if answers[names[flip]] else -1)

    def test_answers_loader(self, tmp_path):
        checklist = load_checklist()
        path = tmp_path / "answers.json"
        path.write_text(json.dumps({name: True for name in checklist.names()}))
        assert wpr_score(checklist, load_answers(path)) == 36
