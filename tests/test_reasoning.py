import math

import pytest
from hypothesis import given, strategies as st

from meshmind import FeatureSpec, Outcome, classify, normalize, similarity
from meshmind.reasoning import DimensionMismatch, MissingFeature

SPEC = FeatureSpec(features=(("x", 0.0, 4.0, 4), ("demand", 0.0, 30.0, 3)))

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestNormalize:
    def test_minima_map_to_zeros(self):
        p = normalize({"x": 0.0, "demand": 0.0}, SPEC)
        assert p == (0.0, 0.0)

    def test_maxima_map_to_ones(self):
        p = normalize({"x": 4.0, "demand": 30.0}, SPEC)
        assert p == (1.0, 1.0)

    def test_midpoint(self):
        p = normalize({"x": 0.0, "demand": 15.0}, SPEC)
        assert p[1] == pytest.approx(0.5)

    def test_missing_feature(self):
        with pytest.raises(MissingFeature):
            normalize({"x": 1.0}, SPEC)

    def test_out_of_range_clamps(self):
        p = normalize({"x": -3.0, "demand": 99.0}, SPEC)
        assert p == (0.0, 1.0)

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False),
           st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_components_always_in_unit_range(self, x, d):
        p = normalize({"x": x, "demand": d}, SPEC)
        assert all(0.0 <= v <= 1.0 for v in p)

    @given(st.floats(min_value=-50, max_value=50, allow_nan=False),
           st.sampled_from([0.5, 2.0, 4.0, 8.0]))
    def test_uniform_rescaling_leaves_percepts_unchanged(self, x, scale):
        # scaling a feature and its configured range by the same power of two
        # is exact in binary floating point
        base = FeatureSpec(features=(("x", -50.0, 50.0, 2),))
        scaled = FeatureSpec(features=(("x", -50.0 * scale, 50.0 * scale, 2),))
        assert normalize({"x": x}, base) == normalize({"x": x * scale}, scaled)


class TestSimilarity:
    def test_identical_percepts_score_one(self):
        p = (0.3, 0.7)
        assert similarity(p, p) == 1.0

    def test_opposite_corners_score_zero(self):
        p = (0.0, 0.0, 0.0)
        q = (1.0, 1.0, 1.0)
        assert similarity(p, q) == pytest.approx(0.0, abs=1e-12)

    def test_unit_distance_in_two_dims(self):
        p = (0.0, 0.0)
        q = (1.0, 0.0)
        assert similarity(p, q) == pytest.approx(1.0 - 1.0 / math.sqrt(2.0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            similarity((0.1,), (0.1, 0.2))

    @given(st.lists(unit, min_size=1, max_size=6), st.data())
    def test_symmetric_and_bounded(self, values, data):
        other = data.draw(st.lists(unit, min_size=len(values), max_size=len(values)))
        p, q = tuple(values), tuple(other)
        assert similarity(p, q) == similarity(q, p)
        assert 0.0 <= similarity(p, q) <= 1.0

    @given(st.lists(unit, min_size=2, max_size=4))
    def test_max_similarity_equals_min_distance(self, query_values):
        # the case maximizing similarity is the case minimizing distance
        query = tuple(query_values)
        k = len(query_values)
        cases = [tuple((i + j) / 10 % 1.0 for j in range(k))
                 for i in range(5)]
        by_similarity = max(cases, key=lambda c: similarity(c, query))
        by_distance = min(cases, key=lambda c: math.dist(c, query))
        assert similarity(by_similarity, query) == similarity(by_distance, query)


class TestClassify:
    def test_high_similarity_high_coefficient_reuses(self):
        assert classify(0.95, 0.9, 0.8, 0.7, False) is Outcome.REUSE

    def test_high_similarity_low_coefficient_recomputes(self):
        assert classify(0.95, 0.2, 0.8, 0.7, False) is Outcome.RECOMPUTE

    def test_low_similarity_retains_when_room(self):
        assert classify(0.1, 0.0, 0.8, 0.7, False) is Outcome.RETAIN_NEW
        assert classify(0.1, 1.0, 0.8, 0.7, False) is Outcome.RETAIN_NEW

    def test_low_similarity_rejects_when_full(self):
        assert classify(0.1, 0.5, 0.8, 0.7, True) is Outcome.REJECT

    @given(unit, unit, unit, unit, st.booleans())
    def test_total_and_single_valued(self, score, coeff, th_s, th_c, full):
        outcome = classify(score, coeff, th_s, th_c, full)
        assert outcome in (Outcome.REUSE, Outcome.RECOMPUTE,
                           Outcome.RETAIN_NEW, Outcome.REJECT)
        # deterministic: same inputs, same branch
        assert classify(score, coeff, th_s, th_c, full) is outcome


def test_feature_spec_rejects_empty_range():
    with pytest.raises(ValueError):
        FeatureSpec(features=(("x", 1.0, 1.0, 2),))


@pytest.mark.parametrize("features,problem", [
    ((("x", 0.0, 1.0, 2), ("y", 0.0, 1.0, 0)), "feature 'y': needs at least one bin"),
    ((("x", 0.0, 1.0, -1),), "feature 'x': needs at least one bin"),
    ((), "a percept needs at least one feature")])
def test_feature_spec_rejects_fewer_than_one_bin_or_feature(features, problem):
    with pytest.raises(ValueError, match=problem):
        FeatureSpec(features)
