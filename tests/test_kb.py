import math
import random
from dataclasses import replace

import pytest

from meshmind import Case, KnowledgeBase, PerceptVector, SetChannel, similarity
from meshmind.kb import InvalidCoefficient, UnknownCase


def case(values, action=None, coefficient=0.5, **kw):
    return Case(percept=PerceptVector(tuple(values)),
                action=action or SetChannel(0, 1),
                coefficient=coefficient, **kw)


class TestRetrieve:
    def test_empty_store_returns_none(self):
        kb = KnowledgeBase(capacity=4)
        assert kb.retrieve(PerceptVector((0.5, 0.5))) is None

    def test_exact_match_scores_one(self):
        kb = KnowledgeBase(capacity=4)
        stored = case((0.2, 0.8))
        kb.retain(stored)
        hit, score = kb.retrieve(PerceptVector((0.2, 0.8)))
        assert hit is stored
        assert score == 1.0

    def test_nearest_of_two_wins(self):
        kb = KnowledgeBase(capacity=4)
        near = case((0.0, 0.0))
        far = case((1.0, 1.0))
        kb.retain(near).retain(far)
        query = PerceptVector((0.1, 0.1))
        # independent check: compare distances directly
        assert math.dist(near.percept.values, query.values) \
            < math.dist(far.percept.values, query.values)
        hit, _ = kb.retrieve(query)
        assert hit is near

    def test_retrieve_updates_usage_metadata(self):
        kb = KnowledgeBase(capacity=4)
        stored = case((0.5,), last_used=3)
        kb.retain(stored)
        kb.retrieve(PerceptVector((0.5,), t=9))
        assert stored.hits == 1
        assert stored.last_used == 9

    def test_tie_prefers_most_recently_used(self):
        kb = KnowledgeBase(capacity=4)
        stale = case((0.0, 0.4), last_used=1)
        fresh = case((0.0, 0.6), last_used=8)
        kb.retain(stale).retain(fresh)
        hit, _ = kb.retrieve(PerceptVector((0.0, 0.5)))
        assert hit is fresh


class TestRetain:
    def test_insert_into_empty(self):
        kb = KnowledgeBase(capacity=4)
        kb.retain(case((0.1,)))
        assert len(kb) == 1

    def test_lru_eviction_drops_stalest(self):
        kb = KnowledgeBase(capacity=3, eviction="lru")
        oldest = case((0.1,), last_used=1)
        kb.retain(oldest)
        kb.retain(case((0.2,), last_used=5))
        kb.retain(case((0.3,), last_used=9))
        kb.retain(case((0.4,), last_used=9))
        assert len(kb) == 3
        assert oldest not in kb.cases

    def test_lowest_coefficient_eviction(self):
        kb = KnowledgeBase(capacity=2, eviction="lowest-coefficient")
        weak = case((0.1,), coefficient=0.05)
        strong = case((0.2,), coefficient=0.9)
        kb.retain(weak).retain(strong)
        kb.retain(case((0.3,), coefficient=0.5))
        assert weak not in kb.cases
        assert strong in kb.cases

    def test_exact_duplicate_percept_replaces(self):
        kb = KnowledgeBase(capacity=4)
        kb.retain(case((0.5, 0.5), action=SetChannel(0, 1)))
        kb.retain(case((0.5, 0.5), action=SetChannel(0, 3)))
        assert len(kb) == 1
        assert kb.cases[0].action == SetChannel(0, 3)


class TestRevise:
    def test_coefficient_update(self):
        kb = KnowledgeBase(capacity=4)
        stored = case((0.5,), coefficient=0.2)
        kb.retain(stored)
        kb.revise(stored, coefficient=0.9)
        assert stored.coefficient == 0.9

    def test_noop_revise_touches_only_last_used(self):
        kb = KnowledgeBase(capacity=4)
        stored = case((0.5,), coefficient=0.2, last_used=1)
        kb.retain(stored)
        kb.revise(stored, now=7)
        assert stored.coefficient == 0.2
        assert stored.action == SetChannel(0, 1)
        assert stored.last_used == 7

    def test_revised_action_is_what_retrieve_returns(self):
        kb = KnowledgeBase(capacity=4)
        stored = case((0.5, 0.5), action=SetChannel(0, 1))
        kb.retain(stored)
        kb.revise(stored, action=SetChannel(0, 2))
        hit, _ = kb.retrieve(PerceptVector((0.5, 0.5)))
        assert hit.action == SetChannel(0, 2)

    def test_unknown_case(self):
        kb = KnowledgeBase(capacity=4)
        with pytest.raises(UnknownCase):
            kb.revise(case((0.5,)), coefficient=0.4)

    def test_equal_copy_of_a_stored_case_is_unknown(self):
        kb = KnowledgeBase(capacity=4)
        stored = case((0.5,), coefficient=0.2)
        kb.retain(stored)
        copy = replace(stored)
        assert copy == stored and copy is not stored
        with pytest.raises(UnknownCase):
            kb.revise(copy, coefficient=0.9)
        assert stored.coefficient == 0.2 and len(kb) == 1 and kb.cases[0] is stored

    def test_invalid_coefficient(self):
        kb = KnowledgeBase(capacity=4)
        stored = case((0.5,))
        kb.retain(stored)
        with pytest.raises(InvalidCoefficient):
            kb.revise(stored, coefficient=1.5)


class TestProperties:
    def test_size_bounded_under_random_operations(self):
        rng = random.Random(42)
        kb = KnowledgeBase(capacity=16)
        for step in range(10_000):
            op = rng.random()
            if op < 0.5:
                values = (rng.random(), rng.random())
                kb.retain(case(values, coefficient=rng.random(),
                               last_used=step, created=step))
            elif op < 0.8:
                kb.retrieve(PerceptVector((rng.random(), rng.random()), t=step))
            elif kb.cases:
                target = rng.choice(kb.cases)
                kb.revise(target, coefficient=rng.random(), now=step)
            assert len(kb) <= kb.capacity
            assert all(0.0 <= c.coefficient <= 1.0 for c in kb.cases)

    def test_retrieve_matches_brute_force_scan(self):
        rng = random.Random(7)
        for _ in range(50):
            kb = KnowledgeBase(capacity=32)
            for i in range(rng.randint(1, 20)):
                kb.retain(case((rng.random(), rng.random(), rng.random()),
                               last_used=i, created=i))
            query = PerceptVector((rng.random(), rng.random(), rng.random()))
            best_score = max(similarity(c.percept, query) for c in kb.cases)
            hit, score = kb.retrieve(query)
            assert score == best_score
            assert similarity(hit.percept, query) == best_score

    def test_retain_then_retrieve_roundtrip(self):
        rng = random.Random(11)
        kb = KnowledgeBase(capacity=8)
        for i in range(20):
            stored = case((rng.random(), rng.random()), last_used=i, created=i)
            kb.retain(stored)
            hit, score = kb.retrieve(stored.percept)
            assert hit is stored
            assert score == 1.0


class TestSnapshot:
    def test_roundtrip_through_json_file(self, tmp_path):
        kb = KnowledgeBase(capacity=8, eviction="lru")
        kb.retain(case((0.25, 0.75), action=SetChannel(2, 3),
                       coefficient=0.4, last_used=5, created=2))
        path = tmp_path / "kb.json"
        kb.save(path)
        loaded = KnowledgeBase.load(path)
        assert loaded.capacity == 8
        assert len(loaded) == 1
        restored = loaded.cases[0]
        assert restored.percept.values == (0.25, 0.75)
        assert restored.action == SetChannel(2, 3)
        assert restored.coefficient == 0.4
        assert (restored.hits, restored.last_used, restored.created) == (0, 5, 2)

    def test_schema_tag_is_checked(self, tmp_path):
        with pytest.raises(ValueError):
            KnowledgeBase.from_snapshot({"schema": "something-else", "cases": []})

    def test_case_rejects_out_of_range_coefficient(self):
        with pytest.raises(InvalidCoefficient):
            case((0.1,), coefficient=-0.2)
