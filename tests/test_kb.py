import math
import random
from dataclasses import replace

import pytest

from meshmind import Case, KnowledgeBase, SetChannel, similarity
from meshmind.harness import SpecValidation, knowledge_base_from_snapshot, load_snapshot
from meshmind.kb import InvalidCoefficient, UnknownCase
from meshmind.reasoning import DimensionMismatch


def case(values, action=None, coefficient=0.5, **kw):
    return Case(percept=tuple(values),
                action=action or SetChannel(0, 1),
                coefficient=coefficient, **kw)


class TestRetrieve:
    def test_empty_store_returns_none(self):
        kb = KnowledgeBase(capacity=4)
        assert kb.retrieve((0.5, 0.5), now=0) is None

    def test_exact_match_scores_one(self):
        kb = KnowledgeBase(capacity=4)
        stored = case((0.2, 0.8))
        kb.retain(stored)
        hit, score = kb.retrieve((0.2, 0.8), now=0)
        assert hit is stored
        assert score == 1.0

    def test_nearest_of_two_wins(self):
        kb = KnowledgeBase(capacity=4)
        near = case((0.0, 0.0))
        far = case((1.0, 1.0))
        kb.retain(near).retain(far)
        query = (0.1, 0.1)
        # independent check: compare distances directly
        assert math.dist(near.percept, query) \
            < math.dist(far.percept, query)
        hit, _ = kb.retrieve(query, now=0)
        assert hit is near

    def test_retrieve_updates_usage_metadata(self):
        kb = KnowledgeBase(capacity=4)
        stored = case((0.5,), last_used=3)
        kb.retain(stored)
        kb.retrieve((0.5,), now=9)
        assert stored.hits == 1
        assert stored.last_used == 9

    def test_tie_prefers_most_recently_used(self):
        kb = KnowledgeBase(capacity=4)
        stale = case((0.0, 0.4), last_used=1)
        fresh = case((0.0, 0.6), last_used=8)
        kb.retain(stale).retain(fresh)
        hit, _ = kb.retrieve((0.0, 0.5), now=0)
        assert hit is fresh

    def test_retrieve_rejects_a_query_of_another_width(self):
        kb = KnowledgeBase(capacity=4)
        kb.retain(case((0.5, 0.5)))
        with pytest.raises(DimensionMismatch, match="2 vs 3"):
            kb.retrieve((0.5, 0.5, 0.5), now=1)


class TestRetain:
    def test_insert_into_empty(self):
        kb = KnowledgeBase(capacity=4)
        kb.retain(case((0.1,)))
        assert len(kb) == 1

    def test_lru_eviction_drops_stalest(self):
        kb = KnowledgeBase(capacity=3)
        oldest = case((0.1,), last_used=1)
        kb.retain(oldest)
        kb.retain(case((0.2,), last_used=5))
        kb.retain(case((0.3,), last_used=9))
        kb.retain(case((0.4,), last_used=9))
        assert len(kb) == 3
        assert oldest not in kb.cases

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

    def test_revise_leaves_last_used(self):
        kb = KnowledgeBase(capacity=4)
        stored = case((0.5,), coefficient=0.2, last_used=1)
        kb.retain(stored)
        kb.revise(stored, action=SetChannel(0, 2), coefficient=0.6)
        assert (stored.action, stored.coefficient) == (SetChannel(0, 2), 0.6)
        assert stored.last_used == 1

    def test_revised_action_is_what_retrieve_returns(self):
        kb = KnowledgeBase(capacity=4)
        stored = case((0.5, 0.5), action=SetChannel(0, 1))
        kb.retain(stored)
        kb.revise(stored, action=SetChannel(0, 2))
        hit, _ = kb.retrieve((0.5, 0.5), now=0)
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
                kb.retrieve((rng.random(), rng.random()), now=step)
            elif kb.cases:
                target = rng.choice(kb.cases)
                kb.revise(target, coefficient=rng.random())
            assert len(kb) <= kb.capacity
            assert all(0.0 <= c.coefficient <= 1.0 for c in kb.cases)

    def test_retrieve_matches_brute_force_scan(self):
        rng = random.Random(7)
        for _ in range(50):
            kb = KnowledgeBase(capacity=32)
            for i in range(rng.randint(1, 20)):
                kb.retain(case((rng.random(), rng.random(), rng.random()),
                               last_used=i, created=i))
            query = (rng.random(), rng.random(), rng.random())
            best_score = max(similarity(c.percept, query) for c in kb.cases)
            hit, score = kb.retrieve(query, now=0)
            assert score == best_score
            assert similarity(hit.percept, query) == best_score

    def test_retain_then_retrieve_roundtrip(self):
        rng = random.Random(11)
        kb = KnowledgeBase(capacity=8)
        for i in range(20):
            stored = case((rng.random(), rng.random()), last_used=i, created=i)
            kb.retain(stored)
            hit, score = kb.retrieve(stored.percept, now=i)
            assert hit is stored
            assert score == 1.0


class TestSnapshot:
    def test_roundtrip_through_json_file(self, tmp_path):
        kb = KnowledgeBase(capacity=8)
        kb.retain(case((0.25, 0.75), action=SetChannel(2, 3),
                       coefficient=0.4, last_used=5, created=2))
        path = tmp_path / "kb.json"
        kb.save(path)
        loaded = load_snapshot(path)
        assert loaded.capacity == 8
        assert len(loaded) == 1
        restored = loaded.cases[0]
        assert restored.percept == (0.25, 0.75)
        assert restored.action == SetChannel(2, 3)
        assert restored.coefficient == 0.4
        assert (restored.hits, restored.last_used, restored.created) == (0, 5, 2)

    def test_a_snapshot_file_that_is_not_utf8_is_one_problem(self, tmp_path):
        path = tmp_path / "kb.json"
        KnowledgeBase(capacity=2).save(path)
        path.write_bytes(path.read_bytes().replace(b"meshmind-kb", b"meshmind-kb\xc3"))
        with pytest.raises(SpecValidation) as err:
            load_snapshot(path)
        assert err.value.problems == ["snapshot: byte 26: not UTF-8 (invalid continuation byte)"]

    def test_rows_hold_no_step_or_node_and_older_rows_still_load(self):
        kb = KnowledgeBase(capacity=4)
        kb.retain(case((0.5,), coefficient=0.4, last_used=7, created=3))
        data = kb.snapshot()
        assert data["schema"] == "meshmind-kb/2"
        assert sorted(data["cases"][0]) == ["action", "coefficient", "created", "hits",
                                            "last_used", "percept"]
        older = dict(data, schema="meshmind-kb/1",
                     cases=[dict(data["cases"][0], t=3, node=2)])  # as /1 snapshots wrote them
        for snapshot in (data, older):
            restored = knowledge_base_from_snapshot(snapshot).cases[0]
            assert (restored.percept, restored.coefficient, restored.created) == ((0.5,), 0.4, 3)

    def test_schema_tag_is_checked(self, tmp_path):
        data = KnowledgeBase(capacity=2).snapshot()
        for tag in ("meshmind-kb/1", "meshmind-kb/2"):
            assert knowledge_base_from_snapshot(dict(data, schema=tag)).capacity == 2
        for tag in ("something-else", "meshmind-kb/3", None):
            with pytest.raises(SpecValidation) as err:
                knowledge_base_from_snapshot(dict(data, schema=tag))
            assert err.value.problems == [
                f"schema: expected 'meshmind-kb/1' or 'meshmind-kb/2', got {tag!r}"]

    def test_snapshot_names_lru_eviction_and_loads_no_other(self):
        data = KnowledgeBase(capacity=2).snapshot()
        assert data["eviction"] == "lru"
        with pytest.raises(SpecValidation, match="expected 'lru', got 'lowest-coefficient'"):
            knowledge_base_from_snapshot(dict(data, eviction="lowest-coefficient"))

    @pytest.mark.parametrize("field,value,problem", [
        ("percept", [2.0, 0.5], "percept[0]: expected float in [0, 1], got 2.0"),
        ("percept", [0.5, -1.0], "percept[1]: expected float in [0, 1], got -1.0"),
        ("percept", [math.nan, 0.5], "percept[0]: expected float in [0, 1], got nan"),
        ("percept", [0.5, math.inf], "percept[1]: expected float in [0, 1], got inf"),
        ("percept", [0.5], "percept: 1 values, case 0 has 2"),
        ("hits", -3, "hits: expected int in [0, inf], got -3"),
        ("last_used", -1, "last_used: expected int in [0, inf], got -1"),
        ("created", -2, "created: expected int in [0, inf], got -2"),
        ("hits", 1.5, "hits: expected int in [0, inf], got 1.5"),
        ("created", True, "created: expected int in [0, inf], got True"),
        ("percept", ["a", 0.5], "percept[0]: expected float in [0, 1], got 'a'"),
        ("percept", 0.5, "percept: expected a list, got 0.5"),
        ("coefficient", 2.0, "coefficient: expected float in [0, 1], got 2.0"),
        ("coefficient", "high", "coefficient: expected float in [0, 1], got 'high'"),
        ("action", {"kind": "x", "node": 0},
         "action: expected a mapping with kind one of ['move_to', 'set_channel'], got 'x'"),
        ("action", {"node": 0, "channel": 1}, "action: expected a mapping with kind one of "
         "['move_to', 'set_channel'], got {'node': 0, 'channel': 1}"),
        ("action", {"kind": "move_to", "node": 0}, "missing key cases[1].action.cell"),
        ("action", [0, 1],
         "action: expected a mapping with kind one of ['move_to', 'set_channel'], got [0, 1]"),
        ("action", {"kind": "set_channel", "node": 0, "channel": "2"},
         "action.channel: expected int, got '2'"),
        ("action", {"kind": "set_channel", "node": 1.5, "channel": 1},
         "action.node: expected int, got 1.5"),
        ("action", {"kind": "move_to", "node": 0, "cell": [1]},
         "action.cell: expected a pair, got [1]"),
        ("action", {"kind": "move_to", "node": 0, "cell": 5},
         "action.cell: expected a pair, got 5"),
        ("percept", [], "percept: expected at least one value, got []"),
        ("percept", [0.0, 1.0], "percept: the same as case 0's"),
        ("weight", 1.0, "unknown key cases[1].weight"),
    ], ids=["above-one", "negative", "nan", "inf", "short-percept",
            "negative-hits", "negative-last-used", "negative-created", "float-hits",
            "bool-created", "text-percept", "scalar-percept", "coefficient-range",
            "text-coefficient", "unknown-action-kind", "action-without-kind",
            "action-without-cell", "list-action", "text-channel", "float-node", "short-cell",
            "scalar-cell", "empty-percept", "duplicate-percept", "unknown-key"])
    def test_a_case_no_knowledge_base_holds_is_rejected_by_index(self, field, value, problem):
        kb = KnowledgeBase(capacity=4)
        for x in (0.0, 0.5, 1.0):
            kb.retain(case((x, 1.0 - x), last_used=4, created=2))
        data = kb.snapshot()
        data["cases"][1][field] = value
        with pytest.raises(SpecValidation) as err:
            knowledge_base_from_snapshot(data)
        keyed = problem.startswith(("missing key", "unknown key"))
        assert err.value.problems == [problem if keyed else f"cases[1].{problem}"]

    @pytest.mark.parametrize("field", ["percept", "action", "coefficient", "hits",
                                       "last_used", "created"])
    def test_a_row_missing_a_field_is_rejected_by_index(self, field):
        kb = KnowledgeBase(capacity=4)
        for x in (0.0, 0.5, 1.0):
            kb.retain(case((x, 1.0 - x), last_used=4, created=2))
        data = kb.snapshot()
        del data["cases"][2][field]
        with pytest.raises(SpecValidation) as err:
            knowledge_base_from_snapshot(data)
        assert err.value.problems == [f"missing key cases[2].{field}"]

    @pytest.mark.parametrize("edit,problems", [
        (lambda data: data.pop("cases"), ["missing key cases"]),
        (lambda data: data.pop("capacity"), ["missing key capacity"]),
        (lambda data: data.pop("eviction"), ["missing key eviction"]),
        (lambda data: data.update(capacity="8"), ["capacity: expected int, got '8'"]),
        (lambda data: data.update(capacity=None), ["capacity: expected int, got None"]),
        (lambda data: data.update(capacity=2.5), ["capacity: expected int, got 2.5"]),
        (lambda data: data.update(capacity=True), ["capacity: expected int, got True"]),
        (lambda data: data.update(capacity=0),
         ["capacity: capacity must be >= 1", "cases: 1 cases, above the capacity 0"]),
        (lambda data: data.update(cases=[1]), ["cases[0]: expected a mapping, got 1"]),
        (lambda data: data.update(owner=3), ["unknown key owner"]),
        (lambda data: data["cases"][0].update(percept=[]),
         ["cases[0].percept: expected at least one value, got []"]),
    ], ids=["missing-cases", "missing-capacity", "missing-eviction", "text-capacity",
            "null-capacity", "float-capacity", "bool-capacity", "zero-capacity", "scalar-case",
            "unknown-key", "empty-percept"])
    def test_a_snapshot_no_knowledge_base_holds_is_rejected_by_key_path(self, edit, problems):
        kb = KnowledgeBase(capacity=4)
        kb.retain(case((0.5, 0.5)))
        data = kb.snapshot()
        edit(data)
        with pytest.raises(SpecValidation) as err:
            knowledge_base_from_snapshot(data)
        assert err.value.problems == problems

    def test_a_snapshot_that_is_no_mapping_is_rejected(self):
        with pytest.raises(SpecValidation) as err:
            knowledge_base_from_snapshot([KnowledgeBase(capacity=2).snapshot()])
        assert err.value.problems[0].startswith("snapshot: expected a mapping, got [{")

    def test_case_rejects_out_of_range_coefficient(self):
        with pytest.raises(InvalidCoefficient):
            case((0.1,), coefficient=-0.2)
