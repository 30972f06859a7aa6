import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshmind import (EpsilonGreedy, FeatureSpec, QParams, QTable, Transition,
                      encode_state, format_q_table, learning_coefficient,
                      q_update, select_action)
from meshmind.learning import IndexOutOfRange, NegativeInput


def bandit_table():
    """Three-state, four-action table with the mixed explored/unexplored
    layout used in the greedy-selection examples."""
    table = QTable(3, 4)
    rows = [(0, [None, 10.0, 5.0, 0.2]),
            (1, [100.0, 7.0, None, 1.0]),
            (2, [2.0, None, 30.0, 5.0])]
    for s, values in rows:
        for a, v in enumerate(values):
            if v is not None:
                table = table.set(s, a, v)
    return table


class TestQUpdate:
    def test_zero_learning_rate_changes_nothing(self):
        table = bandit_table()
        before = table.values.copy()
        updated = q_update(table, QParams(alpha=0.0, gamma=0.5),
                           Transition(0, 1, 99.0, 1))
        assert np.array_equal(updated.values, before)

    def test_full_rate_myopic_update_writes_reward(self):
        table = QTable(2, 2)  # unexplored everywhere, treated as 0
        updated = q_update(table, QParams(alpha=1.0, gamma=0.0),
                           Transition(0, 0, 7.0, 1))
        assert updated.entry(0, 0) == 7.0

    def test_hand_evaluated_update(self):
        # Q(s,a)=5, r=10, alpha=0.5, gamma=0.9, max Q(s',.)=2
        table = QTable(2, 2).set(0, 0, 5.0).set(1, 0, 2.0).set(1, 1, -1.0)
        updated = q_update(table, QParams(alpha=0.5, gamma=0.9),
                           Transition(0, 0, 10.0, 1))
        expected = 5.0 + 0.5 * (10.0 + 0.9 * 2.0 - 5.0)
        assert abs(updated.entry(0, 0) - expected) < 1e-12
        assert abs(updated.entry(0, 0) - 8.4) < 1e-12

    def test_unexplored_next_row_counts_as_zero(self):
        table = QTable(2, 2).set(0, 0, 4.0)
        updated = q_update(table, QParams(alpha=1.0, gamma=0.5),
                           Transition(0, 0, 2.0, 1))
        assert updated.entry(0, 0) == pytest.approx(2.0)

    def test_explored_entries_only_in_next_max(self):
        # next row has one explored negative entry: use it, not 0
        table = QTable(2, 2).set(1, 0, -3.0)
        updated = q_update(table, QParams(alpha=1.0, gamma=1.0 - 1e-9),
                           Transition(0, 0, 0.0, 1))
        assert updated.entry(0, 0) == pytest.approx(-3.0)

    def test_touches_exactly_one_entry(self):
        table = bandit_table()
        before, before_explored = table.values.copy(), table.explored.copy()
        assert table.entry(2, 1) is None
        value = table.update(QParams(alpha=0.5, gamma=0.5), 2, 1, 3.0, 0)
        diff = table.values != before
        assert diff.sum() == 1 and diff[2, 1]
        assert (table.explored != before_explored).sum() == 1
        assert table.entry(2, 1) == value == 0.5 * (3.0 + 0.5 * 10.0)

    def test_index_errors(self):
        table = QTable(2, 2)
        with pytest.raises(IndexOutOfRange):
            q_update(table, QParams(0.5, 0.5), Transition(5, 0, 1.0, 0))
        with pytest.raises(IndexOutOfRange):
            q_update(table, QParams(0.5, 0.5), Transition(0, 0, 1.0, 9))


    def test_updates_copy_one_row_not_the_table(self):
        # One dense copy of values and explored at this size is 554 KB.
        table = QTable(6840, 9)
        params = QParams(alpha=0.3, gamma=0.5)
        tracemalloc.start()
        try:
            for k in range(100):
                table = q_update(table, params, Transition(k % 3, k % 9, 1.0, (k + 1) % 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class DenseTable:
    """Reference model: the table as two dense arrays, updated in place."""

    def __init__(self, state_count, action_count):
        self.values = np.zeros((state_count, action_count))
        self.explored = np.zeros((state_count, action_count), dtype=bool)

    def set(self, state, action, value):
        self.values[state, action] = value
        self.explored[state, action] = True

    def q_update(self, params, tr):
        current = (self.values[tr.state, tr.action]
                   if self.explored[tr.state, tr.action] else 0.0)
        row = self.explored[tr.next_state]
        best_next = float(self.values[tr.next_state][row].max()) if row.any() else 0.0
        self.set(tr.state, tr.action,
                 current + params.alpha * (tr.reward + params.gamma * best_next - current))

    def dump(self):
        lines = ["\t".join(["state"] + [f"a_{j + 1}" for j in range(self.values.shape[1])])]
        for s, (values, explored) in enumerate(zip(self.values, self.explored)):
            lines.append("\t".join([f"s_{s + 1}"] + [f"{v:g}" if e else "-"
                                                     for v, e in zip(values, explored)]))
        return "\n".join(lines) + "\n"


def assert_matches(table, ref):
    states, actions = ref.values.shape
    assert np.array_equal(table.values, ref.values)
    assert np.array_equal(table.explored, ref.explored)
    for s in range(states):
        for a in range(actions):
            expected = float(ref.values[s, a]) if ref.explored[s, a] else None
            assert table.entry(s, a) == expected
    assert format_q_table(table) == ref.dump()


values = st.floats(min_value=-100, max_value=100, allow_nan=False)


class TestAgainstDenseModel:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 4), st.integers(1, 4),
           st.floats(0, 1), st.floats(0, 0.99))
    def test_random_updates_match_the_dense_model(self, data, states, actions, alpha, gamma):
        params = QParams(alpha=alpha, gamma=gamma)
        table, ref = QTable(states, actions), DenseTable(states, actions)
        for _ in range(data.draw(st.integers(0, 12))):
            s = data.draw(st.integers(0, states - 1))
            a = data.draw(st.integers(0, actions - 1))
            if data.draw(st.booleans()):
                v = data.draw(values)
                table = table.set(s, a, v)
                ref.set(s, a, v)
            else:
                tr = Transition(s, a, data.draw(values), data.draw(st.integers(0, states - 1)))
                table = q_update(table, params, tr)
                ref.q_update(params, tr)
            assert_matches(table, ref)


class TestGreedy:
    """The greedy arm of `select_action`: the first highest-valued explored action."""

    def greedy(self, table, state):
        return select_action(table, state, EpsilonGreedy(0.0), np.random.default_rng(0).random())

    def test_row_with_unexplored_first_action(self):
        assert self.greedy(bandit_table(), 0) == 1  # 10 beats 5 and 0.2

    def test_row_with_dominant_first_action(self):
        assert self.greedy(bandit_table(), 1) == 0  # 100

    def test_row_with_dominant_third_action(self):
        assert self.greedy(bandit_table(), 2) == 2  # 30

    def test_unexplored_cells_never_selected(self):
        table = QTable(1, 3).set(0, 2, -50.0)
        assert self.greedy(table, 0) == 2

    def test_tie_breaks_to_lowest_index(self):
        table = QTable(1, 3).set(0, 1, 5.0).set(0, 2, 5.0)
        assert self.greedy(table, 0) == 1


class TestLearningCoefficient:
    def test_direct_ratio(self):
        assert learning_coefficient(5.0, 10.0) == 0.5

    def test_overshoot_clamps_to_one(self):
        assert learning_coefficient(12.0, 10.0) == 1.0

    def test_zero_achieved(self):
        assert learning_coefficient(0.0, 10.0) == 0.0

    def test_zero_demand_counts_as_met(self):
        assert learning_coefficient(0.0, 0.0) == 1.0

    def test_negative_input_rejected(self):
        with pytest.raises(NegativeInput):
            learning_coefficient(-1.0, 5.0)
        with pytest.raises(NegativeInput):
            learning_coefficient(1.0, -5.0)

    @given(st.floats(min_value=0, max_value=1e6, allow_nan=False),
           st.floats(min_value=0, max_value=1e6, allow_nan=False))
    def test_always_in_unit_range(self, achieved, demanded):
        assert 0.0 <= learning_coefficient(achieved, demanded) <= 1.0

    @given(st.floats(min_value=0, max_value=100, allow_nan=False),
           st.floats(min_value=0, max_value=100, allow_nan=False),
           st.floats(min_value=0.01, max_value=100, allow_nan=False))
    def test_monotone(self, a1, a2, demanded):
        lo, hi = sorted((a1, a2))
        assert learning_coefficient(lo, demanded) <= learning_coefficient(hi, demanded)


def unit_features(*bins):
    """A feature spec of unit ranges with these bin counts."""
    return FeatureSpec(tuple((f"f{k}", 0.0, 1.0, b) for k, b in enumerate(bins)))


class TestEncodeState:
    SPEC = unit_features(4, 4)

    def test_all_zeros_is_first_state(self):
        assert encode_state((0.0, 0.0), self.SPEC) == 0

    def test_all_ones_is_last_state(self):
        assert encode_state((1.0, 1.0), self.SPEC) == 15

    def test_row_major_combination(self):
        # bins: 0.3 -> 1, 0.6 -> 2; row-major index 1*4 + 2
        assert encode_state((0.3, 0.6), self.SPEC) == 6

    @given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                    min_size=3, max_size=3))
    def test_total_over_unit_cube(self, values):
        spec = unit_features(3, 2, 5)
        index = encode_state(tuple(values), spec)
        assert 0 <= index < spec.state_count

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    def test_state_count_is_the_product_of_the_bins_past_the_last_state(self, bins):
        spec = unit_features(*bins)
        assert spec.bins == tuple(bins)
        assert spec.state_count == math.prod(bins) == encode_state((1.0,) * len(bins), spec) + 1

    def test_dimension_mismatch(self):
        with pytest.raises(IndexOutOfRange):
            encode_state((0.5,), self.SPEC)


class TestDump:
    def test_table_layout_golden(self):
        expected = ("state\ta_1\ta_2\ta_3\ta_4\n"
                    "s_1\t-\t10\t5\t0.2\n"
                    "s_2\t100\t7\t-\t1\n"
                    "s_3\t2\t-\t30\t5\n")
        assert format_q_table(bandit_table()) == expected


def test_qparams_validation():
    with pytest.raises(ValueError):
        QParams(alpha=1.5, gamma=0.5)
    with pytest.raises(ValueError):
        QParams(alpha=0.5, gamma=1.0)
