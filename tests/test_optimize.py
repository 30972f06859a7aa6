import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshmind import (Boltzmann, Controlled, DemandProfile, EnvConfig,
                      Environment, EpsilonGreedy, MeshTopology, MoveTo,
                      QTable, UserSpec, boltzmann_probabilities,
                      brute_force_channels, count_conflicts, greedy_coloring,
                      location_search, select_action)
from meshmind.learning import IndexOutOfRange
from meshmind.optimize import (ControlContext, EmptyCandidates, NoAllowedCell,
                               TooLarge, one_step_cells)


def topology(n, edges, channels=3):
    return MeshTopology(positions={i: (i, 0) for i in range(n)},
                        edges=set(edges),
                        channels=tuple(range(1, channels + 1)))


class TestSelectAction:
    def test_zero_epsilon_is_always_greedy(self):
        table = QTable(1, 3).set(0, 0, 1.0).set(0, 1, 9.0).set(0, 2, 4.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert select_action(table, 0, EpsilonGreedy(0.0),
                                 [0, 1, 2], rng) == 1

    def test_full_epsilon_covers_all_candidates(self):
        table = QTable(1, 3).set(0, 1, 9.0)
        rng = np.random.default_rng(1)
        seen = {select_action(table, 0, EpsilonGreedy(1.0), [0, 1, 2], rng)
                for _ in range(300)}
        assert seen == {0, 1, 2}

    def test_boltzmann_equal_values_are_uniform(self):
        probs = boltzmann_probabilities([2.0, 2.0], tau=1.0)
        assert probs == pytest.approx([0.5, 0.5])

    def test_boltzmann_hand_evaluated_softmax(self):
        probs = boltzmann_probabilities([1.0, 0.0], tau=1.0)
        expected = math.e / (math.e + 1.0)
        assert probs[0] == pytest.approx(expected, rel=1e-12)

    def test_boltzmann_treats_unexplored_as_zero(self):
        table = QTable(1, 2).set(0, 0, 0.0)  # entry 1 unexplored
        rng = np.random.default_rng(2)
        picks = [select_action(table, 0, Boltzmann(1.0), [0, 1], rng)
                 for _ in range(4000)]
        share = picks.count(0) / len(picks)
        assert 0.45 < share < 0.55

    def test_empty_candidates(self):
        with pytest.raises(EmptyCandidates):
            select_action(QTable(1, 1), 0, EpsilonGreedy(0.1), [],
                          np.random.default_rng(0))

    def test_candidates_must_list_every_action(self):
        for candidates in ([0, 1], [0, 1, 2, 3]):
            with pytest.raises(IndexOutOfRange):
                select_action(QTable(1, 3), 0, EpsilonGreedy(0.1), candidates,
                              np.random.default_rng(0))

    def test_greedy_fallback_without_explored_entries_is_uniform(self):
        table = QTable(1, 3)
        rng = np.random.default_rng(3)
        seen = {select_action(table, 0, EpsilonGreedy(0.0), [0, 1, 2], rng)
                for _ in range(200)}
        assert seen == {0, 1, 2}

    @given(st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
                    min_size=1, max_size=8),
           st.floats(min_value=1e-3, max_value=100))
    def test_boltzmann_rows_sum_to_one(self, values, tau):
        assert abs(boltzmann_probabilities(values, tau).sum() - 1.0) <= 1e-9

    def test_cold_boltzmann_concentrates_on_argmax(self):
        table = QTable(1, 3).set(0, 0, 1.0).set(0, 1, 2.0).set(0, 2, 0.5)
        rng = np.random.default_rng(4)
        picks = [select_action(table, 0, Boltzmann(1e-6), [0, 1, 2], rng)
                 for _ in range(10_000)]
        assert picks.count(1) / len(picks) > 0.999


class TestControlledPolicy:
    def test_no_switch_while_serving_above_threshold(self):
        table = QTable(1, 3).set(0, 2, 9.0)
        policy = Controlled(epsilon=0.5, serving_threshold=1.0)
        context = ControlContext(serving_load=4.0, current_channel=1)
        candidates = [1, 2, 3]  # channel palette, in action-index order
        rng = np.random.default_rng(5)
        for _ in range(300):
            action = select_action(table, 0, policy, candidates, rng,
                                   context=context)
            assert action == 1

    def test_switches_allowed_below_threshold(self):
        table = QTable(1, 3).set(0, 2, 9.0)
        policy = Controlled(epsilon=0.0, serving_threshold=1.0)
        context = ControlContext(serving_load=0.5, current_channel=1)
        candidates = [1, 2, 3]  # channel palette, in action-index order
        action = select_action(table, 0, policy, candidates,
                               np.random.default_rng(6),
                               context=context)
        assert action == 3

    def test_switch_budget_blocks_when_spent(self):
        table = QTable(1, 3).set(0, 2, 9.0)
        policy = Controlled(epsilon=0.0, no_switch_while_serving=False,
                            max_switches=2, window=50)
        candidates = [1, 2, 3]  # channel palette, in action-index order
        context = ControlContext(serving_load=0.0, current_channel=1,
                                 recent_switches=2)
        action = select_action(table, 0, policy, candidates,
                               np.random.default_rng(7),
                               context=context)
        assert action == 1


class TestGreedyColoring:
    def test_edgeless_graph_all_on_first_channel(self):
        topo = topology(4, set())
        assert greedy_coloring(topo) == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_triangle_with_three_channels_is_proper(self):
        topo = topology(3, {(0, 1), (1, 2), (0, 2)})
        assert count_conflicts(topo, greedy_coloring(topo)) == 0

    def test_triangle_with_two_channels_hits_brute_force_floor(self):
        topo = topology(3, {(0, 1), (1, 2), (0, 2)}, channels=2)
        # oracle: enumerate all 2^3 assignments
        floor = min(count_conflicts(topo, dict(zip(range(3), combo)))
                    for combo in itertools.product((1, 2), repeat=3))
        assert floor == 1
        assert count_conflicts(topo, greedy_coloring(topo)) == 1

    def test_zero_conflicts_with_enough_channels(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(2, 7)
            edges = {(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5}
            topo = topology(n, edges, channels=n)  # >= max degree + 1
            assert count_conflicts(topo, greedy_coloring(topo)) == 0

    def test_within_sanity_bound_of_optimum(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(3, 6)
            edges = {(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.6}
            topo = topology(n, edges, channels=2)
            _, best = brute_force_channels(topo)
            ours = count_conflicts(topo, greedy_coloring(topo))
            assert best <= ours <= best + n


class TestBruteForce:
    def test_single_node(self):
        assignment, conflicts = brute_force_channels(topology(1, set()))
        assert conflicts == 0 and assignment[0] in (1, 2, 3)

    def test_triangle_three_channels_optimum_is_proper(self):
        _, conflicts = brute_force_channels(topology(3, {(0, 1), (1, 2), (0, 2)}))
        assert conflicts == 0

    def test_bipartite_path_needs_two_channels(self):
        topo = topology(4, {(0, 1), (1, 2), (2, 3)}, channels=2)
        _, conflicts = brute_force_channels(topo)
        assert conflicts == 0

    def test_lexicographic_tie_break_is_deterministic(self):
        topo = topology(3, {(0, 1)}, channels=2)
        first, _ = brute_force_channels(topo)
        second, _ = brute_force_channels(topo)
        assert first == second == {0: 1, 1: 2, 2: 1}

    def test_enumeration_guard(self):
        topo = topology(8, set(), channels=8)  # 8^8 = 2^24 > guard
        with pytest.raises(TooLarge):
            brute_force_channels(topo)


def location_env(node_cell, user_cells, demands, allowed, eta=2.0):
    topo = MeshTopology(positions={0: node_cell}, edges=set(), channels=(1,),
                        allowed={0: frozenset(allowed)})
    users = [UserSpec(user=i, position=cell,
                      demand=DemandProfile.constant(demands[i]), node=0)
             for i, cell in enumerate(user_cells)]
    cfg = EnvConfig(topology=topo, users=users, pathloss_exponent=eta,
                    tx_power=1.0, noise_floor=1e-2, bandwidth_unit=1.0,
                    rng_seed=0, horizon=5)
    env = Environment(cfg)
    return env, env.reset()


class TestLocationSearch:
    def test_single_allowed_cell_stays(self):
        env, state = location_env((2, 2), [(0, 0)], [5.0], [(2, 2)])
        assert location_search(env, state, 0) == MoveTo(0, (2, 2))

    def test_moves_toward_user_under_monotone_pathloss(self):
        cells = [(x, 0) for x in range(4)]
        env, state = location_env((2, 0), [(0, 0)], [50.0], cells)
        assert location_search(env, state, 0) == MoveTo(0, (1, 0))

    def test_center_of_3x3_matches_full_grid_argmax(self):
        cells = [(x, y) for x in range(3) for y in range(3)]
        env, state = location_env((1, 1), [(2, 2)], [50.0], cells)
        # oracle: evaluate the objective at every one of the nine cells
        best = max(cells, key=lambda c: (env.predict_node_throughput(state, 0, c),
                                         c == (1, 1)))
        scores = {c: env.predict_node_throughput(state, 0, c) for c in cells}
        assert scores[best] == max(scores.values())
        assert location_search(env, state, 0) == MoveTo(0, best)

    def test_tie_prefers_staying(self):
        # symmetric users: staying in the middle ties with nothing better
        cells = [(x, 0) for x in range(3)]
        env, state = location_env((1, 0), [(0, 0), (2, 0)], [1.0, 1.0], cells)
        assert location_search(env, state, 0) == MoveTo(0, (1, 0))

    def test_matches_exhaustive_neighborhood_argmax_on_random_grids(self):
        rng = random.Random(23)
        for _ in range(40):
            cells = [(x, y) for x in range(5) for y in range(5)]
            node_cell = (rng.randint(0, 4), rng.randint(0, 4))
            users = [(rng.randint(0, 4), rng.randint(0, 4))
                     for _ in range(rng.randint(1, 3))]
            demands = [rng.uniform(0.5, 8.0) for _ in users]
            env, state = location_env(node_cell, users, demands, cells)
            chosen = location_search(env, state, 0)
            neighborhood = one_step_cells(env.topology, 0, node_cell)
            by_value = {c: env.predict_node_throughput(state, 0, c)
                        for c in neighborhood}
            assert by_value[chosen.cell] == max(by_value.values())

    def test_unknown_node_has_no_allowed_cells(self):
        env, state = location_env((2, 2), [(0, 0)], [5.0], [(2, 2)])
        with pytest.raises(NoAllowedCell):
            one_step_cells(env.topology, 99, (2, 2))
