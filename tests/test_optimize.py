import itertools
import math
import random

import numpy as np
import pytest

from meshmind import (Controlled, DemandProfile, EnvConfig, Environment,
                      EpsilonGreedy, MeshTopology, MoveTo, QTable, UserSpec,
                      brute_force_channels, count_conflicts, greedy_coloring,
                      location_search, select_action)
from meshmind.optimize import NoAllowedCell, TooLarge, one_step_cells

from hypothesis import given, settings, strategies as st

from helpers import (EPSILON, INSIDE, UNIFORM, coloring_test_graphs, edge_uniforms,
                     reference_served)


COLORING_GRAPHS = coloring_test_graphs()


def topology(n, edges, channels=3):
    return MeshTopology(positions={i: (i, 0) for i in range(n)},
                        edges=set(edges),
                        channels=tuple(range(1, channels + 1)))


class TestSelectAction:
    def test_zero_epsilon_is_always_greedy(self):
        table = QTable(1, 3).set(0, 0, 1.0).set(0, 1, 9.0).set(0, 2, 4.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert select_action(table, 0, EpsilonGreedy(0.0), rng.random()) == 1

    def test_full_epsilon_covers_all_candidates(self):
        table = QTable(1, 3).set(0, 1, 9.0)
        rng = np.random.default_rng(1)
        seen = {select_action(table, 0, EpsilonGreedy(1.0), rng.random()) for _ in range(300)}
        assert seen == {0, 1, 2}

    def test_greedy_fallback_without_explored_entries_is_uniform(self):
        table = QTable(1, 3)
        rng = np.random.default_rng(3)
        seen = {select_action(table, 0, EpsilonGreedy(0.0), rng.random()) for _ in range(200)}
        assert seen == {0, 1, 2}


class TestOneUniform:
    """`select_action` picks from one uniform u: below epsilon, the action whose
    epsilon/n wide bucket holds u; above it, the greedy pick, or with none
    explored, the action whose (1 - epsilon)/n wide bucket holds u - epsilon."""

    @settings(derandomize=True, max_examples=300)
    @given(st.lists(st.none() | st.floats(-10, 10), min_size=1, max_size=9), EPSILON, UNIFORM)
    def test_the_pick_is_an_action(self, values, epsilon, u):
        table = QTable(1, len(values))
        for a, value in enumerate(values):
            if value is not None:
                table.set(0, a, value)
        for x in (*edge_uniforms(epsilon), u):
            assert 0 <= select_action(table, 0, EpsilonGreedy(epsilon), x) < len(values)

    @settings(derandomize=True, max_examples=300)
    @given(st.integers(1, 9), st.sampled_from([0.0, 1.0]) | st.floats(1e-9, 1.0), INSIDE,
           st.data())
    def test_each_bucket_is_a_share_of_the_uniform_range(self, n, epsilon, inside, data):
        a = data.draw(st.integers(0, n - 1))
        explore = epsilon * (a + inside) / n
        fallback = epsilon + (1 - epsilon) * (a + inside) / n
        best = QTable(1, n).set(0, n - 1 - a, 1.0)  # explored: the greedy pick, n - 1 - a
        if explore < epsilon:
            assert select_action(QTable(1, n), 0, EpsilonGreedy(epsilon), explore) == a
            assert select_action(best, 0, EpsilonGreedy(epsilon), explore) == a
        if epsilon <= fallback < 1:
            assert select_action(QTable(1, n), 0, EpsilonGreedy(epsilon), fallback) == a
            assert select_action(best, 0, EpsilonGreedy(epsilon), fallback) == n - 1 - a
        # the largest uniform of either range falls in its last bucket
        if epsilon:
            top = math.nextafter(epsilon, 0.0)
            assert select_action(QTable(1, n), 0, EpsilonGreedy(epsilon), top) == n - 1
        if epsilon <= 0.999:
            top = math.nextafter(1.0, 0.0)
            assert select_action(QTable(1, n), 0, EpsilonGreedy(epsilon), top) == n - 1


class TestControlledPolicy:
    """The gate's `blocks`: above its serving threshold, or with its switch budget spent.
    `tests/test_agent.py` checks that a blocked agent stays on its channel."""

    def test_no_switch_while_serving_above_threshold(self):
        policy = Controlled(epsilon=0.5, serving_threshold=1.0)
        for recent_switches in (0, 1, 10**9):
            assert policy.blocks(4.0, recent_switches)
            assert policy.blocks(math.nextafter(1.0, 2.0), recent_switches)

    def test_switches_allowed_below_threshold(self):
        policy = Controlled(epsilon=0.0, serving_threshold=1.0)
        for serving_load in (0.0, 0.5, 1.0):  # at the threshold the node may switch
            assert not policy.blocks(serving_load, 10**9)  # no budget: switches never count
        assert not Controlled(serving_threshold=math.inf).blocks(math.inf, 0)

    def test_switch_budget_blocks_when_spent(self):
        policy = Controlled(epsilon=0.0, serving_threshold=math.inf,
                            max_switches=2, window=50)
        assert not policy.blocks(1e9, 1)  # no load gate, one switch left
        assert policy.blocks(0.0, 2) and policy.blocks(0.0, 3)
        assert Controlled(max_switches=0, window=1).blocks(0.0, 0)


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

    @pytest.mark.parametrize("name", list(COLORING_GRAPHS))
    def test_three_channels_color_every_test_graph(self, name):
        topo = topology(*COLORING_GRAPHS[name])
        _, best = brute_force_channels(topo)
        assert best == 0  # each test graph is 3-colorable
        # greedy is an upper bound, and not always tight: prism's degree order costs a conflict
        assert count_conflicts(topo, greedy_coloring(topo)) == (1 if name == "prism" else 0)

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
                    horizon=5)
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
        # oracle: evaluate the objective at every one of the nine cells, one at a time
        scores = {c: env.predict_node_throughput(state, 0, [c])[0] for c in cells}
        best = max(cells, key=lambda c: (scores[c], c == (1, 1)))
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
            by_value = {c: env.predict_node_throughput(state, 0, [c])[0]
                        for c in neighborhood}
            assert env.predict_node_throughput(state, 0, neighborhood) == list(by_value.values())
            assert by_value[chosen.cell] == max(by_value.values())

    def test_matches_a_scalar_oracle_when_neighbours_share_the_channel(self):
        # The relay (node 0) always has a co-channel neighbour, so its users'
        # floor holds interference. The oracle scores every allowed cell within
        # one step from the documented formula; it stays on a tie.
        rng = random.Random(41)
        stays = moves = 0
        for _ in range(60):
            n = rng.randint(2, 5)
            positions = {i: (rng.randint(0, 5), rng.randint(0, 5)) for i in range(n)}
            edges = {(0, 1)} | {(a, b) for a in range(n) for b in range(a + 1, n)
                                if rng.random() < 0.5}
            allowed = {(x, y) for x in range(6) for y in range(6) if rng.random() < 0.6}
            channels = {i: rng.choice((1, 2)) for i in range(n)}
            channels[1] = channels[0]
            users = [UserSpec(user=u, position=(rng.randint(0, 5), rng.randint(0, 5)),
                              demand=DemandProfile.constant(rng.uniform(0.2, 6.0)),
                              node=0 if u == 0 else rng.randrange(n))
                     for u in range(rng.randint(1, 6))]
            topo = MeshTopology(positions=positions, edges=edges, channels=(1, 2),
                                allowed={0: frozenset(allowed)})
            env = Environment(EnvConfig(
                topology=topo, users=users, pathloss_exponent=rng.choice((1.0, 2.0, 2.7)),
                tx_power=1.0, noise_floor=1e-2, bandwidth_unit=1.0, horizon=5,
                initial_channels=channels))
            state = env.reset()
            current = positions[0]
            near = [c for c in topo.allowed[0]
                    if abs(c[0] - current[0]) <= 1 and abs(c[1] - current[1]) <= 1]
            score = {c: reference_served(env, state, 0, c) for c in near}
            top = max(score.values())
            chosen = location_search(env, state, 0).cell
            assert score[chosen] == pytest.approx(top, rel=1e-12)
            if score[current] == pytest.approx(top, rel=1e-12):
                assert chosen == current
                stays += 1
            else:
                moves += 1
        assert stays >= 5 and moves >= 5

    def test_unknown_node_has_no_allowed_cells(self):
        env, state = location_env((2, 2), [(0, 0)], [5.0], [(2, 2)])
        with pytest.raises(NoAllowedCell):
            one_step_cells(env.topology, 99, (2, 2))
