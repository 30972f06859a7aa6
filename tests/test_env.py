import math

import pytest

from meshmind import (DemandProfile, EnvConfig, Environment, MeshTopology,
                      SetChannel, UserSpec, capacity)
from meshmind.env import InvalidAction, UnknownUser


def make_env(positions, edges, users, *, channels=(1, 2, 3), eta=2.0,
             noise=1e-3, tx=1.0, bw=1.0, seed=0, horizon=10, initial=None):
    topo = MeshTopology(positions=positions, edges=set(edges), channels=channels)
    cfg = EnvConfig(topology=topo, users=users, pathloss_exponent=eta,
                    tx_power=tx, noise_floor=noise, bandwidth_unit=bw,
                    rng_seed=seed, horizon=horizon, initial_channels=initial)
    return Environment(cfg)


def single_node_env(demand=10.0, **kw):
    users = [UserSpec(user=0, position=(0, 0),
                      demand=DemandProfile.constant(demand), node=0)]
    return make_env({0: (0, 0)}, set(), users, **kw)


class TestApplyAndStep:
    def test_empty_action_list_advances_time_only(self):
        env = single_node_env()
        state = env.reset()
        nxt, _ = env.apply_and_step(state, [])
        assert nxt.t == state.t + 1
        assert nxt.channel_of == state.channel_of
        assert nxt.position_of == state.position_of

    def test_no_interference_caps_at_demand(self):
        env = single_node_env(demand=10.0)
        state = env.reset()
        _, report = env.apply_and_step(state, [])
        ratio = env.link_quality(state, 0)
        assert report.achieved[0] == pytest.approx(min(capacity(ratio), 10.0))

    def test_triangle_all_same_channel_has_three_conflicts(self):
        users = [UserSpec(user=i, position=(i, 0),
                          demand=DemandProfile.constant(1.0), node=i)
                 for i in range(3)]
        env = make_env({0: (0, 0), 1: (1, 0), 2: (2, 0)},
                       {(0, 1), (1, 2), (0, 2)}, users)
        state = env.reset()
        _, report = env.apply_and_step(state, [])
        assert report.conflicts == 3

    def test_report_is_reused_only_while_nothing_changes(self):
        users = [UserSpec(user=0, position=(0, 0), node=0,
                          demand=DemandProfile.piecewise([(0, 5.0), (3, 9.0)])),
                 UserSpec(user=1, position=(1, 0), node=1,
                          demand=DemandProfile.constant(5.0))]
        env = make_env({0: (0, 0), 1: (1, 0)}, {(0, 1)}, users,
                       initial={0: 1, 1: 2})
        state = env.reset()
        report = env.report_for(state)
        state, quiet = env.apply_and_step(state, [], report)
        assert quiet is report
        state, same_channel = env.apply_and_step(state, [SetChannel(1, 2)], quiet)
        assert same_channel is report
        state, new_demand = env.apply_and_step(state, [], same_channel)  # t=3
        assert new_demand is not report
        assert new_demand.readings[env.reading_index(0, "demand")] == 9.0
        state, switched = env.apply_and_step(state, [SetChannel(1, 1)], new_demand)
        assert switched.conflicts == 1
        fresh = env.report_for(state)
        assert (switched.readings == fresh.readings).all()
        assert switched.achieved == fresh.achieved

    def test_invalid_channel_rejected_without_partial_application(self):
        users = [UserSpec(user=i, position=(i, 0),
                          demand=DemandProfile.constant(1.0), node=i)
                 for i in range(2)]
        env = make_env({0: (0, 0), 1: (1, 0)}, {(0, 1)}, users)
        state = env.reset()
        with pytest.raises(InvalidAction):
            env.apply_and_step(state, [SetChannel(0, 2), SetChannel(1, 99)])
        assert state.channel_of[0] == 1  # first action not applied either

    def test_duplicate_node_actions_rejected(self):
        env = single_node_env()
        state = env.reset()
        with pytest.raises(InvalidAction):
            env.apply_and_step(state, [SetChannel(0, 2), SetChannel(0, 3)])


class TestLinkQuality:
    def test_no_interferer_at_unit_distance(self):
        env = single_node_env(noise=1e-3, tx=2.0)
        state = env.reset()
        assert env.link_quality(state, 0) == pytest.approx(2.0 / 1e-3)

    def test_colocated_twin_interferers_halve_the_ratio(self):
        # two identical co-located transmitters on the same channel: the
        # ratio with both interfering is half the single-interferer ratio
        # once noise is negligible
        def build(edges):
            users = [UserSpec(user=0, position=(1, 0),
                              demand=DemandProfile.constant(1.0), node=0)]
            return make_env({0: (0, 0), 1: (3, 0), 2: (3, 0)}, edges, users,
                            noise=1e-12)

        one = build({(0, 1)})
        two = build({(0, 1), (0, 2)})
        r_one = one.link_quality(one.reset(), 0)
        r_two = two.link_quality(two.reset(), 0)
        assert r_two == pytest.approx(r_one / 2.0, rel=1e-9)

    def test_line_with_one_cochannel_end(self):
        # middle node serves a co-located user; one end shares its channel at
        # distance 2 with eta=2, the other end sits on a different channel
        users = [UserSpec(user=0, position=(2, 0),
                          demand=DemandProfile.constant(1.0), node=1)]
        env = make_env({0: (0, 0), 1: (2, 0), 2: (4, 0)},
                       {(0, 1), (1, 2)}, users,
                       eta=2.0, noise=1e-3, tx=1.0,
                       initial={0: 1, 1: 1, 2: 2})
        state = env.reset()
        expected = 1.0 / (1e-3 + 1.0 / 2 ** 2)
        assert env.link_quality(state, 0) == pytest.approx(expected, rel=1e-12)

    def test_unknown_user(self):
        env = single_node_env()
        with pytest.raises(UnknownUser):
            env.link_quality(env.reset(), 99)


class TestCapacity:
    def test_zero_ratio_is_zero(self):
        assert capacity(0.0, 10.0) == 0.0

    def test_log2_of_two(self):
        assert capacity(1.0, 10.0) == pytest.approx(10.0)

    def test_sharing_between_two_users(self):
        assert capacity(3.0, 10.0, sharing=2) == pytest.approx(10.0)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            capacity(-0.1)


class TestDemandEvolution:
    def test_single_epoch_constant(self):
        env = single_node_env(demand=7.0, horizon=50)
        state = env.reset()
        for _ in range(50):
            state, _ = env.apply_and_step(state, [])
            assert state.demand[0] == 7.0

    def test_piecewise_steps_at_boundary(self):
        users = [UserSpec(user=0, position=(0, 0), node=0,
                          demand=DemandProfile.piecewise([(0, 5.0), (100, 20.0)]))]
        env = make_env({0: (0, 0)}, set(), users, horizon=150)
        state = env.reset()
        seen = {0: state.demand[0]}
        for _ in range(150):
            state, _ = env.apply_and_step(state, [])
            seen[state.t] = state.demand[0]
        assert seen[0] == 5.0 and seen[99] == 5.0
        assert seen[100] == 20.0 and seen[150] == 20.0

    def test_random_profile_is_seed_deterministic(self):
        def demands(seed):
            users = [UserSpec(user=0, position=(0, 0), node=0,
                              demand=DemandProfile.random_epochs(10, [1.0, 5.0, 9.0]))]
            env = make_env({0: (0, 0)}, set(), users, seed=seed, horizon=100)
            state = env.reset()
            out = [state.demand[0]]
            for _ in range(100):
                state, _ = env.apply_and_step(state, [])
                out.append(state.demand[0])
            return out

        assert demands(7) == demands(7)
        assert demands(7) != demands(8)


class TestInvariants:
    def test_run_is_bit_deterministic(self):
        def trajectory(seed):
            users = [UserSpec(user=i, position=(i, 0), node=i,
                              demand=DemandProfile.random_epochs(5, [1.0, 4.0]))
                     for i in range(3)]
            env = make_env({0: (0, 0), 1: (1, 0), 2: (2, 0)},
                           {(0, 1), (1, 2)}, users, seed=seed, horizon=40)
            state = env.reset()
            rows = []
            actions = [SetChannel(0, 2), SetChannel(1, 3), SetChannel(2, 1),
                       SetChannel(0, 1)]
            for t in range(40):
                batch = [actions[t % 4]] if t % 3 == 0 else []
                state, report = env.apply_and_step(state, batch)
                rows.append((dict(state.channel_of), dict(state.demand),
                             dict(report.achieved), report.conflicts))
            return rows

        assert trajectory(3) == trajectory(3)

    def test_conservation_load_within_capacity_pool(self):
        # a node's summed user throughput never exceeds the equal-share pool
        users = [UserSpec(user=0, position=(0, 0), node=0,
                          demand=DemandProfile.constant(4.0)),
                 UserSpec(user=1, position=(1, 1), node=0,
                          demand=DemandProfile.constant(9.0)),
                 UserSpec(user=2, position=(4, 0), node=1,
                          demand=DemandProfile.constant(2.0))]
        env = make_env({0: (0, 0), 1: (4, 0)}, {(0, 1)}, users)
        state = env.reset()
        report = env.report_for(state)
        for node in (0, 1):
            members = env.users_of(node)
            pool = sum(capacity(env.link_quality(state, u),
                                env.config.bandwidth_unit, len(members))
                       for u in members)
            assert env.node_achieved(report, node) <= pool + 1e-12

    def test_removing_cochannel_edge_never_hurts(self):
        users = [UserSpec(user=0, position=(1, 0), node=0,
                          demand=DemandProfile.constant(5.0))]
        with_edge = make_env({0: (0, 0), 1: (2, 0), 2: (5, 0)},
                             {(0, 1), (0, 2)}, users)
        without = make_env({0: (0, 0), 1: (2, 0), 2: (5, 0)},
                           {(0, 1)}, users)
        q_with = with_edge.link_quality(with_edge.reset(), 0)
        q_without = without.link_quality(without.reset(), 0)
        assert q_without >= q_with

    def test_proper_coloring_means_zero_conflicts(self):
        users = [UserSpec(user=0, position=(0, 0), node=0,
                          demand=DemandProfile.constant(1.0))]
        env = make_env({0: (0, 0), 1: (1, 0), 2: (2, 0)},
                       {(0, 1), (1, 2), (0, 2)}, users,
                       initial={0: 1, 1: 2, 2: 3})
        report = env.report_for(env.reset())
        assert report.conflicts == 0


class TestTopologyValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            MeshTopology(positions={0: (0, 0)}, edges={(0, 0)}, channels=(1,))

    def test_empty_palette_rejected(self):
        with pytest.raises(ValueError):
            MeshTopology(positions={0: (0, 0)}, edges=set(), channels=())

    def test_start_position_always_allowed(self):
        topo = MeshTopology(positions={0: (5, 5)}, edges=set(), channels=(1,),
                            allowed={0: frozenset({(1, 1)})})
        assert (5, 5) in topo.allowed[0]


def test_distance_clamped_below_one_cell():
    # user right on top of its node: received power equals tx_power
    env = single_node_env(noise=0.5, tx=3.0)
    assert env.link_quality(env.reset(), 0) == pytest.approx(3.0 / 0.5)


def test_readings_match_the_per_node_queries():
    # the flat reading vector against the scalar per-node definitions
    positions = {i: (i % 3, i // 3) for i in range(9)}
    edges = {(i, i + 1) for i in range(9) if i % 3 < 2} | {(i, i + 3) for i in range(6)}
    users = [UserSpec(user=i, position=positions[i], node=i,
                      demand=DemandProfile.constant(1.0 + i)) for i in range(9)]
    users.append(UserSpec(user=9, position=(2, 2), node=4,
                          demand=DemandProfile.constant(0.5)))
    env = make_env(positions, edges, users, eta=1.0,
                   initial={0: 1, 1: 1, 2: 2, 3: 3, 4: 1, 5: 2, 6: 3, 7: 3, 8: 2})
    state = env.reset()
    report = env.report_for(state)
    readings = report.readings
    for node in env.nodes:
        def at(name, node=node):
            return readings[env.reading_index(node, name)]
        assert at("conflicts") == env.local_conflicts(state, node)
        assert at("demand") == env.node_demand(state, node)
        assert at("achieved") == sum(report.achieved[u] for u in env.users_of(node))
        assert (at("x"), at("y")) == state.position_of[node]
        for uid in env.users_of(node):
            assert at(f"demand_u{uid}") == state.demand[uid]
    assert report.conflicts == sum(env.local_conflicts(state, n) for n in env.nodes) // 2
    with pytest.raises(KeyError):
        env.reading_index(0, "demand_u9")  # user 9 belongs to node 4
