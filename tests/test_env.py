import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshmind import (DemandProfile, EnvConfig, Environment, MeshTopology,
                      MoveTo, SetChannel, UserSpec, capacity)
from meshmind.env import InvalidAction, UnknownUser

from helpers import reference_ratio, reference_served


def make_env(positions, edges, users, *, channels=(1, 2, 3), eta=2.0,
             noise=1e-3, tx=1.0, bw=1.0, seed=0, horizon=10, initial=None):
    topo = MeshTopology(positions=positions, edges=set(edges), channels=channels)
    cfg = EnvConfig(topology=topo, users=users, pathloss_exponent=eta,
                    tx_power=tx, noise_floor=noise, bandwidth_unit=bw,
                    horizon=horizon, initial_channels=initial)
    return Environment(cfg, seed=seed)


def assert_levels_match_a_per_step_loop(env, profiles, seed, horizon):
    """Check each user u's demand against a per-step loop over `profiles[u]`
    for horizon + 4 steps; returns each user's levels, step by step."""
    # reference: random epochs drawn user by user in config order from
    # the run's demand RNG; steps past the horizon hold its levels
    rng = np.random.default_rng([seed, 0])
    draws = [[p.random_levels[rng.integers(len(p.random_levels))]
              for _ in range(horizon // p.random_epoch_len + 1)]
             if p.random_epoch_len else None for p in profiles]

    def level(u, t):
        profile, t = profiles[u], min(t, horizon)
        if profile.random_epoch_len:
            return draws[u][t // profile.random_epoch_len]
        at = t % profile.period if profile.period else t
        return [v for start, v in profile.steps if start <= at][-1]

    users, seen = range(len(profiles)), []
    state = env.reset()
    for t in range(horizon + 4):
        seen.append([state.demand[u] for u in users])
        assert seen[-1] == [level(u, t) for u in users]
        state, _ = env.apply_and_step(state, [])
    return [list(column) for column in zip(*seen)]


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
        assert env.node_achieved(report, 0) == pytest.approx(min(capacity(ratio), 10.0))

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
        assert switched.total_achieved == fresh.total_achieved

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_a_step_copies_and_rescores_only_what_it_changes(self, data):
        """Random batches, current channels and cells re-asserted among them:
        the report comes back as the same object exactly when no channel,
        position or demand row changed; a changing step leaves the old
        state's dicts as they were and shares those it did not change; and
        the report totals are the exact sums, on fresh and reused reports."""
        allowed = {0: frozenset({(0, 0), (1, 0)}), 1: frozenset({(2, 0), (2, 1)})}
        users = [UserSpec(user=0, position=(0, 1), node=0,
                          demand=DemandProfile.piecewise([(0, 5.0), (4, 9.0), (6, 5.0)])),
                 UserSpec(user=1, position=(2, 2), node=1, demand=DemandProfile.constant(2.0)),
                 UserSpec(user=2, position=(4, 0), node=2, demand=DemandProfile.constant(1.0))]
        topo = MeshTopology(positions={0: (0, 0), 1: (2, 0), 2: (4, 0)},
                            edges={(0, 1), (1, 2)}, channels=(1, 2), allowed=allowed)
        env = Environment(EnvConfig(topology=topo, users=users, horizon=10))
        state = env.reset()
        report = env.report_for(state)
        for _ in range(8):
            batch = [data.draw(st.sampled_from([
                *(SetChannel(node, channel) for channel in topo.channels),
                *(MoveTo(node, cell) for cell in sorted(topo.allowed[node]))]))
                for node in data.draw(st.lists(st.sampled_from(topo.nodes), unique=True))]
            before = [dict(d) for d in (state.channel_of, state.position_of, state.demand)]
            nxt, stepped = env.apply_and_step(state, batch, report)
            assert [state.channel_of, state.position_of, state.demand] == before
            same = [new == old for new, old in zip(
                (nxt.channel_of, nxt.position_of, nxt.demand), before)]
            assert [new is old for new, old in zip(
                (nxt.channel_of, nxt.position_of, nxt.demand),
                (state.channel_of, state.position_of, state.demand))] == same
            assert (stepped is report) == all(same)
            fresh = env.report_for(nxt)
            assert stepped.readings.tobytes() == fresh.readings.tobytes()
            for r in (stepped, fresh):  # one user per node: node sums are user values
                assert r.total_demand == sum(nxt.demand.values())
                assert r.total_achieved == sum(
                    r.readings[env.reading_index(node, "achieved")].item() for node in topo.nodes)
            state, report = nxt, stepped

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
    @pytest.mark.parametrize("profile", [
        DemandProfile(steps=((0, -0.0), (3, 2.0)), random_levels=(-0.0, 1.0)),
        DemandProfile.constant(-0.0), DemandProfile.piecewise([(0, -0.0), (5, 1.0)]),
        DemandProfile.periodic(4, [(0, 1.0), (2, -0.0)]), DemandProfile.random_epochs(3, [-0.0]),
    ], ids=["direct", "constant", "piecewise", "periodic", "random"])
    def test_a_minus_zero_level_is_stored_as_zero(self, profile):
        levels = [*(v for _, v in profile.steps), *profile.random_levels]
        assert 0.0 in levels
        assert all(type(v) is float and math.copysign(1.0, v) == 1.0 for v in levels)

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

    def test_change_point_schedule_matches_a_per_step_loop(self):
        horizon, seed = 45, 11
        profiles = [DemandProfile.piecewise([(0, 1.0), (7, 4.0), (60, 9.0)]),  # 60 > horizon
                    DemandProfile.random_epochs(6, [0.5, 2.0, 3.5]),
                    DemandProfile.periodic(10, [(0, 2.0), (3, 0.25)]),
                    DemandProfile.random_epochs(4, [1.0, 8.0])]
        users = [UserSpec(user=u, position=(0, 0), node=0, demand=p)
                 for u, p in enumerate(profiles)]
        env = make_env({0: (0, 0)}, set(), users, seed=seed, horizon=horizon)
        assert_levels_match_a_per_step_loop(env, profiles, seed, horizon)

    def test_users_of_one_profile_object_share_its_levels_but_not_its_draws(self, monkeypatch):
        """A deterministic profile is resolved once for all its users, also those of
        an equal but distinct object; a random one draws once per user, in user
        order, so its users' levels differ."""
        horizon, seed = 45, 3
        periodic = DemandProfile.periodic(10, [(0, 2.0), (3, 0.25)])
        random = DemandProfile.random_epochs(4, [1.0, 8.0, 3.0])
        profiles = [periodic, random, DemandProfile.periodic(10, [(0, 2.0), (3, 0.25)]), random]
        assert profiles[2] is not periodic
        resolved, resolve = [], DemandProfile.resolve
        monkeypatch.setattr(DemandProfile, "resolve",
                            lambda self, *args: resolved.append(self) or resolve(self, *args))
        users = [UserSpec(user=u, position=(0, 0), node=0, demand=p)
                 for u, p in enumerate(profiles)]
        env = make_env({0: (0, 0)}, set(), users, seed=seed, horizon=horizon)
        assert [p == periodic for p in resolved].count(True) == 1
        assert [p is random for p in resolved].count(True) == 2
        levels = assert_levels_match_a_per_step_loop(env, profiles, seed, horizon)
        assert levels[1] != levels[3]  # the check above tells the two random users apart

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


def next_changes_by_stepping(env, horizon):
    """For each t in 0..horizon + 3, the first later step whose demand is another
    dict than t's, found by stepping, or max(t, horizon) + 1 if none is."""
    states = [env.reset()]
    for _ in range(horizon + 4):
        states.append(env.apply_and_step(states[-1], [])[0])
    return [next((s for s in range(t + 1, len(states)) if states[s].demand is not state.demand),
                 max(t, horizon) + 1) for t, state in enumerate(states[:-1])]


class TestNextChange:
    @pytest.mark.parametrize("profile", [
        DemandProfile.constant(3.0),
        DemandProfile.piecewise([(0, 1.0), (7, 4.0), (12, 0.5), (60, 9.0)]),  # 60 > horizon
        DemandProfile.periodic(10, [(0, 2.0), (3, 0.25)]),
        DemandProfile.random_epochs(6, [0.5, 2.0, 3.5]),
    ], ids=["constant", "piecewise", "periodic", "random-epochs"])
    def test_each_profile_changes_where_stepping_finds_another_demand_dict(self, profile):
        horizon = 45
        users = [UserSpec(user=u, position=(0, 0), node=0, demand=profile) for u in range(2)]
        env = make_env({0: (0, 0)}, set(), users, seed=5, horizon=horizon)
        expected = next_changes_by_stepping(env, horizon)
        assert [env.next_change(t) for t in range(horizon + 4)] == expected
        if profile.random_epoch_len:  # its own draws differ from epoch to epoch
            assert len(set(expected)) > 2

    def test_the_horizon_ends_every_stretch(self):
        env = single_node_env(horizon=50)
        assert [env.next_change(t) for t in (0, 49, 50)] == [51, 51, 51]
        assert env.next_change(60) == 61  # past the horizon the last levels hold
        users = [UserSpec(user=0, position=(0, 0), node=0,
                          demand=DemandProfile.piecewise([(0, 1.0), (50, 2.0)]))]
        env = make_env({0: (0, 0)}, set(), users, horizon=50)
        assert [env.next_change(t) for t in (0, 49, 50)] == [50, 50, 51]

    def test_a_change_point_that_keeps_the_demand_dict_is_no_change(self):
        """Change points at 4, 6, 8 and 12. At 6 the level vector stays what it was
        at 4, so its row is the same dict and 6 is no change; at 8 it goes back to
        step 0's, which is another dict than step 7's, so 8 is one."""
        profiles = [DemandProfile.piecewise([(0, 1.0), (4, 2.0), (8, 1.0)]),
                    DemandProfile.piecewise([(0, 3.0), (6, 3.0), (8, 3.0), (12, 5.0)])]
        users = [UserSpec(user=u, position=(0, 0), node=0, demand=p)
                 for u, p in enumerate(profiles)]
        env = make_env({0: (0, 0)}, set(), users, horizon=20)
        states = [env.reset()]
        for _ in range(12):
            states.append(env.apply_and_step(states[-1], [])[0])
        assert states[6].demand is states[4].demand and states[8].demand is states[0].demand
        assert [env.next_change(t) for t in (0, 3, 4, 5, 7, 8, 11, 12)] == [
            4, 4, 8, 8, 8, 12, 12, 21]
        assert [env.next_change(t) for t in range(24)] == next_changes_by_stepping(env, 20)


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
                             report.readings.tobytes(), report.conflicts))
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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_report_matches_the_scalar_radio_model(data):
    # small random meshes: several users per node, co-channel neighbours,
    # and one node moved before the report, then every node scored at two cells
    n = data.draw(st.integers(2, 6), label="nodes")
    cells = st.tuples(st.integers(0, 5), st.integers(0, 5))
    positions = {i: data.draw(cells) for i in range(n)}
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = set(data.draw(st.lists(st.sampled_from(pairs), unique=True)))
    users = [UserSpec(user=u, position=data.draw(cells), node=data.draw(st.integers(0, n - 1)),
                      demand=DemandProfile.constant(data.draw(st.floats(0.0, 12.0))))
             for u in data.draw(st.permutations(range(data.draw(st.integers(1, 12)))))]
    mover = data.draw(st.integers(0, n - 1))
    target = data.draw(cells)
    topo = MeshTopology(positions=positions, edges=edges, channels=(1, 2),
                        allowed={mover: frozenset({target})})
    env = Environment(EnvConfig(
        topology=topo, users=users, tx_power=data.draw(st.floats(0.5, 3.0)),
        pathloss_exponent=data.draw(st.sampled_from([0.5, 1.0, 2.0, 2.7])),
        noise_floor=data.draw(st.floats(1e-4, 1e-1)), bandwidth_unit=0.7,
        initial_channels={i: data.draw(st.sampled_from([1, 2])) for i in range(n)}))
    moved, report = env.apply_and_step(env.reset(), [MoveTo(mover, target)])
    spots = [target, data.draw(cells, label="second cell")]
    placed = replace(moved, position_of={i: data.draw(cells, label="placed") for i in range(n)})
    # one environment scores the moved mesh, the start again, then a hand-placed one
    for state in (moved, env.reset(), placed):
        report = report if state is moved else env.report_for(state)
        for spec in users:
            ratio = reference_ratio(env, state, spec.user)
            assert env.link_quality(state, spec.user) == pytest.approx(ratio, rel=1e-12)
        for node in range(n):
            assert env.node_achieved(report, node) == pytest.approx(
                reference_served(env, state, node, state.position_of[node]), rel=1e-12, abs=0.0)
            assert env.predict_node_throughput(state, node, spots) == pytest.approx(
                [reference_served(env, state, node, cell) for cell in spots],
                rel=1e-12, abs=0.0)


def test_a_caller_editing_its_positions_dict_is_scored_as_edited():
    """The geometry is kept for a copy of the positions last scored: editing the
    caller's dict in place is seen, and editing it back gives the first report."""
    positions = {0: (0, 0), 1: (3, 0), 2: (0, 3)}
    users = [UserSpec(user=i, position=(1, 1), node=i, demand=DemandProfile.constant(9.0))
             for i in range(3)]
    env = make_env(positions, {(0, 1), (0, 2), (1, 2)}, users, channels=(1,))
    state = env.reset()
    first = env.report_for(state)
    state.position_of[1] = (1, 2)
    edited = env.report_for(state)
    for user in range(3):  # node `user` serves it alone
        ratio = reference_ratio(env, state, user)
        assert env.link_quality(state, user) == pytest.approx(ratio, rel=1e-12)
        assert env.node_achieved(edited, user) == pytest.approx(
            min(math.log2(1.0 + ratio), 9.0), rel=1e-12, abs=0.0)
    assert edited.readings.tobytes() != first.readings.tobytes()
    state.position_of[1] = (3, 0)
    again = env.report_for(state)
    assert again.readings.tobytes() == first.readings.tobytes()


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
        assert at("achieved") == pytest.approx(
            reference_served(env, state, node, state.position_of[node]), rel=1e-12, abs=0.0)
        assert (at("x"), at("y")) == state.position_of[node]
        for uid in env.users_of(node):
            assert at(f"demand_u{uid}") == state.demand[uid]
    assert report.conflicts == sum(env.local_conflicts(state, n) for n in env.nodes) // 2
    with pytest.raises(KeyError):
        env.reading_index(0, "demand_u9")  # user 9 belongs to node 4
