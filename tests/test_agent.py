import json
import math
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshmind import (Agent, AgentConfig, DemandProfile, EnvConfig,
                      Environment, FeatureSpec, MeshTopology, QParams,
                      SetChannel, UserSpec)
from meshmind import agent as agent_module
from meshmind.agent import AgentParams, Population, TraceEvent, UnknownPendingAction
from meshmind.env import MoveTo, satisfied
from meshmind.kb import Case, KnowledgeBase
from meshmind.harness import build_agents, run_scenario
from meshmind.learning import encode_state
from meshmind.optimize import Controlled, EpsilonGreedy, location_search, one_step_cells
from meshmind.reasoning import MissingFeature, normalize

from helpers import (EPSILON, INSIDE, UNIFORM, draw_readings, edge_uniforms, grid_positions,
                     make_channel_spec, make_location_spec, make_lowload_window_spec,
                     read_trace, readings_report)


def channel_env(channels=(1, 2)):
    """Two nodes, one interference edge: a shared channel starves both users."""
    topo = MeshTopology(positions={0: (0, 0), 1: (2, 0)}, edges={(0, 1)},
                        channels=channels)
    users = [UserSpec(user=i, position=topo.positions[i],
                      demand=DemandProfile.constant(5.0), node=i)
             for i in range(2)]
    cfg = EnvConfig(topology=topo, users=users, pathloss_exponent=1.0,
                    tx_power=1.0, noise_floor=1e-3, bandwidth_unit=1.0,
                    horizon=100)
    return Environment(cfg)


def channel_agent(node=0, epsilon=0.2, channels=(1, 2)):
    config = AgentConfig(
        kind="channel-assignment", channels=channels,
        feature_spec=FeatureSpec(features=(("conflicts", 0.0, 1.0, 2),
                                           ("demand", 0.0, 5.0, 2),
                                           ("achieved", 0.0, 5.0, 2))),
        qparams=QParams(alpha=0.4, gamma=0.3),
        policy=EpsilonGreedy(epsilon))
    return Agent(node, config)


def two_relay_spec(horizon=60):
    """Two relays on a 4x2 field, one serving two users and one serving a
    third: their percepts hold four and three features."""
    spec = make_location_spec(horizon=horizon)
    cells = frozenset((x, y) for x in range(4) for y in range(2))
    topo = MeshTopology(positions={0: (1, 0), 1: (2, 1)}, edges=set(), channels=(1,),
                        allowed={0: cells, 1: cells})
    users = [*spec.env_config.users,
             UserSpec(user=2, position=(3, 1), demand=DemandProfile.periodic(
                 30, [(0, 2.0), (15, 0.2)]), node=1)]
    return replace(spec, env_config=replace(spec.env_config, topology=topo, users=users))


def drive(env, agents, steps, force=None, start=None, penalty=0.0):
    """Minimal copy of the harness loop: tick, mark the agents that acted,
    batch-apply, sense, feed back (charging `penalty` for a disruptive switch).
    As in a run, the triggered ticks of a step take one uniform each, in agent
    order, from one `random(k)` of the stream `default_rng([0, 1])`.

    Returns ((state, report, population, stream), events), with one event per
    agent per step: an idle tick, for which `tick` returns None, is recorded as
    an idle TraceEvent. Pass that first value as `start` to continue the run
    with the same detector state and stream.
    """
    if start is None:
        state = env.reset()
        report = env.report_for(state)
        population = Population(agents, env)
        population.sense(report)
        stream = np.random.default_rng([0, 1])
    else:
        state, report, population, stream = start
    events = []
    for t in range(steps):
        batch, acting = [], []
        draws = iter(stream.random(population.fired.count(True)).tolist())
        for i, ag in enumerate(agents):
            event = ag.tick(env, state, population, i, draws)
            events.append(event or TraceEvent(t=state.t, node=ag.node, outcome="idle",
                                              percept=population.percept(i)))
            if event is not None:
                batch.append(event.action)
                acting.append(i)
        population.acted(acting)
        if force is not None:
            batch.extend(force(t, state))
        state, report = env.apply_and_step(state, batch)
        population.sense(report)
        for i in acting:
            agents[i].observe(population, i, penalty)
    return (state, report, population, stream), events


def optimizer_runs(events):
    """Ticks that ran the optimizer: every reasoning outcome but reuse."""
    return sum(ev.outcome in ("recompute", "retain", "reject") for ev in events)


def starved_report(env):
    """A report in which node 0's users demand 5 Mbps and receive nothing."""
    readings = np.zeros(12)  # five per-node readings of two nodes, two users
    readings[env.reading_index(0, "demand")] = 5.0
    return readings_report(readings)


class TestBuild:
    @pytest.mark.parametrize("spec,actions", [
        (make_channel_spec(3, {(0, 1), (1, 2)}, channels=4), 4),
        (make_location_spec(), 9),  # one per direction, staying included
    ], ids=["channel", "location"])
    def test_each_agent_has_its_table_when_built(self, spec, actions):
        env = Environment(spec.env_config)
        for agent in build_agents(spec, env, env.reset(), seed=0):
            assert (agent.table.state_count, agent.table.action_count) == (
                agent.config.feature_spec.state_count, actions)

    def test_agents_of_one_layout_share_one_config(self):
        spec = make_channel_spec(9, {(i, i + 1) for i in range(8) if i % 3 < 2}
                                 | {(i, i + 3) for i in range(6)},
                                 positions=grid_positions(9, width=3))
        env = Environment(spec.env_config)
        agents = build_agents(spec, env, env.reset(), seed=0)
        assert len(agents) == 9
        assert all(agent.config is agents[0].config for agent in agents)

    def test_relays_serving_other_users_have_their_own_configs(self):
        spec = make_location_spec(cols=2, rows=2)
        env = Environment(spec.env_config)
        agents = build_agents(spec, env, env.reset(), seed=0)
        assert len({id(agent.config) for agent in agents}) == len(agents) == 4
        # one x and y layout over every node's cells; the demand features name each relay's users
        assert len({agent.config.feature_spec.features[:2] for agent in agents}) == 1
        assert [[name for name, *_ in agent.config.feature_spec.features[2:]]
                for agent in agents] == [
            [f"demand_u{2 * node}", f"demand_u{2 * node + 1}"] for node in range(4)]

    @pytest.mark.parametrize("spec", [make_channel_spec(3, {(0, 1), (1, 2)}),
                                      make_location_spec(cols=2)], ids=["channel", "location"])
    def test_demand_features_span_the_environment_peak(self, spec):
        periodic = DemandProfile.periodic(30, [(0, 2.5), (8, 0.6)])
        random = DemandProfile.random_epochs(8, [0.4, 7.5])
        users = [replace(user, demand=(periodic, random)[k % 2])
                 for k, user in enumerate(spec.env_config.users)]
        spec = replace(spec, env_config=replace(spec.env_config, users=users))
        env = Environment(spec.env_config, seed=4)
        assert env.demand_peak == 7.5
        for agent in build_agents(spec, env, env.reset(), seed=4):
            spans = {(lo, hi) for name, lo, hi, _ in agent.config.feature_spec.features
                     if name.startswith(("demand", "achieved"))}
            assert spans == {(0.0, env.demand_peak)}

    def test_channel_agent_needs_a_palette(self):
        with pytest.raises(ValueError, match="palette"):
            replace(channel_agent().config, channels=())

    @pytest.mark.parametrize("bad", [
        {"similarity_threshold": math.nan}, {"coefficient_threshold": math.nan},
        {"similarity_threshold": 0.0}, {"similarity_threshold": -math.inf},
        {"kb_capacity": 0}, {"similarity_threshold": math.nan, "kb_capacity": 0}])
    def test_config_rejects_what_agent_params_rejects(self, bad):
        with pytest.raises(ValueError) as expected:
            AgentParams(**bad)
        with pytest.raises(ValueError) as err:
            replace(channel_agent().config, **bad)  # AgentConfig(...) with every field
        assert err.value.args == expected.value.args


class TestSense:
    def test_location_percept_is_location_and_demand(self):
        spec = make_location_spec()
        env = Environment(spec.env_config)
        state = env.reset()
        agents = build_agents(spec, env, state, seed=0)
        agent = agents[0]
        assert [name for name, *_ in agent.config.feature_spec.features] == [
            "x", "y", "demand_u0", "demand_u1"]
        percept = agent.sense(env, env.report_for(state))
        assert percept[0] == pytest.approx(2.0 / 3.0)  # node starts at x=2 of 0..3
        assert percept[2] == pytest.approx(1.0)        # user 0 demands the peak

    def test_zero_demand_gives_zero_component(self):
        env = channel_env()
        agent = channel_agent()
        state = replace(env.reset(), demand={0: 0.0, 1: 0.0})
        percept = agent.sense(env, env.report_for(state))
        assert percept[1] == 0.0

    def test_identical_environment_gives_identical_percepts(self):
        env = channel_env()
        agent = channel_agent()
        state = env.reset()
        report = env.report_for(state)
        assert agent.sense(env, report) == agent.sense(env, report)


class TestPopulation:
    @pytest.mark.parametrize("spec", [
        make_channel_spec(9, {(i, i + 1) for i in range(8) if i % 3 < 2}
                          | {(i, i + 3) for i in range(6)},
                          positions=grid_positions(9, width=3)),
        make_location_spec(),
    ], ids=["channel", "location"])
    def test_percepts_match_scalar_normalize(self, spec):
        env = Environment(spec.env_config)
        state = env.reset()
        if spec.kind == "channel-assignment":
            state, _ = env.apply_and_step(state, [SetChannel(0, 2), SetChannel(4, 3)])
        report = env.report_for(state)
        agents = build_agents(spec, env, state, seed=0)
        population = Population(agents, env)
        population.sense(report)
        for i, ag in enumerate(agents):
            x, y = state.position_of[ag.node]
            raw = {"conflicts": env.local_conflicts(state, ag.node),
                   "demand": env.node_demand(state, ag.node),
                   "achieved": env.node_achieved(report, ag.node),
                   "x": float(x), "y": float(y)}
            raw.update({f"demand_u{u}": state.demand[u] for u in env.users_of(ag.node)})
            expected = normalize(raw, ag.config.feature_spec)
            assert population.percept(i) == expected
            assert population.achieved[i] == raw["achieved"]
            assert population.demanded[i] == raw["demand"]

    def test_detector_matches_the_pairwise_rule(self):
        env = channel_env()
        population = Population([channel_agent(0), channel_agent(1)], env)
        demand_at = [env.reading_index(n, "demand") for n in (0, 1)]
        achieved_at = [env.reading_index(n, "achieved") for n in (0, 1)]
        rng = np.random.default_rng(0)
        previous = [None, None]  # whether the last counted sample was undersupplied
        report, repeats = None, Counter()
        for t in range(120):
            repeated = report is not None and rng.random() < 0.4
            if not repeated:  # else the same report object is sensed again
                readings = np.zeros(12)  # five per-node readings of two nodes, two users
                readings[demand_at] = 5.0
                readings[achieved_at] = rng.choice([1.0, 5.0 - 1e-10, 5.0], size=2)
                report = readings_report(readings)
            population.sense(report)
            for i in range(2):
                unsatisfied = not satisfied(readings[achieved_at[i]], 5.0)
                expected = bool(previous[i]) and unsatisfied  # undersupplied twice running
                assert population.fired[i] == expected
                repeats[repeated, previous[i] is None, expected] += 1
                previous[i] = unsatisfied
                if expected and rng.random() < 0.5:
                    population.acted([i])
                    previous[i] = None
        # a repeat fires, stays quiet after an action, and the first sample after one does not
        assert repeats[True, False, True] and repeats[True, True, False]

    @pytest.mark.parametrize("spec", [
        make_channel_spec(9, {(i, i + 1) for i in range(8) if i % 3 < 2}
                          | {(i, i + 3) for i in range(6)},
                          positions=grid_positions(9, width=3), horizon=60),
        make_location_spec(),
        two_relay_spec(),
    ], ids=["channel", "location", "two-relays"])
    def test_states_match_scalar_encode_state(self, spec):
        env = Environment(spec.env_config)
        agents = build_agents(spec, env, env.reset(), seed=0)
        run, checked = None, set()
        for _ in range(spec.horizon):
            run, _ = drive(env, agents, 1, start=run)
            state, _, population, _ = run
            for i, ag in enumerate(agents):
                expected = encode_state(population.percept(i), ag.config.feature_spec)
                assert population.states[i] == expected
                checked.add(expected)
        assert len(checked) > 1

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_states_on_bin_edges_match_scalar_encode_state(self, data):
        env = channel_env()
        names = ("conflicts", "demand", "achieved")
        agents, readings = [], np.zeros(12)  # five per-node readings of two nodes, two users
        for node in (0, 1):
            bins = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
            agents.append(Agent(node, AgentConfig(
                kind="channel-assignment", channels=(1, 2),
                feature_spec=FeatureSpec(tuple((n, 0.0, 1.0, b) for n, b in zip(names, bins))))))
            for name in names[:len(bins)]:  # on the unit range a percept is its reading
                edges = [k / b for b in bins for k in range(b + 1)]
                readings[env.reading_index(node, name)] = data.draw(
                    st.sampled_from([*edges, 0.0, -0.0, 1.0]) | st.floats(0.0, 1.0))
        population = Population(agents, env)
        population.sense(readings_report(readings))
        assert population.states == [encode_state(population.percept(i), ag.config.feature_spec)
                                     for i, ag in enumerate(agents)]

    @pytest.mark.parametrize("spec", [
        make_channel_spec(9, {(i, i + 1) for i in range(8) if i % 3 < 2}
                          | {(i, i + 3) for i in range(6)},
                          positions=grid_positions(9, width=3), horizon=80),
        make_location_spec(),
    ], ids=["channel", "location"])
    def test_a_reused_report_senses_as_a_fresh_copy_of_it(self, spec):
        """Sensing the report `apply_and_step` hands back again advances only the
        detector: everything a copy of its readings gives stays as it was."""
        env = Environment(spec.env_config)
        state = env.reset()
        report = env.report_for(state)
        agents = build_agents(spec, env, state, seed=0)
        same, fresh = Population(agents, env), Population(agents, env)
        same.sense(report)
        fresh.sense(replace(report, readings=report.readings.copy()))
        rng = np.random.default_rng(1)
        reused = 0
        for _ in range(spec.horizon):
            actions = []
            for node in env.nodes if rng.random() < 0.3 else ():
                if rng.random() < 0.5:
                    actions.append(SetChannel(node, int(rng.choice(env.topology.channels)))
                                   if spec.kind == "channel-assignment" else
                                   MoveTo(node, sorted(env.topology.allowed[node])[
                                       rng.integers(len(env.topology.allowed[node]))]))
            acting = [i for i in np.flatnonzero(same.fired).tolist() if rng.random() < 0.5]
            for population in (same, fresh):
                population.acted(acting)
            state, next_report = env.apply_and_step(state, actions, report)
            reused += next_report is report
            report = next_report
            same.sense(report)
            fresh.sense(replace(report, readings=report.readings.copy()))
            assert same.fired == fresh.fired
            assert same.states == fresh.states
            assert [same.percept(i) for i in range(len(agents))] == [
                fresh.percept(i) for i in range(len(agents))]
            assert (same.achieved, same.demanded) == (fresh.achieved, fresh.demanded)
            assert same.lines() == fresh.lines()
        assert 0 < reused < spec.horizon

    @pytest.mark.parametrize("reused", [True, False], ids=["reused", "fresh"])
    @pytest.mark.parametrize("acting", [[], [1, 3]], ids=["none", "two"])
    def test_acted_resets_the_detector_of_exactly_those_agents(self, acting, reused):
        spec = make_channel_spec(4, {(0, 1), (1, 2), (2, 3)}, horizon=1)
        env = Environment(spec.env_config)
        population = Population(build_agents(spec, env, env.reset(), 0), env)
        readings = np.zeros(env.report_for(env.reset()).readings.size)
        readings[[env.reading_index(node, "demand") for node in range(4)]] = 5.0  # all starved
        report = readings_report(readings)
        population.sense(report)
        population.sense(report)
        assert population.fired == [True] * 4
        population.acted(acting)
        fired = []
        for _ in range(2):
            population.sense(report if reused else readings_report(readings.copy()))
            fired.append(population.fired)
        assert fired == [[i not in acting for i in range(4)], [True] * 4]

    @settings(max_examples=75, deadline=None)
    @given(st.data())
    def test_asking_for_lines_changes_nothing_sensed(self, data):
        """Two populations sense the same readings, the report object of the last
        sense or new ones; one asks for its lines after some senses. Both keep the
        same sensed values, and the lines are those of a population new to them."""
        spec = make_channel_spec(4, {(0, 1), (1, 2), (2, 3)}, horizon=1)
        env = Environment(spec.env_config)
        agents = build_agents(spec, env, env.reset(), 0)
        asking, quiet = Population(agents, env), Population(agents, env)
        history = [np.zeros(env.report_for(env.reset()).readings.size)]
        report = readings_report(history[0])

        def sensed(population):
            return repr((population.fired, population.states, population.achieved,
                         population.demanded, [population.percept(i) for i in range(4)]))

        for _ in range(data.draw(st.integers(1, 8))):
            if data.draw(st.booleans()):  # else the report object sensed last
                report = readings_report(draw_readings(data, history))
            for population in (asking, quiet):
                population.sense(report)
            if data.draw(st.booleans()):
                new = Population(agents, env)
                new.sense(report)
                assert asking.lines() == new.lines()
            assert sensed(asking) == sensed(quiet)
            acting = data.draw(st.lists(st.integers(0, 3), unique=True))
            for population in (asking, quiet):
                population.acted(acting)

    def test_report_readings_are_read_only(self):
        env = channel_env()
        report = env.report_for(env.reset())
        with pytest.raises(ValueError, match="read-only"):
            report.readings[0] = 1.0
        _, reused = env.apply_and_step(env.reset(), [], report)
        assert reused is report

    def test_percept_texts_are_the_json_items_of_each_percept(self):
        env = channel_env()
        population = Population([channel_agent(0), channel_agent(1)], env)
        readings = np.zeros(12)  # five per-node readings of two nodes, two users
        demand_at = [env.reading_index(n, "demand") for n in (0, 1)]
        for t, demands in enumerate(([5.0, 5.0], [-0.0, 0.0], [-0.0, 0.0], [0.0, -0.0],
                                     [1.0, 2.5], [5.0, 5.0], [np.nan, 0.3])):
            readings[demand_at] = demands
            population.sense(readings_report(readings))
            heads, texts = population.lines()
            assert [f"[{text}]" for text in texts] == [
                json.dumps(list(population.percept(i))) for i in range(2)]
            assert (texts[0] == texts[1]) == (demands[0].hex() == demands[1].hex())
            idle = [TraceEvent(t=t, node=i, percept=population.percept(i), outcome="idle")
                    for i in range(2)]
            assert [f"{head}{t}}}\n" for head in heads] == [
                json.dumps(event.to_record(), sort_keys=True) + "\n" for event in idle]
        assert texts[0] == "0.0, NaN, 0.0"  # as json.dumps writes a NaN

    def test_percept_texts_outlive_a_clear_of_the_shared_memo(self):
        """Over 1,024 distinct percept values pass through `lines`, so the float-text
        memo it shares with tick rows clears part way; each text stays json.dumps'."""
        env = channel_env()
        population = Population([channel_agent(0), channel_agent(1)], env)
        at = [env.reading_index(n, name) for name in ("demand", "achieved") for n in (0, 1)]
        readings = np.zeros(12)  # five per-node readings of two nodes, two users
        sizes = []
        for values in np.random.default_rng(0).uniform(0.0, 5.0, (300, 4)):
            readings[at] = values
            population.sense(readings_report(readings.copy()))
            assert [f"[{text}]" for text in population.lines()[1]] == [
                json.dumps(list(population.percept(i))) for i in range(2)]
            sizes.append(len(agent_module._json))
        assert any(after < before for before, after in zip(sizes, sizes[1:]))  # a clear

    def test_nan_percept_fails_the_tick_and_the_feedback_that_index_it(self):
        env = channel_env()
        agent = channel_agent()
        population = Population([agent], env)
        report = starved_report(env)
        population.sense(report)
        population.sense(report)
        assert agent.tick(env, env.reset(), population, 0, iter([0.5])) is not None
        population.acted([0])
        readings = report.readings.copy()
        readings[env.reading_index(0, "conflicts")] = np.nan
        nan_report = replace(report, readings=readings)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no invalid-cast warning while indexing
            population.sense(nan_report)
        with pytest.raises(ValueError, match="NaN"):  # as encode_state raised
            agent.observe(population, 0, 0.0)
        population.sense(nan_report)
        assert population.fired == [True]
        with pytest.raises(ValueError, match="NaN"):
            agent.tick(env, env.reset(), population, 0, iter([0.5]))

    def test_unknown_feature_is_missing(self):
        env = channel_env()
        agent = Agent(0, AgentConfig(
            kind="channel-assignment", channels=(1, 2),
            feature_spec=FeatureSpec(features=(("demand_u1", 0.0, 5.0, 2),))))
        with pytest.raises(MissingFeature):
            Population([agent], env)  # user 1 belongs to node 1


class TestDetect:
    def fires(self, *achieved):
        """Whether node 0's detector fires after samples of these supplies at demand 5."""
        env = channel_env()
        population = Population([channel_agent(0)], env)
        readings = np.zeros(12)  # five per-node readings of two nodes, two users
        readings[env.reading_index(0, "demand")] = 5.0
        for value in achieved:
            readings[env.reading_index(0, "achieved")] = value
            population.sense(readings_report(readings))
        return population.fired[0]

    def test_two_satisfied_samples_do_not_trigger(self):
        assert not self.fires(5.0, 5.0)

    def test_single_unsatisfied_sample_is_not_enough(self):
        assert not self.fires(1.0)
        assert not self.fires(5.0, 1.0)
        assert not self.fires(1.0, 5.0)

    def test_two_unsatisfied_samples_trigger(self):
        assert self.fires(1.0, 1.0)
        assert self.fires(5.0, 1.0, 1.0)


class TestTick:
    def test_satisfied_node_stays_idle(self):
        env = channel_env()
        agent = channel_agent(node=0)
        # separate channels from the start: nobody is starved
        env.config.initial_channels = {0: 1, 1: 2}
        _, events = drive(env, [agent], 5)
        assert all(ev.outcome == "idle" and ev.action is None for ev in events)
        assert optimizer_runs(events) == 0

    def test_first_trigger_retains_into_empty_kb(self):
        env = channel_env()
        agent = channel_agent(node=0)
        _, events = drive(env, [agent], 2)
        assert events[0].outcome == "idle"      # first sample only
        assert events[1].outcome == "retain"    # second unsatisfied sample
        assert events[1].detected
        assert optimizer_runs(events) == 1
        assert len(agent.kb) == 1

    def test_successful_case_is_reused_without_optimizer(self):
        env = channel_env()
        agent = channel_agent(node=0)
        # give the agent time to find the conflict-free channel and settle
        settled, _ = drive(env, [agent], 30)
        state, report, *_ = settled
        assert satisfied(env.node_achieved(report, 0), env.node_demand(state, 0))
        assert agent.kb.cases[0].coefficient == 1.0

        # knock the node back onto the conflicting channel; the same percept
        # recurs and the stored successful action is replayed directly
        def knock(t, state):
            return [SetChannel(0, 1)] if t == 0 and state.channel_of[0] != 1 else []

        # continue from the settled state with a forced perturbation
        (state, report, *_), events = drive(env, [agent], 6, force=knock, start=settled)
        outcomes = [ev.outcome for ev in events]
        assert "reuse" in outcomes
        reuse_event = events[outcomes.index("reuse")]
        assert reuse_event.action == SetChannel(0, 2)
        assert optimizer_runs(events) == 0
        assert satisfied(env.node_achieved(report, 0), env.node_demand(state, 0))

    @pytest.mark.parametrize("gated", [True, False])
    def test_reused_switch_waits_while_the_node_serves(self, gated):
        env = channel_env()  # both nodes start on channel 1: node 0 is starved
        policy = Controlled(epsilon=0.0, serving_threshold=1.0 if gated else math.inf)
        agent = Agent(0, replace(channel_agent().config, policy=policy))
        population = Population([agent], env)
        state = env.reset()
        report = env.report_for(state)
        population.sense(report)
        agent.kb.retain(Case(percept=population.percept(0), action=SetChannel(0, 2),
                             coefficient=1.0))
        population.sense(report)  # second starved sample fires the detector
        event = agent.tick(env, state, population, 0, iter([0.5]))
        assert event.outcome == "reuse"
        # the node serves 5.0 Mbps, above the 1.0 threshold: the switch waits
        assert event.action == SetChannel(0, 1 if gated else 2)
        assert event.switched is not gated

    def test_acting_resets_the_two_sample_detector(self):
        env = channel_env(channels=(1,))  # single channel: conflict is unfixable
        agent = channel_agent(node=0, channels=(1,))
        _, events = drive(env, [agent], 6)
        detected = [ev.detected for ev in events]
        # trigger at t=1, act, then two fresh samples are needed before the next
        assert detected == [False, True, False, True, False, True]


class TestLocationExplore:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(EPSILON, UNIFORM, st.integers(0, 5), INSIDE)
    def test_a_location_agent_explores_one_step_from_its_uniform(self, epsilon, u, a, inside):
        """A uniform below epsilon moves to the one-step cell whose epsilon/n wide bucket
        holds it; any other moves where `location_search` does."""
        spec = two_relay_spec()
        spec = replace(spec, agent_params=replace(spec.agent_params,
                                                  policy=EpsilonGreedy(epsilon)))
        env = Environment(spec.env_config)
        state = env.reset()
        agent = build_agents(spec, env, state, spec.seed)[0]
        cells = one_step_cells(env.topology, 0, state.position_of[0])
        assert len(cells) == 6
        for x in (*edge_uniforms(epsilon), u):
            move = agent._optimize(env, state, 0, x)
            assert move.cell in cells
            if x >= epsilon:
                assert move == location_search(env, state, 0)
        explore = epsilon * (a + inside) / len(cells)
        if explore < epsilon and epsilon >= 1e-9:
            assert agent._optimize(env, state, 0, explore) == MoveTo(0, cells[a])
            top = math.nextafter(epsilon, 0.0)  # the largest uniform that explores
            assert agent._optimize(env, state, 0, top) == MoveTo(0, cells[-1])


class TestObserve:
    def test_full_supply_revises_coefficient_to_one(self):
        env = channel_env()
        agent = channel_agent(node=0)
        drive(env, [agent], 30)
        assert agent.kb.cases[0].coefficient == 1.0

    def test_starved_node_revises_coefficient_to_zero(self):
        env = channel_env()
        agent = channel_agent(node=0)
        population = Population([agent], env)
        report = starved_report(env)
        population.sense(report)
        case = Case(percept=population.percept(0), action=SetChannel(0, 2),
                    coefficient=0.5)
        agent.kb.retain(case)
        population.sense(report)  # second starved sample fires the detector
        event = agent.tick(env, env.reset(), population, 0, iter([0.5]))
        assert event.outcome == "recompute" and event.action is not None
        population.sense(report)  # the action left the node starved
        agent.observe(population, 0, 0.0)
        assert case.coefficient == 0.0

    def test_observe_changes_exactly_one_table_entry(self):
        env = channel_env()
        agent = channel_agent(node=0)
        population = Population([agent], env)
        state = env.reset()
        report = env.report_for(state)
        population.sense(report)
        agent.tick(env, state, population, 0, iter(()))  # first sample
        state, report = env.apply_and_step(state, [])
        population.sense(report)
        event = agent.tick(env, state, population, 0, iter([0.5]))
        assert event is not None
        before = agent.table.values.copy()
        before_explored = agent.table.explored.copy()
        state, report = env.apply_and_step(state, [event.action])
        population.sense(report)
        agent.observe(population, 0, 0.0)
        assert (agent.table.values != before).sum() <= 1
        assert (agent.table.explored != before_explored).sum() == 1

    def test_disruptive_switch_is_penalised(self):
        first_disruption = []
        for penalty in (0.0, 2.0):
            env = channel_env()
            agent = channel_agent(node=0)
            _, events = drive(env, [agent], 30, penalty=penalty)
            first_disruption.append(next(ev for ev in events if ev.disruption))
        plain, penalised = first_disruption
        assert plain.switched
        assert (penalised.t, penalised.action) == (plain.t, plain.action)
        assert penalised.reward == plain.reward - 2.0

    @pytest.mark.parametrize("spec,outcomes", [
        (make_lowload_window_spec(Controlled(epsilon=0.1, serving_threshold=1.0), horizon=120),
         {"recompute", "retain", "reuse"}),
        (make_location_spec(horizon=120, cols=2), {"retain", "reuse"}),
    ], ids=["channel", "location"])
    def test_every_revised_case_was_used_at_that_step(self, spec, outcomes):
        """A tick's feedback revises only a case that `retrieve` stamped with the
        tick's step, and retains one stamped with it: `revise` leaves last_used alone."""
        env = Environment(spec.env_config)
        agents = build_agents(spec, env, env.reset(), seed=0)
        revised, seen = [], set()
        for agent in agents:
            agent.kb.revise = lambda case, kb=agent.kb, **kw: (
                revised.append(case), KnowledgeBase.revise(kb, case, **kw))[1]
            agent.kb.retain = lambda case, kb=agent.kb: (
                revised.append(case), KnowledgeBase.retain(kb, case))[1]
        start = None
        for t in range(spec.horizon):
            start, events = drive(env, agents, 1, start=start)
            assert all(case.last_used == t for case in revised), t
            seen.update(ev.outcome for ev in events if revised and ev.detected)
            revised.clear()
        assert seen >= outcomes

    def test_observe_without_pending_action_raises(self):
        env = channel_env()
        agent = channel_agent()
        population = Population([agent], env)
        population.sense(starved_report(env))
        with pytest.raises(UnknownPendingAction):
            agent.observe(population, 0, 0.0)


class TestDecideThenWrite:
    """`tick` decides and `observe` writes. A tick leaves every stored case's percept,
    action and coefficient, and the case list, as they were: only the retrieved case's
    hits and last_used move. Its feedback then writes exactly one case, the retrieved
    one revised or a new one retained, or none on REJECT and on a REUSE the gate overrides."""

    @settings(derandomize=True, max_examples=24, deadline=None)
    @given(st.sampled_from([None, 10, 30, "location"]), st.sampled_from([1, 2, 4, 256]),
           st.sampled_from([0.8, 0.95]), st.integers(0, 11))
    def test_a_tick_only_stamps_and_its_feedback_writes_one_case(self, window, capacity,
                                                                 similarity, seed):
        """On a gated channel ring, with a one-switch budget per `window` steps or
        none (a spent budget overrides reuses), or on two location tiles."""
        spec = (make_location_spec(horizon=80, cols=2, seed=seed) if window == "location"
                else make_lowload_window_spec(Controlled(
                    epsilon=0.1, serving_threshold=1.0, max_switches=window and 1,
                    window=window), horizon=120, seed=seed))
        spec = replace(spec, agent_params=replace(
            spec.agent_params, kb_capacity=capacity, similarity_threshold=similarity))
        env = Environment(spec.env_config, seed=spec.seed)
        state = env.reset()
        report = env.report_for(state)
        agents = build_agents(spec, env, state, spec.seed)
        retrieved, writes = {}, []
        for i, agent in enumerate(agents):
            kb = agent.kb
            kb.retrieve = lambda percept, now, kb=kb, i=i: retrieved.setdefault(
                i, KnowledgeBase.retrieve(kb, percept, now))
            kb.revise = lambda case, kb=kb, **kw: (
                writes.append(("revise", case)), KnowledgeBase.revise(kb, case, **kw))[1]
            kb.retain = lambda case, kb=kb: (
                writes.append(("retain", case)), KnowledgeBase.retain(kb, case))[1]
        population = Population(agents, env)
        population.sense(report)
        stream = np.random.default_rng([spec.seed, 1])
        for _ in range(spec.horizon):
            before = [[(case, case.percept, case.action, case.coefficient, case.hits,
                        case.last_used) for case in agent.kb.cases] for agent in agents]
            retrieved.clear()
            draws = iter(stream.random(population.fired.count(True)).tolist())
            events = {i: event for i, agent in enumerate(agents)
                      if (event := agent.tick(env, state, population, i, draws)) is not None}
            assert not writes
            for i, agent in enumerate(agents):
                hit = retrieved.get(i)
                assert len(agent.kb.cases) == len(before[i])
                for (case, *content, hits, last_used), now in zip(before[i], agent.kb.cases):
                    assert now is case and [now.percept, now.action, now.coefficient] == content
                    stamped = hit is not None and hit[0] is case
                    assert (now.hits, now.last_used) == (
                        (hits + 1, state.t) if stamped else (hits, last_used))
            population.acted(list(events))
            state, report = env.apply_and_step(state, [ev.action for ev in events.values()])
            population.sense(report)
            for i, event in events.items():
                agents[i].observe(population, i, 0.0)
                hit = retrieved[i] and retrieved[i][0]
                if event.outcome == "reject" or (
                        event.outcome == "reuse" and event.action != hit.action):
                    assert writes == [], event
                    continue
                (how, case), = writes
                writes.clear()
                if event.outcome == "retain":
                    assert how == "retain" and case.percept == event.percept
                    assert case.created == case.last_used == event.t
                    assert any(stored is case for stored in agents[i].kb.cases)
                else:
                    assert how == "revise" and case is hit
                    assert any(stored is case for stored in agents[i].kb.cases)
                assert (case.action, case.coefficient) == (event.action, event.coefficient)


class TestHeldTick:
    """Under a blocking gate a triggered tick stays on its channel whatever the
    outcome, without drawing a pick; the case it writes holds the stay action."""

    STAY, AWAY = SetChannel(0, 1), SetChannel(0, 2)

    def tick(self, outcome, serving_threshold):
        """Node 0, starved on channel 1 while it serves 5.0 Mbps, ticks with a stored
        case that makes the tick's `outcome`; returns (agent, env, state, population, event)."""
        env = channel_env()  # both nodes start on channel 1
        policy = Controlled(epsilon=0.0, serving_threshold=serving_threshold)
        agent = Agent(0, replace(channel_agent().config, policy=policy,
                                 kb_capacity=1 if outcome == "reject" else 256))
        population = Population([agent], env)
        state = env.reset()
        report = env.report_for(state)
        population.sense(report)
        percept = population.percept(0)
        stored = {"reuse": Case(percept, self.AWAY, 1.0),
                  "recompute": Case(percept, self.AWAY, 0.0),
                  "reject": Case((0.0,) * len(percept), self.AWAY, 1.0)}.get(outcome)
        if stored is not None:
            agent.kb.retain(stored)
        population.sense(report)  # second starved sample fires the detector
        event = agent.tick(env, state, population, 0, iter([0.5]))
        assert event.outcome == outcome
        return agent, env, state, population, event

    @pytest.mark.parametrize("outcome", ["reuse", "recompute", "retain", "reject"])
    def test_every_outcome_stays_without_a_pick(self, monkeypatch, outcome):
        def no_pick(*args):
            raise AssertionError("select_action was called")
        monkeypatch.setattr(agent_module, "select_action", no_pick)
        if outcome != "reuse":  # ungated, the same tick picks
            with pytest.raises(AssertionError, match="select_action"):
                self.tick(outcome, math.inf)
        agent, env, state, population, event = self.tick(outcome, 1.0)
        assert (event.action, event.switched) == (self.STAY, False)
        before = [(case.action, case.coefficient) for case in agent.kb.cases]
        state, report = env.apply_and_step(state, [event.action])
        population.sense(report)
        agent.observe(population, 0, 0.0)
        if outcome in ("recompute", "retain"):
            (case,) = agent.kb.cases
            assert (case.action, case.coefficient) == (self.STAY, event.coefficient)
        else:  # an overridden reuse and a reject write nothing
            assert [(case.action, case.coefficient) for case in agent.kb.cases] == before


class TestControlledRun:
    @pytest.mark.parametrize("max_switches,window", [(1, 30), (1, 100), (2, 60)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_switch_budget_holds_in_every_window(self, tmp_path, max_switches, window, seed):
        policy = Controlled(epsilon=0.1, serving_threshold=1.0,
                            max_switches=max_switches, window=window)
        run_scenario(make_lowload_window_spec(policy, seed=seed), out_dir=tmp_path)
        switches = {}
        for r in read_trace(tmp_path):
            if r["kind"] == "tick" and r["switched"]:
                switches.setdefault(r["node"], []).append(r["t"])
        assert switches  # the budget is spent, not idle
        for node, times in switches.items():
            for t in times:
                recent = [s for s in times if t - window < s <= t]
                assert len(recent) <= max_switches, (node, times)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_controlled_agents_never_switch_while_serving(self, seed):
        side = 6
        edges = ({(i, i + 1) for i in range(side * side) if i % side < side - 1}
                 | {(i, i + side) for i in range(side * (side - 1))})
        spec = make_channel_spec(
            side * side, edges, positions=grid_positions(side * side, width=side),
            demand=DemandProfile.random_epochs(8, [0.4, 0.8, 2.5, 5.0]), horizon=300,
            seed=seed, policy=Controlled(epsilon=0.1, serving_threshold=1.0))
        report, _ = run_scenario(spec)
        assert report.reuse_ticks > 0 and report.switches > 0
        assert report.disruptions == 0  # a switch above 1.0 Mbps is a disruption
