import numpy as np
import pytest

from meshmind import (Agent, AgentConfig, DemandProfile, EnvConfig,
                      Environment, EnvView, FeatureSpec, MeshTopology,
                      PerceptVector, QParams, Sample, SetChannel, StateCodec,
                      UserSpec, detect_unsatisfactory)
from meshmind.agent import NonConsecutiveSamples, Population, UnknownPendingAction
from meshmind.env import ThroughputReport, satisfied
from meshmind.kb import Case
from meshmind.harness import build_agents
from meshmind.optimize import EpsilonGreedy
from meshmind.reasoning import MissingFeature, normalize

from helpers import grid_positions, make_channel_spec, make_location_spec


def channel_env(channels=(1, 2)):
    """Two nodes, one interference edge: a shared channel starves both users."""
    topo = MeshTopology(positions={0: (0, 0), 1: (2, 0)}, edges={(0, 1)},
                        channels=channels)
    users = [UserSpec(user=i, position=topo.positions[i],
                      demand=DemandProfile.constant(5.0), node=i)
             for i in range(2)]
    cfg = EnvConfig(topology=topo, users=users, pathloss_exponent=1.0,
                    tx_power=1.0, noise_floor=1e-3, bandwidth_unit=1.0,
                    rng_seed=0, horizon=100)
    return Environment(cfg)


def channel_agent(node=0, seed=0, epsilon=0.2):
    config = AgentConfig(
        kind="channel-assignment",
        feature_spec=FeatureSpec(features=(("conflicts", 0.0, 1.0),
                                           ("demand", 0.0, 5.0),
                                           ("achieved", 0.0, 5.0))),
        codec=StateCodec(bins=(2, 2, 2)),
        qparams=QParams(alpha=0.4, gamma=0.3),
        policy=EpsilonGreedy(epsilon))
    return Agent(node, config, run_seed=seed)


def drive(env, agents, steps, force=None, start=None, penalty=0.0):
    """Minimal copy of the harness loop: tick, batch-apply, sense, feed back
    (charging `penalty` for a disruptive switch).

    Returns ((state, report, population), events); pass that first value
    as `start` to continue the run with the same detector state.
    """
    if start is None:
        state = env.reset()
        report = env.report_for(state)
        population = Population(agents, env)
        population.sense(report)
    else:
        state, report, population = start
    events = []
    for t in range(steps):
        view = EnvView(env=env, state=state, report=report)
        batch, acting = [], []
        for i, ag in enumerate(agents):
            action, event = ag.tick(view, population, i)
            events.append(event)
            if action is not None:
                batch.append(action)
                acting.append(i)
        if force is not None:
            batch.extend(force(t, state))
        state, report = env.apply_and_step(state, batch)
        population.sense(report)
        for i in acting:
            agents[i].observe(population, i, penalty)
    return (state, report, population), events


def optimizer_runs(events):
    """Ticks that ran the optimizer: every reasoning outcome but reuse."""
    return sum(ev.outcome in ("recompute", "retain", "reject") for ev in events)


def starved_report(env):
    """A report in which node 0's users demand 5 Mbps and receive nothing."""
    readings = np.zeros(12)  # five per-node readings of two nodes, two users
    readings[env.reading_index(0, "demand")] = 5.0
    return ThroughputReport(achieved={}, conflicts=0, readings=readings)


class TestSense:
    def test_location_percept_is_location_and_demand(self):
        spec = make_location_spec()
        env = Environment(spec.env_config)
        state = env.reset()
        agents = build_agents(spec, env, state, seed=0)
        agent = agents[0]
        assert agent.config.feature_spec.names == ("x", "y", "demand_u0", "demand_u1")
        view = EnvView(env=env, state=state, report=env.report_for(state))
        percept = agent.sense(view)
        assert percept.values[0] == pytest.approx(2.0 / 3.0)  # node starts at x=2 of 0..3
        assert percept.values[2] == pytest.approx(1.0)        # user 0 demands the peak

    def test_zero_demand_gives_zero_component(self):
        from dataclasses import replace
        env = channel_env()
        agent = channel_agent()
        state = replace(env.reset(), demand={0: 0.0, 1: 0.0})
        view = EnvView(env=env, state=state, report=env.report_for(state))
        percept = agent.sense(view)
        assert percept.values[1] == 0.0

    def test_identical_environment_gives_identical_percepts(self):
        env = channel_env()
        agent = channel_agent()
        state = env.reset()
        view = EnvView(env=env, state=state, report=env.report_for(state))
        assert agent.sense(view).values == agent.sense(view).values


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
            assert population.percept(i, state.t).values == expected.values
            assert population.achieved[i] == raw["achieved"]
            assert population.demanded[i] == raw["demand"]

    def test_detector_matches_the_pairwise_rule(self):
        env = channel_env()
        population = Population([channel_agent(0), channel_agent(1)], env)
        demand_at = [env.reading_index(n, "demand") for n in (0, 1)]
        achieved_at = [env.reading_index(n, "achieved") for n in (0, 1)]
        rng = np.random.default_rng(0)
        previous = [None, None]
        for t in range(60):
            readings = np.zeros(12)  # five per-node readings of two nodes, two users
            readings[demand_at] = 5.0
            readings[achieved_at] = rng.choice([1.0, 5.0 - 1e-10, 5.0], size=2)
            population.sense(ThroughputReport(achieved={}, conflicts=0,
                                              readings=readings))
            for i in range(2):
                sample = Sample(percept=PerceptVector((0.0,), t=t, node=i),
                                achieved=readings[achieved_at[i]], demanded=5.0, t=t)
                expected = (previous[i] is not None
                            and detect_unsatisfactory(previous[i], sample))
                assert population.fired[i] == expected
                previous[i] = sample
                if expected and rng.random() < 0.5:
                    population.acted(i)
                    previous[i] = None

    def test_unknown_feature_is_missing(self):
        env = channel_env()
        agent = Agent(0, AgentConfig(
            kind="channel-assignment",
            feature_spec=FeatureSpec(features=(("demand_u1", 0.0, 5.0),)),
            codec=StateCodec(bins=(2,))))
        with pytest.raises(MissingFeature):
            Population([agent], env)  # user 1 belongs to node 1


class TestDetect:
    def sample(self, t, achieved, demanded):
        return Sample(percept=PerceptVector((0.0,), t=t, node=0),
                      achieved=achieved, demanded=demanded, t=t)

    def test_two_satisfied_samples_do_not_trigger(self):
        assert not detect_unsatisfactory(self.sample(0, 5.0, 5.0),
                                         self.sample(1, 5.0, 5.0))

    def test_single_unsatisfied_sample_is_not_enough(self):
        assert not detect_unsatisfactory(self.sample(0, 5.0, 5.0),
                                         self.sample(1, 1.0, 5.0))
        assert not detect_unsatisfactory(self.sample(0, 1.0, 5.0),
                                         self.sample(1, 5.0, 5.0))

    def test_two_unsatisfied_samples_trigger(self):
        assert detect_unsatisfactory(self.sample(0, 1.0, 5.0),
                                     self.sample(1, 1.0, 5.0))

    def test_non_consecutive_samples_rejected(self):
        with pytest.raises(NonConsecutiveSamples):
            detect_unsatisfactory(self.sample(0, 1.0, 5.0),
                                  self.sample(2, 1.0, 5.0))


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
        agent = channel_agent(node=0, seed=3)
        # give the agent time to find the conflict-free channel and settle
        settled, _ = drive(env, [agent], 30)
        state, report, _ = settled
        assert satisfied(env.node_achieved(report, 0), env.node_demand(state, 0))
        assert agent.kb.cases[0].coefficient == 1.0

        # knock the node back onto the conflicting channel; the same percept
        # recurs and the stored successful action is replayed directly
        def knock(t, state):
            return [SetChannel(0, 1)] if t == 0 and state.channel_of[0] != 1 else []

        # continue from the settled state with a forced perturbation
        (state, report, _), events = drive(env, [agent], 6, force=knock, start=settled)
        outcomes = [ev.outcome for ev in events]
        assert "reuse" in outcomes
        reuse_event = events[outcomes.index("reuse")]
        assert reuse_event.action == SetChannel(0, 2)
        assert optimizer_runs(events) == 0
        assert satisfied(env.node_achieved(report, 0), env.node_demand(state, 0))

    def test_acting_resets_the_two_sample_detector(self):
        env = channel_env(channels=(1,))  # single channel: conflict is unfixable
        agent = channel_agent(node=0)
        _, events = drive(env, [agent], 6)
        detected = [ev.detected for ev in events]
        # trigger at t=1, act, then two fresh samples are needed before the next
        assert detected == [False, True, False, True, False, True]


class TestObserve:
    def test_full_supply_revises_coefficient_to_one(self):
        env = channel_env()
        agent = channel_agent(node=0, seed=3)
        drive(env, [agent], 30)
        assert agent.kb.cases[0].coefficient == 1.0

    def test_starved_node_revises_coefficient_to_zero(self):
        env = channel_env()
        agent = channel_agent(node=0)
        population = Population([agent], env)
        report = starved_report(env)
        population.sense(report)
        case = Case(percept=population.percept(0, 0), action=SetChannel(0, 2),
                    coefficient=0.5)
        agent.kb.retain(case)
        population.sense(report)  # second starved sample fires the detector
        view = EnvView(env=env, state=env.reset(), report=report)
        action, event = agent.tick(view, population, 0)
        assert event.outcome == "recompute" and action is not None
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
        agent.tick(EnvView(env=env, state=state, report=report), population, 0)  # first sample
        state, report = env.apply_and_step(state, [])
        population.sense(report)
        action, event = agent.tick(EnvView(env=env, state=state, report=report),
                                   population, 0)
        assert action is not None
        before = agent.table.values.copy()
        before_explored = agent.table.explored.copy()
        state, report = env.apply_and_step(state, [action])
        population.sense(report)
        agent.observe(population, 0, 0.0)
        assert (agent.table.values != before).sum() <= 1
        assert (agent.table.explored != before_explored).sum() == 1

    def test_disruptive_switch_is_penalised(self):
        first_disruption = []
        for penalty in (0.0, 2.0):
            env = channel_env()
            agent = channel_agent(node=0, seed=3)
            _, events = drive(env, [agent], 30, penalty=penalty)
            first_disruption.append(next(ev for ev in events if ev.disruption))
        plain, penalised = first_disruption
        assert plain.switched
        assert (penalised.t, penalised.action) == (plain.t, plain.action)
        assert penalised.reward == plain.reward - 2.0

    def test_observe_without_pending_action_raises(self):
        env = channel_env()
        agent = channel_agent()
        population = Population([agent], env)
        population.sense(starved_report(env))
        with pytest.raises(UnknownPendingAction):
            agent.observe(population, 0, 0.0)
