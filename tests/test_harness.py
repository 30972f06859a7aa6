import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import math
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from meshmind import (DemandProfile, EnvConfig, Environment, EpsilonGreedy,
                      MdpSpec, MeshTopology, QParams, UserSpec, harness,
                      load_scenario, q_learning_on_mdp, run_scenario, sweep,
                      value_iteration)
from meshmind import agent as agent_module, cli
from meshmind.agent import Agent, Population, TraceEvent
from meshmind.env import MoveTo, SetChannel
from meshmind.harness import (AgentParams, NonStochasticRow, ScenarioSpec,
                              SpecValidation, build_agents, knowledge_base_from_snapshot,
                              report_from_trace, scenario_from_dict)
from meshmind.learning import format_q_table
from meshmind.optimize import Controlled
from meshmind.reasoning import Outcome

from helpers import (draw_readings, make_channel_spec, make_location_spec,
                     reactive_location_oracle, read_trace, readings_report, with_horizon)
from test_golden import make_spec as golden_spec

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = ("follow_demand_location", "lowload_windows", "ring6_channels")  # the run scenarios


def _perfbench_workloads():
    """perfbench's workload generators, loaded from their file."""
    spec = importlib.util.spec_from_file_location(
        "workloads", SCENARIO_DIR.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


WORKLOADS = _perfbench_workloads()


def run_keeping_agents(spec, **kwargs):
    """`run_scenario(spec, **kwargs)`'s report and step rows, the agents it built, and
    each generator it made, by its seed words."""
    agents, streams, default_rng = [], {}, np.random.default_rng

    def build(*args):
        agents.extend(build_agents(*args))
        return agents

    def make(seed):
        streams[tuple(seed)] = stream = default_rng(seed)
        return stream

    with mock.patch.object(harness, "build_agents", build), \
            mock.patch.object(np.random, "default_rng", make):
        report, steps = run_scenario(spec, **kwargs)
    return report, steps, agents, streams


def tiny_spec(horizon=10, seed=0):
    topo = MeshTopology(positions={0: (0, 0)}, edges=set(), channels=(1,))
    users = [UserSpec(user=0, position=(0, 0),
                      demand=DemandProfile.constant(2.0), node=0)]
    env_config = EnvConfig(topology=topo, users=users, pathloss_exponent=1.0,
                           noise_floor=1e-3, bandwidth_unit=1.0, horizon=horizon)
    return ScenarioSpec(kind="channel-assignment", env_config=env_config,
                        agent_params=AgentParams(), seed=seed)


class TestRunScenario:
    def test_zero_horizon_runs_nothing(self):
        report, records = run_scenario(tiny_spec(horizon=0))
        assert records == []
        assert report.steps == 0
        assert report.total_conflicts == 0
        assert report.mean_achieved_mbps == 0.0

    def test_same_seed_reproduces_records_exactly(self, tmp_path):
        spec = make_channel_spec(4, {(0, 1), (1, 2), (2, 3)}, horizon=60, seed=5)
        _, first = run_scenario(spec, out_dir=tmp_path / "a")
        _, second = run_scenario(spec, out_dir=tmp_path / "b")
        assert first == second
        assert read_trace(tmp_path / "a") == read_trace(tmp_path / "b")

    def test_unconstrained_user_is_fully_satisfied(self):
        report, _ = run_scenario(tiny_spec(horizon=20))
        assert report.satisfaction_ratio == pytest.approx(1.0)
        assert report.final_conflicts == 0

    def test_report_matches_trace_recomputation(self, tmp_path):
        spec = make_channel_spec(4, {(0, 1), (1, 2), (2, 3), (0, 3)},
                                 horizon=120, seed=2)
        report, _ = run_scenario(spec, out_dir=tmp_path)
        records = read_trace(tmp_path)
        derived = report_from_trace(records)
        assert derived["steps"] == report.steps
        assert derived["total_conflicts"] == report.total_conflicts
        assert derived["final_conflicts"] == report.final_conflicts
        assert derived["triggered_ticks"] == report.triggered_ticks
        assert derived["reuse_ticks"] == report.reuse_ticks
        assert derived["optimizer_invocations"] == report.optimizer_invocations
        assert derived["switches"] == report.switches
        assert derived["disruptions"] == report.disruptions
        assert derived["kb_hit_rate"] == pytest.approx(report.kb_hit_rate)
        assert derived["satisfaction_ratio"] == pytest.approx(report.satisfaction_ratio)
        assert derived["mean_achieved_mbps"] == pytest.approx(report.mean_achieved_mbps)
        # each step row's counts, recounted from that step's tick rows
        ticks = []
        for row in records:
            if row["kind"] == "tick":
                ticks.append(row)
                continue
            assert [r["t"] for r in ticks] == [row["t"] - 1] * 4
            assert row["triggered"] == sum(r["detected"] for r in ticks)
            assert row["reuse"] == sum(r["outcome"] == "reuse" for r in ticks)
            assert row["switches"] == sum(r["switched"] for r in ticks)
            assert row["disruptions"] == sum(r["disruption"] for r in ticks)
            assert row["actions"] == sum(r["action"] is not None for r in ticks)
            ticks = []
        assert report.switches > 0 and report.triggered_ticks > 0

    @pytest.mark.parametrize("spec", [
        make_channel_spec(4, {(0, 1), (1, 2), (2, 3), (0, 3)}, horizon=120),
        make_location_spec(),
    ], ids=["channel", "location"])
    def test_untraced_run_gives_the_traced_report(self, tmp_path, spec):
        spec = replace(spec, seed=2)
        traced, steps = run_scenario(spec, out_dir=tmp_path)
        untraced, untraced_steps = run_scenario(spec)
        assert untraced_steps == steps
        assert replace(untraced, wall_time_s=0.0) == replace(traced, wall_time_s=0.0)

    def test_one_trace_event_per_agent_per_step(self, tmp_path):
        spec = make_channel_spec(3, {(0, 1), (1, 2)}, horizon=40, seed=1)
        run_scenario(spec, out_dir=tmp_path)
        ticks = [r for r in read_trace(tmp_path) if r["kind"] == "tick"]
        assert len(ticks) == 3 * 40
        # ascending node order within each step
        for t in range(40):
            nodes = [r["node"] for r in ticks if r["t"] == t]
            assert nodes == sorted(nodes)

    def test_sweep_runs_each_seed_independently(self):
        spec = make_channel_spec(3, {(0, 1), (1, 2)}, horizon=30)
        reports = sweep(spec, seeds=[1, 2, 3])
        assert set(reports) == {1, 2, 3}
        again = sweep(spec, seeds=[2])
        assert again[2].final_conflicts == reports[2].final_conflicts

    def test_periodic_demand_repeats_up_to_the_horizon_the_run_takes(self):
        """A spec built for 10 steps and given 40 repeats its period through t = 40:
        the env config holds the one horizon that profiles expand to."""
        periodic = DemandProfile.periodic(6, [(0, 3.0), (3, 0.1)])
        spec = make_channel_spec(3, {(0, 1), (1, 2)}, demand=periodic, horizon=10)
        _, steps = run_scenario(with_horizon(spec, 40))
        assert [row["total_demand"] for row in steps] == pytest.approx(
            [3 * (3.0 if t % 6 < 3 else 0.1) for t in range(1, 41)])

    def test_random_demand_draws_for_the_horizon_the_run_takes(self):
        """Given 40 steps, a spec built for 10 draws as one built for 40 does."""
        random = DemandProfile.random_epochs(4, [0.5, 2.0, 5.0, 17.0])
        spec = make_channel_spec(3, {(0, 1), (1, 2)}, demand=random, horizon=10)
        _, steps = run_scenario(with_horizon(spec, 40))
        _, expected = run_scenario(make_channel_spec(3, {(0, 1), (1, 2)}, demand=random,
                                                     horizon=40))
        assert steps == expected
        assert len({row["total_demand"] for row in steps[10:]}) > 1


LEVEL = st.sampled_from([0.5, 2.0, 5.0, 12.0])  # a clean link carries ~9.97 Mbps


@st.composite
def fixed_point_specs(draw):
    """A small channel spec, on up to five nodes with a random demand profile and policy,
    or a tiled location spec; horizons up to 60."""
    horizon, seed = draw(st.integers(0, 60)), draw(st.integers(0, 3))
    if draw(st.booleans()):
        return make_location_spec(horizon=horizon, seed=seed,
                                  epsilon=draw(st.sampled_from([0.0, 0.1, 0.5])),
                                  cols=draw(st.integers(1, 2)), rows=draw(st.integers(1, 2)))
    n = draw(st.integers(2, 5))
    edges = draw(st.sets(st.sampled_from([(a, b) for a in range(n) for b in range(a + 1, n)])))
    demand = draw(st.one_of(
        LEVEL.map(DemandProfile.constant),
        st.builds(lambda first, rest: DemandProfile.piecewise([(0, first), *rest.items()]),
                  LEVEL, st.dictionaries(st.integers(1, 70), LEVEL, max_size=3)),
        st.builds(lambda period, levels: DemandProfile.periodic(
            period, list(enumerate(levels))), st.integers(3, 15),
            st.lists(LEVEL, min_size=1, max_size=3)),
        st.builds(DemandProfile.random_epochs, st.integers(1, 15),
                  st.lists(LEVEL, min_size=1, max_size=3))))
    policy = draw(st.sampled_from([EpsilonGreedy(0.0), EpsilonGreedy(0.2), Controlled(
        epsilon=0.2, serving_threshold=4.0, max_switches=1, window=10)]))
    return make_channel_spec(n, edges, channels=draw(st.integers(1, 3)), demand=demand,
                             horizon=horizon, seed=seed, policy=policy)


def stepping_every_step():
    """Make a run step at every step: the next demand change is always the next step."""
    return mock.patch.object(Environment, "next_change", lambda self, t: t + 1)


def drawn(seed: int, uniforms: int) -> dict:
    """The state of the run stream of `seed` after it has drawn `uniforms` uniforms."""
    stream = np.random.default_rng([seed, 1])
    stream.random(uniforms)
    return stream.bit_generator.state


def run_outcome(spec, traced: bool):
    """A run's outcome: its report without wall time, its step rows, the files it emits
    but timings.json, each agent's value table and knowledge base, and the state of the
    run's stream, which has drawn one uniform per triggered tick; and the number of steps
    it took with `Environment.apply_and_step`."""
    real, calls = Environment.apply_and_step, []

    def counted(self, *args):
        calls.append(self)
        return real(self, *args)

    with tempfile.TemporaryDirectory() as out, \
            mock.patch.object(Environment, "apply_and_step", counted):
        report, steps, agents, streams = run_keeping_agents(
            spec, out_dir=out if traced else None)
        files = {path.name: path.read_bytes() for path in sorted(Path(out).iterdir())
                 if path.name != "timings.json"}
    stream = streams[spec.seed, 1].bit_generator.state
    assert stream == drawn(spec.seed, report.triggered_ticks)
    return (replace(report, wall_time_s=0.0), steps, files,
            [(format_q_table(ag.table), ag.kb.snapshot()) for ag in agents], stream), len(calls)


class TestFixedPoints:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(fixed_point_specs(), st.booleans())
    def test_skipping_fixed_points_changes_nothing(self, spec, traced):
        """A run that skips to the next demand change at each fixed point ends as one that
        steps every step: step rows, report, trace bytes, tables, KBs and run stream."""
        skipping, _ = run_outcome(spec, traced)
        with stepping_every_step():
            every, stepped = run_outcome(spec, traced)
        assert stepped == spec.horizon
        assert every == skipping

    @pytest.mark.parametrize("spec,stepped", [
        (load_scenario(SCENARIO_DIR / "follow_demand_location.yaml"), 12),
        (scenario_from_dict(WORKLOADS.mobile_relays(0, cols=2, rows=2, horizon=30)), 13),
    ], ids=["follow_demand_location", "mobile_relays_2x2"])
    def test_a_settled_run_steps_only_to_change_its_demand_or_act(self, spec, stepped):
        """follow_demand_location steps 12 of its 80 steps and a 2x2 mobile_relays
        instance 13 of 30, with the same outcome as stepping all of them."""
        skipping, steps = run_outcome(spec, traced=True)
        assert steps == stepped < spec.horizon == len(skipping[1])
        with stepping_every_step():
            assert run_outcome(spec, traced=True) == (skipping, spec.horizon)


class TestRunStream:
    @pytest.mark.parametrize("spec", [
        *(load_scenario(SCENARIO_DIR / f"{name}.yaml") for name in SHIPPED),
        scenario_from_dict(WORKLOADS.grid_steady(1, side=4, horizon=40)),
        scenario_from_dict(WORKLOADS.grid_churn_traced(1, side=3, horizon=40)),
        scenario_from_dict(WORKLOADS.mobile_relays(1, cols=2, rows=2, horizon=40)),
    ], ids=[*SHIPPED, "grid_steady_4x4", "grid_churn_traced_3x3", "mobile_relays_2x2"])
    def test_a_run_draws_one_uniform_per_triggered_tick(self, spec):
        """Skipping fixed points or stepping every step, a run leaves its stream as
        `default_rng([seed, 1])` after `random(triggered_ticks)`: a skipped step draws nothing."""
        skipping, _ = run_outcome(spec, traced=False)
        with stepping_every_step():
            every, _ = run_outcome(spec, traced=False)
        report = skipping[0]
        assert report.triggered_ticks > 0
        assert every[-1] == skipping[-1] == drawn(spec.seed, report.triggered_ticks)


# sha256 of every file but timings.json that a run writes; (scenario, seed) -> file ->
# digest. follow_demand_location's were recorded before trace.jsonl was written from
# each TraceEvent, lowload_windows' when the agents came to share one random stream.
PINNED_EMISSION = {
    ("lowload_windows", 0): {
        "metrics.csv": "2aec7b488839c6a699441d6d47cee6c2dac789076de2b4a579f2adb8769efdd1",
        "qtable_node_0.txt": "885c9d7c7ba8cf5617904393c5485974b651f122e9e6def60b5603ddcf4261cb",
        "qtable_node_1.txt": "1abebb7eea0fa88cb8f12c6398dc32adfca6f131cf3b8b4801463bd88d9cd949",
        "qtable_node_2.txt": "6f6d31565825a61272d75e3986f7f5786f57885d1fd0574c2a9267c88bf6ad3a",
        "qtable_node_3.txt": "dd01bde7b7e1b3e765dd428a844232e657a3c0cf9e5056063743bf12f48f1411",
        "qtable_node_4.txt": "947252745a31434705b2ac88abee4bab07d9329175330b6ab0e212c76fe991a6",
        "qtable_node_5.txt": "880b3e8963f7fdcb46ec3b36f56035c50ea0cf658e172a79347ec0df997d87e8",
        "qtable_node_6.txt": "d84adaac438ab4655ac13927ef3254edc71339464cb79e1a3467cf137affca87",
        "qtable_node_7.txt": "b1a3cda65f62bd4fa4b665629c8585c828fec56acd1c0769ec2618b77421f5e6",
        "qtable_node_8.txt": "fc4db23d882f2116bfddfcfc807c35ddd1fbb3c098fe32f74cef3f4aa0261cc8",
        "qtable_node_9.txt": "73eb6165b9971aae77c6292fe8efc587ae62b3eae7ff2d26783a1e747aae5afb",
        "report.txt": "faa6f549182d9c85a97ef0bcbe65b1ff3fa2100e29d00a568e95c281eb9b7e60",
        "trace.jsonl": "98ef90e1086337a3f19e6c412ada82ab195667a203a45f25cb07d65fb00b30f7",
    },
    ("follow_demand_location", 1): {
        "metrics.csv": "e60c4222207d9317c009cf6c2543b1907882d03ace187e1c1fae073a39815ba5",
        "qtable_node_0.txt": "9d80d93e475c697bdfb38e8bc41fa794e9b663182d1b2645214777103ca77078",
        "report.txt": "c913e4a3d219a73f0658f4f2a0702a9e182267d9130a44c9ec75c8f123b545af",
        "trace.jsonl": "791818ecc1cd8cfea1df1546ab775f95815c5c4900bd5d1d8ffadc44db4fb201",
    },
}

BEYOND = "expected int in [-2**53, 2**53], where floats hold every int"
INT64 = f"expected int in [{-2**63}, {2**63 - 1}], got "


def translate(data, dx: int, dy: int):
    """Move every node, its allowed cells and every user of a location scenario by (dx, dy)."""
    for node in data["env"]["nodes"]:
        node["allowed"] = [[x + dx, y + dy] for x, y in node["allowed"]]
    for row in data["env"]["nodes"] + data["env"]["users"]:
        row["x"], row["y"] = row["x"] + dx, row["y"] + dy
    return data


# Trace events for `TraceEvent.head`. FINITE includes -0.0, subnormals and huge values.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NUMBER = st.none() | FINITE
ACTION = st.none() | st.builds(SetChannel, st.integers(), st.integers()) | st.builds(
    MoveTo, st.integers(), st.tuples(st.integers(), st.integers()))
EVENT = st.builds(
    TraceEvent, t=st.integers(), node=st.integers(),
    percept=st.lists(FINITE, max_size=5).map(tuple),
    outcome=st.sampled_from(["idle", *(o.value for o in Outcome)]), action=ACTION,
    reward=NUMBER, coefficient=NUMBER, q_before=NUMBER, q_after=NUMBER,
    switched=st.booleans(), disruption=st.booleans())


def dumps_line(record) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


def line(event) -> str:
    """The event's trace line, its percept items written by `_json`, as `Population.lines` does."""
    return f"{event.head(', '.join(map(agent_module._json, event.percept)))}{event.t}}}\n"


class TestEmission:
    @pytest.mark.parametrize("name,seed", list(PINNED_EMISSION))
    def test_emitted_files_match_the_recorded_digests(self, tmp_path, name, seed):
        run_scenario(replace(load_scenario(SCENARIO_DIR / f"{name}.yaml"), seed=seed),
                     out_dir=tmp_path)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.iterdir() if p.name != "timings.json"}
        assert digests == PINNED_EMISSION[(name, seed)]

    @pytest.mark.parametrize("name,seed", list(PINNED_EMISSION))
    def test_tick_rows_of_a_run_are_written_without_json(self, tmp_path, name, seed):
        spec = load_scenario(SCENARIO_DIR / f"{name}.yaml")
        with mock.patch.object(TraceEvent, "to_record", side_effect=AssertionError):
            run_scenario(replace(spec, seed=seed), out_dir=tmp_path)
        trace = tmp_path / "trace.jsonl"
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == \
            PINNED_EMISSION[(name, seed)]["trace.jsonl"]
        assert {r["outcome"] for r in read_trace(tmp_path) if r["kind"] == "tick"} > {"idle"}

    @settings(max_examples=300, deadline=None)
    @given(EVENT)
    def test_tick_rows_fill_the_template_exactly(self, event):
        idle = TraceEvent(t=event.t, node=event.node, percept=event.percept, outcome="idle")
        expected, idle_expected = dumps_line(event.to_record()), dumps_line(idle.to_record())
        text, tail = ", ".join(map(json.dumps, event.percept)), f"{event.t}}}\n"
        with mock.patch.object(agent_module, "json", None):  # any json call raises
            assert line(event) == expected
            assert event.head(text) + tail == expected
            assert idle.head(text) + tail == idle_expected
        assert Population.IDLE_HEAD % (event.node, text) + tail == idle_expected

    @settings(max_examples=75, deadline=None)
    @given(st.data())
    def test_step_lines_are_each_agents_trace_event_line(self, data):
        """Readings that repeat, revert to an earlier step's, flip the sign of
        zero or turn NaN: each step's lines, written after the next sense as in
        a run, are those of one TraceEvent per agent."""
        spec = make_channel_spec(4, {(0, 1), (1, 2), (2, 3)}, horizon=1)
        env = Environment(spec.env_config)
        agents = build_agents(spec, env, env.reset(), 0)
        population = Population(agents, env)
        history = [np.zeros(env.report_for(env.reset()).readings.size)]
        population.sense(readings_report(history[0]))
        for t in range(data.draw(st.integers(1, 8))):
            readings = draw_readings(data, history)
            fired = data.draw(st.lists(st.booleans(), min_size=4, max_size=4))
            events = [data.draw(EVENT.map(lambda e, i=i: replace(
                          e, t=t, node=agents[i].node, percept=population.percept(i))))
                      for i in range(4) if fired[i]]
            triggered = iter(events)
            expected = [next(triggered) if fire else TraceEvent(
                            t=t, node=ag.node, percept=population.percept(i), outcome="idle")
                        for i, (ag, fire) in enumerate(zip(agents, fired))]
            heads, texts = population.lines()
            population.sense(readings_report(readings))
            lines = harness._tick_lines(heads, texts, fired, t, events, "")
            assert lines == "".join(map(line, expected))
            assert lines == "".join(dumps_line(event.to_record()) for event in expected)

    def test_numbers_equal_in_value_keep_their_own_text(self):
        """Number texts are kept by value: 1 == 1.0 == True and 0.0 == -0.0."""
        for value in (1.0, 1, True, 1.0, 0.0, -0.0, 0.0, 2.5, 2.5, 0, -0.0):
            event = TraceEvent(t=1, node=0, percept=(value, 0.5), outcome="recompute",
                               reward=value, coefficient=value, q_before=value, q_after=value)
            assert line(event) == dumps_line(event.to_record())

    @pytest.mark.parametrize("key", ["reward", "coefficient", "q_before", "q_after", "percept"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_fall_back_to_json(self, key, value):
        event = TraceEvent(t=3, node=1, percept=(0.5, 0.25), outcome="recompute",
                           action=SetChannel(1, 2), reward=0.5, coefficient=0.5,
                           q_before=0.25, q_after=0.75)
        setattr(event, key, (0.5, value) if key == "percept" else value)
        assert line(event) == dumps_line(event.to_record())
        assert "NaN" in line(event) or "Infinity" in line(event)

    def test_a_loaded_minus_zero_level_is_traced_as_zero(self, tmp_path):
        """A level -0.0 loads as 0.0, so the traced percepts, bit for bit those of the
        batched pass, hold no -0.0; `Population.lines` tests the text of a -0.0 percept."""
        data = yaml.safe_load((SCENARIO_DIR / "follow_demand_location.yaml").read_text())
        data["horizon"] = 2
        data["env"]["users"][0]["demand"] = [[0, -0.0], [5, 1.0]]
        data["env"]["users"][1]["demand"] = 0.0
        spec = scenario_from_dict(data)
        _, steps = run_scenario(spec, out_dir=tmp_path)
        assert not any(r["actions"] for r in steps)
        # the untraced batched pass over the same steps, with no action taken
        env = Environment(spec.env_config)
        state = env.reset()
        population = Population(build_agents(spec, env, state, spec.seed), env)
        population.sense(env.report_for(state))
        expected = []
        for _ in range(spec.horizon):
            expected.append(list(map(float.hex, population.percept(0))))
            state, report = env.apply_and_step(state, [])
            population.sense(report)
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        ticks = [r for r in read_trace(tmp_path) if r["kind"] == "tick"]
        assert [list(map(float.hex, r["percept"])) for r in ticks] == expected
        assert [math.copysign(1.0, v) for _, v in spec.env_config.users[0].demand.steps] == [1, 1]
        assert "-0x0.0p+0" not in expected[0]
        assert '"percept": [0.6666666666666666, 0.0, 0.0, 0.0]' in lines[0]

    @pytest.mark.parametrize("spec", [
        make_channel_spec(4, {(0, 1), (1, 2), (2, 3), (0, 3)}, horizon=120),
        make_location_spec(),
        load_scenario(SCENARIO_DIR / "lowload_windows.yaml"),
    ], ids=["channel", "location", "lowload_windows"])
    def test_tick_rows_go_to_the_file_or_to_records(self, tmp_path, spec):
        """Tick rows go to trace.jsonl, each line as json.dumps writes it; the
        records of a run hold only its step rows, with or without out_dir."""
        spec = replace(spec, seed=0)
        _, steps = run_scenario(spec, out_dir=tmp_path)
        _, untraced = run_scenario(spec)
        lines = (tmp_path / "trace.jsonl").read_text().splitlines(keepends=True)
        rows = read_trace(tmp_path)
        assert lines == list(map(dumps_line, rows))  # also the sign of zero, 1 against 1.0
        assert any(r["kind"] == "tick" for r in rows)
        assert untraced == steps == [r for r in rows if r["kind"] == "step"]

    def test_a_run_with_a_trace_file_keeps_no_tick_rows(self, tmp_path):
        spec = golden_spec("grid8x8")  # 64 nodes, 300 steps
        runs = ({}, {"out_dir": tmp_path})
        for kwargs in runs:  # first-call allocations happen outside the measured runs
            run_scenario(with_horizon(spec, 3), **kwargs)
        peaks = []
        for kwargs in runs:
            tracemalloc.start()
            try:
                run_scenario(spec, **kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        untraced, traced = peaks
        assert traced <= 2 * untraced

    def test_failed_run_leaves_out_dir_as_it_was(self, tmp_path):
        spec = make_channel_spec(4, {(0, 1), (1, 2), (2, 3)}, horizon=50, seed=9)
        run_scenario(spec, out_dir=tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with mock.patch.object(Agent, "observe", side_effect=RuntimeError("stop")):
            with pytest.raises(RuntimeError, match="stop"):
                run_scenario(replace(spec, seed=3), out_dir=tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_untraced_run_with_out_dir_is_refused_before_writing(self, tmp_path):
        """collect_trace, when given, must say whether the run writes out_dir."""
        (tmp_path / "report.txt").write_text("kept\n")
        for out_dir, collect_trace in ((tmp_path / "new", False), (tmp_path, False), (None, True)):
            with pytest.raises(ValueError, match="disagrees with out_dir"):
                run_scenario(tiny_spec(horizon=3), out_dir=out_dir, collect_trace=collect_trace)
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]
        assert (tmp_path / "report.txt").read_text() == "kept\n"

    def test_infinite_radio_setting_is_rejected_at_load(self):
        data = yaml.safe_load((SCENARIO_DIR / "ring6_channels.yaml").read_text())
        data["env"]["tx_power"] = float("inf")  # every link's SINR would be inf / inf
        with pytest.raises(SpecValidation, match="tx_power must be > 0 and finite"):
            scenario_from_dict(data)

    def test_unwritable_out_dir_is_an_io_failure(self, tmp_path):
        occupied = tmp_path / "file"
        occupied.write_text("")
        with pytest.raises(harness.IoFailure):
            run_scenario(tiny_spec(horizon=3), out_dir=occupied)

    def test_emitted_files_are_byte_identical_across_runs(self, tmp_path):
        spec = make_channel_spec(4, {(0, 1), (1, 2), (2, 3)}, horizon=50, seed=9)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_scenario(spec, out_dir=out_a)
        run_scenario(spec, out_dir=out_b)
        for name in ("trace.jsonl", "metrics.csv", "report.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        dumps_a = sorted(p.name for p in out_a.glob("qtable_node_*.txt"))
        dumps_b = sorted(p.name for p in out_b.glob("qtable_node_*.txt"))
        assert dumps_a == dumps_b and dumps_a
        for name in dumps_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_a_run_removes_the_value_tables_an_earlier_run_left(self, tmp_path):
        # lowload_windows has 10 agents, ring6_channels 6, in one out_dir
        for name in ("lowload_windows", "ring6_channels"):
            spec = load_scenario(SCENARIO_DIR / f"{name}.yaml")
            run_scenario(with_horizon(spec, 5), out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.glob("qtable_node_*.txt")) == [
            f"qtable_node_{node}.txt" for node in range(6)]

    def test_report_file_is_flat_key_value(self, tmp_path):
        spec = tiny_spec(horizon=5)
        run_scenario(spec, out_dir=tmp_path)
        lines = (tmp_path / "report.txt").read_text().strip().splitlines()
        keys = [line.split("=", 1)[0] for line in lines]
        assert "satisfaction_ratio" in keys
        assert "kb_hit_rate" in keys

    def test_wall_time_goes_to_its_own_file(self, tmp_path):
        report, _ = run_scenario(tiny_spec(horizon=5), out_dir=tmp_path)
        assert "wall_time_s" not in (tmp_path / "report.txt").read_text()
        timings = json.loads((tmp_path / "timings.json").read_text())
        assert timings == {"wall_time_s": report.wall_time_s}

    def test_metrics_csv_has_one_row_per_step(self, tmp_path):
        spec = tiny_spec(horizon=7)
        run_scenario(spec, out_dir=tmp_path)
        rows = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert rows[0].startswith("t,conflicts,")
        assert len(rows) == 1 + 7


class TestScenarioLoading:
    def test_shipped_scenarios_load(self):
        for name in ("ring6_channels.yaml", "follow_demand_location.yaml",
                     "lowload_windows.yaml"):
            spec = load_scenario(SCENARIO_DIR / name)
            assert spec.horizon > 0

    def test_loaded_scenario_runs(self):
        spec = load_scenario(SCENARIO_DIR / "ring6_channels.yaml")
        spec = replace(with_horizon(spec, 30), seed=4)  # keep the unit test quick
        report, _ = run_scenario(spec)
        assert report.steps == 30

    def test_missing_keys_are_reported(self):
        with pytest.raises(SpecValidation) as err:
            scenario_from_dict({"schema_version": 1})
        assert any("kind" in p for p in err.value.problems)

    def test_a_scenario_file_that_is_not_utf8_is_one_problem(self, tmp_path):
        shipped = (SCENARIO_DIR / "ring6_channels.yaml").read_bytes()
        path = tmp_path / "scenario.yaml"
        path.write_bytes(shipped.replace(b"Six radio", b"Six \xff\xfe radio"))
        with pytest.raises(SpecValidation) as err:
            load_scenario(path)
        assert err.value.problems == ["scenario: byte 6: not UTF-8 (invalid start byte)"]
        # UTF-8 beyond ASCII, and CRLF line ends, read as before
        path.write_bytes(shipped.replace(b"Six", "Six \u00e9".encode()).replace(b"\n", b"\r\n"))
        assert load_scenario(path) == load_scenario(SCENARIO_DIR / "ring6_channels.yaml")

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(SpecValidation):
            scenario_from_dict({"schema_version": 99, "kind": "channel-assignment",
                                "horizon": 5, "env": {}})

    @pytest.mark.parametrize("section,key,value", [
        ("env", "reassociate", True), ("agents", "reuse_driver", "qvalue"),
        ("agents", "bins", [2, 2, 2]), ("agents", "feature_ranges", {"demand": [0.0, 5.0]})])
    def test_removed_options_rejected(self, section, key, value):
        spec_dict = {
            "schema_version": 1, "kind": "channel-assignment", "horizon": 5,
            "env": {"channels": 2, "nodes": [{"id": 0, "x": 0, "y": 0}],
                    "users": [{"id": 0, "x": 0, "y": 0, "node": 0, "demand": 1.0}]},
        }
        spec_dict.setdefault(section, {})[key] = value
        with pytest.raises(SpecValidation) as err:
            scenario_from_dict(spec_dict)
        assert err.value.problems == [f"{section}.{key} is no longer supported"]

    @pytest.mark.parametrize("edit,problem", [
        (lambda d: d["env"]["users"][0].update(node=7), "unknown node 7"),
        (lambda d: d["env"]["users"][0].update(demand=-1.0), "demand level -1.0"),
        (lambda d: d["env"]["users"][0].update(demand=float("nan")), "demand level nan"),
        (lambda d: d["env"]["users"][0].update(demand=[[0, 1.0], [3, -2.0]]),
         "demand level -2.0"),
        (lambda d: d.update(agents={"policy": {"type": "controlled", "epsilon": 5.0}}),
         "epsilon 5.0"),
        (lambda d: d.update(agents={"policy": {"epsilon": 5.0}}), "epsilon 5.0"),
        (lambda d: d.update(agents={"kb": {"eviction": "foo"}}), "expected 'lru', got 'foo'"),
        (lambda d: d.update(agents={"kb": {"eviction": "lowest-coefficient"}}),
         "agents.kb.eviction: expected 'lru', got 'lowest-coefficient'"),
        (lambda d: d.update(agents={"kb": {"capacity": 0}}), "capacity must be >= 1"),
        (lambda d: d.update(horizon="abc"), "'abc'"),
        (lambda d: d.update(horizon=-1), "env: horizon must be >= 0"),
        (lambda d: d.update(horizon=-1) or d["env"]["users"][0].update(
            demand={"mode": "periodic", "period": 10, "segments": [[0, 1.0], [3, 2.0]]}),
         "env: horizon must be >= 0"),
        (lambda d: d["env"]["users"][0].update(
            demand={"mode": "periodic", "period": 0, "segments": [[0, 1.0]]}), "period 0"),
        (lambda d: d["env"]["users"][0].update(
            demand={"mode": "periodic", "period": -2, "segments": [[0, 1.0]]}), "period -2"),
        (lambda d: d["env"].update(initial_channels={0: 9}),
         "initial channel 9 of node 0 not in palette"),
        (lambda d: d["env"].update(initial_channels={7: 1}), "initial channel of unknown node 7"),
        (lambda d: d["env"]["nodes"].append({"id": 0, "x": 1, "y": 0}), "duplicate node id 0"),
        (lambda d: d["env"]["nodes"][0].update(id=-1) or d["env"]["users"][0].update(node=-1),
         "env.nodes[0].id: expected int >= 0, got -1"),
        (lambda d: d.update(agents={"nodes": [0, 0]}), "agents: nodes lists node 0 more than once"),
        (lambda d: d.update(seed=-1), "seed must be >= 0"),
        (lambda d: d["env"].update(tx_power=0.0), "tx_power must be > 0"),
        (lambda d: d["env"].update(bandwidth_unit=0), "bandwidth_unit must be > 0"),
        (lambda d: d.update(agents={"policy": {"type": "controlled", "window": 0}}),
         "window 0 must be >= 1"),
        (lambda d: d.update(agents={"policy": {"type": "controlled", "max_switches": -1}}),
         "max_switches -1 must be >= 0"),
        (lambda d: d.update(agents={"policy": {"type": "controlled", "max_switches": 1}}),
         "max_switches and window must be set together"),
        (lambda d: d.update(agents={"policy": {"type": "controlled", "window": 30}}),
         "max_switches and window must be set together"),
        (lambda d: d.update(agents={"thresholds": {"similarity": float("nan")}}),
         "agents: similarity_threshold nan is not a number"),
        (lambda d: d.update(agents={"thresholds": {"coefficient": float("nan")}}),
         "agents: coefficient_threshold nan is not a number"),
        (lambda d: d.update(agents={"thresholds": {"similarity": float("nan"),
                                                   "coefficient": float("nan")}}),
         "agents: similarity_threshold nan is not a number; "
         "agents: coefficient_threshold nan is not a number"),
        (lambda d: d.update(agents={"thresholds": {"similarity": 0}}),
         "agents: similarity_threshold 0.0 must be > 0"),
        (lambda d: d.update(agents={"thresholds": {"similarity": 0, "coefficient": 0}}),
         "agents: similarity_threshold 0.0 must be > 0"),
        (lambda d: d.update(agents={"thresholds": {"similarity": -1}}),
         "agents: similarity_threshold -1.0 must be > 0"),
        (lambda d: d.update(agents={"thresholds": {"similarity": float("-inf")}}),
         "agents: similarity_threshold -inf must be > 0"),
        (lambda d: d.update(agents={"thresholds": {"similarity": -1.0,
                                                   "coefficient": float("nan")}}),
         "agents: coefficient_threshold nan is not a number; "
         "agents: similarity_threshold -1.0 must be > 0"),
        (lambda d: d.update(agents={"policy": {"type": "controlled",
                                               "serving_threshold": float("nan")}}),
         "agents.policy: serving_threshold nan is not a number"),
        (lambda d: d.update(disruption_penalty=float("inf")),
         "scenario: disruption_penalty inf must be finite"),
        (lambda d: d.update(disruption_penalty=float("nan")),
         "scenario: disruption_penalty nan must be finite"),
        (lambda d: d.update(disruption_penalty=10**400),
         "disruption_penalty: expected float, got an int too large for a float"),
        (lambda d: d["env"]["users"][0].update(demand=[[0, 1.0], [2, -10**400]]),
         "env.users[0].demand[1]: expected float, got an int too large for a float"),
        (lambda d: d["env"]["nodes"][0].update(x=10**400),
         "env.nodes[0].x: " + BEYOND),
        (lambda d: d["env"]["nodes"][0].update(y=-2**53 - 1),
         "env.nodes[0].y: " + BEYOND),
        (lambda d: d["env"]["users"][0].update(x=-10**400),
         "env.users[0].x: " + BEYOND),
        (lambda d: d["env"]["nodes"][0].update(allowed=[[0, 0], [0, 10**400]]),
         "env.nodes[0].allowed[1]: " + BEYOND),
        (lambda d: d["env"].update(channels=[1, 2, 2**63]),
         f"env.channels[2]: {INT64}{2**63}"),
        (lambda d: d["env"].update(channels=2**63), f"env.channels: {INT64}{2**63}"),
        (lambda d: d["env"].update(channels=list(range(1, 2**16 + 2))),
         "env.channels: 65537 channels, above the 65536 a palette may hold"),
        (lambda d: d["env"]["users"][0].update(demand=[[0, 5.0], [0, 1.0]]),
         "env.users[0].demand: step 0 has more than one level"),
        (lambda d: d["env"]["users"][0].update(
            demand={"mode": "periodic", "period": 10, "segments": [[0, 1.0], [0, 2.0]]}),
         "env.users[0].demand: step 0 has more than one level"),
        (lambda d: d["env"]["users"][0].update(
            demand={"mode": "periodic", "period": 10, "segments": [[0, 1.0], [10, 2.0]]}),
         "env.users[0].demand: segment offset 10 is outside [0, 10)"),
        (lambda d: d["env"]["users"][0].update(
            demand={"mode": "periodic", "period": 10, "segments": [[0, 1.0], [15, 2.0]]}),
         "env.users[0].demand: segment offset 15 is outside [0, 10)"),
    ], ids=["user-node", "negative-demand", "nan-demand", "negative-step",
            "controlled-epsilon", "greedy-epsilon", "kb-eviction", "kb-eviction-removed",
            "kb-capacity",
            "horizon-not-int", "negative-horizon", "negative-horizon-periodic", "period-zero", "period-negative", "initial-channel-palette",
            "initial-channel-node", "duplicate-node", "negative-node-id", "duplicate-agent-node",
            "negative-seed", "tx-power",
            "bandwidth-unit", "controlled-window", "controlled-max-switches",
            "max-switches-without-window", "window-without-max-switches",
            "nan-similarity", "nan-coefficient", "nan-thresholds", "zero-similarity",
            "zero-thresholds", "negative-similarity", "minus-infinite-similarity",
            "negative-similarity-nan-coefficient", "nan-serving-threshold",
            "infinite-penalty", "nan-penalty", "overflowing-penalty",
            "overflowing-demand-step", "huge-node-x", "node-y-beyond-2-53", "huge-user-x",
            "huge-allowed-cell", "listed-channel-beyond-int64", "channel-count-beyond-int64",
            "channel-list-beyond-palette", "two-levels-at-a-step",
            "two-segments-at-an-offset", "offset-at-the-period", "offset-past-the-period"])
    def test_malformed_values_rejected_at_load(self, edit, problem):
        spec_dict = {
            "schema_version": 1, "kind": "channel-assignment", "horizon": 5,
            "env": {"channels": 2, "nodes": [{"id": 0, "x": 0, "y": 0}],
                    "users": [{"id": 0, "x": 0, "y": 0, "node": 0, "demand": 1.0}]},
        }
        edit(spec_dict)
        with pytest.raises(SpecValidation) as err:
            scenario_from_dict(spec_dict)
        assert problem in str(err.value)
        assert len(err.value.problems) == problem.count("; ") + 1, err.value.problems

    @pytest.mark.parametrize("channels,problem", [
        (2**62, f"env.channels: {2**62} channels, above the 65536 a palette may hold"),
        (2**63, f"env.channels: {INT64}{2**63}")], ids=["beyond-palette", "beyond-int64"])
    def test_a_palette_too_large_to_build_is_one_problem(self, channels, problem):
        data = yaml.safe_load((SCENARIO_DIR / "ring6_channels.yaml").read_text())
        data["env"]["channels"] = channels
        tracemalloc.start()
        try:
            with pytest.raises(SpecValidation) as err:
                scenario_from_dict(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.problems == [problem]
        assert peak < 2**20  # no palette was built

    @pytest.mark.parametrize("edit,problems", [
        (lambda d: d["env"]["users"][1].update(x=2**53 + 1), ["env.users[1].x: " + BEYOND]),
        (lambda d: d["env"]["nodes"][0].update(x=-10**400), ["env.nodes[0].x: " + BEYOND]),
        (lambda d: d["env"]["nodes"][0]["allowed"].append([10**400, -1]),
         ["env.nodes[0].allowed[4]: " + BEYOND]),
        (lambda d: d["env"]["nodes"][0]["allowed"].append([2**27, 2**27]),
         ["env.nodes[0]: node 0 has 134217729 x 134217729 cells and 2 users: "
          "more than 2**53 location states"]),
        (lambda d: d["env"]["nodes"][0]["allowed"].append([2**25 - 1, 29826161]),
         ["env.nodes[0]: node 0 has 33554432 x 29826162 cells and 2 users: "
          "more than 2**53 location states"]),
        (lambda d: d["env"]["users"].extend(
            {"id": k, "x": 0, "y": 0, "node": 0, "demand": 1.0} for k in range(2, 33)),
         ["env.nodes[0]: node 0 has 4 x 1 cells and 33 users: "
          "more than 2**53 location states"]),
        (lambda d: translate(d, -2**53, 0)["env"]["nodes"][0]["allowed"].append([2**53, 0]),
         ["env.nodes[0]: node 0 has 18014398509481985 x 1 cells and 2 users: "
          "more than 2**53 location states"]),
    ], ids=["user-x", "start-x", "allowed-cell", "cells-2-27-apart", "one-row-of-cells-too-many",
            "33-users", "cells-2-54-apart"])
    def test_each_bad_location_cell_is_one_problem_at_its_path(self, edit, problems):
        data = yaml.safe_load((SCENARIO_DIR / "follow_demand_location.yaml").read_text())
        edit(data)
        with pytest.raises(SpecValidation) as err:
            scenario_from_dict(data)
        assert err.value.problems == problems

    @pytest.mark.parametrize("edit", [
        lambda d: d["env"]["nodes"][0]["allowed"].append([2**25 - 1, 29826160]),
        lambda d: d["env"]["users"].extend(
            {"id": k, "x": 0, "y": 0, "node": 0, "demand": 1.0} for k in range(2, 32)),
        lambda d: d["agents"].update(nodes=[]) or d["env"]["users"].extend(
            {"id": k, "x": 0, "y": 0, "node": 0, "demand": 1.0} for k in range(2, 34)),
    ], ids=["cells-at-2-53-states", "32-users", "34-users-of-no-agent"])
    def test_location_agents_of_up_to_2_53_states_load(self, edit):
        """9 x 2**25 x 29826161 and 4 x 3**32 states are at most 2**53; a node
        that runs no agent has no states."""
        data = yaml.safe_load((SCENARIO_DIR / "follow_demand_location.yaml").read_text())
        edit(data)
        scenario_from_dict(data)

    @pytest.mark.parametrize("dx,dy", [(-10, 0), (10**6, -7), (2**40, 2**40)])
    def test_a_moved_location_deployment_runs_as_the_unmoved_one(self, dx, dy):
        """Location features bin from the lowest allowed cell, so moving every node,
        cell and user leaves each state, decision and report as it was."""
        text = (SCENARIO_DIR / "follow_demand_location.yaml").read_text()
        unmoved = scenario_from_dict(yaml.safe_load(text))
        moved = scenario_from_dict(translate(yaml.safe_load(text), dx, dy))
        for seed in range(3):
            report, steps = run_scenario(replace(moved, seed=seed))
            expected, expected_steps = run_scenario(replace(unmoved, seed=seed))
            assert (report.rows(), steps) == (expected.rows(), expected_steps)

    @pytest.mark.parametrize("node", [-1, 2**32, 2**40])
    def test_a_node_id_seeds_its_agent_so_only_a_negative_one_is_rejected(self, node):
        """A node id loads at any size but not below 0, a rule kept from when each
        agent seeded its generator with its node id; each negative id is one problem."""
        data = yaml.safe_load((SCENARIO_DIR / "ring6_channels.yaml").read_text())
        rename = {0: node, 3: -2 if node < 0 else 3}
        for row in data["env"]["nodes"]:
            row["id"] = rename.get(row["id"], row["id"])
        for row in data["env"]["users"]:
            row["node"] = rename.get(row["node"], row["node"])
        data["env"]["edges"] = [[rename.get(a, a), rename.get(b, b)]
                                for a, b in data["env"]["edges"]]
        if node < 0:
            with pytest.raises(SpecValidation) as err:
                scenario_from_dict(data)
            assert err.value.problems == ["env.nodes[0].id: expected int >= 0, got -1",
                                          "env.nodes[3].id: expected int >= 0, got -2"]
        else:
            run_scenario(with_horizon(scenario_from_dict(data), 3))

    @pytest.mark.parametrize("name", ["ring6_channels", "follow_demand_location"])
    def test_negative_coordinates_load_where_nothing_bins_them(self, name):
        """Channel nodes and every user may sit below 0; a location agent bins only node cells."""
        data = yaml.safe_load((SCENARIO_DIR / f"{name}.yaml").read_text())
        for row in data["env"]["users"] + (
                data["env"]["nodes"] if name == "ring6_channels" else []):
            row["x"], row["y"] = row["x"] - 10, -2**53
        spec = scenario_from_dict(data)
        run_scenario(with_horizon(spec, 3))

    def test_infinite_serving_threshold_loads(self):
        data = yaml.safe_load((SCENARIO_DIR / "lowload_windows.yaml").read_text())
        data["agents"]["policy"]["serving_threshold"] = float("inf")
        assert scenario_from_dict(data).agent_params.policy.serving_threshold == float("inf")

    @pytest.mark.parametrize("edit,problem", [
        (lambda d: [d], "scenario: expected a mapping, got [{"),
        (lambda d: d | {"env": None}, "env: expected a mapping, got None"),
        (lambda d: d | {"agents": None}, "agents: expected a mapping, got None"),
        (lambda d: d | {"agents": {"qparams": None}}, "agents.qparams: expected a mapping, got None"),
        (lambda d: d["env"].update(nodes=[{"id": 0, "y": 0}]), "missing key env.nodes[0].x"),
        (lambda d: d["env"]["nodes"][0].update(allowed=[[1]]),
         "env.nodes[0].allowed[0]: expected a pair, got [1]"),
        (lambda d: d | {"agents": {"nodes": 0}}, "agents.nodes: expected a list, got 0"),
        (lambda d: d["env"].update(channels="abc"), f"env.channels: {INT64}'abc'"),
        (lambda d: d | {"agents": {"policy": {"type": "controlled", "max_switches": "x"}}},
         "agents.policy.max_switches: expected int, got 'x'"),
        (lambda d: d | {"agents": {"policy": {"type": "controlled",
                                              "no_switch_while_serving": False}}},
         "agents.policy.no_switch_while_serving is no longer supported"),
        (lambda d: d | {"horizon": 2.7}, "horizon: expected int, got 2.7"),
        (lambda d: d | {"horizon": True}, "horizon: expected int, got True"),
        (lambda d: d | {"agents": {"kb": {"capacity": 2.5}}},
         "agents.kb.capacity: expected int, got 2.5"),
        (lambda d: d["env"]["nodes"][0].update(z=1), "unknown key env.nodes[0].z"),
        (lambda d: d["env"]["users"][0].update(z=1), "unknown key env.users[0].z"),
        (lambda d: d["env"]["users"][0].update(demand={"steps": [[0, 1.0]], "z": 1}),
         "unknown key env.users[0].demand.z"),
    ], ids=["top-level", "env-null", "agents-null", "qparams-null", "node-without-x",
            "allowed-cell", "agent-nodes-int", "channels-str",
            "max-switches-str", "no-switch-str", "horizon-float", "horizon-bool",
            "kb-capacity-float", "node-row-key", "user-row-key", "demand-key"])
    def test_malformed_structure_is_named_by_key(self, edit, problem):
        spec_dict = {
            "schema_version": 1, "kind": "channel-assignment", "horizon": 5,
            "env": {"channels": 2, "nodes": [{"id": 0, "x": 0, "y": 0}],
                    "users": [{"id": 0, "x": 0, "y": 0, "node": 0, "demand": 1.0}]},
        }
        edited = edit(spec_dict)  # a replacement, or None after an edit in place
        with pytest.raises(SpecValidation) as err:
            scenario_from_dict(spec_dict if edited is None else edited)
        assert any(p.startswith(problem) for p in err.value.problems), err.value.problems

    def test_constructor_problems_are_listed_together_by_path(self):
        spec_dict = {
            "schema_version": 1, "kind": "channel-assignment", "horizon": 5,
            "env": {"channels": 2, "nodes": [{"id": 0, "x": 0, "y": 0}],
                    "users": [{"id": 0, "x": 0, "y": 0, "node": 0, "demand": {
                        "mode": "periodic", "period": 0, "segments": [[0, 1.0]]}}]},
            "agents": {"policy": {"epsilon": 5.0}},
        }
        with pytest.raises(SpecValidation) as err:
            scenario_from_dict(spec_dict)
        assert err.value.problems == [
            "env.users[0].demand: period 0 must be >= 1",
            "agents.policy: epsilon 5.0 outside [0,1]"]

    def test_unknown_keys_are_listed_together(self):
        spec_dict = {
            "schema_version": 1, "kind": "channel-assignment", "horizon": 5,
            "env": {"channels": 2, "nodes": [{"id": 0, "x": 0, "y": 0}],
                    "users": [{"id": 0, "x": 0, "y": 0, "node": 0, "demand": 1.0}],
                    "pathlos_exponent": 2.0},
            "agents": {"polcy": {"type": "controlled"},
                       "policy": {"type": "epsilon-greedy", "tau": 0.5, "epsilon": 0.1},
                       "kb": {"capacity": 8, "evict": "lru"}},
        }
        with pytest.raises(SpecValidation) as err:
            scenario_from_dict(spec_dict)
        assert err.value.problems == [
            "unknown key env.pathlos_exponent", "unknown key agents.polcy",
            "unknown key agents.kb.evict", "unknown key agents.policy.tau"]

    @pytest.mark.parametrize("policy", [{"type": "controlled", "max_switches": 1, "window": 5},
                                        {"type": "controlled", "epsilon": 0.1}],
                             ids=["controlled-windowed", "controlled"])
    def test_location_scenario_rejects_other_policies(self, policy):
        spec_dict = yaml.safe_load((SCENARIO_DIR / "follow_demand_location.yaml").read_text())
        spec_dict["agents"]["policy"] = policy
        with pytest.raises(SpecValidation) as err:
            scenario_from_dict(spec_dict)
        assert "location agents move epsilon-greedily" in str(err.value)

    def test_unknown_agent_node_rejected(self):
        spec_dict = {
            "schema_version": 1, "kind": "channel-assignment", "horizon": 5,
            "env": {"channels": 2, "nodes": [{"id": 0, "x": 0, "y": 0}],
                    "users": [{"id": 0, "x": 0, "y": 0, "node": 0, "demand": 1.0}]},
            "agents": {"nodes": [7]},
        }
        with pytest.raises(SpecValidation):
            scenario_from_dict(spec_dict)


def _small_scenarios() -> list[dict]:
    """The shipped scenarios and small benchmark workloads, each at horizon 5."""
    scenarios = [yaml.safe_load(path.read_text()) for path in sorted(SCENARIO_DIR.glob("*.yaml"))]
    scenarios = [s for s in scenarios if "kind" in s]  # not the MDP
    scenarios += [WORKLOADS.grid_steady(0, side=3), WORKLOADS.grid_churn_traced(0, side=3),
                  WORKLOADS.mobile_relays(0, cols=2, rows=1)]
    return [dict(s, horizon=5) for s in scenarios]


def _run_snapshot() -> dict:
    """Node 0's knowledge base after 10 steps of lowload_windows (two cases), as a snapshot."""
    spec = load_scenario(SCENARIO_DIR / "lowload_windows.yaml")
    _, _, agents, _ = run_keeping_agents(with_horizon(spec, 10))
    return agents[0].kb.snapshot()


SMALL_SCENARIOS = _small_scenarios()
RUN_SNAPSHOT = _run_snapshot()
MDP_FILE = yaml.safe_load((SCENARIO_DIR / "mdp_4s3a.yaml").read_text())
# Values put in by the load-boundary property: zeros, negatives, NaN, infinities,
# empty and odd containers and other types. Numbers stay small, so that no
# mutated horizon, channel count or node count can make a run long.
ODD_NUMBER = st.sampled_from([0, -1, 1, 2, 0.0, -0.0, 0.5, -2.5, math.nan, math.inf, -math.inf])
ODD_VALUE = ODD_NUMBER | st.sampled_from([[], {}, [0], [1, 2], [[0, 1.0]], {"x": 1}, "", "x",
                                          None, True])


def _paths(tree, path=()):
    """The key path of every value in `tree`, each container's before its items'."""
    yield path
    items = tree.items() if type(tree) is dict else enumerate(tree) if type(tree) is list else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutate(data, tree) -> None:
    """One mutation of a value anywhere in `tree`, each value as likely: it is
    deleted, replaced by an odd value, or given an unknown key or extra item beside it."""
    *where, key = data.draw(st.sampled_from(list(_paths(tree))[1:]))
    node = tree
    for step in where:
        node = node[step]
    op = data.draw(st.sampled_from(["delete", "replace", "add"]))
    number = type(node[key]) in (int, float) and data.draw(st.booleans())
    odd = copy.deepcopy(data.draw(ODD_NUMBER if number else ODD_VALUE))  # may be edited
    if op == "delete":
        del node[key]
    elif op == "replace":
        node[key] = odd
    elif type(node) is dict:
        node[data.draw(st.sampled_from(["bogus", "extra", "mode", "type"]))] = odd
    else:
        node.append(copy.deepcopy(node[key]) if data.draw(st.booleans()) else odd)


class TestLoadBoundary:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_a_mutated_scenario_is_rejected_at_load_or_runs(self, data):
        """A shipped or benchmark scenario with up to three mutations either
        raises one SpecValidation from `scenario_from_dict` or runs its short
        horizon, traced, to the end; any other exception fails."""
        tree = copy.deepcopy(data.draw(st.sampled_from(SMALL_SCENARIOS)))
        for _ in range(data.draw(st.integers(1, 3))):
            _mutate(data, tree)
        try:
            spec = scenario_from_dict(tree)
        except SpecValidation as exc:
            assert exc.problems and all(type(p) is str for p in exc.problems)
            return
        assert spec.horizon <= 5
        with tempfile.TemporaryDirectory() as out:
            report, steps = run_scenario(spec, out_dir=out)
            assert report.steps == len(steps) == spec.horizon

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_a_mutated_snapshot_is_rejected_at_load_or_serves(self, data):
        """A run's snapshot with up to three mutations either raises one
        SpecValidation, or loads, retrieves case 0 by its percept and prints
        through `meshmind dump-kb`; any other exception fails."""
        tree = copy.deepcopy(RUN_SNAPSHOT)
        for _ in range(data.draw(st.integers(1, 3))):
            _mutate(data, tree)
        try:
            kb = knowledge_base_from_snapshot(tree)
        except SpecValidation as exc:
            assert exc.problems and all(type(p) is str for p in exc.problems)
            return
        if kb.cases:
            assert kb.retrieve(kb.cases[0].percept, now=0)[1] == 1.0
        with tempfile.TemporaryDirectory() as out, \
                contextlib.redirect_stdout(io.StringIO()) as printed:
            path = Path(out) / "kb.json"
            path.write_text(json.dumps(tree))
            assert cli.main(["dump-kb", str(path)]) == 0
        assert printed.getvalue().count("\n") == 1 + len(kb)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_a_mutated_mdp_is_rejected_at_load_or_solves(self, data):
        """The shipped MDP file with up to three mutations either raises one
        SpecValidation, or loads as a proper MDP whose value iteration is
        finite; any other exception fails."""
        tree = copy.deepcopy(MDP_FILE)
        for _ in range(data.draw(st.integers(1, 3))):
            _mutate(data, tree)
        with tempfile.TemporaryDirectory() as out:
            path = Path(out) / "mdp.yaml"
            path.write_text(yaml.safe_dump(tree))
            try:
                mdp = MdpSpec.from_yaml(path)
            except SpecValidation as exc:
                assert exc.problems and all(type(p) is str for p in exc.problems)
                return
        assert np.isfinite(mdp.rewards).all() and (mdp.transitions >= 0).all()
        assert np.allclose(mdp.transitions.sum(axis=2), 1.0) and 0 <= mdp.gamma < 1
        q_star, _ = value_iteration(mdp)
        assert np.isfinite(q_star).all()


class TestValueIteration:
    def test_single_state_geometric_series(self):
        mdp = MdpSpec(transitions=[[[1.0]]], rewards=[[1.0]], gamma=0.5)
        q_star, policy = value_iteration(mdp, tol=1e-12)
        assert q_star[0, 0] == pytest.approx(2.0, abs=1e-9)
        assert policy[0] == 0

    def test_zero_discount_is_myopic(self):
        mdp = MdpSpec(
            transitions=[[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]],
            rewards=[[3.0, 1.0], [0.5, 2.0]], gamma=0.0)
        q_star, policy = value_iteration(mdp)
        assert np.allclose(q_star, [[3.0, 1.0], [0.5, 2.0]])
        assert list(policy) == [0, 1]

    def test_two_state_chain_matches_hand_solution(self):
        # from s0: stay pays 1, hop to s1 pays 0.5; from s1: stay in s1 pays 2,
        # hop back pays 0; gamma 0.5. Solving the Bellman equations by hand:
        # V1 = 2/(1-0.5) = 4, V0 = max(1 + 0.5*V0, 0.5 + 0.5*4) = 2.5
        mdp = MdpSpec(
            transitions=[[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]],
            rewards=[[1.0, 0.5], [2.0, 0.0]], gamma=0.5)
        q_star, policy = value_iteration(mdp, tol=1e-12)
        assert q_star[0, 0] == pytest.approx(2.25, abs=1e-9)
        assert q_star[0, 1] == pytest.approx(2.5, abs=1e-9)
        assert q_star[1, 0] == pytest.approx(4.0, abs=1e-9)
        assert q_star[1, 1] == pytest.approx(1.25, abs=1e-9)
        assert list(policy) == [1, 0]

    def test_bellman_residual_below_tolerance(self):
        mdp = MdpSpec.from_yaml(SCENARIO_DIR / "mdp_4s3a.yaml")
        tol = 1e-9
        q_star, _ = value_iteration(mdp, tol=tol)
        residual = np.abs(mdp.rewards + mdp.gamma * mdp.transitions @ q_star.max(axis=1)
                          - q_star).max()
        assert residual < tol

    def test_non_stochastic_row_rejected(self):
        with pytest.raises(NonStochasticRow):
            MdpSpec(transitions=[[[0.5, 0.4]], [[1.0, 0.0]]],
                    rewards=[[1.0], [1.0]], gamma=0.9)

    @pytest.mark.parametrize("edit,problem", [
        (lambda d: d["transitions"][0].__setitem__(0, [-0.5, 1.5, 0, 0]),
         "MDP: transition row (s=0, a=0) [-0.5, 1.5, 0.0, 0.0] is not a probability distribution"),
        (lambda d: d["transitions"][1][2].__setitem__(0, math.nan),
         "MDP: transition row (s=1, a=2) [nan, 0.0, 0.0, 0.0] is not a probability distribution"),
        (lambda d: d["transitions"][2].__setitem__(1, [0.5, 0, 0, 0]),
         "MDP: transition row (s=2, a=1) [0.5, 0.0, 0.0, 0.0] is not a probability distribution"),
        (lambda d: d.update(rewards=d["rewards"][:3]),
         "MDP: shapes (4, 3, 4), (3, 3) are not (S,A,S), (S,A)"),
        (lambda d: d["rewards"][3].__setitem__(0, math.inf), "MDP: rewards must be finite"),
        (lambda d: d["transitions"][3].__setitem__(2, [1, 0]), "MDP: setting an array element"),
        (lambda d: d.update(gamma=1.0), "MDP: gamma must be in [0,1)"),
        (lambda d: d["rewards"][1].__setitem__(2, 10**400),
         "rewards[1][2]: expected float, got an int too large for a float"),
    ], ids=["negative-probability", "nan-probability", "non-stochastic-row", "short-rewards",
            "infinite-reward", "jagged-transitions", "gamma-one", "overflowing-reward"])
    def test_an_mdp_file_no_mdp_holds_is_one_spec_validation(self, tmp_path, edit, problem):
        data = copy.deepcopy(MDP_FILE)
        edit(data)
        path = tmp_path / "mdp.yaml"
        path.write_text(yaml.safe_dump(data))
        with pytest.raises(SpecValidation) as err:
            MdpSpec.from_yaml(path)
        assert len(err.value.problems) == 1
        assert err.value.problems[0].startswith(problem)


    def test_an_mdp_file_that_is_not_utf8_is_one_problem(self, tmp_path):
        path = tmp_path / "mdp.yaml"
        path.write_bytes((SCENARIO_DIR / "mdp_4s3a.yaml").read_bytes().replace(
            b"gamma: 0.85", b"gamma: 0.85 # \xfe"))
        with pytest.raises(SpecValidation) as err:
            MdpSpec.from_yaml(path)
        assert err.value.problems == ["MDP: byte 164: not UTF-8 (invalid start byte)"]


class TestQLearningOracle:
    def test_converges_to_value_iteration_fixed_point(self):
        # stationary 2-state/2-action MDP under persistent exploration
        mdp = MdpSpec(
            transitions=[[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]],
            rewards=[[1.0, 0.5], [2.0, 0.0]], gamma=0.5)
        q_star, _ = value_iteration(mdp, tol=1e-12)
        table = q_learning_on_mdp(mdp, QParams(alpha=0.5, gamma=0.5),
                                  EpsilonGreedy(0.3), iterations=20_000, seed=0)
        assert np.abs(table.values - q_star).max() < 1e-3


class TestLocationScenario:
    @pytest.mark.parametrize("name", ["follow_demand_location", "relay_tiles_2x2"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relays_reach_the_one_step_late_reactive_oracle(self, name, seed):
        spec = replace(golden_spec(name), seed=seed)
        report, _ = run_scenario(spec)
        assert report.satisfaction_ratio >= reactive_location_oracle(spec, seed)

    def test_reactive_oracle_keeps_its_recorded_value(self):
        # ROADMAP item 3's figure; a weaker oracle would let the gate above pass idly
        spec = golden_spec("follow_demand_location")
        assert reactive_location_oracle(spec, 0) == pytest.approx(0.9675307175081532, rel=1e-12)

    def test_relay_learns_to_follow_demand(self, tmp_path):
        report, _ = run_scenario(make_location_spec(seed=1), out_dir=tmp_path)
        assert report.satisfaction_ratio > 0.9
        # second cycle reuses first-cycle knowledge
        derived = report_from_trace(read_trace(tmp_path))
        assert derived["reuse_ticks"] >= 1
