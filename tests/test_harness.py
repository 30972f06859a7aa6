import hashlib
import json
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
from meshmind.agent import Agent, Population
from meshmind.harness import (AgentParams, NonStochasticRow, ScenarioSpec,
                              SpecValidation, build_agents, report_from_trace,
                              scenario_from_dict, trace_line)
from meshmind.reasoning import Outcome

from helpers import make_channel_spec, make_location_spec

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def tiny_spec(horizon=10, seed=0):
    topo = MeshTopology(positions={0: (0, 0)}, edges=set(), channels=(1,))
    users = [UserSpec(user=0, position=(0, 0),
                      demand=DemandProfile.constant(2.0), node=0)]
    env_config = EnvConfig(topology=topo, users=users, pathloss_exponent=1.0,
                           noise_floor=1e-3, bandwidth_unit=1.0,
                           rng_seed=seed, horizon=max(1, horizon))
    return ScenarioSpec(kind="channel-assignment", env_config=env_config,
                        agent_params=AgentParams(), horizon=horizon, seed=seed)


class TestRunScenario:
    def test_zero_horizon_runs_nothing(self):
        report, records = run_scenario(tiny_spec(horizon=0))
        assert records == []
        assert report.steps == 0
        assert report.total_conflicts == 0
        assert report.mean_achieved_mbps == 0.0

    def test_same_seed_reproduces_records_exactly(self):
        spec = make_channel_spec(4, {(0, 1), (1, 2), (2, 3)}, horizon=60)
        _, first = run_scenario(spec, seed=5)
        _, second = run_scenario(spec, seed=5)
        assert first == second

    def test_unconstrained_user_is_fully_satisfied(self):
        report, _ = run_scenario(tiny_spec(horizon=20))
        assert report.satisfaction_ratio == pytest.approx(1.0)
        assert report.final_conflicts == 0

    def test_report_matches_trace_recomputation(self):
        spec = make_channel_spec(4, {(0, 1), (1, 2), (2, 3), (0, 3)},
                                 horizon=120)
        report, records = run_scenario(spec, seed=2)
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
    def test_untraced_run_gives_the_traced_report(self, spec):
        traced, records = run_scenario(spec, seed=2)
        untraced, steps = run_scenario(spec, seed=2, collect_trace=False)
        assert steps == [r for r in records if r["kind"] == "step"]
        assert replace(untraced, wall_time_s=0.0) == replace(traced, wall_time_s=0.0)

    def test_one_trace_event_per_agent_per_step(self):
        spec = make_channel_spec(3, {(0, 1), (1, 2)}, horizon=40)
        _, records = run_scenario(spec, seed=1)
        ticks = [r for r in records if r["kind"] == "tick"]
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


# sha256 of every file but timings.json that a run writes, recorded before
# trace.jsonl was written by `trace_line`; (scenario, seed) -> file -> digest.
PINNED_EMISSION = {
    ("lowload_windows", 0): {
        "metrics.csv": "e321eb50baf1875940079e4b5e6508f7294b3ed9697fa4fea92c07308d0d4ae4",
        "qtable_node_0.txt": "c7bcf712b7b7c85ddca4a4d2cf1e7ee944676e2354ad8516aa22474cdea8de34",
        "qtable_node_1.txt": "3e4a3ace588c3fa962b40aca21fbb635fb9aeaf0da55008859ee6c1bbd3c4693",
        "qtable_node_2.txt": "b701c9c108fe817cb1225add5991906fca715d44f1634811a0269cac1f1fb770",
        "qtable_node_3.txt": "f808d754c07565067399ea47a04d08e1801f3359d8ec7e2c791b74a578e7ecd4",
        "qtable_node_4.txt": "c69f5127b56411cd00d33565721451d8ac6d4c55d20836274fb9dbc7c881d2c1",
        "qtable_node_5.txt": "f57bfed557621c1a80563fbb7a44ef9f5eff92ce1d040ae84397f451f71479be",
        "qtable_node_6.txt": "9f25627bc535a36683b907f195383e1a5c4cb4c68a6f635de37a0a4d77fac6af",
        "qtable_node_7.txt": "e59fc1ce0b14f88ac63ce242a9f469c6d9902411ce41a00e205b917f72b65e9f",
        "qtable_node_8.txt": "821486f55d2f6f488da4d51ca6eb329cec0ac1f79f909acf6a87208b372cd2f4",
        "qtable_node_9.txt": "ea0449dae703d3b688010c7aee7a145cf1cedb42f29bd1ede64d0e2c6b4e3a35",
        "report.txt": "dc45d9b4a3095d5ca7e878a5810b5642dc5dda9ec9a08be70d767313201936e6",
        "trace.jsonl": "7f9cd8f88d0e066b6066a8b9689834414e87f850c69c994dbc673f3a955a709c",
    },
    ("follow_demand_location", 1): {
        "metrics.csv": "e60c4222207d9317c009cf6c2543b1907882d03ace187e1c1fae073a39815ba5",
        "qtable_node_0.txt": "9d80d93e475c697bdfb38e8bc41fa794e9b663182d1b2645214777103ca77078",
        "report.txt": "c913e4a3d219a73f0658f4f2a0702a9e182267d9130a44c9ec75c8f123b545af",
        "trace.jsonl": "791818ecc1cd8cfea1df1546ab775f95815c5c4900bd5d1d8ffadc44db4fb201",
    },
}

# Trace rows for `trace_line`. FINITE includes -0.0, subnormals and huge values.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NUMBER = st.none() | FINITE
COUNT = st.integers(0, 10**6)
ACTION = st.none() | st.fixed_dictionaries(
    {"kind": st.just("set_channel"), "node": st.integers(), "channel": st.integers()}
) | st.fixed_dictionaries(
    {"kind": st.just("move_to"), "node": st.integers(),
     "cell": st.lists(st.integers(), min_size=2, max_size=2)})
TICK_ROW = st.fixed_dictionaries({
    "kind": st.just("tick"), "t": st.integers(), "node": st.integers(),
    "percept": st.lists(FINITE, max_size=5), "detected": st.booleans(),
    "outcome": st.sampled_from(["idle", *(o.value for o in Outcome)]), "action": ACTION,
    "reward": NUMBER, "coefficient": NUMBER, "q_before": NUMBER, "q_after": NUMBER,
    "switched": st.booleans(), "disruption": st.booleans()})
STEP_ROW = st.fixed_dictionaries({
    "kind": st.just("step"), "t": COUNT, "conflicts": COUNT, "total_demand": FINITE,
    "total_achieved": FINITE, "actions": COUNT, "triggered": COUNT, "reuse": COUNT,
    "switches": COUNT, "disruptions": COUNT})
# Values outside the template: other JSON types, non-finite floats, and TWIN
# values, equal to a template value but of another type (1 and 1.0 for True).
TWIN = st.sampled_from([0, 1, 0.0, 1.0, -0.0, True, False, None, "1", [1]])
ODD = (TWIN | st.integers() | st.floats() | st.text(max_size=6)
       | st.lists(st.floats() | TWIN, max_size=3)
       | st.dictionaries(st.text(max_size=4), st.integers(), max_size=2))
ODD_PERCEPT = ODD | st.tuples(FINITE) | st.dictionaries(FINITE, st.integers(), min_size=1)


def dumps_line(record) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


class TestEmission:
    @pytest.mark.parametrize("name,seed", list(PINNED_EMISSION))
    def test_emitted_files_match_the_recorded_digests(self, tmp_path, name, seed):
        run_scenario(load_scenario(SCENARIO_DIR / f"{name}.yaml"), seed=seed, out_dir=tmp_path)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.iterdir() if p.name != "timings.json"}
        assert digests == PINNED_EMISSION[(name, seed)]

    @pytest.mark.parametrize("name,seed", list(PINNED_EMISSION))
    def test_tick_rows_of_a_run_are_written_without_json(self, name, seed):
        _, records = run_scenario(load_scenario(SCENARIO_DIR / f"{name}.yaml"), seed=seed)
        ticks = [r for r in records if r["kind"] == "tick"]
        assert {r["outcome"] for r in ticks} > {"idle"}
        expected = list(map(dumps_line, ticks))
        with mock.patch.object(harness, "json", None):  # any json.dumps call raises
            assert list(map(trace_line, ticks)) == expected

    @settings(max_examples=300, deadline=None)
    @given(TICK_ROW)
    def test_tick_rows_fill_the_template_exactly(self, row):
        expected = dumps_line(row)
        with mock.patch.object(harness, "json", None):
            assert trace_line(row) == expected

    @settings(max_examples=500, deadline=None)
    @given(TICK_ROW, st.data())
    def test_other_values_and_keys_fall_back_to_json(self, row, data):
        key = data.draw(st.sampled_from(["percept", *sorted(row)]))
        change = data.draw(st.sampled_from(["value", "value", "drop", "add"]))
        if change == "value":
            row[key] = data.draw(ODD_PERCEPT if key == "percept" else ODD)
        elif change == "drop":
            del row[key]
        else:
            row["extra"] = data.draw(ODD)
        assert trace_line(row) == dumps_line(row)

    @settings(max_examples=300, deadline=None)
    @given(TICK_ROW, st.data())
    def test_other_actions_fall_back_to_json(self, row, data):
        action = row["action"] = data.draw(ACTION.filter(bool))
        where = data.draw(st.sampled_from([*action, "extra", "cell item"]))
        odd = data.draw(TWIN | ODD)
        if where == "cell item":
            action.get("cell", [0, 0])[data.draw(st.integers(0, 1))] = odd
        else:
            action[where] = odd
        assert trace_line(row) == dumps_line(row)

    @pytest.mark.parametrize("key", ["reward", "coefficient", "q_before", "q_after", "percept"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_fall_back_to_json(self, key, value):
        row = dict(harness._IDLE_ROW, t=3, node=1, percept=[0.5, 0.25])
        row[key] = [0.5, value] if key == "percept" else value
        assert trace_line(row) == dumps_line(row)
        assert "NaN" in trace_line(row) or "Infinity" in trace_line(row)

    @settings(max_examples=100, deadline=None)
    @given(STEP_ROW)
    def test_step_rows_are_written_by_json(self, row):
        assert trace_line(row) == dumps_line(row)

    def test_traced_percepts_keep_the_sign_of_zero(self, tmp_path):
        data = yaml.safe_load((SCENARIO_DIR / "follow_demand_location.yaml").read_text())
        data["horizon"] = 2
        data["env"]["users"][0]["demand"] = [[0, -0.0], [5, 1.0]]
        data["env"]["users"][1]["demand"] = 0.0
        spec = scenario_from_dict(data)
        _, records = run_scenario(spec, out_dir=tmp_path)
        assert not any(r["actions"] for r in records if r["kind"] == "step")
        # the untraced batched pass over the same steps, with no action taken
        env = Environment(spec.env_config)
        state = env.reset()
        population = Population(build_agents(spec, env, state, spec.seed), env, trace=False)
        population.sense(env.report_for(state))
        expected = []
        for _ in range(spec.horizon):
            expected.append(list(map(float.hex, population.percept(0, state.t).values)))
            state, report = env.apply_and_step(state, [])
            population.sense(report)
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        for rows in (records, map(json.loads, lines)):
            ticks = [r for r in rows if r["kind"] == "tick"]
            assert [list(map(float.hex, r["percept"])) for r in ticks] == expected
        assert "-0x0.0p+0" in expected[0]
        assert '"percept": [0.6666666666666666, 0.0, -0.0, 0.0]' in lines[0]

    def test_records_only_run_formats_no_trace_text(self):
        with mock.patch.object(Population, "percept_texts", side_effect=AssertionError):
            _, records = run_scenario(tiny_spec(horizon=5))
        assert any(r["kind"] == "tick" for r in records)

    def test_failed_run_leaves_out_dir_as_it_was(self, tmp_path):
        spec = make_channel_spec(4, {(0, 1), (1, 2), (2, 3)}, horizon=50)
        run_scenario(spec, seed=9, out_dir=tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with mock.patch.object(Agent, "observe", side_effect=RuntimeError("stop")):
            with pytest.raises(RuntimeError, match="stop"):
                run_scenario(spec, seed=3, out_dir=tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

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
        spec = make_channel_spec(4, {(0, 1), (1, 2), (2, 3)}, horizon=50)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_scenario(spec, seed=9, out_dir=out_a)
        run_scenario(spec, seed=9, out_dir=out_b)
        for name in ("trace.jsonl", "metrics.csv", "report.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        dumps_a = sorted(p.name for p in out_a.glob("qtable_node_*.txt"))
        dumps_b = sorted(p.name for p in out_b.glob("qtable_node_*.txt"))
        assert dumps_a == dumps_b and dumps_a
        for name in dumps_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

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
        spec.horizon = 30  # keep the unit test quick
        report, _ = run_scenario(spec, seed=4)
        assert report.steps == 30

    def test_missing_keys_are_reported(self):
        with pytest.raises(SpecValidation) as err:
            scenario_from_dict({"schema_version": 1})
        assert any("kind" in p for p in err.value.problems)

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
        (lambda d: d.update(agents={"kb": {"eviction": "foo"}}), "eviction policy 'foo'"),
        (lambda d: d.update(agents={"kb": {"capacity": 0}}), "capacity must be >= 1"),
        (lambda d: d.update(horizon="abc"), "'abc'"),
        (lambda d: d["env"]["users"][0].update(
            demand={"mode": "periodic", "period": 0, "segments": [[0, 1.0]]}), "period 0"),
        (lambda d: d["env"]["users"][0].update(
            demand={"mode": "periodic", "period": -2, "segments": [[0, 1.0]]}), "period -2"),
        (lambda d: d["env"].update(initial_channels={0: 9}),
         "initial channel 9 of node 0 not in palette"),
        (lambda d: d["env"].update(initial_channels={7: 1}), "initial channel of unknown node 7"),
        (lambda d: d["env"]["nodes"].append({"id": 0, "x": 1, "y": 0}), "duplicate node id 0"),
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
    ], ids=["user-node", "negative-demand", "nan-demand", "negative-step",
            "controlled-epsilon", "greedy-epsilon", "kb-eviction", "kb-capacity",
            "horizon-not-int", "period-zero", "period-negative", "initial-channel-palette",
            "initial-channel-node", "duplicate-node", "negative-seed", "tx-power",
            "bandwidth-unit", "controlled-window", "controlled-max-switches",
            "max-switches-without-window", "window-without-max-switches"])
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

    @pytest.mark.parametrize("edit,problem", [
        (lambda d: [d], "scenario: expected a mapping, got [{"),
        (lambda d: d | {"env": None}, "env: expected a mapping, got None"),
        (lambda d: d | {"agents": None}, "agents: expected a mapping, got None"),
        (lambda d: d | {"agents": {"qparams": None}}, "agents.qparams: expected a mapping, got None"),
        (lambda d: d["env"].update(nodes=[{"id": 0, "y": 0}]), "missing key env.nodes[0].x"),
        (lambda d: d["env"]["nodes"][0].update(allowed=[[1]]),
         "env.nodes[0].allowed[0]: expected a pair, got [1]"),
        (lambda d: d | {"agents": {"nodes": 0}}, "agents.nodes: expected a list, got 0"),
        (lambda d: d["env"].update(channels="abc"), "env.channels: expected int, got 'abc'"),
        (lambda d: d | {"agents": {"policy": {"type": "controlled", "max_switches": "x"}}},
         "agents.policy.max_switches: expected int, got 'x'"),
        (lambda d: d | {"agents": {"policy": {"type": "controlled",
                                              "no_switch_while_serving": "no"}}},
         "agents.policy.no_switch_while_serving: expected bool, got 'no'"),
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
            "agents": {"polcy": {"type": "boltzmann"},
                       "policy": {"type": "boltzmann", "tau": 0.5, "epsilon": 0.1},
                       "kb": {"capacity": 8, "evict": "lru"}},
        }
        with pytest.raises(SpecValidation) as err:
            scenario_from_dict(spec_dict)
        assert err.value.problems == [
            "unknown key env.pathlos_exponent", "unknown key agents.polcy",
            "unknown key agents.kb.evict", "unknown key agents.policy.epsilon"]

    @pytest.mark.parametrize("policy", [{"type": "boltzmann", "tau": 0.01},
                                        {"type": "controlled", "epsilon": 0.1}],
                             ids=["boltzmann", "controlled"])
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
    def test_relay_learns_to_follow_demand(self):
        report, records = run_scenario(make_location_spec(), seed=1)
        assert report.satisfaction_ratio > 0.9
        # second cycle reuses first-cycle knowledge
        derived = report_from_trace(records)
        assert derived["reuse_ticks"] >= 1
