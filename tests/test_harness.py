import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from meshmind import (DemandProfile, EnvConfig, Environment, EpsilonGreedy,
                      MdpSpec, MeshTopology, QParams, UserSpec,
                      load_scenario, q_learning_on_mdp, run_scenario, sweep,
                      value_iteration)
from meshmind.harness import (AgentParams, NonStochasticRow, ScenarioSpec,
                              SpecValidation, report_from_trace,
                              scenario_from_dict)

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


class TestEmission:
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
        ("env", "reassociate", True), ("agents", "reuse_driver", "qvalue")])
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
    ], ids=["user-node", "negative-demand", "nan-demand", "negative-step",
            "controlled-epsilon", "greedy-epsilon"])
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
