"""Scenario definition, run orchestration, oracles, and trace emission.

Scenario files are YAML documents with a schema_version field, read by
`scenario_from_dict`. Each step of a run ticks every agent in ascending
node order, applies their actions as one batch, senses all agents in one
batched pass, lets each agent that acted score its own action, and appends
one step row. The run report is aggregated from those step rows by
`report_from_trace`, the same function that recomputes it from an emitted
trace.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from .agent import (CHANNEL_KIND, DISRUPTION_THRESHOLD, LOCATION_KIND, Agent,
                    AgentConfig, Population)
from .env import (DemandProfile, EnvConfig, Environment, EnvState, EnvView,
                  MeshTopology, UserSpec)
# encode_state runs in Agent.observe; perfbench still times it at this name.
from .learning import (QParams, QTable, StateCodec, Transition, encode_state,
                       format_q_table, q_update)
from .optimize import (Boltzmann, Controlled, EpsilonGreedy,
                       ExplorationPolicy, select_action)
from .reasoning import FeatureSpec

SCHEMA_VERSION = 1


class SpecValidation(Exception):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class NonStochasticRow(Exception):
    pass


class IoFailure(Exception):
    pass


# -- scenario specification ---------------------------------------------------


@dataclass
class AgentParams:
    policy: ExplorationPolicy = field(default_factory=lambda: EpsilonGreedy(0.1))
    qparams: QParams = field(default_factory=lambda: QParams(alpha=0.3, gamma=0.5))
    similarity_threshold: float = 0.8
    coefficient_threshold: float = 0.7
    kb_capacity: int = 256
    kb_eviction: str = "lru"
    bins: tuple[int, ...] | None = None
    feature_ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    nodes: list[int] | None = None  # controllable nodes; default all


@dataclass
class ScenarioSpec:
    kind: str
    env_config: EnvConfig
    agent_params: AgentParams
    horizon: int
    seed: int = 0
    disruption_penalty: float = 0.0

    def __post_init__(self):
        problems = []
        if self.kind not in (CHANNEL_KIND, LOCATION_KIND):
            problems.append(f"unknown kind {self.kind!r}")
        if self.horizon < 0:
            problems.append("horizon must be >= 0")
        topo_nodes = set(self.env_config.topology.positions)
        for nid in self.agent_params.nodes or []:
            if nid not in topo_nodes:
                problems.append(f"agent node {nid} not in topology")
        if problems:
            raise SpecValidation(problems)


@dataclass
class RunReport:
    steps: int = 0
    mean_achieved_mbps: float = 0.0
    satisfaction_ratio: float = 1.0
    total_conflicts: int = 0
    final_conflicts: int = 0
    switches: int = 0
    disruptions: int = 0
    optimizer_invocations: int = 0
    triggered_ticks: int = 0
    reuse_ticks: int = 0
    kb_hit_rate: float = 0.0
    wall_time_s: float = 0.0

    def rows(self) -> list[tuple[str, object]]:
        """Fields for report.txt; wall time goes to timings.json instead."""
        return [
            ("steps", self.steps),
            ("mean_achieved_mbps", self.mean_achieved_mbps),
            ("satisfaction_ratio", self.satisfaction_ratio),
            ("total_conflicts", self.total_conflicts),
            ("final_conflicts", self.final_conflicts),
            ("switches", self.switches),
            ("disruptions", self.disruptions),
            ("optimizer_invocations", self.optimizer_invocations),
            ("triggered_ticks", self.triggered_ticks),
            ("reuse_ticks", self.reuse_ticks),
            ("kb_hit_rate", self.kb_hit_rate),
        ]


# -- scenario loading ----------------------------------------------------------


def _demand_from_config(value, horizon: int) -> DemandProfile:
    if isinstance(value, (int, float)):
        return DemandProfile.constant(value)
    if isinstance(value, list):
        return DemandProfile.piecewise(value)
    if isinstance(value, dict):
        mode = value.get("mode", "piecewise")
        if mode == "random":
            return DemandProfile.random_epochs(value["epoch"], value["levels"])
        if mode == "periodic":
            return DemandProfile.periodic(value["period"], value["segments"], horizon)
        if mode == "piecewise":
            return DemandProfile.piecewise(value["steps"])
    raise SpecValidation([f"unsupported demand profile {value!r}"])


def _policy_from_config(data: dict) -> ExplorationPolicy:
    kind = data.get("type", "epsilon-greedy")
    if kind == "epsilon-greedy":
        return EpsilonGreedy(epsilon=float(data.get("epsilon", 0.1)))
    if kind == "boltzmann":
        return Boltzmann(tau=float(data.get("tau", 0.5)))
    if kind == "controlled":
        return Controlled(
            epsilon=float(data.get("epsilon", 0.1)),
            no_switch_while_serving=bool(data.get("no_switch_while_serving", True)),
            serving_threshold=float(data.get("serving_threshold", DISRUPTION_THRESHOLD)),
            max_switches=data.get("max_switches"),
            window=data.get("window"))
    raise SpecValidation([f"unknown policy type {kind!r}"])


def load_scenario(path) -> ScenarioSpec:
    """Parse and validate a scenario YAML file."""
    with open(path) as fh:
        data = yaml.safe_load(fh)
    return scenario_from_dict(data)


def scenario_from_dict(data: dict) -> ScenarioSpec:
    problems = []
    if data.get("schema_version") != SCHEMA_VERSION:
        problems.append(f"schema_version must be {SCHEMA_VERSION}")
    for key in ("kind", "horizon", "env"):
        if key not in data:
            problems.append(f"missing top-level key {key!r}")
    if problems:
        raise SpecValidation(problems)

    removed = [f"{section}.{key} is no longer supported" for section, key in
               (("env", "reassociate"), ("agents", "reuse_driver"))
               if key in (data.get(section) or {})]
    if removed:
        raise SpecValidation(removed)

    horizon = int(data["horizon"])
    env_data = data["env"]
    channels = env_data.get("channels", 1)
    if isinstance(channels, int):
        channels = tuple(range(1, channels + 1))
    else:
        channels = tuple(channels)
    positions, allowed = {}, {}
    for row in env_data.get("nodes", []):
        nid = int(row["id"])
        positions[nid] = (int(row["x"]), int(row["y"]))
        if "allowed" in row:
            allowed[nid] = frozenset((int(x), int(y)) for x, y in row["allowed"])
    try:
        topology = MeshTopology(
            positions=positions,
            edges={(int(a), int(b)) for a, b in env_data.get("edges", [])},
            channels=channels,
            allowed=allowed)
        users = [UserSpec(user=int(row["id"]),
                          position=(int(row["x"]), int(row["y"])),
                          demand=_demand_from_config(row["demand"], horizon),
                          node=row.get("node"))
                 for row in env_data.get("users", [])]
        env_config = EnvConfig(
            topology=topology,
            users=users,
            pathloss_exponent=float(env_data.get("pathloss_exponent", 2.0)),
            tx_power=float(env_data.get("tx_power", 1.0)),
            noise_floor=float(env_data.get("noise_floor", 1e-3)),
            bandwidth_unit=float(env_data.get("bandwidth_unit", 1.0)),
            rng_seed=int(data.get("seed", 0)),
            horizon=max(1, horizon),
            initial_channels={int(k): int(v) for k, v in
                              (env_data.get("initial_channels") or {}).items()} or None)
        agent_data = data.get("agents", {})
        params = AgentParams(
            policy=_policy_from_config(agent_data.get("policy", {})),
            qparams=QParams(alpha=float(agent_data.get("qparams", {}).get("alpha", 0.3)),
                            gamma=float(agent_data.get("qparams", {}).get("gamma", 0.5))),
            similarity_threshold=float(agent_data.get("thresholds", {}).get("similarity", 0.8)),
            coefficient_threshold=float(agent_data.get("thresholds", {}).get("coefficient", 0.7)),
            kb_capacity=int(agent_data.get("kb", {}).get("capacity", 256)),
            kb_eviction=agent_data.get("kb", {}).get("eviction", "lru"),
            bins=tuple(agent_data["bins"]) if "bins" in agent_data else None,
            feature_ranges={k: (float(v[0]), float(v[1])) for k, v in
                            agent_data.get("feature_ranges", {}).items()},
            nodes=[int(n) for n in agent_data["nodes"]] if "nodes" in agent_data else None)
    except (ValueError, KeyError) as exc:
        raise SpecValidation([str(exc)]) from exc

    return ScenarioSpec(kind=data["kind"], env_config=env_config,
                        agent_params=params, horizon=horizon,
                        seed=int(data.get("seed", 0)),
                        disruption_penalty=float(data.get("disruption_penalty", 0.0)))


# -- agent construction ----------------------------------------------------------


def _max_demand(spec: ScenarioSpec) -> float:
    peak = 0.0
    for user in spec.env_config.users:
        profile = user.demand
        if profile.random_levels:
            peak = max(peak, max(profile.random_levels))
        peak = max(peak, max((v for _, v in profile.steps), default=0.0))
    return peak or 1.0


def build_agents(spec: ScenarioSpec, env: Environment, state: EnvState,
                 seed: int) -> list[Agent]:
    """One agent per controllable node, with per-scenario feature specs."""
    params = spec.agent_params
    topology = spec.env_config.topology
    nodes = sorted(params.nodes if params.nodes is not None else topology.nodes)
    demand_max = _max_demand(spec)
    max_deg = max(1, topology.max_degree())
    xs = [c[0] for cells in topology.allowed.values() for c in cells]
    ys = [c[1] for cells in topology.allowed.values() for c in cells]
    agents = []
    for node in nodes:
        ranges = dict(params.feature_ranges)
        if spec.kind == CHANNEL_KIND:
            features = (
                ("conflicts", *ranges.get("conflicts", (0.0, float(max_deg)))),
                ("demand", *ranges.get("demand", (0.0, demand_max))),
                ("achieved", *ranges.get("achieved", (0.0, demand_max))),
            )
            bins = params.bins or (min(max_deg + 1, 4), 2, 2)
        else:
            features = [
                ("x", *ranges.get("x", (0.0, float(max(max(xs), 1))))),
                ("y", *ranges.get("y", (0.0, float(max(max(ys), 1))))),
            ]
            bins = [int(max(xs)) + 1, int(max(ys)) + 1]
            for uid in env.users_of(node):
                name = f"demand_u{uid}"
                features.append((name, *ranges.get(name, (0.0, demand_max))))
                bins.append(3)
            features = tuple(features)
            bins = params.bins or tuple(bins)
        config = AgentConfig(
            kind=spec.kind,
            feature_spec=FeatureSpec(features=features),
            codec=StateCodec(bins=tuple(bins)),
            qparams=params.qparams,
            policy=params.policy,
            similarity_threshold=params.similarity_threshold,
            coefficient_threshold=params.coefficient_threshold,
            kb_capacity=params.kb_capacity,
            kb_eviction=params.kb_eviction)
        agents.append(Agent(node, config, run_seed=seed))
    return agents


# -- run loop ----------------------------------------------------------------


def run_scenario(spec: ScenarioSpec, seed: int | None = None,
                 out_dir=None, collect_trace: bool = True):
    """Execute the control loop for the scenario horizon.

    Returns (RunReport, records). records holds one step row per step
    (kind "step": conflicts, demand and throughput totals, and the counts
    of actions, triggered ticks, reuses, switches and disruptions), and the
    report is aggregated from those rows by `report_from_trace`. With
    collect_trace=True each step row is preceded by one tick row per agent;
    with collect_trace=False the tick rows are omitted, which keeps long
    sweeps cheap. A zero-horizon run returns no records.
    """
    started = time.perf_counter()
    run_seed = spec.seed if seed is None else seed
    env = Environment(replace(spec.env_config, rng_seed=run_seed))
    state = env.reset()
    report = env.report_for(state)
    agents = build_agents(spec, env, state, run_seed)
    population = Population(agents, env, trace=collect_trace)
    population.sense(report)

    records: list[dict] = []
    for _ in range(spec.horizon):
        view = EnvView(env=env, state=state, report=report)
        actions, acting, events = [], [], []
        for i, ag in enumerate(agents):
            action, event = ag.tick(view, population, i)
            if event is not None:
                events.append(event)
            if action is not None:
                actions.append(action)
                acting.append(i)

        state, report = env.apply_and_step(state, actions, report)
        population.sense(report)  # serves this feedback and the next step
        for i in acting:
            agents[i].observe(population, i, spec.disruption_penalty)

        if collect_trace:
            records.extend(ev.to_record() for ev in events)
        records.append({
            "kind": "step", "t": state.t,
            "conflicts": report.conflicts,
            "total_demand": sum(state.demand.values()),
            "total_achieved": sum(report.achieved.values()),
            "actions": len(actions),
            "triggered": sum(ev.detected for ev in events),
            "reuse": sum(ev.outcome == "reuse" for ev in events),
            "switches": sum(ev.switched for ev in events),
            "disruptions": sum(ev.disruption for ev in events),
        })

    run_report = RunReport(**report_from_trace(records),
                           wall_time_s=time.perf_counter() - started)

    if out_dir is not None:
        emit(out_dir, records, run_report,
             {ag.node: ag.table for ag in agents if ag.table is not None})
    return run_report, records


def sweep(spec: ScenarioSpec, seeds, out_dir=None) -> dict[int, RunReport]:
    """Run the scenario once per seed; independent runs, shared spec."""
    reports = {}
    for seed in seeds:
        sub = Path(out_dir) / f"seed_{seed}" if out_dir is not None else None
        report, _ = run_scenario(spec, seed=seed, out_dir=sub,
                                 collect_trace=out_dir is not None)
        reports[seed] = report
    return reports


# -- emission -----------------------------------------------------------------


def emit(out_dir, records, report: RunReport, qtables: dict[int, QTable]) -> None:
    """Write trace, report, metrics and value tables, byte-stable per seed,
    and the run's timings."""
    try:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "trace.jsonl", "w") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        with open(out / "report.txt", "w") as fh:
            for key, value in report.rows():
                fh.write(f"{key}={value}\n")
        with open(out / "timings.json", "w") as fh:
            json.dump({"wall_time_s": report.wall_time_s}, fh)
            fh.write("\n")
        steps = [r for r in records if r.get("kind") == "step"]
        columns = ["t", "conflicts", "total_demand", "total_achieved",
                   "actions", "switches", "disruptions"]
        with open(out / "metrics.csv", "w") as fh:
            fh.write(",".join(columns) + "\n")
            for row in steps:
                fh.write(",".join(str(row[c]) for c in columns) + "\n")
        for node, table in sorted(qtables.items()):
            with open(out / f"qtable_node_{node}.txt", "w") as fh:
                fh.write(format_q_table(table))
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def report_from_trace(records) -> dict:
    """Aggregate the report fields, except wall time, from the step rows of
    a run's records. A triggered tick runs the optimizer unless it reuses."""
    steps = [r for r in records if r.get("kind") == "step"]
    triggered = sum(r["triggered"] for r in steps)
    reuse = sum(r["reuse"] for r in steps)
    total_demand = sum(r["total_demand"] for r in steps)
    total_achieved = sum(r["total_achieved"] for r in steps)
    return {
        "steps": len(steps),
        "mean_achieved_mbps": (total_achieved / len(steps) if steps else 0.0),
        "satisfaction_ratio": (total_achieved / total_demand
                               if total_demand > 0 else 1.0),
        "total_conflicts": sum(r["conflicts"] for r in steps),
        "final_conflicts": steps[-1]["conflicts"] if steps else 0,
        "switches": sum(r["switches"] for r in steps),
        "disruptions": sum(r["disruptions"] for r in steps),
        "optimizer_invocations": triggered - reuse,
        "triggered_ticks": triggered,
        "reuse_ticks": reuse,
        "kb_hit_rate": (reuse / triggered if triggered else 0.0),
    }


# -- explicit MDP oracle -------------------------------------------------------


@dataclass
class MdpSpec:
    """Small explicit MDP used as an independent check on value learning."""

    transitions: np.ndarray  # shape (states, actions, states)
    rewards: np.ndarray      # shape (states, actions)
    gamma: float

    def __post_init__(self):
        self.transitions = np.asarray(self.transitions, dtype=float)
        self.rewards = np.asarray(self.rewards, dtype=float)
        if self.transitions.ndim != 3 or self.rewards.ndim != 2:
            raise ValueError("transitions must be (S,A,S), rewards (S,A)")
        sums = self.transitions.sum(axis=2)
        if not np.all(np.abs(sums - 1.0) <= 1e-12):
            bad = np.argwhere(np.abs(sums - 1.0) > 1e-12)[0]
            raise NonStochasticRow(f"transition row (s={bad[0]}, a={bad[1]}) "
                                   f"sums to {sums[tuple(bad)]}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0,1)")

    @property
    def state_count(self) -> int:
        return self.rewards.shape[0]

    @property
    def action_count(self) -> int:
        return self.rewards.shape[1]

    @classmethod
    def from_yaml(cls, path) -> "MdpSpec":
        with open(path) as fh:
            data = yaml.safe_load(fh)
        if data.get("schema_version") != SCHEMA_VERSION:
            raise SpecValidation([f"schema_version must be {SCHEMA_VERSION}"])
        return cls(transitions=np.array(data["transitions"], dtype=float),
                   rewards=np.array(data["rewards"], dtype=float),
                   gamma=float(data["gamma"]))


def value_iteration(mdp: MdpSpec, tol: float = 1e-9):
    """Bellman-optimality sweeps to within tol; returns (q_star, policy)."""
    if tol <= 0:
        raise ValueError("tol must be > 0")
    q = np.zeros((mdp.state_count, mdp.action_count))
    while True:
        best = q.max(axis=1)
        q_next = mdp.rewards + mdp.gamma * mdp.transitions @ best
        if np.abs(q_next - q).max() < tol:
            return q_next, q_next.argmax(axis=1)
        q = q_next


def q_learning_on_mdp(mdp: MdpSpec, params: QParams,
                      policy: ExplorationPolicy, iterations: int,
                      seed: int = 0, start_state: int = 0) -> QTable:
    """Run tabular updates along an exploring walk through the MDP."""
    rng = np.random.default_rng([seed, 2])
    table = QTable(mdp.state_count, mdp.action_count)
    candidates = list(range(mdp.action_count))
    state = start_state
    for _ in range(iterations):
        action = select_action(table, state, policy, candidates, rng)
        next_state = int(rng.choice(mdp.state_count, p=mdp.transitions[state, action]))
        tr = Transition(state=state, action=action,
                        reward=float(mdp.rewards[state, action]),
                        next_state=next_state)
        table = q_update(table, params, tr)
        state = next_state
    return table
