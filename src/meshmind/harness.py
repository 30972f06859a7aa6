"""Scenario definition, run orchestration, oracles, and trace emission.

Scenario files are YAML documents. `SCENARIO` is the table of every key
they may hold, with its type; `scenario_from_dict` reads a file against it
and reports every problem in one SpecValidation. Each step of a run ticks
every agent in ascending node order, applies their actions as one batch,
senses all agents in one batched pass, lets each agent that acted score its
own action, and appends one step row. Tick rows go to the trace.jsonl that
a run with an output directory writes as it goes, or else to its records;
`report_from_trace` aggregates the run report from the step rows of either.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from .agent import (CHANNEL_KIND, LOCATION_KIND, Agent, AgentConfig, AgentParams,
                    Population, TraceEvent)
from .env import (DemandProfile, EnvConfig, Environment, EnvState, MeshTopology,
                  UserSpec)
# encode_state is not called here; perfbench still times it at this name.
from .learning import QParams, QTable, StateCodec, encode_state, format_q_table
from .optimize import (Boltzmann, Controlled, EpsilonGreedy,
                       ExplorationPolicy, select_action)
from .reasoning import FeatureSpec, Outcome

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
        if self.seed < 0:
            problems.append("seed must be >= 0")
        topo_nodes = set(self.env_config.topology.positions)
        for nid in self.agent_params.nodes or []:
            if nid not in topo_nodes:
                problems.append(f"agent node {nid} not in topology")
        policy = self.agent_params.policy
        if self.kind == LOCATION_KIND and type(policy) is not EpsilonGreedy:
            problems.append(f"location agents move epsilon-greedily, not {type(policy).__name__}")
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
        return [(f.name, getattr(self, f.name)) for f in fields(self) if f.name != "wall_time_s"]


# -- scenario loading ----------------------------------------------------------

# A scenario file is read against SCENARIO. A schema is a plain type (int,
# float, bool or str: a value of exactly that type, an int also reading as a
# float), (s, t) for a pair [a, b] of plain types, [s] for a list, {k: s} for
# a mapping with keys of plain type k, a _Table, or a reader f(value, path,
# problems) that may raise ValueError. Pairs and lists read as tuples.
_ACCEPTS = {int: (int,), float: (float, int), bool: (bool,), str: (str,)}
_ABSENT = object()


class _Table(dict):
    """A mapping's keys, each with the schema of its value: the `required`
    ones, which must be present, then the optional ones. An absent key
    reads its `defaults` entry if it has one, and is otherwise left out so
    that the field it fills keeps its own default."""

    def __init__(self, required: dict | None = None, defaults: dict | None = None, **optional):
        super().__init__(required or {}, **optional)
        self.required, self.defaults = list(required or ()), defaults or {}


def _read(schema, value, path: tuple, problems: list):
    """`value` checked against `schema` and converted. Each problem found is
    appended to `problems` as (key path, message); its value reads as None."""
    kind = type(schema)
    if kind is _Table and type(value) is dict:
        if not value.keys() <= schema.keys():
            problems += [(path + (key,), "unknown key") for key in value if key not in schema]
        read = {}
        for key, sub in schema.items():
            raw = value[key] if key in value else schema.defaults.get(key, _ABSENT)
            if type(raw) is sub:  # the common case, inline: a value of exactly its type
                read[key] = raw
            elif raw is not _ABSENT:
                read[key] = _read(sub, raw, path + (key,), problems)
            elif key in schema.required:
                problems.append((path + (key,), "missing key"))
        return read
    if kind is list and type(value) is list:
        return tuple([_read(schema[0], raw, path + (i,), problems) for i, raw in enumerate(value)])
    if kind is dict and type(value) is dict:  # {key type: schema}
        (key_type, item), = schema.items()
        return {_read(key_type, key, path, problems): _read(item, raw, path + (key,), problems)
                for key, raw in value.items()}
    if kind is tuple and type(value) is list and len(value) == 2:
        (first, second), (a, b) = schema, value
        if type(a) is first and type(b) is second:  # the common case, without a conversion
            return a, b
        if type(a) in _ACCEPTS[first] and type(b) in _ACCEPTS[second]:
            return first(a), second(b)
    elif kind is type:
        if type(value) in _ACCEPTS[schema]:
            return schema(value)
    elif callable(schema):
        try:
            return schema(value, path, problems)
        except ValueError as exc:
            problems.append((path, str(exc)))
            return None
    what = {list: "a list", tuple: "a pair"}.get(kind, getattr(schema, "__name__", "a mapping"))
    problems.append((path, f"expected {what}, got {value!r}"))
    return None


def _variant(tag: str, default: str, variants: dict, shorthand=None):
    """Reader of a mapping whose `tag` (`default` when absent) names the
    (builder, _Table) pair that reads its other keys, as (builder, fields);
    `shorthand` reads any other value."""
    def read(value, path, problems):
        if type(value) is not dict and shorthand:
            return shorthand(value, path, problems)
        name = value.get(tag, default) if type(value) is dict else None
        if not isinstance(name, str) or name not in variants:
            raise ValueError(f"expected a mapping with {tag} one of {sorted(variants)}, "
                             f"got {value if name is None else name!r}")
        build, table = variants[name]
        return build, _read(table, {k: v for k, v in value.items() if k != tag}, path, problems)
    return read


def _schema_version(value, *_) -> int:
    if type(value) is not int or value != SCHEMA_VERSION:
        raise ValueError(f"expected {SCHEMA_VERSION}, got {value!r}")
    return value


def _channels(value, *where) -> tuple[int, ...]:
    """A channel count n, for channels 1..n, or a list of channel numbers."""
    if type(value) is list:
        return _read([int], value, *where)
    return tuple(range(1, (_read(int, value, *where) or 0) + 1))


def _level_or_steps(value, *where):
    """A constant demand level or piecewise [[start, level], ...] steps."""
    if type(value) is list:
        return DemandProfile.piecewise, {"steps": _read([(int, float)], value, *where)}
    return DemandProfile.constant, {"level": _read(float, value, *where)}


_DEMAND = _variant("mode", "piecewise", shorthand=_level_or_steps, variants={
    "piecewise": (DemandProfile.piecewise, _Table(dict(steps=[(int, float)]))),
    "periodic": (DemandProfile.periodic, _Table(dict(period=int, segments=[(int, float)]))),
    "random": (DemandProfile.random_epochs, _Table(dict(epoch=int, levels=[float])))})


SCENARIO = _Table(dict(
    schema_version=_schema_version, kind=str, horizon=int,
    env=_Table(
        dict(nodes=[_Table(dict(id=int, x=int, y=int), allowed=[(int, int)])]),
        defaults={"channels": 1, "edges": [], "users": []},
        channels=_channels,
        edges=[(int, int)],
        users=[_Table(dict(id=int, x=int, y=int, demand=_DEMAND), node=int)],
        initial_channels={int: int},
        pathloss_exponent=float, tx_power=float, noise_floor=float, bandwidth_unit=float)),
    defaults={"agents": {}},
    seed=int, disruption_penalty=float,
    agents=_Table(
        defaults={"qparams": {}, "thresholds": {}, "kb": {}, "policy": {}},
        qparams=_Table(alpha=float, gamma=float),
        thresholds=_Table(similarity=float, coefficient=float),
        kb=_Table(capacity=int, eviction=str),
        policy=_variant("type", "epsilon-greedy", {
            "epsilon-greedy": (EpsilonGreedy, _Table(epsilon=float)),
            "boltzmann": (Boltzmann, _Table(tau=float)),
            "controlled": (Controlled, _Table(
                epsilon=float, no_switch_while_serving=bool, serving_threshold=float,
                max_switches=int, window=int))}),
        nodes=[int]))
MDP = _Table(dict(schema_version=_schema_version, transitions=[[[float]]], rewards=[[float]],
                  gamma=float))
REMOVED_KEYS = ("env.reassociate", "agents.reuse_driver", "agents.bins", "agents.feature_ranges")


def _message(path: tuple, message: str) -> str:
    name = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)[1:]
    if message in ("unknown key", "missing key"):
        return f"{name} is no longer supported" if name in REMOVED_KEYS else f"{message} {name}"
    return f"{name or 'scenario'}: {message}"


def _built(build, path: tuple, problems: list, **kwargs):
    """build(**kwargs), or None with the problems it raises noted at `path`."""
    try:
        return build(**kwargs)
    except SpecValidation as exc:
        problems += [(path, problem) for problem in exc.problems]
    except ValueError as exc:
        problems.append((path, str(exc)))
    return None


def _profile(read, horizon: int, profiles: dict, path: tuple, problems: list):
    """A user's demand profile from its read (builder, fields), or the equal
    one in `profiles`; periodic segments repeat up to the horizon. A rejected
    profile is None, and its problem is noted at `path` for every user."""
    build, fields = read
    if build == DemandProfile.periodic:
        fields = {**fields, "horizon": horizon}
    key = (build, *fields.items())
    if profiles.get(key) is None:
        profiles[key] = _built(build, path, problems, **fields)
    return profiles[key]


def load_scenario(path) -> ScenarioSpec:
    """Parse and validate a scenario YAML file."""
    with open(path) as fh:
        return scenario_from_dict(yaml.safe_load(fh))


def scenario_from_dict(data) -> ScenarioSpec:
    """Build a scenario from its mapping as read against SCENARIO. All the
    problems the table finds are listed in one SpecValidation; if there are
    none, so is every value a constructor rejects, named by its key path."""
    problems = []
    top = _read(SCENARIO, data, (), problems)
    if problems:
        raise SpecValidation([_message(*problem) for problem in problems])
    del top["schema_version"]
    env, agents = top.pop("env"), top.pop("agents")
    horizon = top["horizon"]
    nodes = env.pop("nodes")
    positions = {row["id"]: (row["x"], row["y"]) for row in nodes}
    if len(positions) < len(nodes):
        ids = Counter(row["id"] for row in nodes)
        problems.append((("env", "nodes"),
                         f"duplicate node id {min(i for i in ids if ids[i] > 1)}"))
    topology = _built(
        MeshTopology, ("env",), problems,
        positions=positions, channels=env.pop("channels"), edges=set(env.pop("edges")),
        allowed={row["id"]: frozenset(row["allowed"]) for row in nodes if "allowed" in row})
    profiles = {}
    users = [UserSpec(user=row["id"], position=(row["x"], row["y"]), node=row.get("node"),
                      demand=_profile(row["demand"], horizon, profiles,
                                      ("env", "users", i, "demand"), problems))
             for i, row in enumerate(env.pop("users"))]
    env_config = None if topology is None else _built(
        EnvConfig, ("env",), problems, topology=topology, users=users,
        horizon=max(1, horizon), rng_seed=top.get("seed", ScenarioSpec.seed), **env)
    build, kwargs = agents["policy"]
    agents.update(policy=_built(build, ("agents", "policy"), problems, **kwargs),
                  qparams=_built(QParams, ("agents", "qparams"), problems, **agents["qparams"]))
    params = _built(
        AgentParams, ("agents",), problems,
        **{f"{k}_threshold": v for k, v in agents.pop("thresholds").items()},
        **{f"kb_{k}": v for k, v in agents.pop("kb").items()},
        **{k: v for k, v in agents.items() if v is not None})  # a rejected one keeps its default
    spec = None if env_config is None or params is None else _built(
        ScenarioSpec, (), problems, env_config=env_config, agent_params=params, **top)
    if problems:
        raise SpecValidation([_message(*problem) for problem in problems])
    return spec


# -- agent construction ----------------------------------------------------------


def build_agents(spec: ScenarioSpec, env: Environment, state: EnvState,
                 seed: int) -> list[Agent]:
    """One agent per controllable node, with per-scenario feature specs."""
    params = spec.agent_params
    topology = spec.env_config.topology
    nodes = sorted(params.nodes if params.nodes is not None else topology.nodes)
    demand_max = max((user.demand.peak for user in spec.env_config.users), default=0.0) or 1.0
    max_deg = max(1, topology.max_degree())
    xs = [c[0] for cells in topology.allowed.values() for c in cells]
    ys = [c[1] for cells in topology.allowed.values() for c in cells]
    agents, configs = [], {}
    for node in nodes:
        if spec.kind == CHANNEL_KIND:
            features = (
                ("conflicts", 0.0, float(max_deg)),
                ("demand", 0.0, demand_max),
                ("achieved", 0.0, demand_max),
            )
            bins = (min(max_deg + 1, 4), 2, 2)
        else:
            users = env.users_of(node)
            features = (
                ("x", 0.0, float(max(max(xs), 1))),
                ("y", 0.0, float(max(max(ys), 1))),
                *((f"demand_u{uid}", 0.0, demand_max) for uid in users),
            )
            bins = (int(max(xs)) + 1, int(max(ys)) + 1, *(3,) * len(users))
        key = (features, bins)  # agents with equal features share one config
        if key not in configs:
            configs[key] = AgentConfig(kind=spec.kind, feature_spec=FeatureSpec(features),
                                       codec=StateCodec(bins), channels=topology.channels,
                                       **vars(params))
        agents.append(Agent(node, configs[key], run_seed=seed))
    return agents


# -- run loop ----------------------------------------------------------------

_IDLE_ROW = TraceEvent(t=0, node=0, percept=(), outcome="idle").to_record()


def run_scenario(spec: ScenarioSpec, seed: int | None = None,
                 out_dir=None, collect_trace: bool = True):
    """Execute the control loop for the scenario horizon.

    Returns (RunReport, records). records holds one step row per step
    (kind "step": conflicts, demand and throughput totals, and the counts
    of actions, triggered ticks, reuses, switches and disruptions), and the
    report is aggregated from those rows by `report_from_trace`. With
    collect_trace=True each step row is preceded by one tick row per agent
    in node order: `TraceEvent.to_record()` if it triggered, else `_IDLE_ROW`
    with its t, node and percept. They go to records, or with out_dir to
    trace.jsonl alone, which is written row by row as the run goes, counted
    in wall_time_s, and records holds only the step rows; a run that raises
    leaves out_dir's files as they were. collect_trace=False makes no tick
    rows, which keeps long sweeps cheap. A zero-horizon run returns no records.
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
    with nullcontext() if out_dir is None else _trace_file(Path(out_dir)) as trace:
        finish, put = ((TraceEvent.to_record, records.extend) if trace is None else
                       (lambda event: trace_line(event.to_record()), trace.writelines))
        for _ in range(spec.horizon):
            actions, acting, events = [], [], []
            for i, ag in enumerate(agents):
                action, event = ag.tick(env, state, population, i)
                if event is not None:
                    events.append(event)
                if action is not None:
                    actions.append(action)
                    acting.append(i)
            if collect_trace and trace is None:  # idle entries now, before sense replaces percepts
                ticks = [None if fire else dict(_IDLE_ROW, t=state.t, node=ag.node, percept=p)
                         for ag, fire, p in zip(agents, population.fired, population.percepts)]
            elif collect_trace:
                ticks = [None if fire else _IDLE_LINE % (ag.node, text, state.t) for ag, fire, text
                         in zip(agents, population.fired, population.percept_texts())]

            state, report = env.apply_and_step(state, actions, report)
            population.sense(report)  # serves this feedback and the next step
            for i in acting:
                agents[i].observe(population, i, spec.disruption_penalty)

            if collect_trace:
                triggered = iter(events)
                put([tick or finish(next(triggered)) for tick in ticks])
            records.append({
                "kind": "step", "t": state.t, "conflicts": report.conflicts,
                "total_demand": sum(state.demand.values()),
                "total_achieved": sum(report.achieved.values()),
                "actions": len(actions), "triggered": len(events),
                "reuse": sum(ev.outcome == "reuse" for ev in events),
                "switches": sum(ev.switched for ev in events),
                "disruptions": sum(ev.disruption for ev in events),
            })
            if trace is not None:
                trace.write(trace_line(records[-1]))

    run_report = RunReport(**report_from_trace(records),
                           wall_time_s=time.perf_counter() - started)

    if out_dir is not None:
        emit(out_dir, records, run_report, {ag.node: ag.table for ag in agents})
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


@contextmanager
def _trace_file(out: Path):
    """A file that becomes out/trace.jsonl if the run completes; an OSError is an IoFailure."""
    partial = out / "trace.jsonl.partial"
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(partial, "w") as fh:
            yield fh
        partial.replace(out / "trace.jsonl")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    finally:  # a failed run leaves out as it was
        with suppress(OSError):
            partial.unlink()


def emit(out_dir, steps, report: RunReport, qtables: dict[int, QTable]) -> None:
    """Write report, metrics (a row per step row) and value tables, byte-stable
    per seed, and timings, next to the trace.jsonl `run_scenario` has written."""
    try:
        out = Path(out_dir)
        (out / "report.txt").write_text("".join(f"{k}={v}\n" for k, v in report.rows()))
        (out / "timings.json").write_text(json.dumps({"wall_time_s": report.wall_time_s}) + "\n")
        columns = ["t", "conflicts", "total_demand", "total_achieved",
                   "actions", "switches", "disruptions"]
        with open(out / "metrics.csv", "w") as fh:
            fh.write(",".join(columns) + "\n")
            fh.writelines(",".join(str(row[c]) for c in columns) + "\n" for row in steps)
        for node, table in sorted(qtables.items()):
            (out / f"qtable_node_{node}.txt").write_text(format_q_table(table))
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


_OUTCOMES = {name: f'"{name}"' for name in ("idle", *(o.value for o in Outcome))}
_FLAG = {True: "true", False: "false"}  # only for values of type bool


def _float(value) -> str:  # None or a float, as json.dumps writes a finite one
    return "null" if value is None else float.__repr__(value)  # TypeError unless a float


def _action(action: dict) -> str:  # an action row as json.dumps writes it, keys sorted
    if type(action) is dict and len(action) == 3 and type(node := action["node"]) is int:
        if action["kind"] == "set_channel" and type(channel := action["channel"]) is int:
            return f'{{"channel": {channel}, "kind": "set_channel", "node": {node}}}'
        if (action["kind"] == "move_to" and type(cell := action["cell"]) is list
                and len(cell) == 2 and type(cell[0]) is type(cell[1]) is int):
            return f'{{"cell": [{cell[0]}, {cell[1]}], "kind": "move_to", "node": {node}}}'
    return json.dumps(action, sort_keys=True)


def trace_line(record: dict) -> str:
    """`json.dumps(record, sort_keys=True)` plus a newline: a tick row from a template
    in sorted-key order, any other row or value the template lacks by json.dumps."""
    with suppress(KeyError, TypeError):
        t, node, action, percept = record["t"], record["node"], record["action"], record["percept"]
        fired, switch, disrupt = record["detected"], record["switched"], record["disruption"]
        if (record["kind"] == "tick" and len(record) == 13 and type(t) is type(node) is int
                and type(fired) is type(switch) is type(disrupt) is bool and type(percept) is list):
            line = (f'{{"action": {"null" if action is None else _action(action)}, '
                    f'"coefficient": {_float(record["coefficient"])}, '
                    f'"detected": {_FLAG[fired]}, "disruption": {_FLAG[disrupt]}, '
                    f'"kind": "tick", "node": {node}, '
                    f'"outcome": {_OUTCOMES[record["outcome"]]}, '
                    f'"percept": [{", ".join(map(float.__repr__, percept))}], '
                    f'"q_after": {_float(record["q_after"])}, '
                    f'"q_before": {_float(record["q_before"])}, '
                    f'"reward": {_float(record["reward"])}, '
                    f'"switched": {_FLAG[switch]}, "t": {t}}}\n')
            if "inf" not in line and "nan" not in line:  # json.dumps writes Infinity, NaN
                return line
    return json.dumps(record, sort_keys=True) + "\n"


# An idle tick's trace_line, with %-slots for its node, percept text and t.
_IDLE_LINE = (trace_line(dict(_IDLE_ROW, node=0, percept=[], t=0)).replace("[]", "[%s]")
              .replace('"node": 0', '"node": %d').replace('"t": 0', '"t": %d'))


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
        """Read an MDP file; every problem the MDP table finds is one SpecValidation."""
        with open(path) as fh:
            problems = []
            read = _read(MDP, yaml.safe_load(fh), (), problems)
        if problems:
            raise SpecValidation([_message(*problem) for problem in problems])
        del read["schema_version"]
        return cls(**read)


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
    """Run tabular updates along an exploring walk through the MDP, choosing
    and learning through the same `select_action` and `QTable.update` as the agents."""
    rng = np.random.default_rng([seed, 2])
    table = QTable(mdp.state_count, mdp.action_count)
    candidates = list(range(mdp.action_count))
    state = start_state
    for _ in range(iterations):
        action = select_action(table, state, policy, candidates, rng)
        next_state = int(rng.choice(mdp.state_count, p=mdp.transitions[state, action]))
        table.update(params, state, action, float(mdp.rewards[state, action]), next_state)
        state = next_state
    return table
