"""Scenario definition, run orchestration, oracles, and trace emission.

Scenario and MDP files are YAML documents, knowledge-base snapshots JSON
ones. `SCENARIO`, `MDP` and `SNAPSHOT` are the tables of every key each may
hold, with its type; a document is read against its table, and every
problem found is reported in one SpecValidation; so is a file that is not
UTF-8. Each step of a run ticks every agent in node order, tells the
population which acted, applies their actions as one batch, senses all
agents in one batched pass, lets each agent that acted score its own
action, and appends one step row. When the population is settled, no agent
can fire and every step up to the next demand change repeats the same idle
step, so the run appends that stretch's rows without stepping and steps
again at the change. A traced run, one with an output directory, takes the
population's idle lines before a step's actions apply, then writes one line
per agent and the step row as one block to its trace.jsonl, a skipped step
too. `report_from_trace` aggregates the run report from step rows, those a
run returns or those read back from trace.jsonl.
"""

from __future__ import annotations

import io
import json
import math
import time
from collections import Counter
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from .agent import CHANNEL_KIND, LOCATION_KIND, Agent, AgentConfig, AgentParams, Population
from .env import (DemandProfile, EnvConfig, Environment, EnvState, MeshTopology,
                  MoveTo, SetChannel, UserSpec)
from .kb import SNAPSHOT_SCHEMA, Case, KnowledgeBase
# encode_state is not called here; perfbench still times it at this name.
from .learning import QParams, QTable, encode_state, format_q_table
from .optimize import Controlled, EpsilonGreedy, select_action
from .reasoning import FeatureSpec

SCHEMA_VERSION = 1


class SpecValidation(Exception):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class NonStochasticRow(ValueError):
    pass


class IoFailure(Exception):
    pass


# -- scenario specification ---------------------------------------------------


@dataclass
class ScenarioSpec:
    """A run: its env config, which holds the horizon, its agents' parameters
    and its one seed, which seeds the environment and the run's one stream."""

    kind: str
    env_config: EnvConfig
    agent_params: AgentParams
    seed: int = 0
    disruption_penalty: float = 0.0

    def __post_init__(self):
        problems = []
        if self.kind not in (CHANNEL_KIND, LOCATION_KIND):
            problems.append(f"unknown kind {self.kind!r}")
        if self.seed < 0:
            problems.append("seed must be >= 0")
        if not math.isfinite(self.disruption_penalty):
            problems.append(f"disruption_penalty {self.disruption_penalty} must be finite")
        topo_nodes = set(self.env_config.topology.positions)
        for nid in self.agent_params.nodes or []:
            if nid not in topo_nodes:
                problems.append(f"agent node {nid} not in topology")
        policy = self.agent_params.policy
        if self.kind == LOCATION_KIND and type(policy) is not EpsilonGreedy:
            problems.append(f"location agents move epsilon-greedily, not {type(policy).__name__}")
        if problems:
            raise SpecValidation(problems)

    @property
    def horizon(self) -> int:
        """The run's step count, `env_config.horizon`."""
        return self.env_config.horizon


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


# -- scenario and snapshot loading ---------------------------------------------

# A document is read against its table. A schema is a plain type (int,
# float or str: a value of exactly that type, an int also reading as a
# float), (s, t) for a pair [a, b] of plain types, [s] for a list, {k: s} for
# a mapping with keys of plain type k, a _Table, or a reader f(value, path,
# problems) that may raise ValueError. Pairs and lists read as tuples.
_ACCEPTS = {int: (int,), float: (float, int), str: (str,)}
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
    try:
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
    except OverflowError:  # float() of an int beyond the float range
        problems.append((path, "expected float, got an int too large for a float"))
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


def _exactly(*tags):
    """Reader of a value equal to one of `tags`, and of the same type."""
    def read(value, *_):
        if not any(type(value) is type(tag) and value == tag for tag in tags):
            raise ValueError(f"expected {' or '.join(map(repr, tags))}, got {value!r}")
        return value
    return read


def _in(kind, lo, hi=math.inf):
    """Reader of a value of plain type `kind` in [lo, hi]."""
    def read(value, *_):
        if type(value) in _ACCEPTS[kind] and lo <= value <= hi:
            return kind(value)
        raise ValueError(f"expected {kind.__name__} in [{lo}, {hi}], got {value!r}")
    return read


_INT64 = _in(int, -2 ** 63, 2 ** 63 - 1)  # what the radio's int64 channel arrays hold
_EVICTION = _exactly(KnowledgeBase.eviction)  # the one, which a document may still name
_PALETTE = 2 ** 16  # channels at most: a channel agent's value-table row holds one per channel


def _channels(value, *where) -> tuple[int, ...]:
    """A channel count n, for channels 1..n, or a list of channel numbers: at
    most _PALETTE of them, since the palette is built whole at load."""
    listed = type(value) is list
    channels = value if listed else range(1, (_read(_INT64, value, *where) or 0) + 1)
    if len(channels) > _PALETTE:
        raise ValueError(f"{len(channels)} channels, above the {_PALETTE} a palette may hold")
    return _read([_INT64], channels, *where) if listed else tuple(channels)


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
    schema_version=_exactly(SCHEMA_VERSION), kind=str, horizon=int,
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
        kb=_Table(capacity=int, eviction=_EVICTION),
        policy=_variant("type", "epsilon-greedy", {
            "epsilon-greedy": (EpsilonGreedy, _Table(epsilon=float)),
            "controlled": (Controlled, _Table(
                epsilon=float, serving_threshold=float, max_switches=int, window=int))}),
        nodes=[int]))
MDP = _Table(dict(schema_version=_exactly(SCHEMA_VERSION), transitions=[[[float]]],
                  rewards=[[float]], gamma=float))
SNAPSHOT = _Table(dict(
    schema=_exactly("meshmind-kb/1", SNAPSHOT_SCHEMA), capacity=int, eviction=_EVICTION,
    cases=[_Table(dict(  # /1 rows also hold the step and node that wrote them
        percept=[_in(float, 0, 1)], coefficient=_in(float, 0, 1),
        hits=_in(int, 0), last_used=_in(int, 0), created=_in(int, 0),
        action=_variant("kind", None, {
            "set_channel": (SetChannel, _Table(dict(node=int, channel=int))),
            "move_to": (MoveTo, _Table(dict(node=int, cell=(int, int))))})), t=int, node=int)]))
REMOVED_KEYS = ("env.reassociate", "agents.reuse_driver", "agents.bins", "agents.feature_ranges",
                "agents.policy.no_switch_while_serving")


def _message(path: tuple, message: str, whole: str) -> str:
    name = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)[1:]
    if message in ("unknown key", "missing key"):
        return f"{name} is no longer supported" if name in REMOVED_KEYS else f"{message} {name}"
    return f"{name or whole}: {message}"


def _raise_any(problems: list, whole: str) -> None:
    """A SpecValidation of every (key path, message) problem, the document's named `whole`."""
    if problems:
        raise SpecValidation([_message(*problem, whole) for problem in problems])


def _document(path, parse, whole: str):
    """The document in the UTF-8 file at `path`, as `parse` reads it, its line ends read as
    text files read them. A byte that is not UTF-8, or a YAML or JSON syntax error, is one
    SpecValidation problem named `whole`, at the byte's offset or the parser's line and column."""
    try:
        text = Path(path).read_bytes().decode()
    except UnicodeDecodeError as exc:
        raise SpecValidation([f"{whole}: byte {exc.start}: not UTF-8 ({exc.reason})"]) from None
    try:
        return parse(io.StringIO(text, newline=None))
    except json.JSONDecodeError as exc:
        line, column, message = exc.lineno, exc.colno, exc.msg
    except yaml.YAMLError as exc:
        if (mark := getattr(exc, "problem_mark", None)) is None:  # a character YAML forbids
            raise SpecValidation([f"{whole}: {' '.join(str(exc).split())}"]) from None
        line, column, message = mark.line + 1, mark.column + 1, exc.problem
    raise SpecValidation([f"{whole}: line {line}, column {column}: {message}"])


def _read_or_raise(schema, data, whole: str):
    """`data` read against `schema`, or one SpecValidation listing every problem found."""
    problems = []
    read = _read(schema, data, (), problems)
    _raise_any(problems, whole)
    return read


def _built(build, path: tuple, problems: list, **kwargs):
    """build(**kwargs), or None with the problems it raises noted at `path`."""
    try:
        return build(**kwargs)
    except SpecValidation as exc:
        problems += [(path, problem) for problem in exc.problems]
    except ValueError as exc:  # one problem per argument, if it has several
        problems += [(path, str(arg)) for arg in (exc.args if len(exc.args) > 1 else [exc])]
    return None


def _profile(read, profiles: dict, path: tuple, problems: list):
    """A user's demand profile from its read (builder, fields), or the equal
    one in `profiles`. A rejected profile is None, and its problem is noted
    at `path` for every user."""
    build, fields = read
    key = (build, *fields.items())
    if profiles.get(key) is None:
        profiles[key] = _built(build, path, problems, **fields)
    return profiles[key]


_LIMIT = 2 ** 53  # floats hold every int in [-_LIMIT, _LIMIT]
_BEYOND = "expected int in [-2**53, 2**53], where floats hold every int"


def _coordinate_problems(nodes, users) -> list:
    """(key path, message) of each node or user coordinate and allowed cell beyond ±2**53."""
    nx, ny, ux, uy = ([row[key] for row in rows] for rows in (nodes, users) for key in ("x", "y"))
    at_nodes = nx + ny + [c for row in nodes for cell in row.get("allowed", ()) for c in cell]
    if -_LIMIT <= min(coords := at_nodes + ux + uy, default=0) <= max(coords, default=0) <= _LIMIT:
        return []  # the common case, in a few passes without a walk
    problems = [(("env", name, i, key), _BEYOND)
                for name, rows in (("nodes", nodes), ("users", users))
                for i, row in enumerate(rows) for key in ("x", "y")
                if not -_LIMIT <= row[key] <= _LIMIT]
    for i, row in enumerate(nodes):
        problems += [(("env", "nodes", i, "allowed", k), _BEYOND)
                     for k, (x, y) in enumerate(row.get("allowed", ()))
                     if not -_LIMIT <= min(x, y) <= max(x, y) <= _LIMIT]
    return problems


_DEMAND_BINS = 3  # bins of each user-demand feature of a location agent


def _cell_bins(topology: MeshTopology) -> list[tuple[str, float, float, int]]:
    """The x and then the y location feature, (name, lo, hi, bins): one bin
    per cell from the lowest allowed cell to the highest, over every node."""
    features = []
    for name, axis in (("x", 0), ("y", 1)):
        cells = [cell[axis] for allowed in topology.allowed.values() for cell in allowed]
        lo, hi = min(cells, default=0), max(cells, default=0)
        features.append((name, float(lo), float(max(hi, lo + 1)), hi - lo + 1))
    return features


def _state_count_problems(spec: ScenarioSpec, rows) -> list:
    """(key path, message) of each location agent with more states than 2**53, x bins
    times y bins times _DEMAND_BINS per user, beyond which float state sums round."""
    config, agents, problems = spec.env_config, spec.agent_params.nodes, []
    (*_, x_bins), (*_, y_bins) = _cell_bins(config.topology)
    users = Counter(config.serving_nodes())
    for i, row in enumerate(rows):
        node, count = row["id"], users[row["id"]]
        if (agents is None or node in agents) and x_bins * y_bins * _DEMAND_BINS ** count > _LIMIT:
            problems.append((("env", "nodes", i), f"node {node} has {x_bins} x {y_bins} cells "
                             f"and {count} users: more than 2**53 location states"))
    return problems


def load_scenario(path) -> ScenarioSpec:
    """Parse and validate a scenario YAML file."""
    return scenario_from_dict(_document(path, yaml.safe_load, "scenario"))


def scenario_from_dict(data) -> ScenarioSpec:
    """Build a scenario from its mapping as read against SCENARIO. All the
    problems the table finds are listed in one SpecValidation; if there are
    none, so is every value a constructor rejects, named by its key path."""
    top = _read_or_raise(SCENARIO, data, "scenario")
    problems = []
    del top["schema_version"]
    env, agents, horizon = top.pop("env"), top.pop("agents"), top.pop("horizon")
    nodes = env.pop("nodes")
    problems += _coordinate_problems(nodes, env["users"])
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
                      demand=_profile(row["demand"], profiles,
                                      ("env", "users", i, "demand"), problems))
             for i, row in enumerate(env.pop("users"))]
    env_config = None if topology is None else _built(
        EnvConfig, ("env",), problems, topology=topology, users=users,
        horizon=horizon, **env)
    build, kwargs = agents["policy"]
    agents.update(policy=_built(build, ("agents", "policy"), problems, **kwargs),
                  qparams=_built(QParams, ("agents", "qparams"), problems, **agents["qparams"]))
    params = _built(
        AgentParams, ("agents",), problems,
        **{f"{k}_threshold": v for k, v in agents.pop("thresholds").items()},
        **{f"kb_{k}": v for k, v in agents.pop("kb").items() if k != "eviction"},
        **{k: v for k, v in agents.items() if v is not None})  # a rejected one keeps its default
    spec = None if env_config is None or params is None else _built(
        ScenarioSpec, (), problems, env_config=env_config, agent_params=params, **top)
    if not problems and spec.kind == LOCATION_KIND:
        problems += _state_count_problems(spec, nodes)
    _raise_any(problems, "scenario")
    return spec


def load_snapshot(path) -> KnowledgeBase:
    """Read a knowledge-base snapshot file, as `KnowledgeBase.save` writes one."""
    return knowledge_base_from_snapshot(_document(path, json.load, "snapshot"))


def knowledge_base_from_snapshot(data) -> KnowledgeBase:
    """The knowledge base a snapshot holds. Like `scenario_from_dict`, it lists the
    table's problems, or else those across rows, in one SpecValidation."""
    top = _read_or_raise(SNAPSHOT, data, "snapshot")
    rows, problems, first = top["cases"], [], {}
    kb = _built(KnowledgeBase, ("capacity",), problems, capacity=top["capacity"])
    if len(rows) > top["capacity"]:  # retain would never bring it back under
        problems.append((("cases",), f"{len(rows)} cases, above the capacity {top['capacity']}"))
    for i, row in enumerate(rows):
        where, percept, width = ("cases", i, "percept"), row["percept"], len(rows[0]["percept"])
        if not percept:
            problems.append((where, "expected at least one value, got []"))
        elif len(percept) != width:
            problems.append((where, f"{len(percept)} values, case 0 has {width}"))
        elif first.setdefault(percept, i) != i:
            problems.append((where, f"the same as case {first[percept]}'s"))
    _raise_any(problems, "snapshot")
    for row in rows:
        build, fields = row.pop("action")
        row.pop("t", None), row.pop("node", None)  # a /1 row's step and node
        kb.cases.append(Case(action=build(**fields), **row))
    return kb


# -- agent construction ----------------------------------------------------------


def build_agents(spec: ScenarioSpec, env: Environment, state: EnvState,
                 seed: int) -> list[Agent]:
    """One agent per controllable node, with per-scenario feature specs; demand
    features span 0 to the environment's `demand_peak` (1 when it is 0). Agents
    with equal features, and so equal percept layouts, share one config. `state`
    and `seed` are unused; they stay for perfbench's positional call."""
    params = spec.agent_params
    topology = spec.env_config.topology
    nodes = sorted(params.nodes if params.nodes is not None else topology.nodes)
    demand_max = env.demand_peak or 1.0
    if spec.kind == CHANNEL_KIND:
        max_deg = max(1, topology.max_degree())
        channel_features = (("conflicts", 0.0, float(max_deg), min(max_deg + 1, 4)),
                            ("demand", 0.0, demand_max, 2), ("achieved", 0.0, demand_max, 2))
    else:
        cells = _cell_bins(topology)
    agents, configs = [], {}
    for node in nodes:
        features = channel_features if spec.kind == CHANNEL_KIND else (
            *cells, *((f"demand_u{uid}", 0.0, demand_max, _DEMAND_BINS)
                      for uid in env.users_of(node)))
        if features not in configs:
            configs[features] = AgentConfig(kind=spec.kind, feature_spec=FeatureSpec(features),
                                            channels=topology.channels, **vars(params))
        agents.append(Agent(node, configs[features]))
    return agents


# -- run loop ----------------------------------------------------------------


def _tick_lines(heads: list[str], texts: list[str], acting, t: int, events, end: str) -> str:
    """Step t's tick lines: its idle `heads`, the `acting` agents' `events` in a copy, `end`."""
    lines = [*heads, end]
    for i, event in zip(acting, events):
        lines[i] = event.head(texts[i])
    return f"{t}}}\n".join(lines)


def _step_row(t: int, report, events) -> dict:
    """The row of the step to t, scored in `report`, whose triggered ticks gave `events`."""
    reuse = switches = disruptions = 0
    for ev in events:
        reuse += ev.outcome == "reuse"
        if ev.switched:  # only a switch disrupts
            switches += 1
            disruptions += ev.disruption
    return {
        "kind": "step", "t": t, "conflicts": report.conflicts,
        "total_demand": report.total_demand, "total_achieved": report.total_achieved,
        "actions": len(events), "triggered": len(events),
        "reuse": reuse, "switches": switches, "disruptions": disruptions,
    }


def run_scenario(spec: ScenarioSpec, out_dir=None, collect_trace: bool | None = None):
    """Execute the control loop for `spec.horizon` steps, seeded by `spec.seed`.

    Returns (RunReport, steps): one step row per step (conflicts, demand and
    throughput totals, and the counts of actions, triggered ticks, reuses,
    switches and disruptions), from which `report_from_trace` aggregates the
    report. A step tells the population once which agents acted. The agents
    draw from one stream, `default_rng([spec.seed, 1])`: a step draws
    `random(k)` once for its k triggered ticks, one uniform each in node
    order, used or not, so a run draws `triggered_ticks` uniforms. When a
    sense, the first one too, leaves the population settled, the run is at a
    fixed point up to `Environment.next_change`, at most the step after the
    horizon: each step before it would fire no agent and get the same report
    back. So each such step's row is the last report's with its own t and no
    actions, and the run moves to the step before the change without
    ticking, stepping, sensing or drawing. A run traces exactly when it has
    an out_dir: each step row then follows one tick line per agent in node
    order, the population's idle head or the agent's `TraceEvent.head` ended
    by t, all in one write to trace.jsonl per step, counted in wall_time_s. A
    run that raises leaves out_dir's files as they were. collect_trace, if
    given, must equal `out_dir is not None`.
    """
    if collect_trace is not None and collect_trace != (out_dir is not None):
        raise ValueError(f"collect_trace={collect_trace} disagrees with out_dir={out_dir}")
    started = time.perf_counter()
    env = Environment(spec.env_config, seed=spec.seed)
    state = env.reset()
    report = env.report_for(state)
    agents = build_agents(spec, env, state, spec.seed)
    rng = np.random.default_rng([spec.seed, 1])
    population = Population(agents, env)
    population.sense(report)

    steps: list[dict] = []
    with nullcontext() if out_dir is None else _trace_file(Path(out_dir)) as trace:
        while state.t < spec.horizon:
            if population.settled and (end := env.next_change(state.t) - 1) > state.t:
                # A fixed point: every step up to the demand change repeats an idle one.
                rows = [_step_row(t, report, ()) for t in range(state.t + 1, end + 1)]
                if trace is not None:
                    lines = (*population.lines(), ())
                    for row in rows:
                        trace.write(_tick_lines(*lines, row["t"] - 1, (),
                                                json.dumps(row, sort_keys=True) + "\n"))
                steps += rows
                state = replace(state, t=end)
                continue
            events, acting = [], []
            draws = iter(rng.random(population.fired.count(True)).tolist())
            for i, ag in enumerate(agents):
                event = ag.tick(env, state, population, i, draws)
                if event is not None:  # a triggered tick, which always acts
                    events.append(event)
                    acting.append(i)
            if acting:
                population.acted(acting)
            if trace is not None:  # this step's lines, which sense leaves as they are
                step = (*population.lines(), acting, state.t)

            state, report = env.apply_and_step(state, [ev.action for ev in events], report)
            population.sense(report)  # serves this feedback and the next step
            for i in acting:
                agents[i].observe(population, i, spec.disruption_penalty)

            row = _step_row(state.t, report, events)
            if trace is not None:  # the step's tick lines and row, in one write
                trace.write(_tick_lines(*step, events, json.dumps(row, sort_keys=True) + "\n"))
            steps.append(row)

    run_report = RunReport(**report_from_trace(steps),
                           wall_time_s=time.perf_counter() - started)

    if out_dir is not None:
        emit(out_dir, steps, run_report, {ag.node: ag.table for ag in agents})
    return run_report, steps


def sweep(spec: ScenarioSpec, seeds, out_dir=None) -> dict[int, RunReport]:
    """Run the scenario once per seed, each a copy of `spec` with that seed."""
    reports = {}
    for seed in seeds:
        sub = Path(out_dir) / f"seed_{seed}" if out_dir is not None else None
        reports[seed], _ = run_scenario(replace(spec, seed=seed), out_dir=sub)
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
    per seed, and timings, next to the trace.jsonl `run_scenario` has written;
    remove any value table of a node that is not one of this run's agents."""
    try:
        out = Path(out_dir)
        (out / "report.txt").write_text("".join(f"{k}={v}\n" for k, v in report.rows()))
        (out / "timings.json").write_text(json.dumps({"wall_time_s": report.wall_time_s}) + "\n")
        columns = ["t", "conflicts", "total_demand", "total_achieved",
                   "actions", "switches", "disruptions"]
        with open(out / "metrics.csv", "w") as fh:
            fh.write(",".join(columns) + "\n")
            fh.writelines(",".join(str(row[c]) for c in columns) + "\n" for row in steps)
        tables = {f"qtable_node_{node}.txt": table for node, table in sorted(qtables.items())}
        for name, table in tables.items():
            (out / name).write_text(format_q_table(table))
        for path in out.glob("qtable_node_*.txt"):
            if path.name not in tables:  # an earlier run's node
                path.unlink()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def report_from_trace(records) -> dict:
    """Aggregate the report fields, except wall time, from the step rows of
    a run's steps or parsed trace. A triggered tick runs the optimizer unless it reuses."""
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
        self.transitions = transitions = np.asarray(self.transitions, dtype=float)
        self.rewards = rewards = np.asarray(self.rewards, dtype=float)
        if rewards.ndim != 2 or transitions.shape != (*rewards.shape, len(rewards)):
            raise ValueError(f"shapes {transitions.shape}, {rewards.shape} are not (S,A,S), (S,A)")
        if not np.isfinite(rewards).all():
            raise ValueError("rewards must be finite")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0,1)")
        stochastic = (transitions >= 0).all(axis=2) & (abs(transitions.sum(axis=2) - 1) <= 1e-12)
        if not stochastic.all():
            s, a = np.argwhere(~stochastic)[0]
            raise NonStochasticRow(f"transition row (s={s}, a={a}) {transitions[s, a].tolist()} "
                                   "is not a probability distribution")

    @property
    def state_count(self) -> int:
        return self.rewards.shape[0]

    @property
    def action_count(self) -> int:
        return self.rewards.shape[1]

    @classmethod
    def from_yaml(cls, path) -> "MdpSpec":
        """Read an MDP file; each problem found is one entry of a SpecValidation."""
        read = _read_or_raise(MDP, _document(path, yaml.safe_load, "MDP"), "MDP")
        del read["schema_version"]
        problems = []
        mdp = _built(cls, (), problems, **read)
        _raise_any(problems, "MDP")
        return mdp


def value_iteration(mdp: MdpSpec, tol: float = 1e-9):
    """Bellman-optimality sweeps to within tol; returns (q_star, policy)."""
    if not 0 < tol < math.inf:  # a NaN tol would never be met
        raise ValueError(f"tol {tol} must be finite and > 0")
    q = np.zeros((mdp.state_count, mdp.action_count))
    while True:
        best = q.max(axis=1)
        q_next = mdp.rewards + mdp.gamma * mdp.transitions @ best
        if np.abs(q_next - q).max() < tol:
            return q_next, q_next.argmax(axis=1)
        q = q_next


def q_learning_on_mdp(mdp: MdpSpec, params: QParams,
                      policy: EpsilonGreedy, iterations: int,
                      seed: int = 0) -> QTable:
    """Run tabular updates along an exploring walk from state 0, choosing and
    learning through the same `select_action` and `QTable.update` as the agents."""
    rng = np.random.default_rng([seed, 2])
    table = QTable(mdp.state_count, mdp.action_count)
    state = 0
    for _ in range(iterations):
        action = select_action(table, state, policy, rng.random())
        next_state = int(rng.choice(mdp.state_count, p=mdp.transitions[state, action]))
        table.update(params, state, action, float(mdp.rewards[state, action]), next_state)
        state = next_state
    return table
