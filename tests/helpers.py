"""Scenario builders, the graph test set and perfbench's module loader, shared across
test modules."""

from __future__ import annotations

import importlib.util
import json
import math
from dataclasses import replace
from pathlib import Path

from hypothesis import strategies as st

from meshmind import DemandProfile, EnvConfig, Environment, MeshTopology, UserSpec
from meshmind.env import ThroughputReport
from meshmind.harness import AgentParams, ScenarioSpec
from meshmind.learning import QParams
from meshmind.optimize import EpsilonGreedy


def perfbench_module(name: str):
    """perfbench's module `name`, loaded from its file beside `src/`."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_trace(out_dir) -> list[dict]:
    """The rows of the trace.jsonl a run wrote to `out_dir`, in file order."""
    with open(Path(out_dir) / "trace.jsonl") as fh:
        return [json.loads(line) for line in fh]


def readings_report(readings) -> ThroughputReport:
    """A report holding only `readings`, all that `Population.sense` reads."""
    return ThroughputReport(conflicts=0, readings=readings, channel=None, capacity=None,
                            total_demand=0.0, total_achieved=0.0)


# A reading of a sequence: a zero of either sign, NaN or any finite float.
READING = st.sampled_from([0.0, -0.0, 0.5, 2.5, 5.0, math.nan]) | st.floats(
    allow_nan=False, allow_infinity=False)


# An exploration rate, the ends included, and a uniform of a run's stream.
EPSILON = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
UNIFORM = st.floats(0.0, 1.0, exclude_max=True)
# Where in its [0, 1) bucket a uniform lies, away from the bucket's ends.
INSIDE = st.floats(0.001, 0.999)


def edge_uniforms(epsilon: float) -> list[float]:
    """0.0, the largest uniform below `epsilon` (if any), and the largest below 1."""
    return [0.0, *([math.nextafter(epsilon, 0.0)] if epsilon else []), math.nextafter(1.0, 0.0)]


def draw_readings(data, history: list):
    """A copy of readings drawn from `history`, a repeat or a revert, with up to
    four values replaced by a READING; it is appended to `history`."""
    readings = data.draw(st.sampled_from(history)).copy()
    for k in data.draw(st.lists(st.integers(0, readings.size - 1), max_size=4)):
        readings[k] = data.draw(READING)
    history.append(readings)
    return readings


def reference_ratio(env, state, user, cell=None):
    """SINR from the documented formula, in scalar arithmetic, with the
    serving node at `cell` when given."""
    cfg = env.config
    spec = next(u for u in cfg.users if u.user == user)

    def gain(at):
        d = max(1.0, math.hypot(at[0] - spec.position[0], at[1] - spec.position[1]))
        return cfg.tx_power * d ** -cfg.pathloss_exponent

    serving = spec.node
    interference = sum(gain(state.position_of[other])
                       for other in env.topology.neighbors(serving)
                       if state.channel_of[other] == state.channel_of[serving])
    return gain(cell or state.position_of[serving]) / (cfg.noise_floor + interference)


def reference_served(env, state, node, cell):
    """Summed achieved throughput of `node`'s users, in ascending id, with the
    node at `cell`: each user's equal share of the link, capped at its demand."""
    users = sorted(u.user for u in env.config.users if u.node == node)
    return sum(min(env.config.bandwidth_unit * math.log2(
        1.0 + reference_ratio(env, state, user, cell)) / len(users), state.demand[user])
        for user in users)


def reactive_location_oracle(spec, seed: int) -> float:
    """Satisfaction a one-step-late reactive relay reaches on a location
    scenario whose relays share no interference edge, so that each relay is
    planned on its own, exactly.

    In a run, the move that lands at step t+1 is chosen from the report of
    step t, and the agent's two-sample detector confirms a change one step
    after that. So the oracle plans its cell at t+1 from the demand of step
    t-1 (step 0's at first), assuming that demand holds to the horizon. The
    plan is a dynamic programme over allowed cells x remaining steps, with
    moves to a cell at most one step away on each axis, staying included;
    it maximises the served throughput summed over the remaining steps, and
    a tie goes to the lowest cell. Served throughput is `reference_served`'s.
    Satisfaction is served over demanded, summed over steps 1..horizon as in
    a run's report.
    """
    env = Environment(spec.env_config, seed=seed)
    states = [env.reset()]
    for _ in range(spec.horizon):
        states.append(env.apply_and_step(states[-1], [])[0])
    served_total = 0.0
    for node in env.nodes:
        cells = sorted(env.topology.allowed[node])
        moves = {c: [d for d in cells if abs(d[0] - c[0]) <= 1 and abs(d[1] - c[1]) <= 1]
                 for c in cells}
        plans = {}  # the seen demand levels of the node's users -> their best moves
        cell = states[0].position_of[node]
        for t in range(spec.horizon):
            seen = states[max(t - 1, 0)]
            levels = tuple(seen.demand[u] for u in env.users_of(node))
            if levels not in plans:
                gain = {c: reference_served(env, seen, node, c) for c in cells}
                plans[levels] = _best_moves(gain, moves, spec.horizon)
            cell = plans[levels][spec.horizon - t][cell]
            served_total += reference_served(env, states[t + 1], node, cell)
    return served_total / sum(sum(s.demand.values()) for s in states[1:])


def _best_moves(gain: dict, moves: dict, horizon: int) -> list[dict]:
    """best[k][c]: the first move of a k-step walk from cell c along `moves`
    that maximises the summed `gain` of the cells it visits, for k in
    1..horizon; a tie goes to the lowest cell."""
    value, best = dict.fromkeys(gain, 0.0), [None]
    for _ in range(horizon):
        scored = {c: max(((gain[d] + value[d], -i), d) for i, d in enumerate(moves[c]))
                  for c in gain}
        value = {c: v for c, ((v, _), _) in scored.items()}
        best.append({c: d for c, (_, d) in scored.items()})
    return best


def with_horizon(spec: ScenarioSpec, horizon: int) -> ScenarioSpec:
    """`spec` with another horizon, which its env_config holds."""
    return replace(spec, env_config=replace(spec.env_config, horizon=horizon))


def line_positions(n: int) -> dict[int, tuple[int, int]]:
    return {i: (i, 0) for i in range(n)}


def grid_positions(n: int, width: int = 4) -> dict[int, tuple[int, int]]:
    return {i: (i % width, i // width) for i in range(n)}


def make_channel_spec(n_nodes: int, edges, *, channels: int = 3,
                      demand=5.0, horizon: int = 2000, seed: int = 0,
                      policy=None, qparams=None, positions=None,
                      disruption_penalty: float = 0.0) -> ScenarioSpec:
    """Channel-assignment scenario where a node is satisfied exactly when it
    has no co-channel interference edge.

    With eta=1, unit tx power, noise 1e-3 and unit bandwidth, a clean link
    carries ~9.97 Mbps while any single interferer (distance <= 10 cells)
    caps it below 3 Mbps, so demand 5.0 separates the two regimes.
    """
    positions = positions or line_positions(n_nodes)
    topo = MeshTopology(positions=positions, edges=set(edges),
                        channels=tuple(range(1, channels + 1)))
    profile = (demand if isinstance(demand, DemandProfile)
               else DemandProfile.constant(demand))
    users = [UserSpec(user=i, position=positions[i], demand=profile, node=i)
             for i in range(n_nodes)]
    env_config = EnvConfig(topology=topo, users=users, pathloss_exponent=1.0,
                           tx_power=1.0, noise_floor=1e-3, bandwidth_unit=1.0,
                           horizon=horizon)
    params = AgentParams(policy=policy or EpsilonGreedy(0.2),
                         qparams=qparams or QParams(alpha=0.4, gamma=0.3))
    return ScenarioSpec(kind="channel-assignment", env_config=env_config,
                        agent_params=params, seed=seed,
                        disruption_penalty=disruption_penalty)


def make_location_spec(*, horizon: int = 80, seed: int = 0, epsilon: float = 0.1,
                       cols: int = 1, rows: int = 1) -> ScenarioSpec:
    """One mobile node on a 4-cell strip chasing demand that alternates
    between a user at each end every 20 steps (period 40).

    Parked next to the high-demand user the node satisfies both users; one
    cell further it cannot, so every demand flip triggers exactly one
    relocation whose stored case scores 1.0. With `cols` x `rows` tiles,
    tile (c, r) is such a strip at x = 4c..4c+3, y = 2r, with node
    r * cols + c and users 2 * node (at the left end) and 2 * node + 1;
    tiles share no interference edge.
    """
    hi, lo = 3.0, 0.1
    profile_a = DemandProfile.periodic(40, [(0, hi), (20, lo)])
    profile_b = DemandProfile.periodic(40, [(0, lo), (20, hi)])
    positions, allowed, users = {}, {}, []
    for r in range(rows):
        for c in range(cols):
            node, x0, y = r * cols + c, 4 * c, 2 * r
            positions[node] = (x0 + 2, y)
            allowed[node] = frozenset((x0 + dx, y) for dx in range(4))
            users += [UserSpec(user=2 * node, position=(x0, y), demand=profile_a, node=node),
                      UserSpec(user=2 * node + 1, position=(x0 + 3, y), demand=profile_b,
                               node=node)]
    topo = MeshTopology(positions=positions, edges=set(), channels=(1,), allowed=allowed)
    env_config = EnvConfig(topology=topo, users=users, pathloss_exponent=2.0,
                           tx_power=1.0, noise_floor=1e-2, bandwidth_unit=1.0,
                           horizon=horizon)
    params = AgentParams(policy=EpsilonGreedy(epsilon),
                         qparams=QParams(alpha=0.3, gamma=0.5),
                         similarity_threshold=0.95,
                         coefficient_threshold=0.9)
    return ScenarioSpec(kind="location-optimization", env_config=env_config,
                        agent_params=params, seed=seed)


def make_lowload_window_spec(policy, *, horizon: int = 300,
                             seed: int = 0) -> ScenarioSpec:
    """Ten-node ring (plus two chords) where demand bursts above the
    disruption threshold for 8 steps out of every 30.

    bandwidth 0.3 keeps any conflicted link below the 0.6 Mbps low-phase
    demand, so conflicts stay unsatisfactory in every phase, while only
    high-phase switches count as disruptions.
    """
    n = 10
    edges = {(i, (i + 1) % n) for i in range(n)} | {(0, 5), (2, 7)}
    positions = grid_positions(n)
    topo = MeshTopology(positions=positions, edges=edges,
                        channels=(1, 2, 3))
    profile = DemandProfile.periodic(30, [(0, 2.5), (8, 0.6)])
    users = [UserSpec(user=i, position=positions[i], demand=profile, node=i)
             for i in range(n)]
    env_config = EnvConfig(topology=topo, users=users, pathloss_exponent=0.5,
                           tx_power=1.0, noise_floor=1e-3, bandwidth_unit=0.3,
                           horizon=horizon)
    params = AgentParams(policy=policy, qparams=QParams(alpha=0.4, gamma=0.3))
    return ScenarioSpec(kind="channel-assignment", env_config=env_config,
                        agent_params=params, seed=seed)


def _path(n):
    return {(i, i + 1) for i in range(n - 1)}


def _cycle(n):
    return {(i, (i + 1) % n) for i in range(n)}


def _star(n):
    return {(0, i) for i in range(1, n)}


def _grid(rows, cols):
    edges = set()
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.add((i, i + 1))
            if r + 1 < rows:
                edges.add((i, i + cols))
    return rows * cols, edges


def _wheel(rim):
    # hub is node 0, rim cycle on 1..rim
    edges = {(0, i) for i in range(1, rim + 1)}
    edges |= {(i, i % rim + 1) for i in range(1, rim + 1)}
    return rim + 1, edges


def _complete_bipartite(a, b):
    return a + b, {(i, a + j) for i in range(a) for j in range(b)}


def _prism():
    # two triangles joined by a matching
    return 6, {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
               (0, 3), (1, 4), (2, 5)}


def _cube():
    return 8, {(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
               (0, 4), (1, 5), (2, 6), (3, 7)}


def _bowtie():
    return 5, {(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)}


def coloring_test_graphs() -> dict[str, tuple[int, set]]:
    """Connected interference graphs with <= 8 nodes, all 3-colorable so a
    zero-conflict assignment exists with three channels."""
    graphs: dict[str, tuple[int, set]] = {}
    for n in range(3, 9):
        graphs[f"path{n}"] = (n, _path(n))
    for n in range(3, 9):
        graphs[f"cycle{n}"] = (n, _cycle(n))
    for n in (5, 6, 7, 8):
        graphs[f"star{n}"] = (n, _star(n))
    graphs["grid2x3"] = _grid(2, 3)
    graphs["grid2x4"] = _grid(2, 4)
    graphs["wheel_rim4"] = _wheel(4)
    graphs["wheel_rim6"] = _wheel(6)
    graphs["k23"] = _complete_bipartite(2, 3)
    graphs["k33"] = _complete_bipartite(3, 3)
    graphs["k24"] = _complete_bipartite(2, 4)
    graphs["prism"] = _prism()
    graphs["cube"] = _cube()
    graphs["bowtie"] = _bowtie()
    return graphs
