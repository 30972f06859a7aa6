"""Action search: exploitation, exploration policies, and domain heuristics.

Selection policies draw from a caller-supplied RNG so traces replay
exactly. The coloring heuristic and the exhaustive channel search act as
each other's sanity check; the location hill-climb scores one-step moves
through the environment's own throughput model.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .env import (Action, Cell, Environment, EnvState, MeshTopology, MoveTo,
                  SetChannel)
from .learning import QTable


class EmptyCandidates(Exception):
    pass


class TooLarge(Exception):
    pass


class NoAllowedCell(Exception):
    pass


# -- actions ----------------------------------------------------------------


def action_to_dict(action: Action) -> dict:
    if isinstance(action, SetChannel):
        return {"kind": "set_channel", "node": action.node, "channel": action.channel}
    if isinstance(action, MoveTo):
        return {"kind": "move_to", "node": action.node, "cell": list(action.cell)}
    raise TypeError(f"not an action: {action!r}")


def action_from_dict(data: dict) -> Action:
    if data["kind"] == "set_channel":
        return SetChannel(node=data["node"], channel=data["channel"])
    if data["kind"] == "move_to":
        return MoveTo(node=data["node"], cell=tuple(data["cell"]))
    raise ValueError(f"unknown action kind {data.get('kind')!r}")


# -- exploration policies -----------------------------------------------------


@dataclass(frozen=True)
class EpsilonGreedy:
    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon {self.epsilon} outside [0,1]")


@dataclass(frozen=True)
class Boltzmann:
    tau: float

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")


@dataclass(frozen=True)
class Controlled:
    """Greedy selection with exploration gated by service constraints.

    While the node serves aggregate demand above serving_threshold, channel
    switches are removed from the candidate set, so reconfiguration waits
    for a low-load window. max_switches per trailing window additionally
    caps how often the node may change channel, when set.
    """

    epsilon: float = 0.1
    no_switch_while_serving: bool = True
    serving_threshold: float = 1.0
    max_switches: int | None = None
    window: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon {self.epsilon} outside [0,1]")


ExplorationPolicy = EpsilonGreedy | Boltzmann | Controlled


@dataclass(frozen=True)
class ControlContext:
    """Live facts the controlled policy filters candidates against."""

    serving_load: float = 0.0
    current_channel: int | None = None
    recent_switches: int = 0


def boltzmann_probabilities(values, tau: float) -> np.ndarray:
    """Softmax of values/tau, computed with max subtraction for stability."""
    if tau <= 0:
        raise ValueError("tau must be > 0")
    v = np.asarray(values, dtype=float) / tau
    v -= v.max()
    expd = np.exp(v)
    return expd / expd.sum()


def _greedy_pick(table: QTable, state: int, candidates, index_of):
    """Highest-valued candidate among explored entries; unexplored rows
    fall back to the first candidate so callers stay deterministic."""
    best = None
    best_value = -math.inf
    for cand in candidates:
        entry = table.entry(state, index_of(cand))
        if entry is not None and entry > best_value:
            best, best_value = cand, entry
    return best if best is not None else candidates[0]


def select_action(table: QTable, state: int, policy: ExplorationPolicy,
                  candidates, rng: np.random.Generator, index_of=None,
                  context: ControlContext | None = None) -> Action:
    """Pick one candidate under the given policy.

    index_of maps a candidate to its action index in the table (identity by
    default, for plain integer action spaces). Unexplored entries count as
    value 0 for Boltzmann; the greedy arm falls back to a uniform random
    candidate when nothing in the state has been explored yet.
    """
    if not candidates:
        raise EmptyCandidates("no candidate actions")
    if index_of is None:
        index_of = lambda c: c
    candidates = list(candidates)

    if isinstance(policy, Boltzmann):
        values = [table.entry(state, index_of(c)) or 0.0 for c in candidates]
        probs = boltzmann_probabilities(values, policy.tau)
        return candidates[int(rng.choice(len(candidates), p=probs))]

    if isinstance(policy, Controlled):
        allowed = candidates
        if context is not None:
            blocked = ((policy.no_switch_while_serving
                        and context.serving_load > policy.serving_threshold)
                       or (policy.max_switches is not None
                           and context.recent_switches >= policy.max_switches))
            if blocked:
                allowed = [c for c in candidates
                           if not (isinstance(c, SetChannel)
                                   and c.channel != context.current_channel)]
                if not allowed:
                    allowed = candidates[:1]
        if rng.random() < policy.epsilon:
            return allowed[int(rng.integers(len(allowed)))]
        return _select_greedy_or_uniform(table, state, allowed, index_of, rng)

    # EpsilonGreedy
    if rng.random() < policy.epsilon:
        return candidates[int(rng.integers(len(candidates)))]
    return _select_greedy_or_uniform(table, state, candidates, index_of, rng)


def _select_greedy_or_uniform(table, state, candidates, index_of, rng):
    explored = [c for c in candidates if table.entry(state, index_of(c)) is not None]
    if not explored:
        return candidates[int(rng.integers(len(candidates)))]
    return _greedy_pick(table, state, explored, index_of)


# -- channel assignment heuristics -------------------------------------------


def greedy_coloring(topology: MeshTopology) -> dict[int, int]:
    """Welsh-Powell style assignment over the interference graph.

    Nodes are processed by descending degree (node id breaks ties); each
    takes the lowest channel unused among already-assigned neighbors. When
    every channel is taken, channels are reused in cyclic order.
    """
    order = sorted(topology.nodes, key=lambda n: (-topology.degree(n), n))
    channels = topology.channels
    assignment: dict[int, int] = {}
    spill = 0
    for node in order:
        taken = {assignment[nb] for nb in topology.neighbors(node) if nb in assignment}
        free = [ch for ch in channels if ch not in taken]
        if free:
            assignment[node] = free[0]
        else:
            assignment[node] = channels[spill % len(channels)]
            spill += 1
    return assignment


def count_conflicts(topology: MeshTopology, assignment: dict[int, int]) -> int:
    return sum(1 for a, b in topology.edges if assignment[a] == assignment[b])


MAX_BRUTE_FORCE = 2 ** 20


def brute_force_channels(topology: MeshTopology, objective=None):
    """Exhaustive search over all channel assignments; returns (best, value).

    Minimizes the objective (conflict count by default). Ties resolve to the
    lexicographically first assignment in node-sorted enumeration order.
    """
    nodes = topology.nodes
    n_assignments = len(topology.channels) ** len(nodes)
    if n_assignments > MAX_BRUTE_FORCE:
        raise TooLarge(f"{n_assignments} assignments exceed the enumeration guard")
    if objective is None:
        objective = lambda assign: count_conflicts(topology, assign)
    best = None
    best_value = math.inf
    for combo in itertools.product(topology.channels, repeat=len(nodes)):
        assignment = dict(zip(nodes, combo))
        value = objective(assignment)
        if value < best_value:
            best, best_value = assignment, value
    return best, best_value


# -- location search -----------------------------------------------------------


def one_step_cells(topology: MeshTopology, node: int, current: Cell) -> list[Cell]:
    """Current cell plus allowed cells within one grid step (8-neighborhood)."""
    allowed = topology.allowed.get(node)
    if not allowed:
        raise NoAllowedCell(f"node {node} has no allowed cells")
    cells = [c for c in allowed
             if abs(c[0] - current[0]) <= 1 and abs(c[1] - current[1]) <= 1]
    return sorted(cells)


def location_search(env: Environment, state: EnvState, node: int,
                    current: Cell | None = None) -> MoveTo:
    """Best one-step move by predicted served throughput; ties prefer staying."""
    if current is None:
        current = state.position_of[node]
    candidates = one_step_cells(env.topology, node, current)
    best = current if current in candidates else candidates[0]
    best_value = env.predict_node_throughput(state, node, best)
    for cell in candidates:
        if cell == best:
            continue
        value = env.predict_node_throughput(state, node, cell)
        if value > best_value:
            best, best_value = cell, value
    return MoveTo(node=node, cell=best)
