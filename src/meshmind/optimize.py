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

from .env import Cell, Environment, EnvState, MeshTopology, MoveTo
from .learning import IndexOutOfRange, QTable

# A channel switch counts as a service disruption when the node's users
# demand more than this many Mbps at the moment of the switch. It doubles
# as the controlled policy's default serving threshold.
DISRUPTION_THRESHOLD = 1.0


class EmptyCandidates(Exception):
    pass


class TooLarge(Exception):
    pass


class NoAllowedCell(Exception):
    pass


# -- exploration policies -----------------------------------------------------


@dataclass(frozen=True)
class EpsilonGreedy:
    epsilon: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon {self.epsilon} outside [0,1]")


@dataclass(frozen=True)
class Boltzmann:
    tau: float = 0.5

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")


@dataclass(frozen=True)
class Controlled(EpsilonGreedy):
    """Epsilon-greedy selection over candidates gated by service constraints.

    While the node serves aggregate demand above serving_threshold, `blocks`
    holds it on its channel, for the optimizer and a reused case alike, so
    reconfiguration waits for a low-load window. max_switches per trailing
    `window` steps (both set, or neither) also caps its channel changes.
    """

    no_switch_while_serving: bool = True
    serving_threshold: float = DISRUPTION_THRESHOLD
    max_switches: int | None = None
    window: int | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.max_switches is not None and self.max_switches < 0:
            raise ValueError(f"max_switches {self.max_switches} must be >= 0")
        if self.window is not None and self.window < 1:
            raise ValueError(f"window {self.window} must be >= 1")
        if (self.max_switches is None) != (self.window is None):
            raise ValueError("max_switches and window must be set together")

    def blocks(self, context: ControlContext) -> bool:
        """Whether the gate holds the node on its channel in this context."""
        return ((self.no_switch_while_serving and context.serving_load > self.serving_threshold)
                or (self.max_switches is not None and context.recent_switches >= self.max_switches))


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


def select_action(table: QTable, state: int, policy: ExplorationPolicy,
                  candidates, rng: np.random.Generator,
                  context: ControlContext | None = None):
    """Pick one candidate under the given policy, reading the state's row once.

    The candidates are the table's actions in index order: action indices,
    or a channel agent's palette. Boltzmann counts unexplored entries as 0.
    A controlled policy whose context blocks a switch keeps only the current
    channel (else the first candidate). Then the pick is uniform with
    probability epsilon, else the highest-valued explored candidate, or
    uniform when none is explored.
    """
    if not candidates:
        raise EmptyCandidates("no candidate actions")
    row = table.row(state)
    if len(candidates) != len(row):
        raise IndexOutOfRange(f"{len(candidates)} candidates for {len(row)} actions")

    if isinstance(policy, Boltzmann):
        probs = boltzmann_probabilities([v or 0.0 for v in row], policy.tau)
        return candidates[int(rng.choice(len(candidates), p=probs))]

    actions = range(len(candidates))
    if isinstance(policy, Controlled) and context is not None and policy.blocks(context):
        actions = [a for a in actions if candidates[a] == context.current_channel] or [0]

    best = None  # unless exploring, the first highest-valued explored action
    if rng.random() >= policy.epsilon:
        for a in actions:
            if row[a] is not None and (best is None or row[a] > row[best]):
                best = a
    if best is None:
        best = actions[int(rng.integers(len(actions)))]
    return candidates[best]


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


def location_search(env: Environment, state: EnvState, node: int) -> MoveTo:
    """Best one-step move by predicted served throughput; ties prefer staying."""
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
