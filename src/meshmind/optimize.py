"""Action search: exploitation, exploration policies, and domain heuristics.

Selection picks an action index from one caller-supplied uniform, its only
randomness, so traces replay exactly: each action's explore bucket is
epsilon/n wide. The coloring heuristic and the exhaustive channel search
act as each other's sanity check; the location hill-climb scores one-step
moves through the environment's own throughput model.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .env import Cell, Environment, EnvState, MeshTopology, MoveTo
from .learning import QTable, bucket

# A channel switch counts as a service disruption when the node's users
# demand more than this many Mbps at the moment of the switch. It doubles
# as the controlled policy's default serving threshold.
DISRUPTION_THRESHOLD = 1.0


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
class Controlled(EpsilonGreedy):
    """Epsilon-greedy selection gated by service constraints.

    While the node serves aggregate demand above serving_threshold (never,
    at +inf), `blocks` says so, and the agent's triggered tick stays on its
    channel without consulting the optimizer or a reused case, so
    reconfiguration waits for a low-load window. max_switches per trailing
    `window` steps (both set, or neither) also caps its channel changes.
    """

    serving_threshold: float = DISRUPTION_THRESHOLD
    max_switches: int | None = None
    window: int | None = None

    def __post_init__(self):
        super().__post_init__()
        if math.isnan(self.serving_threshold):
            raise ValueError("serving_threshold nan is not a number")
        if self.max_switches is not None and self.max_switches < 0:
            raise ValueError(f"max_switches {self.max_switches} must be >= 0")
        if self.window is not None and self.window < 1:
            raise ValueError(f"window {self.window} must be >= 1")
        if (self.max_switches is None) != (self.window is None):
            raise ValueError("max_switches and window must be set together")

    def blocks(self, serving_load: float, recent_switches: int) -> bool:
        """Whether the gate holds a node serving `serving_load` on its channel
        after `recent_switches` switches inside the window."""
        return (serving_load > self.serving_threshold
                or (self.max_switches is not None and recent_switches >= self.max_switches))


def select_action(table: QTable, state: int, policy: EpsilonGreedy, u: float) -> int:
    """Pick an action index epsilon-greedily from the uniform `u`, reading the state's row once:
    `bucket(u / epsilon)` while u < epsilon, else the first highest-valued explored one,
    or if none is, `bucket((u - epsilon) / (1 - epsilon))`.
    """
    row = table.row(state)
    epsilon = policy.epsilon
    if u < epsilon:
        return bucket(u / epsilon, len(row))
    best = None  # the first highest-valued explored action
    for a, value in enumerate(row):
        if value is not None and (best is None or value > row[best]):
            best = a
    return bucket((u - epsilon) / (1 - epsilon), len(row)) if best is None else best


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


def brute_force_channels(topology: MeshTopology):
    """Exhaustive search over all channel assignments; returns (best, value).

    Minimizes the conflict count. Ties resolve to the lexicographically
    first assignment in node-sorted enumeration order.
    """
    nodes = topology.nodes
    n_assignments = len(topology.channels) ** len(nodes)
    if n_assignments > MAX_BRUTE_FORCE:
        raise TooLarge(f"{n_assignments} assignments exceed the enumeration guard")
    best = None
    best_value = math.inf
    for combo in itertools.product(topology.channels, repeat=len(nodes)):
        assignment = dict(zip(nodes, combo))
        value = count_conflicts(topology, assignment)
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
    """Best one-step move by predicted served throughput, every candidate cell
    scored in one call; ties prefer staying, then the first cell in sorted order."""
    current = state.position_of[node]
    cells = one_step_cells(env.topology, node, current)
    values = env.predict_node_throughput(state, node, cells)
    best = max(range(len(cells)), key=lambda i: (values[i], cells[i] == current))
    return MoveTo(node=node, cell=cells[best])
