"""Deterministic discrete-time wireless mesh simulator.

Models a small mesh of radio nodes on an integer grid. Nodes transmit on
one channel each; users attach to a node and receive a share of its link
capacity. Interference is counted only between nodes that share both an
interference-graph edge and a channel. Everything is deterministic given
the config and its seed, so runs can be replayed bit for bit.

Each step's ThroughputReport holds one flat `readings` vector of every
node's and user's measurements, so all agents sense with one gather. Node
membership is fixed at construction; demand is resolved up front into one
row per distinct demand vector plus the row in force at each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

Cell = tuple[int, int]

DEMAND_EPS = 1e-9  # slack when comparing achieved against demanded

# Per-node blocks of ThroughputReport.readings, in this order and each in
# node order; every user's demand follows, in config order.
NODE_READINGS = ("conflicts", "demand", "achieved", "x", "y")


def satisfied(achieved, demanded):
    """Achieved meets demanded up to DEMAND_EPS; elementwise on arrays."""
    return achieved + DEMAND_EPS >= demanded


class InvalidAction(Exception):
    """An action failed validation; nothing was applied."""

    def __init__(self, node: int, reason: str):
        self.node = node
        self.reason = reason
        super().__init__(f"node {node}: {reason}")


class UnknownUser(Exception):
    pass


@dataclass
class MeshTopology:
    """Static mesh layout: node positions, interference edges, channel palette.

    positions maps node id to its starting grid cell. edges are undirected
    interference pairs (no self loops). allowed maps node id to the set of
    cells it may occupy; nodes absent from it are fixed at their start cell.
    """

    positions: dict[int, Cell]
    edges: set[tuple[int, int]]
    channels: tuple[int, ...]
    allowed: dict[int, frozenset[Cell]] = field(default_factory=dict)

    def __post_init__(self):
        self.channels = tuple(sorted(set(self.channels)))
        if not self.channels:
            raise ValueError("at least one channel required")
        norm = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop on node {a}")
            if a not in self.positions or b not in self.positions:
                raise ValueError(f"edge ({a},{b}) references unknown node")
            norm.add((min(a, b), max(a, b)))
        self.edges = norm
        full_allowed = {}
        for nid, pos in self.positions.items():
            cells = frozenset(self.allowed.get(nid, ())) | {pos}
            full_allowed[nid] = cells
        self.allowed = full_allowed
        self._neighbors: dict[int, tuple[int, ...]] = {n: () for n in self.positions}
        for a, b in self.edges:
            self._neighbors[a] = self._neighbors[a] + (b,)
            self._neighbors[b] = self._neighbors[b] + (a,)

    @property
    def nodes(self) -> list[int]:
        return sorted(self.positions)

    def neighbors(self, node: int) -> tuple[int, ...]:
        return self._neighbors[node]

    def degree(self, node: int) -> int:
        return len(self._neighbors[node])

    def max_degree(self) -> int:
        return max((len(v) for v in self._neighbors.values()), default=0)


@dataclass(frozen=True)
class DemandProfile:
    """Piecewise-constant demand levels, or seeded random levels per epoch.

    steps is a sorted ((start_t, level), ...) sequence; the level holds from
    its start until the next entry. In random mode, one level is drawn per
    epoch of epoch_len steps from the given choices using the run RNG.
    """

    steps: tuple[tuple[int, float], ...] = ((0, 0.0),)
    random_epoch_len: int = 0
    random_levels: tuple[float, ...] = ()

    @classmethod
    def constant(cls, level: float) -> "DemandProfile":
        return cls(steps=((0, float(level)),))

    @classmethod
    def piecewise(cls, pairs) -> "DemandProfile":
        steps = tuple(sorted((int(t), float(v)) for t, v in pairs))
        if not steps or steps[0][0] != 0:
            raise ValueError("profile must start at t=0")
        return cls(steps=steps)

    @classmethod
    def periodic(cls, period: int, segments, horizon: int) -> "DemandProfile":
        """Repeat segments ((offset, level), ...) every `period` steps."""
        pairs = []
        t = 0
        while t <= horizon:
            for off, level in sorted(segments):
                if t + off <= horizon:
                    pairs.append((t + off, level))
            t += period
        return cls.piecewise(pairs)

    @classmethod
    def random_epochs(cls, epoch_len: int, levels) -> "DemandProfile":
        if epoch_len < 1 or not levels:
            raise ValueError("random profile needs epoch_len >= 1 and levels")
        return cls(random_epoch_len=int(epoch_len),
                   random_levels=tuple(float(v) for v in levels))

    def resolve(self, horizon: int, rng: np.random.Generator) -> list[float]:
        """Materialize the per-step level sequence for t = 0..horizon."""
        out = []
        if self.random_epoch_len:
            n_epochs = horizon // self.random_epoch_len + 1
            draws = [float(self.random_levels[rng.integers(len(self.random_levels))])
                     for _ in range(n_epochs)]
            for t in range(horizon + 1):
                out.append(draws[t // self.random_epoch_len])
            return out
        level = self.steps[0][1]
        idx = 0
        for t in range(horizon + 1):
            while idx + 1 < len(self.steps) and self.steps[idx + 1][0] <= t:
                idx += 1
                level = self.steps[idx][1]
            out.append(level)
        return out


@dataclass(frozen=True)
class UserSpec:
    user: int
    position: Cell
    demand: DemandProfile
    node: int | None = None  # explicit attachment; default nearest node


@dataclass
class EnvConfig:
    topology: MeshTopology
    users: list[UserSpec]
    pathloss_exponent: float = 2.0
    tx_power: float = 1.0
    noise_floor: float = 1e-3
    bandwidth_unit: float = 1.0
    rng_seed: int = 0
    horizon: int = 100
    initial_channels: dict[int, int] | None = None

    def __post_init__(self):
        if self.pathloss_exponent <= 0:
            raise ValueError("pathloss_exponent must be > 0")
        if self.noise_floor <= 0:
            raise ValueError("noise_floor must be > 0")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        seen = set()
        for u in self.users:
            if u.user in seen:
                raise ValueError(f"duplicate user id {u.user}")
            seen.add(u.user)


@dataclass(frozen=True)
class EnvState:
    """Ground-truth simulator state at one step; treat as immutable."""

    t: int
    channel_of: dict[int, int]
    position_of: dict[int, Cell]
    demand: dict[int, float]


@dataclass(frozen=True)
class ThroughputReport:
    achieved: dict[int, float]  # user -> Mbps
    conflicts: int              # co-channel interference edges
    readings: np.ndarray        # flat per-node and per-user measurements


@dataclass(frozen=True)
class EnvView:
    """Read-only bundle handed to agents: simulator plus current snapshot."""

    env: "Environment"
    state: EnvState
    report: ThroughputReport


def capacity(ratio: float, bandwidth_unit: float = 1.0, sharing: int = 1) -> float:
    """Link capacity in Mbps for a signal-to-interference ratio.

    bandwidth_unit * log2(1 + ratio), split equally among `sharing` users.
    """
    if ratio < 0:
        raise ValueError(f"ratio must be >= 0, got {ratio}")
    if sharing < 1:
        raise ValueError("sharing must be >= 1")
    return bandwidth_unit * math.log2(1.0 + ratio) / sharing


def _distance(a: Cell, b: Cell) -> float:
    # clamped to one cell to avoid the singularity at zero range
    return max(1.0, math.hypot(a[0] - b[0], a[1] - b[1]))


class Environment:
    """Steps EnvState values forward and scores them into throughput reports.

    Users attach to their configured node, else the nearest one, for good.
    """

    def __init__(self, config: EnvConfig):
        self.config = config
        self.topology = config.topology
        self.nodes = config.topology.nodes
        self._node_index = {nid: i for i, nid in enumerate(self.nodes)}
        self._user_index = {u.user: k for k, u in enumerate(config.users)}
        self._user_pos = {u.user: u.position for u in config.users}
        positions = config.topology.positions
        self._association = {}
        for u in config.users:
            self._association[u.user] = u.node if u.node is not None else min(
                positions, key=lambda n: (_distance(u.position, positions[n]), n))
        self._members: dict[int, list[int]] = {nid: [] for nid in self.nodes}
        for uid in sorted(self._association):
            self._members[self._association[uid]].append(uid)
        edges = sorted(config.topology.edges)
        self._edge_a = np.array([self._node_index[a] for a, _ in edges], dtype=np.intp)
        self._edge_b = np.array([self._node_index[b] for _, b in edges], dtype=np.intp)

        rng = np.random.default_rng([config.rng_seed, 0])
        schedules = [u.demand.resolve(config.horizon, rng) for u in config.users]
        levels_at = zip(*schedules) if schedules else [()] * (config.horizon + 1)
        rows: dict[tuple[float, ...], int] = {}
        self._row_at = [rows.setdefault(levels, len(rows)) for levels in levels_at]
        self._demand_rows = [dict(zip(self._user_index, levels)) for levels in rows]

    # -- construction ----------------------------------------------------

    def reset(self) -> EnvState:
        topo = self.topology
        channels = dict(self.config.initial_channels or {})
        for nid in topo.nodes:
            channels.setdefault(nid, topo.channels[0])
            if channels[nid] not in topo.channels:
                raise ValueError(f"initial channel of node {nid} not in palette")
        return EnvState(t=0, channel_of=channels, position_of=dict(topo.positions),
                        demand=self._demand_rows[self._row_at[0]])

    def _demand_row(self, t: int) -> int:
        return self._row_at[min(t, len(self._row_at) - 1)]

    # -- stepping ----------------------------------------------------------

    def apply_and_step(self, state: EnvState, actions,
                       report: ThroughputReport | None = None
                       ) -> tuple[EnvState, ThroughputReport]:
        """Validate and apply a batch of actions, advancing time by one step.

        All actions are checked before any is applied; an InvalidAction
        leaves the state untouched. The report reflects the post-action
        configuration at t+1. Pass the report of `state` to have it reused
        when the step changes no channel or position and the demand row in
        force stays the same.
        """
        topo = self.topology
        touched = set()
        for action in actions:
            node = action.node
            if node not in topo.positions:
                raise InvalidAction(node, "unknown node")
            if node in touched:
                raise InvalidAction(node, "multiple actions in one step")
            touched.add(node)
            kind = type(action).__name__
            if kind == "SetChannel":
                if action.channel not in topo.channels:
                    raise InvalidAction(node, f"channel {action.channel} not in palette")
            elif kind == "MoveTo":
                if tuple(action.cell) not in topo.allowed[node]:
                    raise InvalidAction(node, f"cell {action.cell} not allowed")
            else:
                raise InvalidAction(node, f"unsupported action {kind}")

        channels, positions = state.channel_of, state.position_of
        if actions:
            channels, positions = dict(channels), dict(positions)
            for action in actions:
                if type(action).__name__ == "SetChannel":
                    channels[action.node] = action.channel
                else:
                    positions[action.node] = tuple(action.cell)

        row = self._demand_row(state.t + 1)
        new_state = EnvState(t=state.t + 1, channel_of=channels, position_of=positions,
                             demand=self._demand_rows[row])
        if (report is None or row != self._demand_row(state.t) or actions and (
                channels != state.channel_of or positions != state.position_of)):
            report = self.report_for(new_state)
        return new_state, report

    def evolve_demand(self, state: EnvState) -> EnvState:
        """Return the state with demands set to their scheduled level at state.t."""
        return replace(state, demand=self._demand_rows[self._demand_row(state.t)])

    # -- measurement -------------------------------------------------------

    def link_quality(self, state: EnvState, user: int,
                     cell: Cell | None = None) -> float:
        """Signal-to-interference ratio for one user, dimensionless.

        Received power follows tx * d^-eta from the serving node, placed at
        `cell` when given; interference sums the same law over co-channel
        nodes adjacent (in the interference graph) to the serving node.
        Distances are clamped to one cell.
        """
        if user not in self._association:
            raise UnknownUser(f"user {user}")
        cfg = self.config
        serving = self._association[user]
        upos = self._user_pos[user]
        eta = cfg.pathloss_exponent
        if cell is None:
            cell = state.position_of[serving]
        received = cfg.tx_power * _distance(cell, upos) ** -eta
        ch = state.channel_of[serving]
        interference = 0.0
        for other in self.topology.neighbors(serving):
            if state.channel_of[other] == ch:
                interference += cfg.tx_power * _distance(state.position_of[other], upos) ** -eta
        return received / (cfg.noise_floor + interference)

    def report_for(self, state: EnvState) -> ThroughputReport:
        cfg = self.config
        members, index = self._members, self._node_index
        achieved = {}
        load = [0.0] * len(self.nodes)
        for uid, nid in self._association.items():
            ratio = self.link_quality(state, uid)
            share = capacity(ratio, cfg.bandwidth_unit, len(members[nid]))
            got = min(share, state.demand[uid])
            achieved[uid] = got
            load[index[nid]] += got
        channel = np.array([state.channel_of[nid] for nid in self.nodes])
        same = channel[self._edge_a] == channel[self._edge_b]
        node_conflicts = (np.bincount(self._edge_a[same], minlength=len(self.nodes))
                          + np.bincount(self._edge_b[same], minlength=len(self.nodes)))
        readings = np.concatenate((
            node_conflicts,
            [self.node_demand(state, nid) for nid in self.nodes],
            load,
            *zip(*(state.position_of[nid] for nid in self.nodes)),  # x, then y
            [state.demand[uid] for uid in self._user_index],
        ))
        return ThroughputReport(achieved=achieved, conflicts=int(same.sum()),
                                readings=readings)

    def reading_index(self, node: int, name: str) -> int:
        """Index in ThroughputReport.readings of a node's reading `name`: one
        of NODE_READINGS or `demand_u<id>` for its user; else KeyError."""
        n = len(self.nodes)
        if name in NODE_READINGS:
            return NODE_READINGS.index(name) * n + self._node_index[node]
        for uid in self._members[node]:
            if name == f"demand_u{uid}":
                return len(NODE_READINGS) * n + self._user_index[uid]
        raise KeyError(name)

    def predict_node_throughput(self, state: EnvState, node: int, cell: Cell) -> float:
        """Summed achieved throughput of the node's users were it at `cell`."""
        users = self._members[node]
        total = 0.0
        for uid in users:
            ratio = self.link_quality(state, uid, cell)
            total += min(capacity(ratio, self.config.bandwidth_unit, len(users)),
                         state.demand[uid])
        return total

    # -- per-node queries ---------------------------------------------------

    def users_of(self, node: int) -> list[int]:
        """The node's users in ascending id order."""
        return self._members[node]

    def node_demand(self, state: EnvState, node: int) -> float:
        demand = state.demand
        return sum(demand[uid] for uid in self._members[node])

    def node_achieved(self, report: ThroughputReport, node: int) -> float:
        return float(report.readings[self.reading_index(node, "achieved")])

    def local_conflicts(self, state: EnvState, node: int) -> int:
        ch = state.channel_of[node]
        return sum(1 for other in self.topology.neighbors(node)
                   if state.channel_of[other] == ch)

    def node_satisfied(self, state: EnvState, report: ThroughputReport, node: int) -> bool:
        return satisfied(self.node_achieved(report, node), self.node_demand(state, node))
