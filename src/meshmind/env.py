"""Deterministic discrete-time wireless mesh simulator.

Models a small mesh of radio nodes on an integer grid. Nodes transmit on
one channel each; users attach to a node and receive a share of its link
capacity. Interference is counted only between nodes that share both an
interference-graph edge and a channel. A node changes its channel through
a SetChannel action and its cell through a MoveTo action. Everything is
deterministic given the config and the seed the Environment takes, so
runs can be replayed bit for bit.

The radio model is one array pass over the mesh as it stands, using
per-user and per-node vectors fixed at construction (serving node, share
count, position, and one (user, neighbour) pair per interference term);
reports, `link_quality` and `predict_node_throughput` all take their SINR
from it; its geometry, every node's x and y and every pair's and link's
gain, is computed once per placement. No node neighbours itself, so a
node's cell never moves its users' floor of noise plus interference, and
one pass scores the node at any number of cells. Demand is piecewise
constant, possibly periodic, and is resolved only at its change points up
to the config's horizon, the run's one step count, into one dict per
distinct level vector; equal deterministic profiles are resolved once for
all their users, and a random one once per user, in user order;
`next_change` names the next step at which another row comes into force.
Each ThroughputReport holds one flat `readings` vector of every node's and
user's measurements, a user's achieved Mbps in its node's sum, so all
agents sense with one gather, and its demand and achieved totals.
A step copies a state's channel or position dict only when an action
changes a value in it, and hands back the same report when it copied
neither and the demand row stayed the same, so an idle step costs no
radio pass.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

Cell = tuple[int, int]

DEMAND_EPS = 1e-9  # slack when comparing achieved against demanded

# Per-node blocks of ThroughputReport.readings, in this order and each in
# node order; every user's demand follows, in config order.
NODE_READINGS = ("conflicts", "demand", "achieved", "x", "y")


def satisfied(achieved, demanded):
    """Achieved meets demanded up to DEMAND_EPS; elementwise on arrays."""
    return achieved + DEMAND_EPS >= demanded


@dataclass(frozen=True, slots=True)
class SetChannel:
    node: int
    channel: int


@dataclass(frozen=True, slots=True)
class MoveTo:
    node: int
    cell: Cell


Action = SetChannel | MoveTo


def action_to_dict(action: Action) -> dict:
    if isinstance(action, SetChannel):
        return {"kind": "set_channel", "node": action.node, "channel": action.channel}
    if isinstance(action, MoveTo):
        return {"kind": "move_to", "node": action.node, "cell": list(action.cell)}
    raise TypeError(f"not an action: {action!r}")


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

    steps is a sorted ((start_t, level), ...) sequence, one level per start,
    each holding until the next start; with a period they are offsets in
    [0, period), and the level at t is the one at t % period. In random
    mode, one level is drawn per epoch of epoch_len steps from the given
    choices using the run RNG. A profile reaches to the horizon that
    `change_points` and `resolve` are given, the Environment's.
    """

    steps: tuple[tuple[int, float], ...] = ((0, 0.0),)
    random_epoch_len: int = 0
    random_levels: tuple[float, ...] = ()
    period: int = 0  # 0: the steps do not repeat

    def __post_init__(self):  # + 0.0: a -0.0 level is the 0.0 it equals, so equal profiles match
        object.__setattr__(self, "steps", tuple((t, v + 0.0) for t, v in self.steps))
        object.__setattr__(self, "random_levels", tuple(v + 0.0 for v in self.random_levels))
        for level in (*(v for _, v in self.steps), *self.random_levels):
            if not 0.0 <= level < math.inf:
                raise ValueError(f"demand level {level} must be finite and >= 0")

    @classmethod
    def constant(cls, level: float) -> "DemandProfile":
        return cls(steps=((0, float(level)),))

    @classmethod
    def piecewise(cls, steps) -> "DemandProfile":
        steps = tuple(sorted((int(t), float(v)) for t, v in steps))
        if not steps or steps[0][0] != 0:
            raise ValueError("profile must start at t=0")
        if twice := [t for (t, _), (u, _) in zip(steps, steps[1:]) if t == u]:
            raise ValueError(f"step {twice[0]} has more than one level")
        return cls(steps=steps)

    @classmethod
    def periodic(cls, period: int, segments) -> "DemandProfile":
        """Repeat segments ((offset, level), ...), offsets in [0, period), every period steps."""
        if period < 1:
            raise ValueError(f"period {period} must be >= 1")
        if outside := [off for off, _ in segments if not 0 <= off < period]:
            raise ValueError(f"segment offset {outside[0]} is outside [0, {period})")
        return cls(steps=cls.piecewise(segments).steps, period=int(period))

    @classmethod
    def random_epochs(cls, epoch: int, levels) -> "DemandProfile":
        if epoch < 1 or not levels:
            raise ValueError("random profile needs epoch >= 1 and levels")
        return cls(random_epoch_len=int(epoch),
                   random_levels=tuple(float(v) for v in levels))

    @property
    def peak(self) -> float:
        """The highest level the profile can take, also one past a run's horizon."""
        return max((*(v for _, v in self.steps), *self.random_levels), default=0.0)

    def change_points(self, horizon: int):
        """The steps in 0..horizon at which the level may change."""
        if self.random_epoch_len:
            return range(0, horizon + 1, self.random_epoch_len)
        starts = [t for t, _ in self.steps]
        if self.period:
            return [t + s for t in range(0, horizon + 1, self.period)
                    for s in starts if t + s <= horizon]
        return [t for t in starts if t <= horizon]

    def resolve(self, horizon: int, points: list[int],
                rng: np.random.Generator) -> list[float]:
        """The levels in force at the ascending steps `points`, which start at
        0. A random profile draws one level per epoch up to the horizon."""
        if self.random_epoch_len:
            levels = self.random_levels
            draws = [levels[k] for k in rng.integers(
                len(levels), size=horizon // self.random_epoch_len + 1).tolist()]
            return [draws[t // self.random_epoch_len] for t in points]
        starts, period = [t for t, _ in self.steps], self.period
        return [self.steps[bisect_right(starts, t % period if period else t) - 1][1]
                for t in points]


@dataclass(frozen=True)
class UserSpec:
    user: int
    position: Cell
    demand: DemandProfile
    node: int | None = None  # explicit attachment; default nearest node


@dataclass
class EnvConfig:
    """A run's mesh, users, radio constants and horizon, the run's one step
    count; the run's seed goes to the Environment."""
    topology: MeshTopology
    users: list[UserSpec]
    pathloss_exponent: float = 2.0
    tx_power: float = 1.0
    noise_floor: float = 1e-3
    bandwidth_unit: float = 1.0
    horizon: int = 100
    initial_channels: dict[int, int] | None = None

    def __post_init__(self):
        for name in ("pathloss_exponent", "tx_power", "noise_floor", "bandwidth_unit"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be > 0 and finite")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        topo = self.topology
        seen = set()
        for u in self.users:
            if u.user in seen:
                raise ValueError(f"duplicate user id {u.user}")
            seen.add(u.user)
            if u.node is not None and u.node not in topo.positions:
                raise ValueError(f"user {u.user} attached to unknown node {u.node}")
        for nid, channel in (self.initial_channels or {}).items():
            if nid not in topo.positions:
                raise ValueError(f"initial channel of unknown node {nid}")
            if channel not in topo.channels:
                raise ValueError(f"initial channel {channel} of node {nid} not in palette")

    def serving_nodes(self) -> list[int]:
        """Each user's node, in config order: the configured one, else the
        nearest (ties to the lower id), with distances clamped to one cell."""
        positions = self.topology.positions
        return [u.node if u.node is not None else min(positions, key=lambda n: (
            max(1, (u.position[0] - positions[n][0]) ** 2
                + (u.position[1] - positions[n][1]) ** 2), n)) for u in self.users]


@dataclass(frozen=True)
class EnvState:
    """Ground-truth simulator state at one step. Successive states share the
    dicts a step did not change, so treat every dict as read-only."""

    t: int
    channel_of: dict[int, int]
    position_of: dict[int, Cell]
    demand: dict[int, float]


@dataclass(frozen=True)
class ThroughputReport:
    """One state's measurements, per node and user; its totals are summed once, in user order."""

    conflicts: int              # co-channel interference edges
    readings: np.ndarray        # flat per-node and per-user measurements
    total_demand: float         # Mbps
    total_achieved: float       # Mbps


def capacity(ratio, bandwidth_unit: float = 1.0, sharing=1):
    """Link capacity in Mbps for a signal-to-interference ratio, elementwise
    on arrays.

    bandwidth_unit * log2(1 + ratio), split equally among `sharing` users.
    """
    if np.less(ratio, 0).any():
        raise ValueError(f"ratio must be >= 0, got {ratio}")
    if np.less(sharing, 1).any():
        raise ValueError("sharing must be >= 1")
    return bandwidth_unit * np.log2(1.0 + ratio) / sharing


class Environment:
    """Steps EnvState values forward and scores them into throughput reports.

    Users attach to their configured node, else the nearest, for good. Per-user
    arrays are in config order, per-node ones in `nodes` order. `seed` seeds the
    random demand draws; `demand_peak` is the highest level any profile takes.
    """

    def __init__(self, config: EnvConfig, seed: int = 0):
        self.config = config
        self.topology = topo = config.topology
        self.nodes = topo.nodes
        self._node_index = index = {nid: i for i, nid in enumerate(self.nodes)}
        self._user_index = {u.user: k for k, u in enumerate(config.users)}
        serving = config.serving_nodes()
        self._members: dict[int, list[int]] = {nid: [] for nid in self.nodes}
        for uid, nid in sorted(zip(self._user_index, serving)):
            self._members[nid].append(uid)
        self._serving = np.array([index[nid] for nid in serving], dtype=np.intp)
        # node demand adds each node's users in ascending id, as node_demand does
        self._by_id = np.array([self._user_index[u] for u in sorted(self._user_index)],
                               dtype=np.intp)
        self._sharing = np.bincount(self._serving, minlength=len(self.nodes))[self._serving]
        self._user_x, self._user_y = np.array(
            [u.position for u in config.users], dtype=float).reshape(-1, 2).T
        self._pairs = np.array([(k, index[n]) for k, nid in enumerate(serving)
                                for n in topo.neighbors(nid)], dtype=np.intp).reshape(-1, 2).T
        edges = sorted(topo.edges)
        self._edge_a = np.array([index[a] for a, _ in edges], dtype=np.intp)
        self._edge_b = np.array([index[b] for _, b in edges], dtype=np.intp)
        self._placed = None  # the positions of the geometry `_radio` keeps

        # Demand rows: the level vector at every change point, deduplicated.
        rng = np.random.default_rng([seed, 0])
        profiles = [u.demand for u in config.users]
        distinct = dict.fromkeys(profiles)
        self.demand_peak = max((p.peak for p in distinct), default=0.0)
        points = sorted(
            {0, *chain.from_iterable(p.change_points(config.horizon) for p in distinct)})
        shared = {p: p.resolve(config.horizon, points, rng)
                  for p in distinct if not p.random_epoch_len}
        levels = [shared.get(p) or p.resolve(config.horizon, points, rng) for p in profiles]
        rows: dict[tuple[float, ...], int] = {}
        self._change_points, self._row_at = [], []  # the points where another row comes in
        for point, levels_at in zip(points, zip(*levels) if levels else [()] * len(points)):
            row = rows.setdefault(levels_at, len(rows))
            if not self._row_at or row != self._row_at[-1]:
                self._change_points.append(point)
                self._row_at.append(row)
        self._demand_rows = [dict(zip(self._user_index, r)) for r in rows]

    # -- construction ----------------------------------------------------

    def reset(self) -> EnvState:
        topo = self.topology
        channels = dict.fromkeys(topo.nodes, topo.channels[0])
        channels.update(self.config.initial_channels or {})
        return EnvState(t=0, channel_of=channels, position_of=dict(topo.positions),
                        demand=self._demand_rows[self._row_at[0]])

    def _demand_row(self, t: int) -> int:
        return self._row_at[bisect_right(self._change_points, t) - 1]

    def next_change(self, t: int) -> int:
        """The first step after t at which another demand row comes into force, or
        the step after the horizon if none does: each step before it has t's dict."""
        points = self._change_points
        k = bisect_right(points, t)
        return points[k] if k < len(points) else max(t, self.config.horizon) + 1

    # -- stepping ----------------------------------------------------------

    def apply_and_step(self, state: EnvState, actions,
                       report: ThroughputReport | None = None
                       ) -> tuple[EnvState, ThroughputReport]:
        """Validate and apply a batch of actions, advancing time by one step.

        An InvalidAction leaves the state untouched: its dicts are never
        written. The new state copies `channel_of` or `position_of` only when
        an action first changes a value in it, and shares every other dict
        with `state`. The report reflects the post-action configuration at
        t+1. Pass the report of `state` to have that same object back when no
        dict was copied and the demand row in force is the same dict:
        `Population.sense` relies on that to advance only its detector.
        """
        topo = self.topology
        channels, positions = state.channel_of, state.position_of
        touched = set()
        for action in actions:
            node = action.node
            if node not in topo.positions:
                raise InvalidAction(node, "unknown node")
            if node in touched:
                raise InvalidAction(node, "multiple actions in one step")
            touched.add(node)
            if isinstance(action, SetChannel):
                if action.channel not in topo.channels:
                    raise InvalidAction(node, f"channel {action.channel} not in palette")
                if channels[node] != action.channel:
                    if channels is state.channel_of:
                        channels = dict(channels)
                    channels[node] = action.channel
            elif isinstance(action, MoveTo):
                if (cell := tuple(action.cell)) not in topo.allowed[node]:
                    raise InvalidAction(node, f"cell {action.cell} not allowed")
                if positions[node] != cell:
                    if positions is state.position_of:
                        positions = dict(positions)
                    positions[node] = cell
            else:
                raise InvalidAction(node, f"unsupported action {type(action).__name__}")

        demand = self._demand_rows[self._demand_row(state.t + 1)]
        new_state = EnvState(t=state.t + 1, channel_of=channels, position_of=positions,
                             demand=demand)
        if (report is None or demand is not state.demand or channels is not state.channel_of
                or positions is not state.position_of):
            report = self.report_for(new_state)
        return new_state, report

    # -- measurement -------------------------------------------------------

    def _gain(self, dx, dy):
        """tx * d^-eta, with d clamped to one cell. sqrt of the squared
        distance and float_power round as math.hypot and ** do."""
        d = np.maximum(1.0, np.sqrt(dx * dx + dy * dy))
        return self.config.tx_power * np.float_power(d, -self.config.pathloss_exponent)

    def _radio(self, state: EnvState):
        """Every node's channel, x and y, and every user's SINR and floor: tx *
        d^-eta from its serving node over the floor, noise plus the same law
        summed over the node's co-channel neighbours. The geometry, x, y and the
        gains, is kept read-only for a copy of the positions last scored."""
        nodes, serving, ux, uy = self.nodes, self._serving, self._user_x, self._user_y
        if state.position_of != self._placed:  # by value: a caller may edit its dict
            xy = np.fromiter(chain.from_iterable(map(state.position_of.__getitem__, nodes)),
                             dtype=float, count=2 * len(nodes))
            x, y, (at, other) = xy[0::2], xy[1::2], self._pairs
            self._placed, self._geometry = dict(state.position_of), (x, y, self._gain(
                x[other] - ux[at], y[other] - uy[at]), self._gain(x[serving] - ux, y[serving] - uy))
            for array in self._geometry:
                array.flags.writeable = False
        x, y, pair_gain, signal = self._geometry
        channel = np.fromiter(map(state.channel_of.__getitem__, nodes),
                              dtype=np.int64, count=len(nodes))
        at, other = self._pairs
        co = channel[other] == channel[serving[at]]
        floor = self.config.noise_floor + np.bincount(
            at[co], weights=pair_gain[co], minlength=len(serving))
        return channel, x, y, signal / floor, floor

    def link_quality(self, state: EnvState, user: int) -> float:
        """Signal-to-interference ratio for one user, dimensionless (see `_radio`)."""
        if user not in self._user_index:
            raise UnknownUser(f"user {user}")
        return float(self._radio(state)[3][self._user_index[user]])

    def report_for(self, state: EnvState) -> ThroughputReport:
        channel, x, y, ratio, _ = self._radio(state)
        levels = np.fromiter(map(state.demand.__getitem__, self._user_index),
                             dtype=float, count=len(self._user_index))
        got = np.minimum(capacity(ratio, self.config.bandwidth_unit, self._sharing), levels)
        n, by_id = len(self.nodes), self._by_id
        same = channel[self._edge_a] == channel[self._edge_b]
        readings = np.concatenate((
            np.bincount(self._edge_a[same], minlength=n)
            + np.bincount(self._edge_b[same], minlength=n),
            np.bincount(self._serving[by_id], weights=levels[by_id], minlength=n),
            np.bincount(self._serving, weights=got, minlength=n),
            x, y, levels))
        readings.flags.writeable = False  # a reused report holds the readings it was sensed with
        return ThroughputReport(conflicts=int(same.sum()), readings=readings,
                                total_demand=sum(state.demand.values()),
                                total_achieved=sum(got.tolist()))

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

    def predict_node_throughput(self, state: EnvState, node: int, cells) -> list[float]:
        """Summed achieved throughput of the node's users were it at each of
        `cells`, from one `_radio` pass: only their received signal moves."""
        members = self._members[node]
        users = [self._user_index[u] for u in members]
        floor, ux, uy = self._radio(state)[4][users], self._user_x[users], self._user_y[users]
        sharing, demand = self._sharing[users], [state.demand[u] for u in members]
        xy = np.array(cells, dtype=float).reshape(-1, 2)
        cx, cy = xy[:, :1], xy[:, 1:]
        served = np.minimum(capacity(self._gain(cx - ux, cy - uy) / floor,
                                     self.config.bandwidth_unit, sharing), demand)
        return [sum(row, 0.0) for row in served.tolist()]  # one (cells x users) pass

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
