"""Autonomous per-node control loop: sense, detect, reason, act, learn.

One agent owns one controllable node, its knowledge base, and its value
table. The agents of a run are sensed and detected together: a Population
gathers every agent's percept from the step's flat reading vector in one
pass and keeps the two-sample detector as two boolean arrays. The
reasoning cycle is event driven: it runs only for an agent whose node's
users were undersupplied in two successive samples. A triggered cycle
retrieves the nearest stored case and either reuses its action,
recomputes it, retains the percept as a new case, or rejects it.

The agent keeps its own books, and a tick builds no object beyond its
percept, trace event and action. A channel agent decides from one read of
its value table's row, picking from its channel palette in action-index
order. A switch it emits is marked on its trace event, as a disruption
when its users demand more than DISRUPTION_THRESHOLD. After the step,
`observe` scores the action from the same batched pass: it revises the
case, penalises a disruption and updates the value table in place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .env import (Action, Environment, EnvState, MoveTo, SetChannel, ThroughputReport,
                  action_to_dict, satisfied)
from .kb import Case, KnowledgeBase
# encode_state is the scalar form of Population.states; perfbench times it here.
# q_update is not called here; perfbench still times it at this name.
from .learning import (IndexOutOfRange, QParams, QTable, StateCodec, encode_state,
                       learning_coefficient, q_update)
from .optimize import (DISRUPTION_THRESHOLD, ControlContext, Controlled,
                       EpsilonGreedy, ExplorationPolicy, location_search,
                       one_step_cells, select_action)
# normalize is the scalar form of Population.sense; perfbench times it here.
from .reasoning import (FeatureSpec, MissingFeature, Outcome, PerceptVector,
                        classify, normalize)

CHANNEL_KIND = "channel-assignment"
LOCATION_KIND = "location-optimization"


class NonConsecutiveSamples(Exception):
    pass


class UnknownPendingAction(Exception):
    pass


@dataclass(frozen=True)
class Sample:
    """One sensing snapshot: the percept plus the node's supply balance."""

    percept: PerceptVector
    achieved: float
    demanded: float
    t: int

    @property
    def satisfied(self) -> bool:
        return satisfied(self.achieved, self.demanded)


def detect_unsatisfactory(prev: Sample, curr: Sample) -> bool:
    """True when the node was undersupplied in both successive samples."""
    if curr.t != prev.t + 1 or prev.percept.node != curr.percept.node:
        raise NonConsecutiveSamples(f"samples at t={prev.t},{curr.t}")
    return not prev.satisfied and not curr.satisfied


@dataclass(kw_only=True)
class AgentParams:
    """The agent settings a scenario sets for all its agents."""

    policy: ExplorationPolicy = field(default_factory=EpsilonGreedy)
    qparams: QParams = field(default_factory=QParams)
    similarity_threshold: float = 0.8
    coefficient_threshold: float = 0.7
    kb_capacity: int = 256
    kb_eviction: str = "lru"
    nodes: tuple[int, ...] | None = None  # controllable nodes; default all

    def __post_init__(self):
        KnowledgeBase(self.kb_capacity, self.kb_eviction)  # its checks, at load


@dataclass(kw_only=True)
class AgentConfig(AgentParams):
    """A scenario's agent settings plus one agent's kind, feature spec and
    codec, and for a channel agent the channel palette, in action-index order."""

    kind: str
    feature_spec: FeatureSpec
    codec: StateCodec
    channels: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in (CHANNEL_KIND, LOCATION_KIND):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.kind == CHANNEL_KIND and not self.channels:
            raise ValueError("a channel agent needs a channel palette")


@dataclass(slots=True)
class TraceEvent:
    """The trace row of one triggered tick; reward fields fill in after feedback."""

    t: int
    node: int
    percept: tuple[float, ...]
    outcome: str
    action: Action | None = None
    reward: float | None = None
    coefficient: float | None = None
    q_before: float | None = None
    q_after: float | None = None
    switched: bool = False
    disruption: bool = False

    @property
    def detected(self) -> bool:
        """Whether the detector fired: every tick but an idle one."""
        return self.outcome != "idle"

    def to_record(self) -> dict:
        return {
            "kind": "tick",
            "t": self.t,
            "node": self.node,
            "percept": list(self.percept),
            "detected": self.detected,
            "outcome": self.outcome,
            "action": action_to_dict(self.action) if self.action else None,
            "reward": self.reward,
            "coefficient": self.coefficient,
            "q_before": self.q_before,
            "q_after": self.q_after,
            "switched": self.switched,
            "disruption": self.disruption,
        }


# Stable direction indexing keeps MoveTo actions addressable in the value
# table regardless of the node's current cell.
_DIRECTIONS = [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]


class Agent:
    """Controller for a single node; step it with tick() then observe()."""

    def __init__(self, node: int, config: AgentConfig, run_seed: int = 0):
        self.node = node
        self.config = config
        self.kb = KnowledgeBase(capacity=config.kb_capacity,
                                eviction=config.kb_eviction)
        self.table = QTable(config.codec.state_count, len(
            _DIRECTIONS if config.kind == LOCATION_KIND else config.channels))
        self.rng = np.random.default_rng([run_seed, 1, node])
        # (event, state index, action index, case) of the action awaiting feedback
        self._pending: tuple[TraceEvent, int, int, Case | None] | None = None
        self._switch_times: list[int] = []  # switches inside a controlled policy's window

    # -- sensing -----------------------------------------------------------

    def sense(self, env: Environment, state: EnvState,
              report: ThroughputReport) -> PerceptVector:
        """This agent's percept of the report, sensed as a population of one."""
        population = Population([self], env)
        population.sense(report)
        return population.percept(0, state.t)

    def _action_index(self, action: Action, state: EnvState) -> int:
        if self.config.kind == CHANNEL_KIND:
            return self.config.channels.index(action.channel)
        cx, cy = state.position_of[self.node]
        dx, dy = action.cell[0] - cx, action.cell[1] - cy
        return _DIRECTIONS.index((dx, dy))

    # -- the control cycle ---------------------------------------------------

    def tick(self, env: Environment, state: EnvState, population: "Population",
             i: int) -> tuple[Action | None, TraceEvent | None]:
        """Run one control step on row `i` of the population's pass; returns
        the chosen action (if any) plus the trace event of a triggered tick.
        An idle tick returns (None, None): its trace row, if one is kept, is
        written from the population's percepts. Emitting an action resets
        the two-sample detector, so a fresh pair of samples must confirm
        dissatisfaction before the next reasoning cycle."""
        if not population.fired[i]:
            return None, None
        t = state.t
        percept = population.percept(i, t)
        demanded = population.demanded[i]
        state_index = int(population.states[i])  # ValueError on NaN, as in encode_state
        action, outcome, case = self._reason(env, state, percept, demanded, state_index)
        event = TraceEvent(t=t, node=self.node, percept=percept.values,
                           outcome=outcome.value, action=action)
        if action is None:
            return None, event

        action_index = self._action_index(action, state)
        event.q_before = self.table.entry(state_index, action_index)
        if (isinstance(action, SetChannel)
                and action.channel != state.channel_of[self.node]):
            event.switched = True
            event.disruption = demanded > DISRUPTION_THRESHOLD
            if getattr(self.config.policy, "window", None):
                self._switch_times.append(t)
        self._pending = (event, state_index, action_index, case)
        population.acted(i)
        return action, event

    def _reason(self, env: Environment, state: EnvState, percept: PerceptVector,
                demanded: float, state_index: int):
        t = percept.t
        hit = self.kb.retrieve(percept, now=t)
        if hit is None:
            score, coefficient, case = 0.0, 0.0, None
        else:
            case, score = hit
            coefficient = case.coefficient
        outcome = classify(score, coefficient,
                           self.config.similarity_threshold,
                           self.config.coefficient_threshold,
                           self.kb.is_full())
        context = self._control_context(state, t, demanded)
        if outcome is Outcome.REUSE:
            if (context is not None and self.config.policy.blocks(context)
                    and case.action.channel != context.current_channel):
                return SetChannel(self.node, context.current_channel), outcome, None
            return case.action, outcome, case
        action = self._optimize(env, state, state_index, context)
        if outcome is Outcome.RECOMPUTE:
            self.kb.revise(case, action=action, now=t)
            return action, outcome, case
        if outcome is Outcome.RETAIN_NEW:
            new_case = Case(percept=percept, action=action, coefficient=0.0,
                            last_used=t, created=t)
            self.kb.retain(new_case)
            return action, outcome, new_case
        return action, outcome, None  # REJECT: act without writing to the KB

    def _optimize(self, env: Environment, state: EnvState, state_index: int,
                  context: ControlContext | None) -> Action:
        policy = self.config.policy
        if self.config.kind == LOCATION_KIND:
            # The one-step throughput climb is the exploitation arm here; a
            # fresh value table has nothing to exploit for one-shot triggers.
            if policy.epsilon and self.rng.random() < policy.epsilon:
                cells = one_step_cells(env.topology, self.node, state.position_of[self.node])
                return MoveTo(self.node, cells[int(self.rng.integers(len(cells)))])
            return location_search(env, state, self.node)
        channel = select_action(self.table, state_index, policy, self.config.channels,
                                self.rng, context=context)
        return SetChannel(self.node, channel)

    def _control_context(self, state: EnvState, t: int,
                         demanded: float) -> ControlContext | None:
        """A controlled channel agent's serving load, channel and switches in the window."""
        policy = self.config.policy
        if self.config.kind != CHANNEL_KIND or not isinstance(policy, Controlled):
            return None
        times = self._switch_times  # empty unless the policy has a window
        while times and times[0] <= t - policy.window:
            del times[0]  # left the window for good: t only grows
        return ControlContext(demanded, state.channel_of[self.node], len(times))

    # -- feedback -------------------------------------------------------------

    def observe(self, population: "Population", i: int,
                disruption_penalty: float) -> None:
        """Score the pending action from row `i` of the population's pass
        after the step: revise its case, charge `disruption_penalty` if the
        action disrupted service, and update the value table in place."""
        if self._pending is None:
            raise UnknownPendingAction(f"node {self.node} has no action awaiting feedback")
        event, state_index, action_index, case = self._pending
        self._pending = None
        achieved = population.achieved[i]
        coefficient = learning_coefficient(achieved, population.demanded[i])
        if case is not None:
            self.kb.revise(case, coefficient=coefficient, now=event.t)
        reward = achieved - (disruption_penalty if event.disruption else 0.0)
        event.q_after = self.table.update(self.config.qparams, state_index, action_index,
                                          reward, int(population.states[i]))
        event.reward = reward
        event.coefficient = coefficient


class Population:
    """Agents sensed and detected together, in one batched pass per step.

    Every agent feature indexes ThroughputReport.readings; the ragged lists
    share one gather with per-agent offsets, and a percept is
    clip((reading - lo) / (hi - lo), 0, 1) as in `normalize`. Its state
    index is `encode_state`'s sum as a float: NaN for a NaN percept, which
    `int` rejects. The detector is two boolean arrays: has a previous sample,
    and it was unsatisfied. After `sense`, `fired`, `achieved`, `demanded`
    and `states` hold one entry per agent. With `trace` on, `percepts` also
    holds every agent's percept values as a list, for the trace rows of idle
    ticks; equal bits (-0.0 is not 0.0) share one float, formatted once.
    """

    def __init__(self, agents: list[Agent], env: Environment, trace: bool = True):
        self.agents = list(agents)
        self.trace = trace
        index, lo, hi, bins, self._offsets = [], [], [], [], [0]
        for ag in self.agents:
            for name, f_lo, f_hi in ag.config.feature_spec.features:
                try:
                    index.append(env.reading_index(ag.node, name))
                except KeyError:
                    raise MissingFeature(name) from None
                lo.append(f_lo)
                hi.append(f_hi)
            bins += ag.config.codec.bins
            self._offsets.append(len(index))
            if len(bins) != len(index):  # both counts matched up to this agent
                raise IndexOutOfRange(f"node {ag.node}: codec bins do not match its features")
        self._ranges = list(zip(self._offsets, self._offsets[1:]))
        strides = [int(np.prod(bins[k + 1:b])) for a, b in self._ranges for k in range(a, b)]
        self._index = np.array(index, dtype=np.intp)
        self._lo = np.array(lo)
        self._span = np.array(hi) - self._lo
        self._bins, self._strides, self._starts = (
            np.array(a, dtype=np.intp) for a in (bins, strides, self._offsets[:-1]))
        self._achieved_at, self._demand_at = (
            np.array([env.reading_index(ag.node, name) for ag in self.agents], dtype=np.intp)
            for name in ("achieved", "demand"))
        self._has_prev, self._prev_unsatisfied = np.zeros((2, len(self.agents)), dtype=bool)

    def sense(self, report) -> None:
        """Gather every percept, index its state and advance the detector by one sample."""
        readings = report.readings
        values = np.clip((readings[self._index] - self._lo) / self._span, 0.0, 1.0)
        cells = np.minimum(np.floor(values * self._bins), self._bins - 1)
        self.states = np.add.reduceat(cells * self._strides, self._starts).tolist()
        if self.trace:  # trace rows keep every percept: equal bits share one float
            _, first, at = np.unique(values.view(np.uint64), return_index=True, return_inverse=True)
            self._distinct, self._at = values[first].tolist(), at.tolist()
            self._values = list(map(self._distinct.__getitem__, self._at))
            self.percepts = [self._values[a:b] for a, b in self._ranges]
        else:
            self._values = values.tolist()
        achieved = readings[self._achieved_at]
        demanded = readings[self._demand_at]
        unsatisfied = ~satisfied(achieved, demanded)
        self.fired = (self._has_prev & self._prev_unsatisfied & unsatisfied).tolist()
        self._has_prev[:] = True
        self._prev_unsatisfied = unsatisfied
        self.achieved = achieved.tolist()
        self.demanded = demanded.tolist()

    def percept_texts(self) -> list[str]:
        """Each agent's last traced percept as json.dumps writes a list's
        items; agents with the same value indices share one string."""
        reprs = list(map(json.dumps, self._distinct))
        keys = [tuple(self._at[a:b]) for a, b in self._ranges]
        text = {key: ", ".join(map(reprs.__getitem__, key)) for key in set(keys)}
        return list(map(text.__getitem__, keys))

    def acted(self, i: int) -> None:
        """Agent i emitted an action: its next trigger needs two fresh samples."""
        self._has_prev[i] = False

    def percept(self, i: int, t: int) -> PerceptVector:
        values = tuple(self._values[self._offsets[i]:self._offsets[i + 1]])
        return PerceptVector(values=values, t=t, node=self.agents[i].node)
