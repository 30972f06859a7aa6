"""Autonomous per-node control loop: sense, detect, reason, act, learn.

One agent owns one controllable node, its knowledge base, and its value
table. The agents of a run are sensed and detected together: a Population
gathers every agent's percept from the step's flat reading vector in one
pass and keeps the two-sample detector as two boolean arrays. The
reasoning cycle is event driven: it runs only for an agent whose node's
users were undersupplied in two successive samples. A triggered tick
retrieves the nearest stored case and decides, in its own frame, to reuse
its action, recompute it, retain the percept as a new case, or reject it;
while the controlled gate holds it (`_held`), it stays on its channel. It
keeps the action, the outcome and the case `observe` is to revise pending.

The agent keeps its own books and writes nothing to the population. A
tick returns its trace event, which holds its action, or None; it builds
no other object but its percept, a tuple of unit-range floats: the step,
the serving load and the controlled gate's verdict pass as plain values,
and its config holds what no tick changes. An agent holds no generator: a
triggered tick takes one uniform u of the run's stream, used or not, from
which a channel agent the gate does not hold picks an action index
(`select_action`) that its palette names, and a location agent, while
u < epsilon, the one-step cell of u's bucket. A switch is marked on its
trace event, as a disruption when its users demand more than
DISRUPTION_THRESHOLD. After the step, `observe` scores the action from the
same batched pass: it writes the tick's one case, revised or retained,
penalises a disruption and updates the value table.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .env import (Action, Environment, EnvState, MoveTo, SetChannel, ThroughputReport,
                  action_to_dict, satisfied)
from .kb import Case, KnowledgeBase
# encode_state is the scalar form of Population.states; perfbench times it here.
# q_update is not called here; perfbench still times it at this name.
from .learning import QParams, QTable, bucket, encode_state, learning_coefficient, q_update
from .optimize import (DISRUPTION_THRESHOLD, Controlled, EpsilonGreedy, location_search,
                       one_step_cells, select_action)
# normalize is the scalar form of Population.sense; perfbench times it here.
from .reasoning import (RECOMPUTE, RETAIN_NEW, REUSE, FeatureSpec, MissingFeature, Outcome,
                        classify, normalize)

CHANNEL_KIND = "channel-assignment"
LOCATION_KIND = "location-optimization"


class UnknownPendingAction(Exception):
    pass


@dataclass(kw_only=True)
class AgentParams:
    """The agent settings a scenario sets for all its agents."""

    policy: EpsilonGreedy = field(default_factory=EpsilonGreedy)
    qparams: QParams = field(default_factory=QParams)
    similarity_threshold: float = 0.8
    coefficient_threshold: float = 0.7
    kb_capacity: int = 256
    nodes: tuple[int, ...] | None = None  # controllable nodes; default all

    def __post_init__(self):
        KnowledgeBase(self.kb_capacity)  # its checks, at load
        problems = [f"{name} nan is not a number" for name in ("similarity_threshold",
                    "coefficient_threshold") if math.isnan(getattr(self, name))]
        if self.similarity_threshold <= 0:  # an empty KB's retrieval, scored 0, would match
            problems.append(f"similarity_threshold {self.similarity_threshold} must be > 0")
        if self.nodes is not None and len(set(self.nodes)) < len(self.nodes):
            twice = min(n for n in self.nodes if self.nodes.count(n) > 1)
            problems.append(f"nodes lists node {twice} more than once")
        if problems:
            raise ValueError(*problems)


@dataclass(kw_only=True)
class AgentConfig(AgentParams):
    """A scenario's agent settings plus one agent's kind, its feature spec (the
    whole percept layout: each feature's range and bins) and, for a channel
    agent, the channel palette in action-index order. Its `channel_index` and
    controlled `gate`, or None, are worked out once."""

    kind: str
    feature_spec: FeatureSpec
    channels: tuple[int, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in (CHANNEL_KIND, LOCATION_KIND):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.kind == CHANNEL_KIND and not self.channels:
            raise ValueError("a channel agent needs a channel palette")
        self.channel_index = {channel: a for a, channel in enumerate(self.channels)}
        self.gate = (self.policy if self.kind == CHANNEL_KIND
                     and isinstance(self.policy, Controlled) else None)


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
        return {"kind": "tick", "t": self.t, "node": self.node, "percept": list(self.percept),
                "detected": self.detected, "outcome": self.outcome,
                "action": action_to_dict(self.action) if self.action else None,
                "reward": self.reward, "coefficient": self.coefficient, "q_before": self.q_before,
                "q_after": self.q_after, "switched": self.switched, "disruption": self.disruption}

    def head(self, percept_text: str) -> str:
        """`json.dumps(self.to_record(), sort_keys=True)` up to its last key, `"t": `, with
        `percept_text`, the percept's JSON list items as `Population.lines` gives them."""
        action = self.action
        if action is None:
            action_text = "null"
        elif type(action) is SetChannel:
            action_text = (f'{{"channel": {action.channel}, "kind": "set_channel", '
                           f'"node": {action.node}}}')
        else:  # MoveTo
            x, y = action.cell
            action_text = f'{{"cell": [{x}, {y}], "kind": "move_to", "node": {action.node}}}'
        numbers = c, qa, qb, r = self.coefficient, self.q_after, self.q_before, self.reward
        if type(c) is type(qa) is type(qb) is type(r) is float:  # q_after is new, kept for q_before
            c, qa, qb, r = _json[c], _json.__missing__(qa), _json[qb], _json[r]
        else:
            c, qa, qb, r = map(_json, numbers)
        return (f'{{"action": {action_text}, "coefficient": {c}, '
                f'"detected": {"true" if self.detected else "false"}, '
                f'"disruption": {"true" if self.disruption else "false"}, '
                f'"kind": "tick", "node": {self.node}, "outcome": "{self.outcome}", '
                f'"percept": [{percept_text}], '
                f'"q_after": {qa}, "q_before": {qb}, "reward": {r}, '
                f'"switched": {"true" if self.switched else "false"}, "t": ')


class _JsonNumbers(dict):
    """`_json(x)` is a tick or percept number as json.dumps writes it. It keeps up to 1,024 float
    texts by value: no zero, whose sign no key tells, nor NaN; only floats look up (1 == 1.0)."""

    def __call__(self, x) -> str:
        return self[x] if type(x) is float else "null" if x is None else json.dumps(x)

    def __missing__(self, x: float) -> str:
        text = repr(x) if math.isfinite(x) else json.dumps(x)  # NaN, Infinity
        if x and x == x:
            if len(self) >= 1024:
                self.clear()
            self[x] = text
        return text


_json = _JsonNumbers()


# Stable direction indexing keeps MoveTo actions addressable in the value
# table regardless of the node's current cell.
_DIRECTIONS = [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
_DIRECTION_INDEX = {direction: a for a, direction in enumerate(_DIRECTIONS)}


class Agent:
    """Controller for a single node; step it with tick() then observe()."""

    def __init__(self, node: int, config: AgentConfig):
        self.node = node
        self.config = config
        self.kb = KnowledgeBase(capacity=config.kb_capacity)
        self.table = QTable(config.feature_spec.state_count, len(
            _DIRECTIONS if config.kind == LOCATION_KIND else config.channels))
        # (event, state index, action index, outcome, case) of the action awaiting feedback
        self._pending: tuple[TraceEvent, int, int, Outcome, Case | None] | None = None
        self._switch_times: list[int] = []  # switches inside a controlled policy's window
        self._set_channel: dict[int, SetChannel] = {}  # one per channel, made on first use

    # -- sensing -----------------------------------------------------------

    def sense(self, env: Environment, report: ThroughputReport) -> tuple[float, ...]:
        """This agent's percept of the report, sensed as a population of one."""
        population = Population([self], env)
        population.sense(report)
        return population.percept(0)

    # -- the control cycle ---------------------------------------------------

    def tick(self, env: Environment, state: EnvState, population: "Population",
             i: int, draws: Iterator[float]) -> TraceEvent | None:
        """Run one control step on row `i` of the population's pass: a triggered tick takes
        the next uniform of `draws` and returns its trace event, which holds its action; an
        idle one draws nothing and returns None. The caller marks it acted.

        The tick retrieves, classifies and picks its action: a REUSE takes its case's
        action, unless the gate holds the node and the case would switch it, and every
        other outcome the optimiser's, or the stay action while held. It keeps pending
        the action, the outcome and the case `observe` revises: a REUSE's whose action
        it took, or a RECOMPUTE's; None for the rest."""
        if not population.fired[i]:
            return None
        t, u, config, kb = state.t, next(draws), self.config, self.kb
        percept = population.percept(i)
        demanded = population.demanded[i]
        state_index = int(population.states[i])  # ValueError on NaN, as in encode_state
        hit = kb.retrieve(percept, t)
        if hit is None:
            score, coefficient, case = 0.0, 0.0, None
        else:
            case, score = hit
            coefficient = case.coefficient
        outcome = classify(score, coefficient, config.similarity_threshold,
                           config.coefficient_threshold, kb.is_full())
        held = config.gate is not None and self._held(t, demanded)
        if outcome is REUSE:
            action = case.action
            if held and action.channel != state.channel_of[self.node]:
                action, case = self._switch_to(state.channel_of[self.node]), None
        else:
            action = (self._switch_to(state.channel_of[self.node]) if held
                      else self._optimize(env, state, state_index, u))
            if outcome is not RECOMPUTE:
                case = None
        event = TraceEvent(t, self.node, percept, outcome._value_, action)
        if type(action) is SetChannel:
            action_index = config.channel_index[action.channel]
            if action.channel != state.channel_of[self.node]:
                event.switched = True
                event.disruption = demanded > DISRUPTION_THRESHOLD
        else:  # a MoveTo, indexed by its direction
            (x, y), (cx, cy) = action.cell, state.position_of[self.node]
            action_index = _DIRECTION_INDEX[x - cx, y - cy]
        event.q_before = self.table.entry(state_index, action_index)
        self._pending = (event, state_index, action_index, outcome, case)
        return event

    def _optimize(self, env: Environment, state: EnvState, state_index: int,
                  u: float) -> Action:
        policy = self.config.policy
        if self.config.kind == LOCATION_KIND:
            # The one-step throughput climb is the exploitation arm here; a
            # fresh value table has nothing to exploit for one-shot triggers.
            if u < policy.epsilon:
                cells = one_step_cells(env.topology, self.node, state.position_of[self.node])
                return MoveTo(self.node, cells[bucket(u / policy.epsilon, len(cells))])
            return location_search(env, state, self.node)
        a = select_action(self.table, state_index, policy, u)
        return self._switch_to(self.config.channels[a])

    def _switch_to(self, channel: int) -> SetChannel:
        """This agent's one SetChannel to `channel`."""
        if (action := self._set_channel.get(channel)) is None:
            action = self._set_channel[channel] = SetChannel(self.node, channel)
        return action

    def _held(self, t: int, demanded: float) -> bool:
        """Whether this agent's controlled gate, which it must have, blocks a
        switch at step `t` and serving load `demanded`."""
        gate, times = self.config.gate, self._switch_times  # times is empty unless gate.window
        while times and times[0] <= t - gate.window:
            del times[0]  # left the window for good: t only grows
        return gate.blocks(demanded, len(times))

    # -- feedback -------------------------------------------------------------

    def observe(self, population: "Population", i: int,
                disruption_penalty: float) -> None:
        """Score the pending action from row `i` of the population's pass
        after the step: write its case, charge `disruption_penalty` if the
        action disrupted service, and update the value table in place."""
        if self._pending is None:
            raise UnknownPendingAction(f"node {self.node} has no action awaiting feedback")
        event, state_index, action_index, outcome, case = self._pending
        self._pending = None
        achieved = population.achieved[i]
        coefficient = learning_coefficient(achieved, population.demanded[i])
        if case is not None:  # a reused action rewrites itself
            self.kb.revise(case, action=event.action, coefficient=coefficient)
        elif outcome is RETAIN_NEW:
            self.kb.retain(Case(event.percept, event.action, coefficient,
                                last_used=event.t, created=event.t))
        reward = achieved - (disruption_penalty if event.disruption else 0.0)
        event.q_after = self.table.update(self.config.qparams, state_index, action_index,
                                          reward, int(population.states[i]))
        event.reward = reward
        event.coefficient = coefficient
        if event.switched and (gate := self.config.gate) is not None and gate.window:
            self._switch_times.append(event.t)


class Population:
    """Agents sensed and detected together, in one batched pass per step.

    Each agent's feature spec is its whole percept layout: every feature
    indexes ThroughputReport.readings, and the ragged lists of all agents'
    features share one gather with per-agent offsets. A percept is
    clip((reading - lo) / (hi - lo), 0, 1) as in `normalize`. Its state
    index is `encode_state`'s sum as a float, each bin times the int product
    of the agent's later bin counts: NaN for a NaN percept, which `int`
    rejects. The detector is two boolean arrays: has a previous sample,
    and it was unsatisfied. After `sense`, `fired`, `achieved`, `demanded`
    and `states` hold one entry per agent, in lists the next `sense` replaces;
    the report object last sensed, which `apply_and_step` hands back while
    nothing changes, advances only the detector. The population is `settled`
    when no agent's latest sample is unsatisfied: no agent fires then, and
    sensing the same report again leaves every array as it is, so a run
    stands at a fixed point until another report comes. Only a traced run
    calls `lines`, the one writer of percept text, from the sensed values.
    """

    IDLE_HEAD = TraceEvent(t=0, node=0, percept=(), outcome="idle").head("%s").replace(
        '"node": 0', '"node": %d')

    def __init__(self, agents: list[Agent], env: Environment):
        self.agents = list(agents)
        index, lo, hi, bins, self._offsets = [], [], [], [], [0]
        for ag in self.agents:
            for name, f_lo, f_hi, f_bins in ag.config.feature_spec.features:
                try:
                    index.append(env.reading_index(ag.node, name))
                except KeyError:
                    raise MissingFeature(name) from None
                lo.append(f_lo)
                hi.append(f_hi)
                bins.append(f_bins)
            self._offsets.append(len(index))
        strides = [math.prod(bins[k + 1:b]) for a, b in zip(self._offsets, self._offsets[1:])
                   for k in range(a, b)]
        self._index = np.array(index, dtype=np.intp)
        self._lo = np.array(lo)
        self._span = np.array(hi) - self._lo
        self._bins, self._strides, self._starts = (
            np.array(a, dtype=np.intp) for a in (bins, strides, self._offsets[:-1]))
        self._achieved_at, self._demand_at = (
            np.array([env.reading_index(ag.node, name) for ag in self.agents], dtype=np.intp)
            for name in ("achieved", "demand"))
        self._has_prev, self._prev_unsatisfied = np.zeros((2, len(self.agents)), dtype=bool)
        self._heads, self._texts = [""] * len(self.agents), [""] * len(self.agents)
        self._report = None  # the last one sensed
        self._bits = self._lined = None  # the percept bits and percepts `lines` last read

    def sense(self, report) -> None:
        """Gather every percept, index its state and advance the detector by one sample."""
        if report is self._report:  # the same read-only readings: only the detector moves
            self.fired = (self._has_prev & self._prev_unsatisfied).tolist()
            self._has_prev[:] = True
            return
        readings = report.readings
        values = self._percepts = np.clip((readings[self._index] - self._lo) / self._span, 0, 1)
        cells = np.minimum(np.floor(values * self._bins), self._bins - 1)
        self.states = np.add.reduceat(cells * self._strides, self._starts).tolist()
        self._values = values.tolist()
        achieved = readings[self._achieved_at]
        demanded = readings[self._demand_at]
        unsatisfied = ~satisfied(achieved, demanded)
        self.fired = (self._has_prev & self._prev_unsatisfied & unsatisfied).tolist()
        self._has_prev[:] = True
        self._prev_unsatisfied = unsatisfied
        self.achieved = achieved.tolist()
        self.demanded = demanded.tolist()
        self._report = report

    @property
    def settled(self) -> bool:
        """Whether no agent's latest sample is unsatisfied, so that none fires."""
        return not self._prev_unsatisfied.any()

    def acted(self, agents: list[int]) -> None:
        """These agents emitted an action: each one's next trigger needs two fresh samples."""
        self._has_prev[agents] = False

    def lines(self) -> tuple[list[str], list[str]]:
        """Each agent's idle trace line up to `"t": ` and percept JSON items, in two lists it
        owns, rebuilt by `_json` for agents whose bits changed since the last call (-0.0 too)."""
        if self._percepts is self._lined:  # no fresh sense since the last call
            return self._heads, self._texts
        bits = self._percepts.view(np.uint64)  # the first call finds every agent changed
        changed = np.logical_or.reduceat(bits != self._bits, self._starts)
        values, offsets = self._values, self._offsets
        for i in np.flatnonzero(changed).tolist():
            self._texts[i] = text = ", ".join(
                map(_json.__getitem__, values[offsets[i]:offsets[i + 1]]))
            self._heads[i] = self.IDLE_HEAD % (self.agents[i].node, text)
        self._bits, self._lined = bits, self._percepts
        return self._heads, self._texts

    def percept(self, i: int) -> tuple[float, ...]:
        """Agent i's percept from the last `sense`."""
        return tuple(self._values[self._offsets[i]:self._offsets[i + 1]])
