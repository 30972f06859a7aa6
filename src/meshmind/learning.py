"""Tabular action-value learning and the case-scoring coefficient.

The table stores one estimated value per (state, action) with explicit
unexplored markers. Updates are pure: q_update returns a new table with
exactly one entry changed. States come from uniform per-feature binning
of percept vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reasoning import PerceptVector


class IndexOutOfRange(Exception):
    pass


class NoExploredAction(Exception):
    pass


class NegativeInput(ValueError):
    pass


@dataclass(frozen=True)
class QParams:
    alpha: float = 0.3  # learning rate in (0, 1]
    gamma: float = 0.5  # discount in [0, 1)

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha {self.alpha} outside [0,1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma {self.gamma} outside [0,1)")


@dataclass(frozen=True)
class Transition:
    state: int
    action: int
    reward: float
    next_state: int


class QTable:
    """state_count x action_count value table; unexplored entries are marked."""

    __slots__ = ("values", "explored")

    def __init__(self, state_count: int, action_count: int,
                 values: np.ndarray | None = None,
                 explored: np.ndarray | None = None):
        if state_count < 1 or action_count < 1:
            raise ValueError("table needs at least one state and one action")
        self.values = (np.zeros((state_count, action_count))
                       if values is None else values)
        self.explored = (np.zeros((state_count, action_count), dtype=bool)
                         if explored is None else explored)

    @property
    def state_count(self) -> int:
        return self.values.shape[0]

    @property
    def action_count(self) -> int:
        return self.values.shape[1]

    def entry(self, state: int, action: int) -> float | None:
        """Value at (state, action), or None while unexplored."""
        self._check(state, action)
        return float(self.values[state, action]) if self.explored[state, action] else None

    def set(self, state: int, action: int, value: float) -> "QTable":
        """New table with one entry written (and marked explored)."""
        self._check(state, action)
        values = self.values.copy()
        explored = self.explored.copy()
        values[state, action] = value
        explored[state, action] = True
        return QTable(self.state_count, self.action_count, values, explored)

    def _check(self, state: int, action: int):
        if not (0 <= state < self.state_count and 0 <= action < self.action_count):
            raise IndexOutOfRange(f"({state},{action}) outside "
                                  f"{self.state_count}x{self.action_count}")


def q_update(table: QTable, params: QParams, tr: Transition) -> QTable:
    """One temporal-difference update; only entry (tr.state, tr.action) changes.

    An unexplored target entry initializes at 0 before the update. The max
    over the next state's row covers explored entries only, falling back to
    0 when the whole row is unexplored.
    """
    table._check(tr.state, tr.action)
    table._check(tr.next_state, 0)
    current = table.values[tr.state, tr.action] if table.explored[tr.state, tr.action] else 0.0
    row_explored = table.explored[tr.next_state]
    if row_explored.any():
        best_next = float(table.values[tr.next_state][row_explored].max())
    else:
        best_next = 0.0
    updated = current + params.alpha * (tr.reward + params.gamma * best_next - current)
    return table.set(tr.state, tr.action, updated)


def greedy(table: QTable, state: int) -> int:
    """Index of the best explored action in a state; ties go to the lowest index."""
    if not 0 <= state < table.state_count:
        raise IndexOutOfRange(f"state {state}")
    row_explored = table.explored[state]
    if not row_explored.any():
        raise NoExploredAction(f"state {state} has no explored action")
    row = np.where(row_explored, table.values[state], -np.inf)
    return int(np.argmax(row))


def learning_coefficient(achieved: float, demanded: float) -> float:
    """Clamped achieved/demanded ratio in [0, 1]; zero demand counts as met."""
    if achieved < 0 or demanded < 0:
        raise NegativeInput(f"achieved={achieved} demanded={demanded}")
    if demanded == 0:
        return 1.0
    return min(achieved / demanded, 1.0)


@dataclass(frozen=True)
class StateCodec:
    """Per-feature bin counts mapping a percept to a discrete state index."""

    bins: tuple[int, ...]

    def __post_init__(self):
        if not self.bins or any(b < 1 for b in self.bins):
            raise ValueError("every feature needs at least one bin")

    @property
    def state_count(self) -> int:
        n = 1
        for b in self.bins:
            n *= b
        return n


def encode_state(percept: PerceptVector, codec: StateCodec) -> int:
    """Row-major combination of uniform per-feature bins; 1.0 lands in the last bin."""
    if len(percept.values) != len(codec.bins):
        raise IndexOutOfRange(f"percept has {len(percept.values)} features, "
                              f"codec expects {len(codec.bins)}")
    index = 0
    for value, bins in zip(percept.values, codec.bins):
        b = min(int(value * bins), bins - 1)
        index = index * bins + b
    return index


def format_q_table(table: QTable) -> str:
    """Rectangular text dump: one row per state, '-' for unexplored entries."""
    header = ["state"] + [f"a_{j + 1}" for j in range(table.action_count)]
    lines = ["\t".join(header)]
    for s in range(table.state_count):
        row = [f"s_{s + 1}"]
        for a in range(table.action_count):
            row.append("-" if not table.explored[s, a] else f"{table.values[s, a]:g}")
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
