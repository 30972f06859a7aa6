"""Tabular action-value learning and the case-scoring coefficient.

The table holds one estimated value per (state, action), with None marking
an unexplored entry, and stores rows only for the states it has visited.
Updates are pure: q_update returns a new table with exactly one entry
changed, which shares every other row with the table it came from. Dense
arrays of the whole table are built only on request, for tests and
oracles. States come from uniform per-feature binning of percept vectors.
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
    """state_count x action_count value table; unexplored entries are marked.

    Only visited states hold a row: a tuple with one value per action, None
    where the action is unexplored. A table is never changed in place:
    `set` returns a new table that shares every row but the one it writes,
    so each update copies one row. `values` and `explored` build dense
    read-only arrays of the whole table on demand.
    """

    __slots__ = ("state_count", "action_count", "_rows")

    def __init__(self, state_count: int, action_count: int,
                 rows: dict[int, tuple[float | None, ...]] | None = None):
        if state_count < 1 or action_count < 1:
            raise ValueError("table needs at least one state and one action")
        self.state_count = state_count
        self.action_count = action_count
        self._rows = {} if rows is None else rows

    def entry(self, state: int, action: int) -> float | None:
        """Value at (state, action), or None while unexplored."""
        self._check(state, action)
        row = self._rows.get(state)
        return None if row is None else row[action]

    def set(self, state: int, action: int, value: float) -> "QTable":
        """New table with one entry written (and marked explored)."""
        self._check(state, action)
        row = self._rows.get(state) or (None,) * self.action_count
        rows = dict(self._rows)
        rows[state] = row[:action] + (float(value),) + row[action + 1:]
        return QTable(self.state_count, self.action_count, rows)

    @property
    def values(self) -> np.ndarray:
        """Dense read-only copy of every value, 0 where unexplored."""
        dense = np.zeros((self.state_count, self.action_count))
        for state, row in self._rows.items():
            dense[state] = [0.0 if v is None else v for v in row]
        dense.flags.writeable = False
        return dense

    @property
    def explored(self) -> np.ndarray:
        """Dense read-only mask of the explored entries."""
        dense = np.zeros((self.state_count, self.action_count), dtype=bool)
        for state, row in self._rows.items():
            dense[state] = [v is not None for v in row]
        dense.flags.writeable = False
        return dense

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
    row = table._rows.get(tr.state)
    current = 0.0 if row is None or row[tr.action] is None else row[tr.action]
    next_values = [v for v in table._rows.get(tr.next_state) or () if v is not None]
    best_next = max(next_values) if next_values else 0.0
    updated = current + params.alpha * (tr.reward + params.gamma * best_next - current)
    return table.set(tr.state, tr.action, updated)


def greedy(table: QTable, state: int) -> int:
    """Index of the best explored action in a state; ties go to the lowest index."""
    if not 0 <= state < table.state_count:
        raise IndexOutOfRange(f"state {state}")
    explored = [(v, a) for a, v in enumerate(table._rows.get(state) or ()) if v is not None]
    if not explored:
        raise NoExploredAction(f"state {state} has no explored action")
    return max(explored, key=lambda pair: pair[0])[1]  # first of equal values


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
    unvisited = "\t".join("-" * table.action_count)
    for s in range(table.state_count):
        row = table._rows.get(s)
        cells = unvisited if row is None else "\t".join(
            "-" if v is None else f"{v:g}" for v in row)
        lines.append(f"s_{s + 1}\t{cells}")
    return "\n".join(lines) + "\n"
