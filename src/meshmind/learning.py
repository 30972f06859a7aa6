"""Tabular action-value learning and the case-scoring coefficient.

The table holds one estimated value per (state, action), with None marking
an unexplored entry, and stores rows only for the states it has visited.
Learning happens in place: `QTable.update` is the one temporal-difference
step, which writes exactly one entry and returns its new value; the agents,
`q_update` and the MDP oracle all learn through it. Dense arrays of the
whole table are built only on request, for tests and oracles. A percept's
state comes from uniform binning of each feature, with the bin counts its
agent's `reasoning.FeatureSpec` gives beside the feature ranges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reasoning import FeatureSpec


class IndexOutOfRange(Exception):
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

    Only visited states hold a row: a list with one value per action, None
    where the action is unexplored. `set` and `update` write one entry in
    place, creating the row on a state's first write. `row` hands out a
    state's values for reading, and `values` and `explored` build dense
    read-only arrays of the whole table on demand.
    """

    __slots__ = ("state_count", "action_count", "_rows")

    def __init__(self, state_count: int, action_count: int):
        if state_count < 1 or action_count < 1:
            raise ValueError("table needs at least one state and one action")
        self.state_count = state_count
        self.action_count = action_count
        self._rows: dict[int, list[float | None]] = {}

    def entry(self, state: int, action: int) -> float | None:
        """Value at (state, action), or None while unexplored."""
        self._check(state, action)
        row = self._rows.get(state)
        return None if row is None else row[action]

    def row(self, state: int) -> list[float | None] | tuple[None, ...]:
        """A state's values by action index, None where unexplored; an update may change it."""
        self._check(state, 0)
        row = self._rows.get(state)
        return (None,) * self.action_count if row is None else row

    def set(self, state: int, action: int, value: float) -> "QTable":
        """Write one entry (marking it explored); returns this table."""
        self._check(state, action)
        self._row_for(state)[action] = float(value)
        return self

    def update(self, params: QParams, state: int, action: int, reward: float,
               next_state: int) -> float:
        """One temporal-difference update of entry (state, action); returns its new value.

        An unexplored target entry initializes at 0 before the update. The max
        over the next state's row covers explored entries only, falling back to
        0 when the whole row is unexplored.
        """
        self._check(state, action)
        self._check(next_state, 0)
        next_row = self._rows.get(next_state, ())
        if None in next_row:
            next_row = [v for v in next_row if v is not None]
        best_next = max(next_row) if next_row else 0.0
        row = self._row_for(state)
        current = 0.0 if row[action] is None else row[action]
        row[action] = value = current + params.alpha * (reward + params.gamma * best_next - current)
        return value

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

    def _row_for(self, state: int) -> list[float | None]:
        row = self._rows.get(state)
        if row is None:
            row = self._rows[state] = [None] * self.action_count
        return row

    def _check(self, state: int, action: int):
        if not (0 <= state < self.state_count and 0 <= action < self.action_count):
            raise IndexOutOfRange(f"({state},{action}) outside "
                                  f"{self.state_count}x{self.action_count}")


def q_update(table: QTable, params: QParams, tr: Transition) -> QTable:
    """`table.update` for one transition, in place; returns the table."""
    table.update(params, tr.state, tr.action, tr.reward, tr.next_state)
    return table


def learning_coefficient(achieved: float, demanded: float) -> float:
    """Clamped achieved/demanded ratio in [0, 1]; zero demand counts as met."""
    if achieved < 0 or demanded < 0:
        raise NegativeInput(f"achieved={achieved} demanded={demanded}")
    if demanded == 0:
        return 1.0
    return min(achieved / demanded, 1.0)


def encode_state(percept: tuple[float, ...], spec: FeatureSpec) -> int:
    """Row-major combination of the spec's uniform per-feature bins; 1.0 lands in the last bin."""
    if len(percept) != len(spec.features):
        raise IndexOutOfRange(f"percept has {len(percept)} features, "
                              f"spec expects {len(spec.features)}")
    index = 0
    for value, bins in zip(percept, spec.bins):
        index = index * bins + bucket(value, bins)
    return index


def bucket(value: float, bins: int) -> int:
    """The bin of `value` in [0, 1] among `bins` equal ones; 1.0 lands in the last."""
    return min(int(value * bins), bins - 1)


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
