"""Capacity-bounded case store: retrieve, reuse, revise, retain.

Each case pairs a percept, a tuple of unit-range floats, with the action
taken for it and a coefficient in [0, 1] scoring how well that action
worked. Retrieval is an exact argmax over similarity (linear scan; stores
are small), retention at capacity evicts the least recently used case, and
exact-duplicate percepts merge into one slot. A `meshmind-kb/2` snapshot row
holds a case's percept, action, coefficient, hits, last_used and created
step; `meshmind-kb/1` rows, which also hold `t` and `node`, still load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .env import action_from_dict, action_to_dict
from .reasoning import similarity

SNAPSHOT_SCHEMA = "meshmind-kb/2"


class UnknownCase(Exception):
    pass


class InvalidCoefficient(ValueError):
    pass


@dataclass(slots=True)
class Case:
    percept: tuple[float, ...]
    action: object
    coefficient: float
    hits: int = 0
    last_used: int = 0
    created: int = 0

    def __post_init__(self):
        if not 0.0 <= self.coefficient <= 1.0:
            raise InvalidCoefficient(f"coefficient {self.coefficient} outside [0,1]")


_ROW_KEYS = ("percept", "action", "coefficient", "hits", "last_used", "created")


def _case_from_row(row: dict, first: Case | None) -> Case:
    """The case a snapshot row holds, its percept as long as `first`'s; a
    ValueError names what the row gets wrong."""
    missing = [key for key in _ROW_KEYS if key not in row]
    if missing:
        raise ValueError(f"missing {', '.join(missing)}")
    percept, coefficient = row["percept"], row["coefficient"]
    counters = {key: row[key] for key in ("hits", "last_used", "created")}
    if type(percept) is not list or not all(type(v) in (int, float) for v in percept):
        raise ValueError(f"percept {percept!r} is not a list of numbers")
    if not all(0.0 <= v <= 1.0 for v in percept):  # NaN fails too
        raise ValueError(f"percept {percept} has a value outside [0, 1]")
    if first is not None and len(percept) != len(first.percept):
        raise ValueError(f"{len(percept)} percept values, case 0 has {len(first.percept)}")
    if not all(type(v) is int for v in counters.values()):
        raise ValueError(f"counters {counters} must be integers")
    if min(counters.values()) < 0:
        raise ValueError(f"negative counter in {counters}")
    if type(coefficient) not in (int, float):
        raise ValueError(f"coefficient {coefficient!r} is not a number")
    if type(row["action"]) is not dict:
        raise ValueError(f"action {row['action']!r} is not a mapping")
    return Case(percept=tuple(percept), action=action_from_dict(row["action"]),
                coefficient=coefficient, **counters)


class KnowledgeBase:
    """Ordered, capacity-bounded collection of cases owned by one agent."""

    eviction = "lru"  # the one eviction, named in snapshots

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.cases: list[Case] = []

    def __len__(self) -> int:
        return len(self.cases)

    def is_full(self) -> bool:
        return len(self.cases) >= self.capacity

    def retrieve(self, query: tuple[float, ...], now: int):
        """Best-matching case and its similarity, or None when empty.

        Ties break toward the most recently used case, then insertion order.
        Bumps the hit count of the returned case and sets its last_used to `now`.
        """
        best: Case | None = None
        best_score = -1.0
        for case in self.cases:
            score = similarity(case.percept, query)
            if score > best_score or (score == best_score
                                      and best is not None
                                      and case.last_used > best.last_used):
                best, best_score = case, score
        if best is None:
            return None
        best.hits += 1
        best.last_used = now
        return best, best_score

    def retain(self, case: Case) -> "KnowledgeBase":
        """Insert a case, replacing an exact-percept duplicate or evicting."""
        for i, existing in enumerate(self.cases):
            if existing.percept == case.percept:
                self.cases[i] = case
                return self
        if len(self.cases) >= self.capacity:
            self.cases.remove(min(self.cases, key=lambda c: c.last_used))
        self.cases.append(case)
        return self

    def revise(self, case: Case, action=None, coefficient: float | None = None,
               now: int | None = None) -> "KnowledgeBase":
        """Replace a stored case's action and/or coefficient in place; not an equal copy's."""
        if id(case) not in map(id, self.cases):  # identity, not equality
            raise UnknownCase("case is not stored in this knowledge base")
        if coefficient is not None:
            if not 0.0 <= coefficient <= 1.0:
                raise InvalidCoefficient(f"coefficient {coefficient} outside [0,1]")
            case.coefficient = coefficient
        if action is not None:
            case.action = action
        if now is not None:
            case.last_used = now
        return self

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "schema": SNAPSHOT_SCHEMA,
            "capacity": self.capacity,
            "eviction": self.eviction,
            "cases": [
                {
                    "percept": list(c.percept),
                    "action": action_to_dict(c.action),
                    "coefficient": c.coefficient,
                    "hits": c.hits,
                    "last_used": c.last_used,
                    "created": c.created,
                }
                for c in self.cases
            ],
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "KnowledgeBase":
        if data.get("schema") not in ("meshmind-kb/1", SNAPSHOT_SCHEMA):
            raise ValueError(f"unsupported snapshot schema {data.get('schema')!r}")
        if data["eviction"] != cls.eviction:
            raise ValueError(f"unknown eviction policy {data['eviction']!r}")
        kb = cls(capacity=data["capacity"])
        for i, row in enumerate(data["cases"]):
            try:
                kb.cases.append(_case_from_row(row, kb.cases[0] if kb.cases else None))
            except ValueError as exc:  # InvalidCoefficient and unknown action kinds too
                raise ValueError(f"snapshot case {i}: {exc}") from None
        if len(kb) > kb.capacity:  # retain would never bring it back under
            raise ValueError(f"snapshot holds {len(kb)} cases, above its capacity {kb.capacity}")
        if len({case.percept for case in kb.cases}) < len(kb):
            raise ValueError("snapshot holds two cases of the same percept")
        return kb

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh, indent=2)

    @classmethod
    def load(cls, path) -> "KnowledgeBase":
        with open(path) as fh:
            return cls.from_snapshot(json.load(fh))
