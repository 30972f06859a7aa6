"""Capacity-bounded case store: retrieve, reuse, revise, retain.

Each case pairs a percept with the action taken for it and a coefficient
in [0, 1] scoring how well that action worked. Retrieval is an exact
argmax over similarity (linear scan; stores are small), retention evicts
per policy at capacity, and exact-duplicate percepts merge into one slot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .env import action_from_dict, action_to_dict
from .reasoning import PerceptVector, similarity

SNAPSHOT_SCHEMA = "meshmind-kb/1"


class UnknownCase(Exception):
    pass


class InvalidCoefficient(ValueError):
    pass


@dataclass(slots=True)
class Case:
    percept: PerceptVector
    action: object
    coefficient: float
    hits: int = 0
    last_used: int = 0
    created: int = 0

    def __post_init__(self):
        if not 0.0 <= self.coefficient <= 1.0:
            raise InvalidCoefficient(f"coefficient {self.coefficient} outside [0,1]")


class KnowledgeBase:
    """Ordered, capacity-bounded collection of cases owned by one agent."""

    EVICTION_POLICIES = ("lru", "lowest-coefficient")

    def __init__(self, capacity: int, eviction: str = EVICTION_POLICIES[0]):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if eviction not in self.EVICTION_POLICIES:
            raise ValueError(f"unknown eviction policy {eviction!r}")
        self.capacity = capacity
        self.eviction = eviction
        self.cases: list[Case] = []

    def __len__(self) -> int:
        return len(self.cases)

    def is_full(self) -> bool:
        return len(self.cases) >= self.capacity

    def retrieve(self, query: PerceptVector, now: int | None = None):
        """Best-matching case and its similarity, or None when empty.

        Ties break toward the most recently used case, then insertion order.
        Bumps the hit count and last_used of the returned case (last_used
        becomes `now`, defaulting to the query's step index).
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
        best.last_used = query.t if now is None else now
        return best, best_score

    def retain(self, case: Case) -> "KnowledgeBase":
        """Insert a case, replacing an exact-percept duplicate or evicting."""
        for i, existing in enumerate(self.cases):
            if existing.percept.values == case.percept.values:
                self.cases[i] = case
                return self
        if len(self.cases) >= self.capacity:
            self._evict()
        self.cases.append(case)
        return self

    def _evict(self):
        if self.eviction == "lru":
            victim = min(self.cases, key=lambda c: c.last_used)
        else:
            victim = min(self.cases, key=lambda c: c.coefficient)
        self.cases.remove(victim)

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
                    "percept": list(c.percept.values),
                    "t": c.percept.t,
                    "node": c.percept.node,
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
        if data.get("schema") != SNAPSHOT_SCHEMA:
            raise ValueError(f"unsupported snapshot schema {data.get('schema')!r}")
        kb = cls(capacity=data["capacity"], eviction=data["eviction"])
        for row in data["cases"]:
            percept = PerceptVector(values=tuple(row["percept"]),
                                    t=row["t"], node=row["node"])
            kb.cases.append(Case(percept=percept, action=action_from_dict(row["action"]),
                                 coefficient=row["coefficient"], hits=row["hits"],
                                 last_used=row["last_used"], created=row["created"]))
        return kb

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh, indent=2)

    @classmethod
    def load(cls, path) -> "KnowledgeBase":
        with open(path) as fh:
            return cls.from_snapshot(json.load(fh))
