"""Capacity-bounded case store: retrieve, reuse, revise, retain.

Each case pairs a percept, a tuple of unit-range floats, with the action
taken for it and a coefficient in [0, 1] scoring how well that action
worked. Retrieval is an exact argmax over similarity (linear scan; stores
are small) that stamps the case it returns as used, retention at capacity
evicts the least recently used case, and exact-duplicate percepts merge into
one slot. An agent revises or retains a case once the outcome of its action
is known, so a tick only retrieves. A knowledge base only writes
itself, as a `meshmind-kb/2` snapshot with one row of fields per case;
`harness.load_snapshot` reads snapshots, `meshmind-kb/1` ones too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .env import action_to_dict
# retrieve scores as similarity does, inline; perfbench still counts similarity here.
from .reasoning import DimensionMismatch, similarity

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
        Each score is `similarity(case.percept, query)`, bit for bit.
        """
        best: Case | None = None
        best_score = -1.0
        width, root = len(query), math.sqrt(len(query))
        for case in self.cases:
            if len(case.percept) != width:
                raise DimensionMismatch(f"{len(case.percept)} vs {width}")
            score = 1.0 - math.dist(case.percept, query) / root
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

    def revise(self, case: Case, action=None, coefficient: float | None = None) -> "KnowledgeBase":
        """Replace a stored case's action and/or coefficient in place; not an equal copy's.
        last_used stays: an agent revises a case only in the feedback of the tick that
        last used it."""
        for stored in self.cases:  # identity, not equality
            if stored is case:
                break
        else:
            raise UnknownCase("case is not stored in this knowledge base")
        if coefficient is not None:
            if not 0.0 <= coefficient <= 1.0:
                raise InvalidCoefficient(f"coefficient {coefficient} outside [0,1]")
            case.coefficient = coefficient
        if action is not None:
            case.action = action
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

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh, indent=2)

