"""Capacity-bounded case store: retrieve, reuse, revise, retain.

Each case pairs a percept, a tuple of unit-range floats, with the action
taken for it and a coefficient in [0, 1] scoring how well that action
worked. A store's cases share one percept width, checked when a case is
retained. Retrieval is an exact argmax over similarity (linear scan; stores
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
        """Best-matching case and its similarity, or None when the store is empty or
        the query scores NaN.

        Ties break toward the most recently used case, then insertion order.
        Bumps the hit count of the returned case and sets its last_used to `now`.
        Each score is `similarity(case.percept, query)`, bit for bit.
        """
        cases = self.cases
        if not cases:
            return None
        width, root = len(query), math.sqrt(len(query))
        if len(cases[0].percept) != width:  # every stored case has the first one's width
            raise DimensionMismatch(f"{len(cases[0].percept)} vs {width}")
        best, best_score = None, -math.inf
        for case in cases:
            score = 1.0 - math.dist(case.percept, query) / root
            if score > best_score or (score == best_score and (
                    best is None or case.last_used > best.last_used)):
                best, best_score = case, score
        if best is None:
            return None
        best.hits += 1
        best.last_used = now
        return best, best_score

    def retain(self, case: Case) -> "KnowledgeBase":
        """Insert a case of the stored cases' width, replacing an exact-percept
        duplicate or evicting; a case of another width raises before any write."""
        if self.cases and len(case.percept) != len(self.cases[0].percept):
            raise DimensionMismatch(f"{len(self.cases[0].percept)} vs {len(case.percept)}")
        for i, existing in enumerate(self.cases):
            if existing.percept == case.percept:
                self.cases[i] = case
                return self
        if len(self.cases) >= self.capacity:
            self.cases.remove(min(self.cases, key=lambda c: c.last_used))
        self.cases.append(case)
        return self

    def revise(self, case: Case, action=None, coefficient: float | None = None) -> "KnowledgeBase":
        """Replace the action and/or coefficient of `case`, which must be stored here.
        An agent revises only the case its own tick retrieved, from its private store,
        with nothing evicted in between. last_used stays: that tick last used it."""
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

