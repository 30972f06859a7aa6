"""Percept layout, normalization, similarity scoring, and decision-branch selection.

A FeatureSpec is an agent's whole percept layout: each feature's name,
range and bin count. Raw measurements become percepts, tuples of
unit-range floats, via the ranges, and the bins map a percept to a state
index (`learning.encode_state`). Similarity between two percepts maps
Euclidean distance into [0, 1], and `classify` routes a (similarity,
coefficient) pair to one of four branches: reuse the stored action,
recompute it, retain the percept as a new case, or reject it when the
store is full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping


class MissingFeature(Exception):
    pass


class DimensionMismatch(Exception):
    pass


@dataclass(frozen=True)
class FeatureSpec:
    """Ordered (name, min, max, bins) features: each one's normalization range
    and its count of uniform bins, so that a percept has `state_count` states.
    `bins` and `state_count` are worked out once, for every agent sharing it."""

    features: tuple[tuple[str, float, float, int], ...]
    bins: tuple[int, ...] = field(init=False, repr=False)
    state_count: int = field(init=False, repr=False)

    def __post_init__(self):
        if not self.features:
            raise ValueError("a percept needs at least one feature")
        for name, lo, hi, bins in self.features:
            if not hi > lo:
                raise ValueError(f"feature {name!r}: max must exceed min")
            if bins < 1:
                raise ValueError(f"feature {name!r}: needs at least one bin")
        object.__setattr__(self, "bins", tuple(bins for *_, bins in self.features))
        object.__setattr__(self, "state_count", math.prod(self.bins))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, *_ in self.features)


class Outcome(Enum):
    REUSE = "reuse"
    RECOMPUTE = "recompute"
    RETAIN_NEW = "retain"
    REJECT = "reject"


def normalize(raw: Mapping[str, float], spec: FeatureSpec) -> tuple[float, ...]:
    """Scale raw measurements into a percept in [0, 1] per the feature spec.

    Values outside the configured range clamp rather than error, since live
    measurements may drift past the ranges chosen at scenario setup.
    """
    values = []
    for name, lo, hi, _ in spec.features:
        if name not in raw:
            raise MissingFeature(name)
        x = (raw[name] - lo) / (hi - lo)
        values.append(min(1.0, max(0.0, x)))
    return tuple(values)


def similarity(p: tuple[float, ...], q: tuple[float, ...]) -> float:
    """Similarity in [0, 1]: 1 - d/d_max with d Euclidean, d_max = sqrt(k).

    Identical percepts score 1; opposite corners of the unit cube score 0.
    """
    if len(p) != len(q):
        raise DimensionMismatch(f"{len(p)} vs {len(q)}")
    return 1.0 - math.dist(p, q) / math.sqrt(len(p))


def classify(score: float, coefficient: float, score_threshold: float,
             coefficient_threshold: float, kb_full: bool) -> Outcome:
    """Pick the decision branch for a retrieved case.

    High similarity reuses a proven action or recomputes a poor one; low
    similarity retains the percept as a new case unless the store is full.
    """
    if score >= score_threshold:
        if coefficient >= coefficient_threshold:
            return Outcome.REUSE
        return Outcome.RECOMPUTE
    if kb_full:
        return Outcome.REJECT
    return Outcome.RETAIN_NEW
