"""Per-layer tracing by wrapping meshmind's functions from outside.

`Tracer` replaces each target attribute with a wrapper that counts calls
and accumulates self time: a call's duration minus the time spent in
wrapped calls made inside it, kept on one stack. Module-level functions
are wrapped at the name their caller looks up, because `from .x import f`
binds a separate reference in the importing module. Everything is kept in
memory; `uninstall` puts every original object back.

A target that a later version of the program no longer defines is skipped
and listed in `Tracer.absent`, so its metrics read zero instead of the
benchmark failing.
"""

from __future__ import annotations

import functools
import importlib
import time

TIMED = "timed"     # calls and self time
COUNTED = "counted"  # calls only; for functions too cheap to time usefully

# (module, attribute path, metric key, kind). Several targets may share a
# key when the same function is reached through more than one name.
TARGETS = (
    ("meshmind.harness", "run_scenario", "harness.loop", TIMED),
    ("meshmind.harness", "emit", "harness.emit", TIMED),
    ("meshmind.harness", "build_agents", "harness.build_agents", TIMED),
    ("meshmind.harness", "encode_state", "learning.encode_state", TIMED),
    ("meshmind.agent", "Agent.tick", "agent.tick", TIMED),
    ("meshmind.agent", "Agent.sense", "agent.sense", TIMED),
    ("meshmind.agent", "Agent.observe", "agent.observe", TIMED),
    ("meshmind.agent", "TraceEvent.to_record", "agent.to_record", TIMED),
    ("meshmind.agent", "normalize", "reasoning.normalize", TIMED),
    ("meshmind.agent", "classify", "reasoning.classify", COUNTED),
    ("meshmind.agent", "encode_state", "learning.encode_state", TIMED),
    ("meshmind.agent", "q_update", "learning.q_update", TIMED),
    ("meshmind.agent", "select_action", "optimize.select_action", TIMED),
    ("meshmind.agent", "location_search", "optimize.location_search", TIMED),
    ("meshmind.env", "Environment.__init__", "env.init", TIMED),
    ("meshmind.env", "Environment.apply_and_step", "env.apply_and_step", TIMED),
    ("meshmind.env", "Environment.report_for", "env.report_for", TIMED),
    ("meshmind.env", "Environment.node_demand", "env.node_demand", TIMED),
    ("meshmind.env", "Environment.node_achieved", "env.node_achieved", TIMED),
    ("meshmind.env", "Environment.local_conflicts", "env.local_conflicts", TIMED),
    ("meshmind.env", "Environment.predict_node_throughput",
     "env.predict_node_throughput", TIMED),
    ("meshmind.kb", "similarity", "reasoning.similarity", COUNTED),
    ("meshmind.kb", "KnowledgeBase.retrieve", "kb.retrieve", TIMED),
    ("meshmind.kb", "KnowledgeBase.retain", "kb.retain", TIMED),
    ("meshmind.kb", "KnowledgeBase.revise", "kb.revise", TIMED),
)

OUTCOMES = ("reuse", "recompute", "retain", "reject")


class Stat:
    __slots__ = ("calls", "self_ns")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0


class Tracer:
    """Install with `with Tracer() as tr:`; read `tr.stats` afterwards."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict[str, Stat] = {key: Stat() for _, _, key, _ in targets}
        self.absent: list[str] = []
        self.kb_cases_scanned = 0        # KB size summed over retrievals
        self.q_update_bytes = 0          # table bytes each q_update copies
        self.outcomes = dict.fromkeys(OUTCOMES, 0)
        self.step_starts_ns: list[int] = []  # entry time of each env step
        self._stack = [0]  # child-time accumulators, root sentinel first
        self._saved: list[tuple[object, str, object]] = []

    # -- install / restore -------------------------------------------------

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, path, key, kind in self.targets:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for name in parents:
                    owner = getattr(owner, name)
                original = vars(owner)[attr]
            except (AttributeError, KeyError):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = (self._timed(original, key) if kind == TIMED
                       else self._counted(original, key))
            setattr(owner, attr, wrapper)
            self._saved.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers ------------------------------------------------------------

    def _probe_for(self, key: str):
        """Extra count taken from a call's arguments or result, if any."""
        return {"kb.retrieve": self._count_cases,
                "learning.q_update": self._count_copied_bytes,
                "reasoning.classify": self._count_outcome}.get(key)

    def _count_cases(self, args, result) -> None:
        self.kb_cases_scanned += len(args[0].cases)

    def _count_copied_bytes(self, args, result) -> None:
        table = args[0]
        self.q_update_bytes += table.values.nbytes + table.explored.nbytes

    def _count_outcome(self, args, result) -> None:
        self.outcomes[result.value] = self.outcomes.get(result.value, 0) + 1

    def _timed(self, fn, key: str):
        stat = self.stats[key]
        stack = self._stack
        clock = time.perf_counter_ns
        probe = self._probe_for(key)
        steps = self.step_starts_ns if key == "env.apply_and_step" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            if steps is not None:
                steps.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.self_ns += elapsed - stack.pop()
                stack[-1] += elapsed
            if probe is not None:
                probe(args, result)
            return result

        return wrapper

    def _counted(self, fn, key: str):
        stat = self.stats[key]
        probe = self._probe_for(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            result = fn(*args, **kwargs)
            if probe is not None:
                probe(args, result)
            return result

        return wrapper
