"""Run one benchmark workload through meshmind's public API and measure it.

A workload seed expands into INSTANCES scenario seeds. Untraced mode times
`harness.run_scenario` over those instances, cycling through them until the
time budget is spent (every instance runs at least once), and reports
end-to-end metrics: host time per agent-step and set-up time as medians of
host-speed-scaled samples (see `HostClock`), the process's peak RSS, and
the outcome averaged over the instances. Traced mode alternates untraced
and traced runs of the first instance and reports per-layer metrics from
`tracer.Tracer`.

Every run's report is checked against bounds it must meet, and on the
emitting workload the files written are read back and checked against the
report. A run that raises or fails a check counts as failed. Repeats of one
instance, traced or not, must reproduce its outcome digest exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from meshmind import harness
from meshmind.env import Environment

from tracer import COUNTED, OUTCOMES, TARGETS, Tracer
from workloads import WORKLOADS

INSTANCES = 4        # scenario seeds per workload seed; outcomes average over them
SETUP_REPEATS = 15   # set-up takes milliseconds, so take the median of many
REL_TOL = 1e-9       # float slack when recomputing the report from the trace
REFERENCE_ITERATIONS = 1_600_000
REFERENCE_S = 0.4    # nominal reference-loop time that host timings are scaled to

END_TO_END_UNITS = {
    "us_per_agent_step": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "satisfaction": "ratio",
}

# Outcomes reported alongside the end-to-end metrics but not bounded by the
# benchmark: each is exactly 0 on some workload (mobile_relays has no
# interference edges, and error_rate is 0 whenever the program is correct).
OUTCOME_UNITS = {
    "conflict_steps": "count",
    "final_conflicts": "count",
    "disruptions": "count",
    "error_rate": "ratio",
}

# Unscaled host timings and the host-speed factor (see HostClock).
HOST_UNITS = {
    "raw_us_per_agent_step": "us",
    "raw_setup_s": "s",
    "host_speed": "ratio",
}


# Per-layer values derived from array sizes rather than measured.
COMPUTED = {"learning.q_update.bytes_copied"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced mode reports, with its unit."""
    units = {"trace_overhead": "ratio",
             "harness.run_scenario.total_s": "s",
             "harness.emit.bytes": "bytes",
             "harness.step_ms.p50": "ms",
             "harness.step_ms.p98": "ms"}
    for _, _, key, kind in TARGETS:
        units[f"{key}.calls"] = "count"
        if kind != COUNTED:
            units[f"{key}.self_s"] = "s"
    units.update({
        "agent.trigger_ratio": "ratio",
        "kb.cases_per_retrieve": "count",
        "kb.reuse_ratio": "ratio",
        "learning.q_update.bytes_copied": "bytes",
    })
    for outcome in OUTCOMES:
        units[f"reasoning.outcome.{outcome}"] = "count"
    for name in ("conflict_steps", "final_conflicts", "disruptions"):
        units[f"outcome.{name}"] = "count"
    return units


def instance_seeds(seed: int) -> list[int]:
    return [seed * INSTANCES + i for i in range(INSTANCES)]


# -- one run -------------------------------------------------------------------


@dataclasses.dataclass
class Run:
    wall_s: float
    report: harness.RunReport
    agents: int
    digest: str
    problems: list[str]
    peak_rss_mb: float      # process high-water mark before the checks ran
    emit_bytes: int = 0


def agent_count(spec) -> int:
    nodes = spec.agent_params.nodes
    return len(nodes) if nodes is not None else len(spec.env_config.topology.nodes)


def check_report(report, spec) -> list[str]:
    """Bounds every RunReport must meet, whatever the dynamics."""
    agents = agent_count(spec)
    edges = len(spec.env_config.topology.edges)
    problems = []
    if report.steps != spec.horizon:
        problems.append(f"steps {report.steps} != horizon {spec.horizon}")
    if not 0 <= report.final_conflicts <= edges:
        problems.append(f"final_conflicts {report.final_conflicts} outside [0, {edges}]")
    if not 0 <= report.total_conflicts <= edges * report.steps:
        problems.append(f"conflict_steps {report.total_conflicts} outside "
                        f"[0, {edges * report.steps}]")
    if not 0.0 <= report.satisfaction_ratio <= 1.0:
        problems.append(f"satisfaction {report.satisfaction_ratio} outside [0, 1]")
    if not 0 <= report.triggered_ticks <= agents * report.steps:
        problems.append(f"triggered {report.triggered_ticks} outside "
                        f"[0, {agents * report.steps}]")
    return problems


def check_emission(out_dir: Path, report, spec) -> list[str]:
    """Read the emitted files back and check them against the report."""
    agents = agent_count(spec)
    problems = []
    lines = (out_dir / "trace.jsonl").read_text().splitlines()
    expected = (agents + 1) * spec.horizon
    if len(lines) != expected:
        problems.append(f"trace.jsonl has {len(lines)} lines, expected {expected}")
    try:
        records = [json.loads(line) for line in lines]
        recomputed = harness.report_from_trace(records)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"trace.jsonl does not parse into a report: {exc!r}")
        recomputed = {}
    for key, value in recomputed.items():
        actual = getattr(report, key)
        if isinstance(value, float) or isinstance(actual, float):
            same = math.isclose(value, actual, rel_tol=REL_TOL, abs_tol=0.0)
        else:
            same = value == actual
        if not same:
            problems.append(f"trace gives {key}={value!r}, report has {actual!r}")
    csv_rows = (out_dir / "metrics.csv").read_text().splitlines()[1:]
    if len(csv_rows) != spec.horizon:
        problems.append(f"metrics.csv has {len(csv_rows)} rows, expected {spec.horizon}")
    tables = len(list(out_dir.glob("qtable_node_*.txt")))
    if tables != agents:
        problems.append(f"{tables} qtable files for {agents} agents")
    return problems


def outcome_digest(report, trace_bytes: bytes = b"") -> str:
    """sha256 over the report aggregates (not wall time) and the trace file."""
    aggregates = dataclasses.asdict(report)
    aggregates.pop("wall_time_s", None)
    h = hashlib.sha256(json.dumps(aggregates, sort_keys=True).encode())
    h.update(trace_bytes)
    return h.hexdigest()


def run_once(data: dict, emits: bool, tmp_root: Path, check_files: bool) -> Run:
    """One timed `run_scenario` call plus its output checks.

    With check_files false the emitted files are only hashed into the
    digest, which the caller compares with that of a fully checked run.
    """
    spec = harness.scenario_from_dict(data)
    out_dir = Path(tempfile.mkdtemp(dir=tmp_root)) if emits else None
    try:
        started = time.perf_counter()
        report = harness.run_scenario(spec, out_dir=out_dir, collect_trace=emits)[0]
        wall = time.perf_counter() - started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = check_report(report, spec)
        trace_bytes, emit_bytes = b"", 0
        if emits:
            if check_files:
                problems += check_emission(out_dir, report, spec)
            trace_bytes = (out_dir / "trace.jsonl").read_bytes()
            emit_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
    finally:
        if out_dir is not None:
            shutil.rmtree(out_dir)
    return Run(wall, report, agent_count(spec), outcome_digest(report, trace_bytes),
               problems, peak_rss_mb, emit_bytes)


def setup_seconds(data: dict) -> float:
    """Scenario dict to an environment and agents ready to step."""
    started = time.perf_counter()
    spec = harness.scenario_from_dict(data)
    env = Environment(spec.env_config)
    state = env.reset()
    harness.build_agents(spec, env, state, spec.seed)
    return time.perf_counter() - started


def reference_seconds(iterations: int = REFERENCE_ITERATIONS) -> float:
    """Time a loop of dictionary and float work in pure Python, scaled to
    REFERENCE_ITERATIONS iterations."""
    started = time.perf_counter()
    table: dict[int, float] = {}
    for i in range(iterations):
        key = i % 977
        table[key] = table.get(key * 7 % 977, 0.0) + i * 0.5
    return (time.perf_counter() - started) * REFERENCE_ITERATIONS / iterations


class HostClock:
    """Scales wall times to a host on which the reference loop takes REFERENCE_S.

    On a shared host, other tenants slow every Python workload alike, by up
    to 40% for minutes at a time. Timing the reference loop on either side
    of a measurement tracks much of that slowdown: on a 2-vCPU VM a 0.4 s
    loop's time correlated at 0.7 with grid_churn_traced runs, and scaling
    by it cut the quartile spread of per-seed medians by a third to a half on
    every workload. A time multiplied by `factor()` reads as it would on a
    host where the loop takes REFERENCE_S; the unscaled medians are kept in
    the artifact. Short measurements can use a shorter loop.
    """

    def __init__(self, iterations: int = REFERENCE_ITERATIONS):
        self.iterations = iterations
        self._last = reference_seconds(iterations)
        self.factors: list[float] = []

    def factor(self) -> float:
        """Scale for the interval since the previous call (or construction)."""
        now = reference_seconds(self.iterations)
        factor = REFERENCE_S / ((self._last + now) / 2)
        self._last = now
        self.factors.append(factor)
        return factor


# -- a measured session ----------------------------------------------------------


class Session:
    """Counts attempted and failed runs and pins each instance's digest.

    The first run of an instance gets every check; its repeats must then
    reproduce its digest exactly.
    """

    def __init__(self, emits: bool, tmp_root: Path):
        self.emits = emits
        self.tmp_root = tmp_root
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}

    def run(self, seed: int, data: dict, label: str) -> Run | None:
        self.attempted += 1
        try:
            run = run_once(data, self.emits, self.tmp_root,
                           check_files=seed not in self.digests)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        expected = self.digests.setdefault(seed, run.digest)
        if run.digest != expected:
            run.problems.append(f"{label} run of seed {seed} changed the outcome digest")
        if run.problems:
            for problem in run.problems:
                print(f"check failed ({label}, seed {seed}): {problem}", file=sys.stderr)
            self.failed += 1
            return None
        return run


def _budget_left(started: float, seconds: float, spans: list[float]) -> bool:
    """True while one more iteration of typical length fits in the budget."""
    typical = statistics.median(spans) if spans else 0.0
    return time.perf_counter() - started + typical <= seconds


def measure_untraced(name: str, seed: int, seconds: float, tmp_root: Path) -> dict:
    generate, emits = WORKLOADS[name]
    seeds = instance_seeds(seed)
    inputs = {s: generate(s) for s in seeds}
    started = time.perf_counter()
    setup_clock = HostClock(REFERENCE_ITERATIONS // 4)  # set-up takes ~0.1 s
    setup_raw: list[float] = []
    setup: list[float] = []
    for _ in range(SETUP_REPEATS):
        setup_raw.append(setup_seconds(inputs[seeds[0]]))
        setup.append(setup_raw[-1] * setup_clock.factor())

    clock = HostClock()
    session = Session(emits, tmp_root)
    first: dict[int, Run] = {}
    walls_raw: list[float] = []
    walls: list[float] = []
    spans: list[float] = []
    i = 0
    # every instance runs once; then repeat while time is left and all passed
    while i < len(seeds) or (not session.failed
                             and _budget_left(started, seconds, spans)):
        s = seeds[i % len(seeds)]
        span_start = time.perf_counter()
        run = session.run(s, inputs[s], "untraced")
        factor = clock.factor()
        spans.append(time.perf_counter() - span_start)
        i += 1
        if run is not None:
            walls_raw.append(run.wall_s)
            walls.append(run.wall_s * factor)
            first.setdefault(s, run)

    metrics: dict[str, float] = {}
    host: dict[str, float] = {}
    outcomes: dict[str, float] = {}
    if walls:
        reports = [first[s].report for s in seeds if s in first]
        first_run = next(iter(first.values()))
        per_us = 1e6 / (first_run.agents * first_run.report.steps)
        metrics = {
            "us_per_agent_step": statistics.median(walls) * per_us,
            "setup_s": statistics.median(setup),
            # this process had run only set-up and this workload by then
            "peak_rss_mb": first_run.peak_rss_mb,
            "satisfaction": statistics.fmean(r.satisfaction_ratio for r in reports),
        }
        host = {
            "raw_us_per_agent_step": statistics.median(walls_raw) * per_us,
            "raw_setup_s": statistics.median(setup_raw),
            "host_speed": statistics.median(clock.factors),
        }
        outcomes = {
            "conflict_steps": statistics.fmean(r.total_conflicts for r in reports),
            "final_conflicts": statistics.fmean(r.final_conflicts for r in reports),
            "disruptions": statistics.fmean(r.disruptions for r in reports),
        }
    outcomes["error_rate"] = session.failed / session.attempted
    return {
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "artifact": {"workload": name, "seed": seed, "instances": seeds,
                     "runs": len(walls), "setup_repeats": SETUP_REPEATS,
                     "outcome_digests": session.digests,
                     "outcomes": outcomes, "host": host},
    }


def measure_traced(name: str, seed: int, seconds: float, tmp_root: Path) -> dict:
    generate, emits = WORKLOADS[name]
    s = instance_seeds(seed)[0]
    data = generate(s)
    session = Session(emits, tmp_root)
    overheads: list[float] = []
    tracers: list[Tracer] = []
    runs: list[Run] = []
    spans: list[float] = []
    started = time.perf_counter()
    while True:
        span_start = time.perf_counter()
        plain = session.run(s, data, "untraced")
        if plain is None:
            break
        tracer = Tracer()
        with tracer:
            run = session.run(s, data, "traced")
        if run is None:
            break
        # adjacent runs share the host's load, so compare them pairwise
        overheads.append(run.wall_s / plain.wall_s)
        tracers.append(tracer)
        runs.append(run)
        spans.append(time.perf_counter() - span_start)
        if not _budget_left(started, seconds, spans):
            break

    metrics: dict[str, float] = {}
    if runs:
        metrics = layer_metrics(tracers, runs)
        metrics["trace_overhead"] = statistics.median(overheads)
    units = per_layer_units()
    absent = sorted({a for t in tracers for a in t.absent})
    return {
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
        "artifact": {"workload": name, "seed": seed, "instances": [s],
                     "runs": len(runs), "outcome_digests": session.digests,
                     "absent_targets": absent},
    }


def layer_metrics(tracers: list[Tracer], runs: list[Run]) -> dict[str, float]:
    """Per-run means over the traced runs; counts repeat exactly per run."""
    n = len(tracers)
    out: dict[str, float] = {}
    for _, _, key, kind in TARGETS:
        out[f"{key}.calls"] = sum(t.stats[key].calls for t in tracers) / n
        if kind != COUNTED:
            out[f"{key}.self_s"] = sum(t.stats[key].self_ns for t in tracers) / n / 1e9
    gaps_ms = [(b - a) / 1e6 for t in tracers
               for a, b in zip(t.step_starts_ns, t.step_starts_ns[1:])]
    if len(gaps_ms) >= 2:
        cuts = statistics.quantiles(gaps_ms, n=100)
        out["harness.step_ms.p50"] = statistics.median(gaps_ms)
        out["harness.step_ms.p98"] = cuts[97]
    report = runs[0].report
    agent_steps = runs[0].agents * report.steps
    retrieves = out["kb.retrieve.calls"]
    out.update({
        "harness.run_scenario.total_s": statistics.median(r.wall_s for r in runs),
        "harness.emit.bytes": statistics.fmean(r.emit_bytes for r in runs),
        "agent.trigger_ratio": report.triggered_ticks / agent_steps,
        "kb.cases_per_retrieve": (sum(t.kb_cases_scanned for t in tracers) / n / retrieves
                                  if retrieves else 0.0),
        "kb.reuse_ratio": (report.reuse_ticks / report.triggered_ticks
                           if report.triggered_ticks else 0.0),
        "learning.q_update.bytes_copied": sum(t.q_update_bytes for t in tracers) / n,
        "outcome.conflict_steps": report.total_conflicts,
        "outcome.final_conflicts": report.final_conflicts,
        "outcome.disruptions": report.disruptions,
    })
    for outcome in OUTCOMES:
        out[f"reasoning.outcome.{outcome}"] = sum(t.outcomes[outcome] for t in tracers) / n
    return out


def measure(name: str, seed: int, seconds: float, trace: bool, tmp_root: Path) -> dict:
    result = (measure_traced if trace else measure_untraced)(name, seed, seconds, tmp_root)
    result["correct"] = result["failed"] == 0 and bool(result["metrics"])
    return result
