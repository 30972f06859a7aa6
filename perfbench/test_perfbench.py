"""Self-tests for the benchmark: generators, tracer and output checks.

Run with `python -m pytest perfbench`. They use shrunken versions of the
workloads, so they take about a second.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

import run

run.import_program()

import measure  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from meshmind import harness  # noqa: E402


def tiny_churn(seed: int) -> dict:
    return workloads.grid_churn_traced(seed, side=3, horizon=12)


@pytest.fixture
def tiny_workloads(monkeypatch):
    monkeypatch.setitem(measure.WORKLOADS, "tiny_churn", (tiny_churn, True))
    monkeypatch.setitem(measure.WORKLOADS, "tiny_relays", (
        lambda seed: workloads.mobile_relays(seed, cols=2, rows=2, horizon=30), False))


# -- generators -----------------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed_and_loads(name):
    generate, _ = workloads.WORKLOADS[name]
    assert generate(3) == generate(3)
    assert generate(3) != generate(4)
    spec = harness.scenario_from_dict(generate(3))
    assert spec.seed == 3


def test_generated_sizes_match_the_workload_definitions():
    steady = harness.scenario_from_dict(workloads.grid_steady(0))
    assert len(steady.env_config.topology.nodes) == 576
    assert len(steady.env_config.topology.edges) == 1104
    churn = harness.scenario_from_dict(workloads.grid_churn_traced(0))
    assert len(churn.env_config.topology.nodes) == 256
    relays = harness.scenario_from_dict(workloads.mobile_relays(0))
    assert len(relays.env_config.topology.nodes) == 100
    assert len(relays.env_config.users) == 200
    assert not relays.env_config.topology.edges


# -- tracer ---------------------------------------------------------------------


def _originals():
    found = {}
    for module_name, path, _, _ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        found[(module_name, path)] = (owner, attr, vars(owner)[attr])
    return found


def test_tracer_wraps_and_restores_every_original():
    before = _originals()
    with pytest.raises(RuntimeError, match="inside"):
        with tracer.Tracer() as tr:
            assert not tr.absent
            for owner, attr, original in before.values():
                assert vars(owner)[attr] is not original
            raise RuntimeError("inside")
    for owner, attr, original in before.values():
        assert vars(owner)[attr] is original


def test_tracer_skips_a_missing_target():
    targets = tracer.TARGETS + (("meshmind.env", "Environment.gone", "env.gone",
                                 tracer.TIMED),)
    with tracer.Tracer(targets) as tr:
        assert tr.absent == ["meshmind.env.Environment.gone"]
    assert tr.stats["env.gone"].calls == 0


def test_self_times_add_up_to_the_traced_wall_time():
    spec = harness.scenario_from_dict(workloads.grid_steady(0, side=4, horizon=20))
    with tracer.Tracer() as tr:
        harness.run_scenario(spec, collect_trace=False)
    assert tr.stats["harness.loop"].calls == 1
    assert tr.stats["agent.tick"].calls == 16 * 20
    assert tr.stats["env.apply_and_step"].calls == len(tr.step_starts_ns) == 20
    assert sum(s.self_ns for s in tr.stats.values()) == tr._stack[0]
    assert all(s.self_ns >= 0 for s in tr.stats.values())


# -- output checks ----------------------------------------------------------------


def test_emission_check_passes_on_untouched_files(tmp_path):
    spec = harness.scenario_from_dict(tiny_churn(0))
    report, _ = harness.run_scenario(spec, out_dir=tmp_path)
    assert measure.check_emission(tmp_path, report, spec) == []


def _truncate(path: Path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def _edit(path: Path):
    lines = path.read_text().splitlines(keepends=True)
    last = json.loads(lines[-1])
    last["conflicts"] += 1  # the last row is a step summary
    lines[-1] = json.dumps(last) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("corrupt", [_truncate, _edit])
def test_corrupted_trace_counts_as_failed_run(tmp_path, monkeypatch, corrupt):
    real_emit = harness.emit

    def emit_then_corrupt(out_dir, *args, **kwargs):
        real_emit(out_dir, *args, **kwargs)
        corrupt(Path(out_dir) / "trace.jsonl")

    monkeypatch.setattr(harness, "emit", emit_then_corrupt)
    session = measure.Session(emits=True, tmp_root=tmp_path)
    assert session.run(0, tiny_churn(0), "untraced") is None
    assert (session.attempted, session.failed) == (1, 1)


def test_changed_outcome_digest_counts_as_failed_run(tmp_path):
    session = measure.Session(emits=True, tmp_root=tmp_path)
    assert session.run(0, tiny_churn(0), "untraced") is not None
    session.digests[0] = "0" * 64
    assert session.run(0, tiny_churn(0), "traced") is None
    assert session.failed == 1


# -- whole measurements -------------------------------------------------------------


@pytest.mark.parametrize("name", ["tiny_churn", "tiny_relays"])
def test_measure_reports_every_declared_metric(tmp_path, tiny_workloads, name):
    plain = measure.measure(name, 1, 0.0, False, tmp_path)
    assert plain["correct"] and plain["attempted"] == measure.INSTANCES
    assert set(plain["metrics"]) == set(measure.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = measure.measure(name, 1, 0.0, True, tmp_path)
    assert traced["correct"] and traced["attempted"] == 2
    assert set(traced["metrics"]) == set(measure.per_layer_units())
    s = measure.instance_seeds(1)[0]
    assert traced["artifact"]["outcome_digests"][s] == plain["artifact"]["outcome_digests"][s]


def test_benchmark_json_declares_what_the_benchmark_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measure.per_layer_units()
