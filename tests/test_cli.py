"""The command-line entry points, called in-process through `cli.main`."""

import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from meshmind import KnowledgeBase, MoveTo, SetChannel, cli
from meshmind.agent import Population
from meshmind.harness import (MdpSpec, load_scenario, run_scenario, sweep,
                              value_iteration)
from meshmind.kb import Case
from meshmind.optimize import count_conflicts

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def key_values(text):
    return dict(line.split("=", 1) for line in text.splitlines())


def test_run_prints_and_writes_the_seeded_report(tmp_path, capsys):
    spec_path = SCENARIO_DIR / "ring6_channels.yaml"
    out = tmp_path / "run"
    assert cli.main(["run", str(spec_path), "--seed", "3", "--out", str(out)]) == 0
    printed = key_values(capsys.readouterr().out)
    timings = json.loads((out / "timings.json").read_text())
    assert float(printed.pop("wall_time_s")) == timings["wall_time_s"]
    assert printed == key_values((out / "report.txt").read_text())
    expected, _ = run_scenario(load_scenario(spec_path), seed=3)
    assert printed == {key: str(value) for key, value in expected.rows()}
    assert (out / "trace.jsonl").stat().st_size > 0


def test_run_without_out_makes_no_tick_rows(capsys):
    spec_path = SCENARIO_DIR / "ring6_channels.yaml"
    expected, _ = run_scenario(load_scenario(spec_path))
    assert expected.triggered_ticks > 0
    with mock.patch.object(cli.harness, "_tick_lines", side_effect=AssertionError), \
            mock.patch.object(Population, "lines", side_effect=AssertionError):
        assert cli.main(["run", str(spec_path)]) == 0
    printed = key_values(capsys.readouterr().out)
    del printed["wall_time_s"]
    assert printed == {key: str(value) for key, value in expected.rows()}


def test_sweep_prints_one_line_per_seed(capsys):
    spec_path = SCENARIO_DIR / "ring6_channels.yaml"
    assert cli.main(["sweep", str(spec_path), "--seeds", "1..2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    reports = sweep(load_scenario(spec_path), [1, 2])
    assert lines == [f"seed={seed} final_conflicts={r.final_conflicts} "
                     f"satisfaction={r.satisfaction_ratio:.4f} "
                     f"disruptions={r.disruptions} kb_hit_rate={r.kb_hit_rate:.4f}"
                     for seed, r in sorted(reports.items())]


def test_sweep_writes_each_seeds_run_as_run_does(tmp_path, capsys):
    spec_path = SCENARIO_DIR / "ring6_channels.yaml"
    spec = load_scenario(spec_path)
    agents = len(spec.env_config.topology.positions)
    sweep_out = tmp_path / "sweep"
    assert cli.main(["sweep", str(spec_path), "--seeds", "1..2", "--out", str(sweep_out)]) == 0
    for seed in (1, 2):
        run_out = tmp_path / f"run_{seed}"
        assert cli.main(["run", str(spec_path), "--seed", str(seed), "--out", str(run_out)]) == 0
        trace = (sweep_out / f"seed_{seed}" / "trace.jsonl").read_bytes()
        assert trace.count(b"\n") == (agents + 1) * spec.horizon
        assert trace == (run_out / "trace.jsonl").read_bytes()


@pytest.mark.parametrize("seeds,problem", [
    ("5..3", "seed range '5..3' is empty: its end is below its start"),
    ("-1", "seed -1 in '-1' is negative"),
    ("1..-2", "seed range '1..-2' is empty: its end is below its start"),
    ("0,-4,2", "seed -4 in '0,-4,2' is negative"),
], ids=["reversed", "negative", "reversed-to-negative", "negative-in-list"])
def test_sweep_rejects_a_seed_list_it_cannot_run(seeds, problem, capsys):
    spec_path = SCENARIO_DIR / "ring6_channels.yaml"
    with mock.patch.object(cli.harness, "sweep", side_effect=AssertionError):
        assert cli.main(["sweep", str(spec_path), "--seeds", seeds]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ValueError: {problem}\n"


def test_run_rejects_a_negative_seed_before_it_builds_anything(capsys):
    spec_path = SCENARIO_DIR / "ring6_channels.yaml"
    with mock.patch.object(cli.harness, "Environment", side_effect=AssertionError):
        assert cli.main(["run", str(spec_path), "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ValueError: seed -1 is negative\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(alphabet="0123456789.,- ", max_size=6))
def test_a_seed_text_parses_to_runnable_seeds_or_is_rejected(text):
    """Any text is refused with a ValueError or gives at least one seed, none
    negative. Six characters bound a range to 1,000 seeds ("0..999")."""
    try:
        seeds = cli._parse_seed_range(text)
    except ValueError:
        return
    assert seeds and all(type(seed) is int and seed >= 0 for seed in seeds)


def test_channel_oracle_finds_a_conflict_free_assignment(capsys):
    spec_path = SCENARIO_DIR / "lowload_windows.yaml"
    assert cli.main(["oracle", "channels", str(spec_path)]) == 0
    printed = key_values(capsys.readouterr().out)
    assert printed["optimal_conflicts"] == "0"
    assignment = {int(node): ch for node, ch in json.loads(printed["assignment"]).items()}
    assert count_conflicts(load_scenario(spec_path).env_config.topology, assignment) == 0


def test_mdp_oracle_prints_value_iteration(capsys):
    mdp_path = SCENARIO_DIR / "mdp_4s3a.yaml"
    assert cli.main(["oracle", "mdp", str(mdp_path)]) == 0
    q_star, policy = value_iteration(MdpSpec.from_yaml(mdp_path))
    assert capsys.readouterr().out.splitlines() == [
        f"state={s} q=[{' '.join(f'{v:.6f}' for v in q_star[s])}] "
        f"greedy_action={int(policy[s])}" for s in range(len(q_star))]


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_mdp_oracle_rejects_a_tolerance_it_cannot_meet(tol, capsys):
    assert cli.main(["oracle", "mdp", str(SCENARIO_DIR / "mdp_4s3a.yaml"), "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ValueError: tol {tol} must be finite and > 0\n"


def test_dump_kb_prints_a_saved_snapshot(tmp_path, capsys):
    kb = KnowledgeBase(capacity=8)
    kb.retain(Case(percept=(0.25, 1.0),
                   action=SetChannel(2, 3), coefficient=0.5, last_used=4, created=4))
    kb.retain(Case(percept=(0.5, 0.0),
                   action=MoveTo(2, (1, 0)), coefficient=1.0, hits=2, last_used=9, created=6))
    path = tmp_path / "kb.json"
    kb.save(path)
    assert cli.main(["dump-kb", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "capacity=8 eviction=lru cases=2",
        'percept=[0.2500,1.0000] action={"kind": "set_channel", "node": 2, "channel": 3} '
        "coefficient=0.5000 hits=0 last_used=4 created=4",
        'percept=[0.5000,0.0000] action={"kind": "move_to", "node": 2, "cell": [1, 0]} '
        "coefficient=1.0000 hits=2 last_used=9 created=6",
    ]


@pytest.mark.parametrize("edit,problem", [
    (lambda data: data.update(capacity=1), "cases: 3 cases, above the capacity 1"),
    (lambda data: data["cases"][2].update(percept=data["cases"][0]["percept"]),
     "cases[2].percept: the same as case 0's"),
    (lambda data: data["cases"][1].update(percept=[2.0, -1.0]),
     "cases[1].percept[0]: expected float in [0, 1], got 2.0; "
     "cases[1].percept[1]: expected float in [0, 1], got -1.0"),
    (lambda data: data["cases"][2].pop("hits"), "missing key cases[2].hits"),
    (lambda data: data["cases"][0].update(hits=1.5),
     "cases[0].hits: expected int in [0, inf], got 1.5"),
    (lambda data: data["cases"][1].update(coefficient=2.0),
     "cases[1].coefficient: expected float in [0, 1], got 2.0"),
    (lambda data: data["cases"][1]["action"].update(kind="hop"),
     "cases[1].action: expected a mapping with kind one of ['move_to', 'set_channel'], "
     "got 'hop'"),
    (lambda data: data.pop("cases"), "missing key cases"),
    (lambda data: data.update(capacity="8"), "capacity: expected int, got '8'"),
    (lambda data: data.update(cases=[dict(data["cases"][0], percept=[])]),
     "cases[0].percept: expected at least one value, got []"),
], ids=["over-capacity", "duplicate-percept", "percept-range", "missing-hits", "float-hits",
        "coefficient-range", "unknown-action-kind", "missing-cases", "text-capacity",
        "empty-percept"])
def test_dump_kb_rejects_a_snapshot_no_knowledge_base_holds(tmp_path, capsys, edit, problem):
    kb = KnowledgeBase(capacity=8)
    for i in range(3):
        kb.retain(Case(percept=(i / 4, 1.0), action=SetChannel(2, 1), coefficient=0.5))
    data = kb.snapshot()
    edit(data)
    path = tmp_path / "kb.json"
    path.write_text(json.dumps(data))
    assert cli.main(["dump-kb", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: SpecValidation: {problem}\n"


def test_malformed_mdp_exits_with_every_problem_named(tmp_path, capsys):
    text = (SCENARIO_DIR / "mdp_4s3a.yaml").read_text().replace("gamma:", "gama:")
    path = tmp_path / "bad_mdp.yaml"
    path.write_text(text)
    assert cli.main(["oracle", "mdp", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: SpecValidation: unknown key gama; missing key gamma\n"


def test_malformed_scenario_exits_with_one_error_line(tmp_path, capsys):
    text = (SCENARIO_DIR / "ring6_channels.yaml").read_text().replace(
        "horizon: 400", "horizon: 2.7")
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    assert cli.main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: SpecValidation: horizon: expected int, got 2.7\n"
