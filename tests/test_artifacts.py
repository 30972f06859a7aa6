"""Every deterministic artifact of a small run matrix, pinned by digest.

One digest per run covers its step rows, every file it emits but
`timings.json` (whose length follows the wall time), and each agent's final
knowledge-base snapshot and visited value-table rows, in node order. The
matrix is the three benchmark workloads at reduced size, traced and untraced,
and the three shipped run scenarios, traced, each at seeds 0 and 1. A change
that keeps decisions and bytes passes without re-recording.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from meshmind import harness, load_scenario
from meshmind.agent import TraceEvent

from helpers import perfbench_module, read_trace

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# The benchmark's workloads at reduced size: name -> the generator's size keywords.
WORKLOAD_SIZES = {
    "grid_steady": {"side": 6},
    "grid_churn_traced": {"side": 4},
    "mobile_relays": {"cols": 2, "rows": 2},
}
SHIPPED = ("lowload_windows", "ring6_channels", "follow_demand_location")

# (scenario, seed, traced) -> sha256, recorded before the stepped report reused its parts.
PINNED_ARTIFACTS = {
    ('grid_steady', 0, False):
        '00315e9e3833f93ff72b9399fe60d0d4762b7293bb4628e8446cda45e15d210e',
    ('grid_steady', 0, True):
        'ec25a91e0b3685dbada1574308c8d331ae7b1014faf83c0c59e33e1832ad542c',
    ('grid_steady', 1, False):
        'eb31cbddba7ebeca893caea7aec7eb97fe43e4de43d579e26458c0fb6b13a3d5',
    ('grid_steady', 1, True):
        'abdddeea220242828f889feec1a3dec4f44e9d445b4e3b35291ef373a92297b5',
    ('grid_churn_traced', 0, False):
        '544ac27d59337a1b9650184fddfc6c0f2e2a1d0029dda65d411fb7721931cb75',
    ('grid_churn_traced', 0, True):
        '25c3128e90884c3e47e76f0bc6612afcab4239704cfc455193f3d427eaac0773',
    ('grid_churn_traced', 1, False):
        '3fe764306d1151fc0ff644c385628bb8693bc880dbd469201d7048c62da163a5',
    ('grid_churn_traced', 1, True):
        '1be5c8ab5818b7c1a9092516a6c3044efbb5a4f7e9a5efe5b099ed762fcf641a',
    ('mobile_relays', 0, False):
        '46764019662891fcefed916e33f275d22ce7b90b8ac7d14ae79df105d3a775b1',
    ('mobile_relays', 0, True):
        '80aae818e36fe63c7df3b608c99f7ace909b99621fdd93ffb59c80c706b0cb35',
    ('mobile_relays', 1, False):
        '932c589825c485468b98ceadc8625f55801df28aaeb05e7b4dd82bca5649e80e',
    ('mobile_relays', 1, True):
        '3ea4c1b0fcba905c706006b5f4c18a66d47dacd3964fe4b88fe86d3e65cf4d03',
    ('lowload_windows', 0, True):
        '11da3cbeeb6b93d013d4fe1ba0f19770fdcec84949e8a7443f024707c3962e1a',
    ('lowload_windows', 1, True):
        'd75fe16a3c8a89390871c851f9cd1c002bf04070263d8dc196267d4e1b377b9e',
    ('ring6_channels', 0, True):
        '64d969240e9f38a537cc2f5e4326c845d318776c2337ab8e6d7608d82226f7ff',
    ('ring6_channels', 1, True):
        '410b26081c1bd9945955a07c054db8b23f1a1d913f26561974a15d49e90758e4',
    ('follow_demand_location', 0, True):
        'c195b68c8003bb8c50196cc3383bb8f5b480b030dc69e2516e8348c4c8eb32ca',
    ('follow_demand_location', 1, True):
        'c195b68c8003bb8c50196cc3383bb8f5b480b030dc69e2516e8348c4c8eb32ca',
}


def spec_of(name: str, seed: int):
    if name in WORKLOAD_SIZES:
        workloads = perfbench_module("workloads")
        generate = getattr(workloads, name)
        return harness.scenario_from_dict(generate(seed, **WORKLOAD_SIZES[name]))
    return replace(load_scenario(SCENARIO_DIR / f"{name}.yaml"), seed=seed)


def visited_rows(table) -> list:
    """(state, values) of each state the table holds a row for, in state order."""
    states = np.flatnonzero(table.explored.any(axis=1)).tolist()
    return [[state, list(table.row(state))] for state in states]


def artifact_digest(spec, out_dir) -> str:
    """sha256 over a run's step rows, its emitted files but timings.json, and
    each agent's final KB snapshot and visited value-table rows."""
    built, build = [], harness.build_agents

    def build_agents(*args):
        built.append(agents := build(*args))
        return agents

    with mock.patch.object(harness, "build_agents", build_agents):
        _, steps = harness.run_scenario(spec, out_dir=out_dir)
    h = hashlib.sha256(json.dumps(steps, sort_keys=True).encode())
    if out_dir is not None:
        for path in sorted(Path(out_dir).iterdir()):
            if path.name != "timings.json":
                h.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    for agent in built[0]:
        h.update(json.dumps([agent.node, agent.kb.snapshot(), visited_rows(agent.table)],
                            sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def matrix() -> list[tuple[str, int, bool]]:
    runs = [(name, seed, traced) for name in WORKLOAD_SIZES for seed in (0, 1)
            for traced in (False, True)]
    return runs + [(name, seed, True) for name in SHIPPED for seed in (0, 1)]


@pytest.mark.parametrize("name,seed,traced", matrix())
def test_every_deterministic_artifact_matches_its_digest(tmp_path, name, seed, traced):
    digest = artifact_digest(spec_of(name, seed), tmp_path if traced else None)
    assert digest == PINNED_ARTIFACTS[name, seed, traced]


@pytest.mark.parametrize("name,seed", [("lowload_windows", 0), ("follow_demand_location", 1)])
def test_tick_rows_of_a_run_are_written_without_json(tmp_path, name, seed):
    with mock.patch.object(TraceEvent, "to_record", side_effect=AssertionError):
        digest = artifact_digest(spec_of(name, seed), tmp_path)
    assert digest == PINNED_ARTIFACTS[name, seed, True]
    assert {r["outcome"] for r in read_trace(tmp_path) if r["kind"] == "tick"} > {"idle"}
