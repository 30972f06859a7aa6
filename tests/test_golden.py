"""Golden decision digests: the same seed takes the same actions at every step.

Each digest is a sha256 over a projection of the run's trace.jsonl that holds
only decisions and integer outcomes: per tick (t, node, detected, outcome,
action) and per step (conflicts, actions, switches, disruptions), followed
by the integer RunReport fields. Fields added to trace rows later do not
disturb it. The two float aggregates are compared with a relative
tolerance, since a refactor may sum them in another order.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from meshmind import Controlled, load_scenario, run_scenario

from helpers import make_channel_spec, make_location_spec, make_lowload_window_spec, read_trace

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

INT_FIELDS = ("steps", "total_conflicts", "final_conflicts", "switches",
              "disruptions", "optimizer_invocations", "triggered_ticks",
              "reuse_ticks")


def grid_edges(side: int) -> set[tuple[int, int]]:
    edges = set()
    for r in range(side):
        for c in range(side):
            i = r * side + c
            if c + 1 < side:
                edges.add((i, i + 1))
            if r + 1 < side:
                edges.add((i, i + side))
    return edges


def make_spec(name: str):
    if name == "grid8x8":
        positions = {i: (i % 8, i // 8) for i in range(64)}
        return make_channel_spec(64, grid_edges(8), horizon=300,
                                 positions=positions)
    if name == "location_helper":
        return make_location_spec()
    if name == "relay_tiles_2x2":
        # Four relays whose state space spans every tile; seed 1 explores.
        return make_location_spec(cols=2, rows=2, horizon=400)
    if name == "lowload_budget_kb2":
        # A switch budget and a two-case store: reaches every branch, REJECT included.
        spec = make_lowload_window_spec(Controlled(epsilon=0.1, max_switches=1, window=20))
        return replace(spec, agent_params=replace(spec.agent_params, kb_capacity=2))
    return load_scenario(SCENARIO_DIR / f"{name}.yaml")


def decision_digest(records, report) -> str:
    h = hashlib.sha256()
    for r in records:
        if r["kind"] == "tick":
            row = [r["t"], r["node"], r["detected"], r["outcome"], r["action"]]
        else:
            row = [r["conflicts"], r["actions"], r["switches"], r["disruptions"]]
        h.update(json.dumps(row, sort_keys=True).encode() + b"\n")
    h.update(json.dumps([getattr(report, f) for f in INT_FIELDS]).encode())
    return h.hexdigest()


# (scenario, seed) -> (digest, satisfaction_ratio, mean_achieved_mbps)
GOLDEN = {
    ('ring6_channels', 0): (
        '36d9bed65c4d11944611c2633168770f920e8c94cd5c28733be1c54ac9f12eb7',
        0.9858383987954711, 29.575151963864133),
    ('ring6_channels', 1): (
        '9228537e6c35e08da72a07c3b815bdc0084f37ad9e923b1d8c16a1ba537942d1',
        0.9861556455217245, 29.584669365651735),
    ('ring6_channels', 2): (
        '281c7bf3a9e49a7d255b4e9218ddf2bfc9bcde461fcfea3c527e8fbb0f8fdb82',
        0.9965069876139517, 29.895209628418552),
    ('lowload_windows', 0): (
        'bef54254010e24210264e52e313c380c9a9aff08b9410eb7a7626378c103b3ba',
        0.8591483935618897, 9.50790888875158),
    ('lowload_windows', 1): (
        '56afd6c366b849cf0926448e5395625ca39c10902458a957de8a50dfed1665b5',
        0.830145188301293, 9.186940083867642),
    ('lowload_windows', 2): (
        'b6301ce30e43758f86225e2f92bbf89bdb4dfaa1d6eb4e2b8ef7cef0cbc80a7b',
        0.8419694111981552, 9.317794817259584),
    ('follow_demand_location', 0): (
        '8faea5ccbfdbcc1cd5d75b50d5b2b8a3a0a890ea97185a9d079fbb0acfceabe7',
        0.9790393502925985, 3.0350219859070515),
    ('follow_demand_location', 1): (
        '8faea5ccbfdbcc1cd5d75b50d5b2b8a3a0a890ea97185a9d079fbb0acfceabe7',
        0.9790393502925985, 3.0350219859070515),
    ('follow_demand_location', 2): (
        '8faea5ccbfdbcc1cd5d75b50d5b2b8a3a0a890ea97185a9d079fbb0acfceabe7',
        0.9790393502925985, 3.0350219859070515),
    ('grid8x8', 0): (
        'eed699308d327643ace8fce10b8d7ce0f5b7b238610d4a8e264c91dc5c0b96da',
        0.932073657287038, 298.2635703318521),
    ('grid8x8', 1): (
        '08f4668d47826c5ec21a9eceddc6db9a1b5186e0a3ff73780ff7a8342cc0124c',
        0.8755777851282952, 280.18489124105446),
    ('grid8x8', 2): (
        '458526c75dd115c51886ced24ce0e279432e9fcd506d6cef18ed4ae860665452',
        0.9291820489726133, 297.33825567123625),
    ('location_helper', 0): (
        '8faea5ccbfdbcc1cd5d75b50d5b2b8a3a0a890ea97185a9d079fbb0acfceabe7',
        0.9790393502925985, 3.0350219859070515),
    ('location_helper', 1): (
        '8faea5ccbfdbcc1cd5d75b50d5b2b8a3a0a890ea97185a9d079fbb0acfceabe7',
        0.9790393502925985, 3.0350219859070515),
    ('location_helper', 2): (
        '8faea5ccbfdbcc1cd5d75b50d5b2b8a3a0a890ea97185a9d079fbb0acfceabe7',
        0.9790393502925985, 3.0350219859070515),
    ('relay_tiles_2x2', 0): (
        '648f80124e0755d55a9dfe9f0242eaee857501e1bf3d93c9ed07b0a61cde4d52',
        0.9772848821073359, 12.118332538130954),
    ('relay_tiles_2x2', 1): (
        '45d9b466121837232bcd2f87dcd16d81776df20ae4ed7e3402037a8ba65c9a55',
        0.9782931202606387, 12.13083469123191),
    ('relay_tiles_2x2', 2): (
        'bee25c398b0b37ec13d1668d4c1aaec5136267db4e1b6443629667ed53bdfc13',
        0.9782533259285718, 12.13034124151428),
    ('lowload_budget_kb2', 0): (
        '3017b1a2756bf783ce234ca243c50f45f8049048e20751708c6a783fbd1c70f0',
        0.8133609471913097, 9.001194482250494),
    ('lowload_budget_kb2', 1): (
        '4de600cfe36fb10935406ea2f4d3cb8862927fc68084568d3a0b2aed6b4cca71',
        0.6825971173407166, 7.554074765237263),
    ('lowload_budget_kb2', 2): (
        '93cb017c4171363cadedd85fa9acd2dea575e2a830b2374c4b9e1c14a0769799',
        0.9202413117565291, 10.184003850105588),
}


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_decisions_match_golden_digest(tmp_path, name, seed):
    digest, satisfaction, mean_achieved = GOLDEN[name, seed]
    report, _ = run_scenario(replace(make_spec(name), seed=seed), out_dir=tmp_path)
    assert decision_digest(read_trace(tmp_path), report) == digest
    assert report.satisfaction_ratio == pytest.approx(satisfaction, rel=1e-9)
    assert report.mean_achieved_mbps == pytest.approx(mean_achieved, rel=1e-9)
