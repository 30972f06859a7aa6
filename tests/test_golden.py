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
        'd3ac0b6d79e9aec529d85fa6a40f5267ed3e45c1b5c35ec28a8b3f7f07ba1db5',
        0.9925062668070215, 29.775188004210644),
    ('ring6_channels', 1): (
        '4e3a2e2ccb3de1197bee858eea1059e7931ddff899c8bc3bb60aa436b2a88d12',
        0.9920818688979619, 29.762456066938856),
    ('ring6_channels', 2): (
        '445485d23ff5cb557de50d22ca61d39adbc4bc65b4ddcfa62b98a40862132c7a',
        0.9943664035931506, 29.83099210779452),
    ('lowload_windows', 0): (
        'c09893b4c0178a201c50767c25609b99dfa41ccc84d2a35b360d678bb4b001be',
        0.9467041158610016, 10.476858882195083),
    ('lowload_windows', 1): (
        'ae5d00d98b8812e316c1196ab841a5d469b3e98687bca3ec3526327230d58b91',
        0.7249582798917297, 8.02287163080181),
    ('lowload_windows', 2): (
        'dcfe60584d75077cb9d3a1c1b22d85412b4e2d75d66f281dd9db5178211c0c5a',
        0.943615334036358, 10.442676363335694),
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
        '224b60f6744ef062d250647eb98535297e0f129168cd0e69a6560467def26b5f',
        0.8580718201803951, 274.5829824577264),
    ('grid8x8', 1): (
        'c0eed70f8c44e68b43abf5a211772e77b00e208fb53c06981552a5967397f1be',
        0.9110945205951548, 291.55024659044955),
    ('grid8x8', 2): (
        '8300c32219f550fa7657a12aea30a8394a793e47bd5a64675fb80a82b1ac8405',
        0.8567717206405517, 274.16695060497653),
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
        'd8fae0f5f90ffd2ff900ce8b109eb7df8346f40a51d51f2fccf704db408c4936',
        0.9790393502925994, 12.14008794362822),
    ('relay_tiles_2x2', 1): (
        'b87fce5b5a361c8d97ba11b69917ed7060d4e6499a422e42ad00e9cedc1c3fbf',
        0.9787773421712568, 12.136839042923572),
    ('relay_tiles_2x2', 2): (
        'd8fae0f5f90ffd2ff900ce8b109eb7df8346f40a51d51f2fccf704db408c4936',
        0.9790393502925994, 12.14008794362822),
    ('lowload_budget_kb2', 0): (
        'b6b7609bd3612115705026db650a6992c329e78da5a91bde15a55190b99ae955',
        0.8048281698463815, 8.906765079633288),
    ('lowload_budget_kb2', 1): (
        'a9d7ca6f875b1a7c5569503290cf4d4d3847abba8ef1441dad62928fa66f0fb8',
        0.783173159609064, 8.66711629967364),
    ('lowload_budget_kb2', 2): (
        'c38e80912bdf0072ee7908f82eef9692d1c75d3dcf4ac9eba984d705e8e6ff51',
        0.8674723620926826, 9.600027473825689),
}


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_decisions_match_golden_digest(tmp_path, name, seed):
    digest, satisfaction, mean_achieved = GOLDEN[name, seed]
    report, _ = run_scenario(replace(make_spec(name), seed=seed), out_dir=tmp_path)
    assert decision_digest(read_trace(tmp_path), report) == digest
    assert report.satisfaction_ratio == pytest.approx(satisfaction, rel=1e-9)
    assert report.mean_achieved_mbps == pytest.approx(mean_achieved, rel=1e-9)
