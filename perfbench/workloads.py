"""Seeded scenario generators for the benchmark workloads.

Each generator returns a plain scenario dict in the schema that
`meshmind.harness.scenario_from_dict` reads, so the program receives only
generated inputs. The seed becomes the scenario seed, which drives the
environment's demand draws and every agent's exploration RNG.
"""

from __future__ import annotations


def _grid(side: int):
    """Nodes on a side x side lattice with 4-neighbour interference edges."""
    nodes = [{"id": r * side + c, "x": c, "y": r}
             for r in range(side) for c in range(side)]
    edges = []
    for r in range(side):
        for c in range(side):
            i = r * side + c
            if c + 1 < side:
                edges.append([i, i + 1])
            if r + 1 < side:
                edges.append([i, i + side])
    return nodes, edges


def _one_user_per_node(nodes, demand):
    return [{"id": n["id"], "x": n["x"], "y": n["y"], "node": n["id"],
             "demand": demand} for n in nodes]


def grid_steady(seed: int, side: int = 24, horizon: int = 500) -> dict:
    """Constant demand 5.0 per node: met exactly when the node's link is
    conflict-free (a clean link carries ~9.97 Mbps, one interferer caps it
    below 3). Most ticks are idle, so the per-tick sensing path dominates."""
    nodes, edges = _grid(side)
    return {
        "schema_version": 1,
        "kind": "channel-assignment",
        "horizon": horizon,
        "seed": seed,
        "env": {
            "pathloss_exponent": 1.0, "tx_power": 1.0, "noise_floor": 0.001,
            "bandwidth_unit": 1.0, "channels": 3,
            "nodes": nodes, "edges": edges,
            "users": _one_user_per_node(nodes, 5.0),
        },
        "agents": {
            "policy": {"type": "epsilon-greedy", "epsilon": 0.2},
            "qparams": {"alpha": 0.4, "gamma": 0.3},
        },
    }


def grid_churn_traced(seed: int, side: int = 16, horizon: int = 500) -> dict:
    """The shipped lowload_windows radio model on a larger grid, with each
    user's demand redrawn every 8 steps, under the controlled policy."""
    nodes, edges = _grid(side)
    demand = {"mode": "random", "epoch": 8, "levels": [0.4, 0.8, 2.5, 5.0]}
    return {
        "schema_version": 1,
        "kind": "channel-assignment",
        "horizon": horizon,
        "seed": seed,
        "disruption_penalty": 1.0,
        "env": {
            "pathloss_exponent": 0.5, "tx_power": 1.0, "noise_floor": 0.001,
            "bandwidth_unit": 0.3, "channels": 3,
            "nodes": nodes, "edges": edges,
            "users": _one_user_per_node(nodes, demand),
        },
        "agents": {
            "policy": {"type": "controlled", "epsilon": 0.1,
                       "serving_threshold": 1.0},
            "qparams": {"alpha": 0.4, "gamma": 0.3},
            "thresholds": {"similarity": 0.8, "coefficient": 0.7},
            "kb": {"capacity": 256, "eviction": "lru"},
        },
    }


def mobile_relays(seed: int, cols: int = 10, rows: int = 10,
                  horizon: int = 2000) -> dict:
    """Copies of the shipped follow_demand_location scenario, tiled.

    Tile (c, r) is a 4-cell strip at x = 4c..4c+3, y = 2r with the relay
    starting at x = 4c+2 and a user at each end whose demand alternates
    between 3.0 and 0.1 every 20 steps. Tiles share no interference edge,
    but the value table is sized from the whole deployment area.
    """
    nodes, users = [], []
    hi_first = {"mode": "periodic", "period": 40, "segments": [[0, 3.0], [20, 0.1]]}
    lo_first = {"mode": "periodic", "period": 40, "segments": [[0, 0.1], [20, 3.0]]}
    for r in range(rows):
        for c in range(cols):
            nid, x0, y = r * cols + c, 4 * c, 2 * r
            nodes.append({"id": nid, "x": x0 + 2, "y": y,
                          "allowed": [[x0 + dx, y] for dx in range(4)]})
            users.append({"id": 2 * nid, "x": x0, "y": y, "node": nid,
                          "demand": hi_first})
            users.append({"id": 2 * nid + 1, "x": x0 + 3, "y": y, "node": nid,
                          "demand": lo_first})
    return {
        "schema_version": 1,
        "kind": "location-optimization",
        "horizon": horizon,
        "seed": seed,
        "env": {
            "pathloss_exponent": 2.0, "tx_power": 1.0, "noise_floor": 0.01,
            "bandwidth_unit": 1.0, "channels": 1,
            "nodes": nodes, "edges": [], "users": users,
        },
        "agents": {
            "policy": {"type": "epsilon-greedy", "epsilon": 0.1},
            "qparams": {"alpha": 0.3, "gamma": 0.5},
            "thresholds": {"similarity": 0.95, "coefficient": 0.9},
            "kb": {"capacity": 64, "eviction": "lru"},
        },
    }


# name -> (generator, whether the run collects and emits its trace)
WORKLOADS = {
    "grid_steady": (grid_steady, False),
    "grid_churn_traced": (grid_churn_traced, True),
    "mobile_relays": (mobile_relays, False),
}
