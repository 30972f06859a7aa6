"""meshmind: knowledge-driven self-organizing agents on a wireless mesh."""

from .agent import Agent, AgentConfig, TraceEvent
from .env import (DemandProfile, EnvConfig, Environment, EnvState, MeshTopology,
                  MoveTo, SetChannel, ThroughputReport, UserSpec, capacity)
from .harness import (MdpSpec, RunReport, ScenarioSpec, load_scenario,
                      q_learning_on_mdp, run_scenario, sweep, value_iteration)
from .kb import Case, KnowledgeBase
from .learning import (QParams, QTable, StateCodec, Transition, encode_state,
                       format_q_table, learning_coefficient, q_update)
from .optimize import (Controlled, EpsilonGreedy, brute_force_channels,
                       count_conflicts, greedy_coloring, location_search,
                       select_action)
from .reasoning import FeatureSpec, Outcome, classify, normalize, similarity

__version__ = "0.1.0"

__all__ = [
    "Agent", "AgentConfig", "TraceEvent",
    "DemandProfile", "EnvConfig", "Environment", "EnvState", "MeshTopology",
    "ThroughputReport", "UserSpec", "capacity",
    "MdpSpec", "RunReport", "ScenarioSpec", "load_scenario",
    "q_learning_on_mdp", "run_scenario", "sweep", "value_iteration",
    "Case", "KnowledgeBase",
    "QParams", "QTable", "StateCodec", "Transition", "encode_state",
    "format_q_table", "learning_coefficient", "q_update",
    "Controlled", "EpsilonGreedy", "MoveTo", "SetChannel",
    "brute_force_channels", "count_conflicts",
    "greedy_coloring", "location_search", "select_action",
    "FeatureSpec", "Outcome", "classify", "normalize", "similarity",
]
