"""meshmind: knowledge-driven self-organizing agents on a wireless mesh."""

from .agent import (Agent, AgentConfig, Sample, TraceEvent,
                    detect_unsatisfactory)
from .env import (DemandProfile, EnvConfig, Environment, EnvState, EnvView,
                  MeshTopology, MoveTo, SetChannel, ThroughputReport, UserSpec,
                  capacity)
from .harness import (MdpSpec, RunReport, ScenarioSpec, load_scenario,
                      q_learning_on_mdp, run_scenario, sweep, value_iteration)
from .kb import Case, KnowledgeBase
from .learning import (QParams, QTable, StateCodec, Transition, encode_state,
                       format_q_table, greedy, learning_coefficient, q_update)
from .optimize import (Boltzmann, Controlled, EpsilonGreedy,
                       boltzmann_probabilities, brute_force_channels,
                       count_conflicts, greedy_coloring, location_search,
                       select_action)
from .reasoning import (FeatureSpec, Outcome, PerceptVector, classify,
                        normalize, similarity)

__version__ = "0.1.0"

__all__ = [
    "Agent", "AgentConfig", "Sample", "TraceEvent", "detect_unsatisfactory",
    "DemandProfile", "EnvConfig", "Environment", "EnvState", "EnvView",
    "MeshTopology", "ThroughputReport", "UserSpec", "capacity",
    "MdpSpec", "RunReport", "ScenarioSpec", "load_scenario",
    "q_learning_on_mdp", "run_scenario", "sweep", "value_iteration",
    "Case", "KnowledgeBase",
    "QParams", "QTable", "StateCodec", "Transition", "encode_state",
    "format_q_table", "greedy", "learning_coefficient", "q_update",
    "Boltzmann", "Controlled", "EpsilonGreedy", "MoveTo", "SetChannel",
    "boltzmann_probabilities", "brute_force_channels", "count_conflicts",
    "greedy_coloring", "location_search", "select_action",
    "FeatureSpec", "Outcome", "PerceptVector", "classify", "normalize",
    "similarity",
]
