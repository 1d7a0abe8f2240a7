"""Synchronous CONGEST-model simulator (and an async engine + synchroniser α).

This package is the substrate on which every algorithm of the paper is
implemented and measured.  See DESIGN.md §3.
"""

from .errors import (
    ConfigurationError,
    CongestionViolation,
    FaultConfigError,
    HaltedNodeActed,
    MessageTooLarge,
    ModelViolation,
    NotANeighbor,
    RoundLimitExceeded,
    SimulationError,
    UnserializablePayload,
)
from .faults import (
    CRASH,
    DELAY,
    DROP,
    DUPLICATE,
    FaultConfig,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    RunReport,
)
from .metrics import RunMetrics
from .model import DEFAULT_WORD_LIMIT, Envelope, MessageStats, measure_words
from .network import DEFAULT_MAX_ROUNDS, Network
from .program import Context, IdleProgram, NodeProgram, ScriptedProgram, split_by_tag
from .reliable import (
    RELIABLE_HEADER_WORDS,
    ReliableContext,
    ReliableProgram,
    make_reliable,
)
from .runner import ParallelRunError, RunRecord, StagedRun, run_in_parallel
from .virtual import ContractedGraph, VirtualNetwork
from .events import AsyncContext, AsyncNetwork, AsyncNodeProgram
from .synchronizer import AlphaSynchronizerNode, run_synchronized

__all__ = [
    "AlphaSynchronizerNode",
    "AsyncContext",
    "AsyncNetwork",
    "AsyncNodeProgram",
    "CRASH",
    "ConfigurationError",
    "CongestionViolation",
    "ContractedGraph",
    "Context",
    "DEFAULT_MAX_ROUNDS",
    "DEFAULT_WORD_LIMIT",
    "DELAY",
    "DROP",
    "DUPLICATE",
    "Envelope",
    "FaultConfig",
    "FaultConfigError",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "HaltedNodeActed",
    "IdleProgram",
    "MessageStats",
    "MessageTooLarge",
    "ModelViolation",
    "Network",
    "NodeProgram",
    "NotANeighbor",
    "ParallelRunError",
    "RELIABLE_HEADER_WORDS",
    "ReliableContext",
    "ReliableProgram",
    "RoundLimitExceeded",
    "RunMetrics",
    "RunRecord",
    "RunReport",
    "ScriptedProgram",
    "SimulationError",
    "StagedRun",
    "UnserializablePayload",
    "VirtualNetwork",
    "make_reliable",
    "measure_words",
    "run_in_parallel",
    "run_synchronized",
    "split_by_tag",
]
