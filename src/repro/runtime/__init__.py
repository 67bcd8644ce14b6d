"""Supervised execution runtime: supervision, fault injection, degradation.

Every parallel code path in the package routes its worker management
through this subsystem so that no executor can hang the coordinator, every
failure is observable as a structured event, and a failing executor
degrades ``processes → serial`` instead of aborting (Lemma 3.2(1) makes
dropped workers safe; the deterministic in-process fallback guarantees
progress when every worker process dies).  :data:`EXECUTORS` is the one
list of executor names every solver, the CLI and the experiments accept.
See the module docstrings of :mod:`~repro.runtime.supervisor`,
:mod:`~repro.runtime.faults` and :mod:`~repro.runtime.errors` for the
pieces.
"""

from .errors import (
    ExecutorUnavailable,
    NoProgressError,
    RuntimeFault,
    WorkerCrashed,
    WorkerTimeout,
)
from .faults import FaultClock, FaultPlan, WorkerFault
from .supervisor import (
    DEFAULT_TIMEOUT,
    DEGRADATION_LADDER,
    EXECUTORS,
    SupervisedOutcome,
    call_with_degradation,
    check_executor,
    raise_for_events,
    supervise_processes,
    worker_event,
)

__all__ = [
    "RuntimeFault",
    "WorkerCrashed",
    "WorkerTimeout",
    "ExecutorUnavailable",
    "NoProgressError",
    "FaultPlan",
    "WorkerFault",
    "FaultClock",
    "DEFAULT_TIMEOUT",
    "DEGRADATION_LADDER",
    "EXECUTORS",
    "SupervisedOutcome",
    "call_with_degradation",
    "check_executor",
    "raise_for_events",
    "supervise_processes",
    "worker_event",
]
