"""Worker supervision for the ``processes`` executor + the degradation ladder.

The original process executor did ``results = [out.get() for _ in procs]``
— one crashed or wedged worker and the coordinator blocked forever.  The
supervisor replaces that with a bounded collection loop:

* every ``out.get`` carries a timeout (poll interval), so the loop always
  regains control;
* between polls each missing worker's ``Process.exitcode`` is inspected —
  a nonzero exit is recorded as a *crashed* event immediately, a clean
  exit with no payload becomes a *lost* event after a short grace period
  (the queue feeder thread may still be flushing);
* an overall deadline (default :data:`DEFAULT_TIMEOUT`, a backstop so no
  run can hang even when the caller passes no timeout) converts the
  remaining workers into *timeout* events and terminates them;
* payloads are sanitised before they are merged — a worker reporting
  out-of-range contraction pairs is recorded as *corrupt* and its payload
  discarded, never unioned.

Losing workers is safe by the paper's Lemma 3.2(1): contraction marks are
unions, unions commute, and any *subset* of safe marks is still safe — the
merged result of the survivors is exact, merely (potentially) slower to
converge.  Only when *no* worker survives does the supervisor's caller
raise :class:`~repro.runtime.errors.ExecutorUnavailable`, which the
degradation ladder (``processes → serial``) turns into a retry on the
deterministic in-process executor.
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass, field

from .errors import ExecutorUnavailable, NoProgressError, RuntimeFault, WorkerCrashed, WorkerTimeout

#: backstop deadline applied when the caller supplies no timeout — generous
#: enough for any in-repo workload, finite so nothing can hang forever.
DEFAULT_TIMEOUT = 600.0

#: how often the collection loop wakes to check worker liveness
POLL_INTERVAL = 0.05

#: grace period for a cleanly-exited worker whose payload has not yet been
#: drained from the queue (the feeder thread flushes asynchronously)
EXIT_GRACE = 0.5

#: executor downgrade chain; ``None`` means nowhere left to go
DEGRADATION_LADDER: dict[str, str | None] = {
    "processes": "serial",
    "serial": None,
}

#: every executor a parallel solver accepts — the ladder's rungs, so the
#: two can never disagree (CLI choices and validators import this tuple)
EXECUTORS: tuple[str, ...] = tuple(DEGRADATION_LADDER)


def check_executor(executor: str) -> None:
    """Raise ``ValueError`` unless ``executor`` is one of :data:`EXECUTORS`."""
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}; expected one of {EXECUTORS}")


def worker_event(worker_id: int, kind: str, **detail) -> dict:
    """A structured per-worker event for result ``stats``/``events`` lists."""
    ev = {"worker_id": worker_id, "kind": kind}
    ev.update(detail)
    return ev


@dataclass
class SupervisedOutcome:
    """What the supervisor salvaged from one process fan-out."""

    #: validated payloads, keyed by worker id
    results: dict[int, tuple] = field(default_factory=dict)
    #: structured events for every worker that did not report cleanly
    events: list[dict] = field(default_factory=list)

    @property
    def all_lost(self) -> bool:
        return not self.results


def _validate_payload(payload, n: int, n_workers: int) -> tuple[int, list, dict]:
    """Sanitise one worker payload; raise ``ValueError`` on corruption.

    Merging is a sequence of union–find unions, so the only way a bad
    payload can poison the result is through its pair list — every pair
    must be a valid vertex pair.  ``pairs`` may be ``None``: the sentinel
    meaning the pairs travelled through the shared-memory return buffer
    instead of the queue (the coordinator range-checks that buffer row
    itself before merging).  The report dict only feeds statistics, but
    its fields are type-checked too so a mangled payload cannot crash the
    coordinator later.
    """
    if not isinstance(payload, tuple) or len(payload) != 3:
        raise ValueError(f"malformed payload (expected 3-tuple, got {type(payload).__name__})")
    worker_id, pairs, rep = payload
    if not isinstance(worker_id, int) or not (0 <= worker_id < n_workers):
        raise ValueError(f"worker id {worker_id!r} out of range")
    for pair in pairs if pairs is not None else ():
        if len(pair) != 2:
            raise ValueError(f"worker {worker_id}: malformed pair {pair!r}")
        u, v = pair
        if not (0 <= int(u) < n and 0 <= int(v) < n):
            raise ValueError(f"worker {worker_id}: pair ({u}, {v}) out of range for n={n}")
    if not isinstance(rep, dict):
        raise ValueError(f"worker {worker_id}: report is not a dict")
    return worker_id, pairs, rep


def supervise_processes(
    procs,
    out,
    *,
    n: int,
    timeout: float | None = None,
    poll_interval: float = POLL_INTERVAL,
) -> SupervisedOutcome:
    """Collect one payload per process in ``procs`` without ever hanging.

    ``procs`` is indexed by worker id; ``out`` is a ``multiprocessing.Queue``
    whose ``get`` supports a timeout; ``n`` is the vertex count used to
    validate contraction pairs.  Returns the surviving payloads plus one
    event per lost worker.  Always terminates and joins every process
    before returning.
    """
    budget = DEFAULT_TIMEOUT if timeout is None else timeout
    deadline = time.monotonic() + budget
    outcome = SupervisedOutcome()
    pending = set(range(len(procs)))
    exited_at: dict[int, float] = {}

    def accept(payload) -> None:
        try:
            worker_id, pairs, rep = _validate_payload(payload, n, len(procs))
        except (ValueError, TypeError) as exc:
            wid = payload[0] if isinstance(payload, tuple) and payload else -1
            wid = wid if isinstance(wid, int) else -1
            outcome.events.append(worker_event(wid, "corrupt", detail=str(exc)))
            pending.discard(wid)
            return
        outcome.results[worker_id] = (worker_id, pairs, rep)
        pending.discard(worker_id)

    try:
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                for wid in sorted(pending):
                    outcome.events.append(worker_event(wid, "timeout", deadline_s=budget))
                break
            try:
                accept(out.get(timeout=min(poll_interval, remaining)))
                continue
            except queue.Empty:
                pass
            now = time.monotonic()
            for wid in sorted(pending):
                code = procs[wid].exitcode
                if code is None:
                    continue
                if code != 0:
                    outcome.events.append(worker_event(wid, "crashed", exit_code=code))
                    pending.discard(wid)
                elif now - exited_at.setdefault(wid, now) > EXIT_GRACE:
                    # clean exit, queue drained, grace elapsed: payload lost
                    outcome.events.append(worker_event(wid, "lost", exit_code=0))
                    pending.discard(wid)
    finally:
        for pr in procs:
            if pr.is_alive():
                pr.terminate()
        for pr in procs:
            pr.join(timeout=5.0)
        out.close()
    return outcome


def raise_for_events(executor: str, events: list[dict]):
    """Raise the most specific fault for a fatal (or fail-fast) event set."""
    timeouts = [e for e in events if e.get("kind") == "timeout"]
    crashes = [e for e in events if e.get("kind") in ("crashed", "lost", "corrupt")]
    if timeouts and not crashes:
        ev = timeouts[0]
        raise WorkerTimeout(ev["worker_id"], ev.get("deadline_s", 0.0))
    if crashes:
        ev = crashes[0]
        raise WorkerCrashed(ev["worker_id"], ev.get("exit_code"), ev.get("detail", ev["kind"]))
    raise ExecutorUnavailable(executor, "no workers reported", events)


def call_with_degradation(
    call,
    executor: str,
    *,
    policy: str = "degrade",
    on_degrade=None,
    tracer=None,
):
    """Run ``call(executor)``, stepping down the ladder on executor faults.

    ``call`` is retried on the next-simpler executor each time it raises a
    :class:`RuntimeFault` (other than :class:`NoProgressError`, which
    signals an algorithmic stall, not an executor problem).  Retries are
    capped by the ladder length, so the call runs at most twice.
    ``on_degrade(from_executor, to_executor, exc)`` is invoked before each
    retry — callers use it to record the event in their ``stats``.

    ``tracer`` (optional :class:`repro.observability.Tracer`) receives one
    structured ``degradation`` event per ladder step, in addition to the
    ``on_degrade`` callback.

    Returns ``(result, executor_used)`` so callers can stay degraded for
    subsequent rounds instead of re-paying the failure each time.
    """
    if policy not in ("degrade", "fail"):
        raise ValueError(f"unknown degradation policy {policy!r}")
    while True:
        try:
            return call(executor), executor
        except NoProgressError:
            raise
        except RuntimeFault as exc:
            nxt = DEGRADATION_LADDER.get(executor)
            if policy != "degrade" or nxt is None:
                raise
            if on_degrade is not None:
                on_degrade(executor, nxt, exc)
            if tracer is not None:
                tracer.emit(
                    "degradation",
                    stage="capforest",
                    from_executor=executor,
                    to_executor=nxt,
                    reason=str(exc),
                )
            executor = nxt
