"""Long-lived supervised solve-worker pool.

Where :mod:`~repro.core.parallel_capforest` spawns fresh processes for
every CAPFOREST pass, the engine keeps ``size`` worker processes alive for
its whole lifetime and streams *solve requests* to them: each task names a
shared-memory plane (:mod:`~repro.engine.planes`), an algorithm, and the
solve kwargs; the worker attaches to the plane zero-copy, runs the full
solve through :func:`repro.core.api.minimum_cut`, and posts the result
back.  Process startup, interpreter warm-up, and numpy import costs are
paid once per worker instead of once per solve — the overhead the paper's
shared-memory design amortises, applied at request granularity.

Workers are daemonic, so solves inside the pool use the in-process
``serial`` executor; the pool itself provides the process parallelism
*across* requests.  The engine coerces ``executor="processes"`` to
``serial`` accordingly (daemonic processes may not have children).

Supervision mirrors :mod:`repro.runtime.supervisor`'s philosophy — never
block forever, turn failures into structured events: the owning engine
polls results with a bounded ``get``, checks ``exitcode`` per worker, and
calls :meth:`WorkerPool.recycle` to replace a crashed or deadline-blown
worker with a fresh process (the ``pool_recycle`` trace event).  A pool
that exhausts its recycle budget is abandoned and the engine degrades to
in-process solving — the same ladder shape as ``processes → serial``,
one level up.
"""

from __future__ import annotations

import gc
import os
import queue
import time

#: result-queue poll granularity of the engine dispatcher (seconds)
POLL_INTERVAL = 0.02

#: how long WorkerPool.shutdown waits for a worker to exit cleanly
SHUTDOWN_GRACE = 2.0


def _pool_worker_main(worker_id: int, task_q, result_q) -> None:
    # pragma: no cover — exercised via subprocesses (tests/test_engine.py)
    """One pool worker: loop over tasks until the ``None`` sentinel.

    Every task posts exactly one ``(worker_id, req_id, status, payload)``
    tuple: ``("ok", result-tuple)`` or ``("error", repr(exc))``.  Worker
    deaths post nothing — the engine detects them through ``exitcode``.
    """
    from ..core.api import minimum_cut
    from ..graph.shm import SharedGraph

    while True:
        task = task_q.get()
        if task is None:
            return
        req_id = task["req_id"]
        fault = task.get("test_fault")
        if fault == "exit":  # deterministic crash injection for tests
            os._exit(task.get("exit_code", 9))
        if fault == "hang":
            time.sleep(task.get("sleep_seconds", 3600.0))
        plane = g = res = None
        try:
            plane = SharedGraph.attach(task["plane"])
            g = plane.graph()
            res = minimum_cut(
                g, algorithm=task["algorithm"],
                **task.get("options", {}), **task["kwargs"],
            )
            side = None if res.side is None else res.side.copy()
            result_q.put(
                (worker_id, req_id, "ok",
                 (int(res.value), side, res.n, res.algorithm, res.stats,
                  res.cactus))
            )
        except BaseException as exc:  # noqa: BLE001 - any failure must be reported
            try:
                result_q.put((worker_id, req_id, "error", repr(exc)))
            except Exception:  # pragma: no cover - dying queue
                pass
        finally:
            # solver results never alias the plane (sides/labels are fresh
            # arrays), but the attached Graph's views do — drop every local
            # reference before close or the segment refuses to unmap.  This
            # runs *after* the except handler so no in-flight exception's
            # traceback frames still pin the views; cyclic garbage (e.g. a
            # solver traceback caught above) may need a collection pass.
            g = res = side = None
            if plane is not None:
                try:
                    plane.close()
                except BufferError:  # pragma: no cover - cycle-held views
                    gc.collect()
                    plane.close()


class WorkerPool:
    """``size`` persistent solve workers with per-worker task queues.

    Assignment is engine-side (one in-flight task per worker), so crashes
    and deadlines are always attributable to exactly one request.
    """

    def __init__(self, size: int, start_method: str | None = None) -> None:
        import multiprocessing as mp

        from ..core.parallel_capforest import default_start_method

        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self.start_method = start_method or default_start_method()
        self._ctx = mp.get_context(self.start_method)
        self._result_q = self._ctx.Queue()
        self._task_qs: list = [None] * size
        self._procs: list = [None] * size
        self.recycles = 0
        for i in range(size):
            self._spawn(i)

    def _spawn(self, worker_id: int) -> None:
        # a fresh task queue per (re)spawn: a terminated worker may have
        # died between get() and put(), leaving its old queue in an
        # undefined feeder state
        self._task_qs[worker_id] = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(worker_id, self._task_qs[worker_id], self._result_q),
            daemon=True,
        )
        proc.start()
        self._procs[worker_id] = proc

    def submit(self, worker_id: int, task: dict) -> None:
        """Hand one task to one worker (the engine keeps it single-flight)."""
        self._task_qs[worker_id].put(task)

    def poll(self, timeout: float = POLL_INTERVAL):
        """Next ``(worker_id, req_id, status, payload)`` or ``None``."""
        try:
            return self._result_q.get(timeout=timeout)
        except queue.Empty:
            return None

    def drain(self) -> list:
        """Every result currently queued, without blocking."""
        out = []
        while True:
            try:
                out.append(self._result_q.get_nowait())
            except queue.Empty:
                return out

    def exitcode(self, worker_id: int):
        """``None`` while alive, the exit code once dead."""
        return self._procs[worker_id].exitcode

    def recycle(self, worker_id: int) -> None:
        """Terminate and respawn one worker (crash or deadline recovery)."""
        proc = self._procs[worker_id]
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=SHUTDOWN_GRACE)
        self.recycles += 1
        self._spawn(worker_id)

    def shutdown(self) -> None:
        """Stop every worker: sentinel, grace join, then terminate."""
        for q in self._task_qs:
            try:
                q.put(None)
            except Exception:  # pragma: no cover - queue already broken
                pass
        deadline = time.monotonic() + SHUTDOWN_GRACE
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=SHUTDOWN_GRACE)
        self._result_q.close()
        for q in self._task_qs:
            q.close()


__all__ = ["POLL_INTERVAL", "WorkerPool"]
