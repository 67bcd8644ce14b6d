"""Unit tests for the supervised execution runtime (repro.runtime)."""

import numpy as np
import pytest

from repro.core.api import minimum_cut
from repro.core.mincut import parallel_mincut
from repro.generators import connected_gnm
from repro.graph import from_edges
from repro.runtime import (
    DEGRADATION_LADDER,
    EXECUTORS,
    ExecutorUnavailable,
    FaultClock,
    FaultPlan,
    NoProgressError,
    RuntimeFault,
    WorkerCrashed,
    WorkerFault,
    WorkerTimeout,
    call_with_degradation,
    raise_for_events,
    worker_event,
)
from repro.runtime.supervisor import _validate_payload


class TestExecutorList:
    """One executor list, derived from the ladder, checked on every entry."""

    def test_executors_are_the_ladder_rungs(self):
        assert EXECUTORS == tuple(DEGRADATION_LADDER) == ("processes", "serial")
        assert FaultPlan().executors == EXECUTORS
        assert FaultPlan.kill([0]).executors == EXECUTORS

    def test_cli_and_figure5_choices_come_from_the_list(self):
        from repro.cli import build_parser
        from repro.experiments.figure5 import main as figure5_main

        actions = {a.dest: a for a in build_parser()._actions}
        assert tuple(actions["executor"].choices) == EXECUTORS
        with pytest.raises(SystemExit) as exc:
            figure5_main(["--executor", "threads"])
        assert exc.value.code == 2

    def test_thread_code_is_gone(self):
        import repro.viecut.label_propagation as lp

        with pytest.raises(ImportError):
            __import__("repro.datastructures.concurrent_union_find")
        assert not hasattr(lp, "propagate_labels_parallel")

    @pytest.mark.parametrize("executor", ["threads", "bogus"])
    @pytest.mark.parametrize("shape", ["disconnected", "two_vertices", "connected"])
    @pytest.mark.parametrize("algorithm", ["parcut", "matula", "karger-nlt"])
    def test_unknown_executor_rejected(self, algorithm, shape, executor):
        graph = {
            "disconnected": from_edges(4, [0, 2], [1, 3], [1, 1]),
            "two_vertices": from_edges(2, [0], [1], [3]),
            "connected": connected_gnm(12, 24, rng=0, weights=(1, 4)),
        }[shape]
        with pytest.raises(ValueError, match="unknown executor"):
            minimum_cut(graph, algorithm, executor=executor)


class TestErrors:
    def test_taxonomy_hierarchy(self):
        for cls in (WorkerCrashed, WorkerTimeout, ExecutorUnavailable, NoProgressError):
            assert issubclass(cls, RuntimeFault)
        assert issubclass(RuntimeFault, RuntimeError)

    def test_worker_crashed_message(self):
        exc = WorkerCrashed(3, exit_code=70, detail="injected")
        assert exc.worker_id == 3
        assert exc.exit_code == 70
        assert "worker 3" in str(exc) and "70" in str(exc)

    def test_worker_timeout_message(self):
        exc = WorkerTimeout(1, 2.5)
        assert exc.worker_id == 1
        assert "2.5" in str(exc)

    def test_executor_unavailable_dominant_kind(self):
        exc = ExecutorUnavailable("processes", "x", [worker_event(0, "crashed")])
        assert exc.dominant_kind == "crashed"
        exc = ExecutorUnavailable(
            "processes", "x", [worker_event(0, "crashed"), worker_event(1, "timeout")]
        )
        assert exc.dominant_kind == "timeout"


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WorkerFault("explode")

    def test_scoped_to_executor(self):
        plan = FaultPlan.kill([0], executors=("processes",))
        assert plan.for_worker(0, "processes") is not None
        assert plan.for_worker(0, "serial") is None
        assert plan.for_worker(1, "processes") is None

    def test_clock_fires_once_after_pops(self):
        clock = FaultClock(WorkerFault("crash", after_pops=2))
        assert clock.tick() is None
        assert clock.tick() is None
        fault = clock.tick()
        assert fault is not None and fault.kind == "crash"
        assert clock.tick() is None  # never re-fires

    def test_clock_without_fault(self):
        clock = FaultClock(None)
        assert all(clock.tick() is None for _ in range(5))

    def test_hang_sleep_default(self):
        assert WorkerFault("hang").sleep_seconds > 100
        assert WorkerFault("hang", delay=0.1).sleep_seconds == 0.1
        assert WorkerFault("crash").sleep_seconds == 0.0


class TestPayloadValidation:
    def test_accepts_clean_payload(self):
        wid, pairs, rep = _validate_payload((1, [(0, 2)], {"a": 1}), n=3, n_workers=2)
        assert wid == 1 and pairs == [(0, 2)]

    @pytest.mark.parametrize(
        "payload",
        [
            "garbage",
            (1, [(0, 2)]),  # wrong arity
            (9, [], {}),  # worker id out of range
            (0, [(0, 5)], {}),  # pair out of range
            (0, [(0, -1)], {}),  # negative vertex
            (0, [(0, 1, 2)], {}),  # malformed pair
            (0, [], "not a dict"),
        ],
    )
    def test_rejects_corrupt_payloads(self, payload):
        with pytest.raises((ValueError, TypeError)):
            _validate_payload(payload, n=3, n_workers=2)


class TestDegradationLadder:
    def test_ladder_shape(self):
        assert DEGRADATION_LADDER == {"processes": "serial", "serial": None}

    def test_degrades_until_success(self):
        seen = []

        def call(executor):
            seen.append(executor)
            if executor != "serial":
                raise ExecutorUnavailable(executor, "boom")
            return 42

        result, used = call_with_degradation(call, "processes")
        assert result == 42 and used == "serial"
        assert seen == ["processes", "serial"]

    def test_records_each_degradation(self):
        hops = []

        def call(executor):
            if executor == "processes":
                raise ExecutorUnavailable(executor, "boom")
            return 1

        call_with_degradation(
            call, "processes", on_degrade=lambda a, b, e: hops.append((a, b))
        )
        assert hops == [("processes", "serial")]

    def test_fail_policy_raises_immediately(self):
        def call(executor):
            raise ExecutorUnavailable(executor, "boom")

        with pytest.raises(ExecutorUnavailable):
            call_with_degradation(call, "processes", policy="fail")

    def test_serial_failure_exhausts_ladder(self):
        def call(executor):
            raise ExecutorUnavailable(executor, "boom")

        with pytest.raises(ExecutorUnavailable):
            call_with_degradation(call, "serial")

    def test_no_progress_is_not_degradable(self):
        def call(executor):
            raise NoProgressError("stalled")

        with pytest.raises(NoProgressError):
            call_with_degradation(call, "processes")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            call_with_degradation(lambda e: 1, "serial", policy="retry")


class TestRaiseForEvents:
    def test_timeout_dominated(self):
        with pytest.raises(WorkerTimeout):
            raise_for_events("processes", [worker_event(2, "timeout", deadline_s=1.0)])

    def test_crash_dominated(self):
        with pytest.raises(WorkerCrashed):
            raise_for_events(
                "processes",
                [worker_event(0, "crashed", exit_code=70), worker_event(1, "timeout")],
            )

    def test_empty_events(self):
        with pytest.raises(ExecutorUnavailable):
            raise_for_events("processes", [])


class TestNoProgressWatchdog:
    def test_stalled_contraction_raises(self, monkeypatch):
        """A round that fails to shrink the graph must abort, not loop."""
        import repro.core.mincut as mincut_mod

        monkeypatch.setattr(
            mincut_mod,
            "parallel_contract_by_labels",
            lambda g, labels, workers=4, kernel=None: (g, np.arange(g.n, dtype=np.int64)),
        )
        g = connected_gnm(20, 40, rng=np.random.default_rng(0), weights=(1, 4))
        with pytest.raises(NoProgressError):
            parallel_mincut(g, workers=2, rng=0)

    def test_invalid_policy_rejected(self):
        g = connected_gnm(10, 15, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            parallel_mincut(g, rng=0, on_worker_failure="shrug")


class TestCliExitCodes:
    def test_mapping(self):
        from repro.cli import (
            EXIT_NO_PROGRESS,
            EXIT_TIMEOUT,
            EXIT_WORKER_FAILURE,
            exit_code_for,
        )

        assert exit_code_for(WorkerTimeout(0, 1.0)) == EXIT_TIMEOUT
        assert exit_code_for(WorkerCrashed(0, 1)) == EXIT_WORKER_FAILURE
        assert exit_code_for(NoProgressError("x")) == EXIT_NO_PROGRESS
        assert (
            exit_code_for(ExecutorUnavailable("p", "x", [worker_event(0, "timeout")]))
            == EXIT_TIMEOUT
        )
        assert (
            exit_code_for(ExecutorUnavailable("p", "x", [worker_event(0, "crashed")]))
            == EXIT_WORKER_FAILURE
        )

    def test_flags_accepted(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph import from_edges, write_metis

        path = tmp_path / "g.graph"
        write_metis(from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0]), path)
        code = main(
            [
                "--algorithm", "parcut", "--workers", "2",
                "--timeout", "30", "--on-worker-failure", "degrade",
                str(path),
            ]
        )
        assert code == 0
        assert "mincut" in capsys.readouterr().out

    def test_timeout_flag_rejected_for_sequential_solver(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph import from_edges, write_metis

        path = tmp_path / "g.graph"
        write_metis(from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0]), path)
        # stoer-wagner takes no timeout kwarg: invalid usage, exit code 2
        assert main(["--algorithm", "stoer-wagner", "--timeout", "5", str(path)]) == 2
