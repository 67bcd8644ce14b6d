"""Tests for the kernel registry (`repro.kernels`) and the ``"compiled"`` name.

Two concerns:

* **registry centralization** — `KERNELS` / `check_kernel` live in one
  place and every consumer (capforest, parallel_capforest, CLI, API)
  uses that copy, so the advertised set cannot drift; every advertised
  kernel actually solves a fixture through the public API.
* **fallback** — ``kernel="compiled"`` names a removed tier and runs as
  the vector kernel *visibly*: the ``kernel_fallback`` stats key, exactly
  one ``kernel_fallback`` trace event per solve, and results identical to
  an explicit vector run through the facade, the engine, the CLI and the
  service.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.api import ALGORITHMS, minimum_cut
from repro.core.mincut import parallel_mincut
from repro.core.noi import noi_mincut
from repro.generators.gnm import connected_gnm
from repro.kernels import KERNELS, check_kernel, resolve_kernel
from repro.observability import Tracer
from repro.observability.schema import (
    EVENT_KINDS,
    PARCUT_STATS_KEYS,
    validate_parcut_stats,
    validate_trace_events,
)

#: the facade entries that take ``kernel=``; the completeness test below
#: checks every other entry rejects it
KERNEL_ALGORITHMS = ("noi", "noi-hnss", "noi-viecut", "parcut", "viecut")

#: stats that must match between a ``"compiled"`` and a ``"vector"`` run
_PQ_KEYS = ("pq_pushes", "pq_updates", "pq_skipped_updates", "pq_pops")


def _assert_same_solve(a, b) -> None:
    assert a.value == b.value
    assert np.array_equal(a.side, b.side)
    for key in _PQ_KEYS:
        assert a.stats[key] == b.stats[key], key


def _assert_compiled_stats(stats: dict) -> None:
    assert stats["kernel"] == "compiled"
    assert stats["kernel_resolved"] == "vector"
    assert stats["kernel_fallback"] is not None


# ---------------------------------------------------------------------------
# registry centralization
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_single_source_of_truth(self):
        # `repro.core.capforest` the *attribute* is the capforest function
        # (re-exported by the package), so import the names directly
        from repro.core.capforest import KERNELS as cf_kernels
        from repro.core.capforest import check_kernel as cf_check
        from repro.core.parallel_capforest import resolve_kernel as pcf_resolve

        assert KERNELS == ("scalar", "vector", "compiled")
        assert cf_kernels is KERNELS
        assert cf_check is check_kernel
        assert pcf_resolve is resolve_kernel

    def test_cli_choices_come_from_registry(self):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        kernel_action = next(
            a for a in parser._actions
            if isinstance(a, argparse.Action) and a.dest == "kernel"
        )
        assert tuple(kernel_action.choices) == KERNELS

    def test_check_kernel_rejects_unknowns(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            check_kernel("simd")
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("simd")

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("algorithm", ["noi", "parcut", "noi-viecut"])
    def test_every_advertised_kernel_solves(self, kernel, algorithm):
        g = connected_gnm(60, 180, rng=2, weights=(1, 7))
        expected = minimum_cut(g, algorithm="stoer-wagner")
        res = minimum_cut(g, algorithm=algorithm, rng=4, kernel=kernel)
        assert res.value == expected.value

    def test_kernel_algorithm_list_is_complete(self):
        g = connected_gnm(20, 40, rng=1)
        for name in sorted(set(ALGORITHMS) - set(KERNEL_ALGORITHMS)):
            with pytest.raises(TypeError, match="kernel"):
                minimum_cut(g, algorithm=name, kernel="vector")


# ---------------------------------------------------------------------------
# resolution and fallback visibility
# ---------------------------------------------------------------------------


class TestFallback:
    def test_resolve_passthrough(self):
        assert resolve_kernel("scalar") == ("scalar", None)
        assert resolve_kernel("vector") == ("vector", None)

    def test_resolve_degrades_without_tier(self):
        tr = Tracer()
        resolved, reason = resolve_kernel("compiled", tracer=tr)
        assert resolved == "vector"
        assert reason is not None and "compiled tier unavailable" in reason
        (event,) = tr.events("kernel_fallback")
        assert event["requested"] == "compiled"
        assert event["resolved"] == "vector"
        assert event["reason"] == reason
        # a native kernel emits nothing
        resolve_kernel("vector", tracer=tr)
        assert len(tr.events("kernel_fallback")) == 1

    def test_fallback_event_is_in_taxonomy(self):
        assert "kernel_fallback" in EVENT_KINDS

    def test_noi_stats_and_trace_surface_fallback(self):
        g = connected_gnm(50, 140, rng=1)
        tr = Tracer()
        res = noi_mincut(g, rng=3, kernel="compiled", tracer=tr)
        _assert_compiled_stats(res.stats)
        events = tr.events("kernel_fallback")
        assert len(events) == 1  # resolved once per solve, not per round
        assert events[0]["requested"] == "compiled"
        assert events[0]["resolved"] == "vector"
        validate_trace_events(tr.events())

    @pytest.mark.parametrize("algorithm", KERNEL_ALGORITHMS)
    def test_one_fallback_event_per_solve(self, algorithm):
        # drivers that chain solvers (noi-viecut: VieCut seed, then NOI)
        # must still resolve the name once
        g = connected_gnm(120, 400, rng=3, weights=(1, 9))
        tr = Tracer()
        res = minimum_cut(g, algorithm=algorithm, rng=5, kernel="compiled", tracer=tr)
        assert len(tr.events("kernel_fallback")) == 1
        _assert_compiled_stats(res.stats)
        validate_trace_events(tr.events())

    def test_parcut_stats_schema_covers_kernel_keys(self):
        g = connected_gnm(80, 250, rng=5, weights=(1, 5))
        assert {"kernel_resolved", "kernel_fallback"} <= PARCUT_STATS_KEYS
        res = parallel_mincut(g, workers=2, rng=7, kernel="compiled")
        validate_parcut_stats(res.stats)
        _assert_compiled_stats(res.stats)
        # a native-kernel run emits the same keys with a null fallback
        res2 = parallel_mincut(g, workers=2, rng=7, kernel="vector")
        validate_parcut_stats(res2.stats)
        assert res2.stats["kernel_resolved"] == "vector"
        assert res2.stats["kernel_fallback"] is None

    def test_resolved_runs_match_requested_fallback(self):
        # compiled-with-fallback must equal an explicit vector run exactly
        g = connected_gnm(90, 300, rng=8, weights=(1, 9))
        a = parallel_mincut(g, workers=3, rng=2, kernel="vector")
        b = parallel_mincut(g, workers=3, rng=2, kernel="compiled")
        assert a.value == b.value
        assert a.stats["pq_pops"] == b.stats["pq_pops"]
        assert a.stats["total_work"] == b.stats["total_work"]

    @pytest.mark.parametrize(
        "algorithm, kwargs",
        [
            ("noi", {}),
            ("noi-viecut", {}),
            ("parcut", {"executor": "serial", "workers": 3}),
            # one process worker: a multi-worker processes pass races on the
            # shared visited table, so only p = 1 makes its counters repeatable
            ("parcut", {"executor": "processes", "workers": 1, "timeout": 120.0}),
        ],
        ids=["noi", "noi-viecut", "parcut-serial", "parcut-processes"],
    )
    def test_facade_compiled_equals_vector(self, algorithm, kwargs):
        g = connected_gnm(100, 350, rng=6, weights=(1, 9))
        a = minimum_cut(g, algorithm=algorithm, rng=9, kernel="vector", **kwargs)
        b = minimum_cut(g, algorithm=algorithm, rng=9, kernel="compiled", **kwargs)
        _assert_same_solve(a, b)
        _assert_compiled_stats(b.stats)
        assert a.stats["kernel_fallback"] is None
        if "executor" in kwargs:
            assert b.stats["final_executor"] == kwargs["executor"]

    def test_engine_solve_resolves_compiled_to_vector(self):
        from repro.engine import SolverEngine

        g = connected_gnm(60, 200, rng=1, weights=(1, 5))
        with SolverEngine(pool_size=1) as eng:
            a = eng.solve(g, "noi-viecut", rng=0, kernel="vector", cache=False)
            b = eng.solve(g, "noi-viecut", rng=0, kernel="compiled", cache=False)
            stats = eng.stats()
        _assert_same_solve(a, b)
        _assert_compiled_stats(b.stats)
        assert "kernels" not in stats

    def test_service_solve_resolves_compiled_to_vector(self):
        from repro.service import ServiceClient, ServiceConfig
        from repro.service.testing import ServiceThread

        g = connected_gnm(60, 200, rng=1, weights=(1, 5))
        with ServiceThread(
            engine_kwargs={"pool_size": 1},
            config=ServiceConfig(max_inflight=4, per_client_inflight=4),
        ) as st:
            with ServiceClient("127.0.0.1", st.port) as client:
                bodies = [
                    client.solve(g, algorithm="parcut", include_side=True, cache=False,
                                 kwargs={"kernel": kernel, "rng": 3, "workers": 2})
                    for kernel in ("vector", "compiled")
                ]
                payload = client.stats()
        (sa, _, a), (sb, _, b) = bodies
        assert sa == sb == 200
        assert a["value"] == b["value"]
        assert a["side"] == b["side"]
        assert "kernels" not in payload["engine"]

    def test_cli_compiled_equals_vector(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph import write_metis

        path = tmp_path / "g.graph"
        write_metis(connected_gnm(60, 200, rng=4, weights=(1, 5)), path)
        docs = {}
        for kernel in ("vector", "compiled"):
            out = tmp_path / f"{kernel}.json"
            assert main([
                "--algorithm", "parcut", "--workers", "2", "--seed", "1",
                "--kernel", kernel, "--metrics-json", str(out),
                "--trace", str(tmp_path / f"{kernel}.jsonl"), str(path),
            ]) == 0
            docs[kernel] = json.loads(out.read_text())
        capsys.readouterr()
        a, b = docs["vector"], docs["compiled"]
        assert a["value"] == b["value"]
        for key in _PQ_KEYS:
            assert a["stats"][key] == b["stats"][key], key
        _assert_compiled_stats(b["stats"])
        assert b["trace_summary"]["by_kind"]["kernel_fallback"] == 1
        assert "kernel_fallback" not in a["trace_summary"]["by_kind"]
