"""Traced-mode smoke check.

    python3 perfbench/checks/trace_smoke.py [--seconds 20] [--seed 3]

Runs every workload once with ``--trace 1`` and checks that

* every per-layer metric of ``BENCHMARK.json`` is printed, and each metric
  a workload exercises (``EXERCISED`` below) is non-zero on it;
* on the kcore workloads, the span dump is well formed and the self times
  of the layer spans inside each op sum to no more than the op's wall time
  (both guard the span recorder), and on kcore-parcut the solver's own
  ``phase_seconds`` sum to no more than the op's wall time;
* on service-mix, the wire and handler splits are not negative;
* the tracing overhead (``trace.overhead_frac``) is reported.

Run from the root of a checkout.  Exit code 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from tracing import self_times  # noqa: E402

#: metrics that must be non-zero on the workload that exercises their layer
EXERCISED = {
    "kcore-seq": (
        "viecut.self_s", "viecut.lp_s", "viecut.pr_s", "noi.rounds",
        "capforest.s", "capforest.calls", "capforest.pq_pops",
        "capforest.pq_updates", "capforest.edges_scanned",
        "capforest.ns_per_edge", "contract.s", "contract.first_ratio",
        "setup.generate_s", "setup.warmup_s",
    ),
    "kcore-parcut": (
        "viecut.lp_s", "parcut.viecut_s", "parcut.capforest_s",
        "parcut.contract_s", "parcut.unattributed_s", "parcut.modeled_speedup",
        "contract.first_ratio", "setup.generate_s", "setup.warmup_s",
    ),
    "service-mix": (
        "service.wire_s", "service.handler_s", "engine.request_s",
        "engine.cache_hit_ratio", "service.hit_s", "service.miss_s",
        "service.update_s", "service.all_cuts_s", "dynamic.fast_path_frac",
        "dynamic.seeded_frac", "dynamic.cold_frac", "dynamic.warm_s",
        "setup.generate_s", "setup.service_start_s", "setup.warmup_s",
    ),
}


def traced_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def span_problems(path: Path, phases: bool) -> list[str]:
    """Problems in one span dump.

    Two checks guard the span recorder itself: every span is closed and
    lies within its parent's interval, and the layer self times inside an
    op sum to no more than the op span's wall time (this holds whenever
    spans nest, so it fails only on a recorder fault).  One check is
    independent of the recorder: where the solver keeps its own phase clock
    (ParCut's ``phase_seconds``, stored on the op span as ``phase_s``), the
    phases sum to no more than the op's wall time on the benchmark's clock;
    with ``phases`` every op must carry that clock.
    """
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    if not spans:
        return ["no op spans recorded"]
    problems = []
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if s["end"] is None:
            problems.append(f"span {s['id']} ({s['name']}) never closed")
        elif parent is not None and not parent["start"] <= s["start"] <= s["end"] <= parent["end"]:
            problems.append(f"span {s['id']} ({s['name']}) outside its parent")
    if problems:
        return problems
    selft = self_times(spans)
    wall: dict[int, float] = {}
    layers: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is None:
            wall[s["op_id"]] = s["end"] - s["start"]
            if phases and "phase_s" not in s:
                problems.append(f"op {s['op_id']}: no solver phase clock")
            elif s.get("phase_s", 0.0) > wall[s["op_id"]]:
                problems.append(f"op {s['op_id']}: solver phases {s['phase_s']:.6f}s "
                                f"> wall {wall[s['op_id']]:.6f}s")
        else:
            layers[s["op_id"]] += selft[s["id"]]
    return problems + [f"op {op}: layer self time {layers[op]:.6f}s > wall {w:.6f}s"
                       for op, w in wall.items() if layers[op] > w + 1e-9]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]

    problems = []
    for workload, must in EXERCISED.items():
        info, result = traced_run(workload, args.seed, args.seconds)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        problems += [f"{workload}: {n} missing" for n in names if n not in metrics]
        problems += [f"{workload}: {n} is zero" for n in must if not metrics.get(n)]
        if not result["correct"]:
            problems.append(f"{workload}: {result['failed']} incorrect answers")
        if "spans" in info["run"]:
            problems += [f"{workload}: {p}" for p in span_problems(
                ROOT / info["run"]["spans"], phases=workload == "kcore-parcut")]
        if workload == "service-mix":
            for n in ("service.wire_s", "service.handler_s"):
                if metrics[n] < 0:
                    problems.append(f"{workload}: {n} is negative")
        print(f"{workload}: {result['attempted']} ops, tracing overhead "
              f"{metrics['trace.overhead_frac']:+.3f} (untraced / traced throughput - 1)")
    for p in problems:
        print("FAIL", p)
    print("trace smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
