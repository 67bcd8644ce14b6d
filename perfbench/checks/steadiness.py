"""Steadiness check: repeated runs of each workload at the committed length.

    python3 perfbench/checks/steadiness.py                 # 10 seeds x every workload
    python3 perfbench/checks/steadiness.py --runs 5 --workloads kcore-seq
    python3 perfbench/checks/steadiness.py --out a.json    # keep the raw values
    python3 perfbench/checks/steadiness.py --compare a.json --out b.json

For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median
against the metric's bound from ``BENCHMARK.json``.  A spread above the
bound fails; one above a third of it is flagged as not yet steady.  A run
with fewer than ``MIN_BEYOND_P90`` latency samples above its p90 fails.
With ``--compare`` the medians are also checked against an earlier set:
none may differ from it, in either direction, by more than the bound.
Finally each workload runs once on a held-out seed, which must answer
every op correctly (``success_frac == 1.0``).

Run from the root of a checkout.  Exit code 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HELD_OUT_SEED = 7919
#: latency samples a run must have above its p90
MIN_BEYOND_P90 = 10


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One untraced run: ``(metadata line, result line)``."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])
    info["elapsed_s"] = time.monotonic() - t0
    return info, json.loads(lines[-1])


def worse_by(metric: dict, old: float, new: float) -> float:
    """Relative change of ``new`` against ``old``, positive when worse."""
    change = (new - old) / old if old else 0.0
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path, help="write the raw values here (JSON)")
    ap.add_argument("--compare", type=Path, help="raw values of an earlier set")
    args = ap.parse_args(argv)

    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    raw: dict[str, dict[str, list[float]]] = {}
    failed = False
    for workload in args.workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        unscaled: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        elapsed, samples, beyond = [], [], []
        for i in range(args.runs):
            info, result = run_once(workload, args.first_seed + i, args.seconds)
            if not result["correct"]:
                print(f"{workload} seed {args.first_seed + i}: incorrect answers")
                failed = True
            for name in values:
                values[name].append(result["metrics"][name]["value"])
                unscaled[name].append(info["run"]["unscaled"][name])
            elapsed.append(info["elapsed_s"])
            samples.append(info["run"]["samples"])
            beyond.append(info["run"]["samples_beyond_p90"])
            if beyond[-1] < MIN_BEYOND_P90:
                print(f"{workload} seed {args.first_seed + i}: only {beyond[-1]} "
                      f"samples beyond p90")
                failed = True
        raw[workload] = values
        raw[workload + ":unscaled"] = unscaled
        print(f"\n{workload}: {args.runs} runs x {args.seconds}s; ops per run "
              f"{min(samples)}-{max(samples)} ({min(beyond)}-{max(beyond)} beyond p90); "
              f"wall per run {min(elapsed):.1f}-{max(elapsed):.1f}s "
              f"(median {statistics.median(elapsed):.1f}s)")
        print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            vals = values[name]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            verdict = "ok"
            if spread > metric["bound"]:
                verdict, failed = "FAIL: spread above bound", True
            elif spread > metric["bound"] / 3:
                verdict = "noisy: spread above bound/3"
            if workload in earlier:
                old = statistics.median(earlier[workload][name])
                drift = worse_by(metric, old, med)
                verdict += f"; vs earlier {drift:+.3f} (+ is worse)"
                if abs(drift) > metric["bound"]:
                    verdict, failed = verdict + " FAIL", True
            uq1, umed, uq3 = statistics.quantiles(unscaled[name], n=4)
            verdict += f"; unscaled spread {(uq3 - uq1) / umed if umed else 0.0:.4f}"
            print(f"  {name:22s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {metric['bound']:6.2f}  {verdict}", flush=True)
        if args.out:
            args.out.write_text(json.dumps(raw, indent=1))
    for workload in args.workloads:
        _info, result = run_once(workload, HELD_OUT_SEED, args.seconds)
        frac = result["metrics"]["success_frac"]["value"]
        print(f"held-out seed {HELD_OUT_SEED} {workload}: success_frac {frac} "
              f"({result['attempted']} ops)")
        failed |= frac != 1.0 or not result["correct"]
    print("\nsteadiness:", "FAIL" if failed else "ok")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
