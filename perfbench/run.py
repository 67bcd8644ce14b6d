"""Repository benchmark: one workload at one seed, every answer checked.

    python3 perfbench/run.py --workload kcore-seq --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` runs the same workload with spans
and counters on and prints the per-layer metrics instead (see README.md).
The last line of standard output is the JSON result; the lines before it
carry the run's metadata (host, load, versions, instance manifest).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import sys
import time
from pathlib import Path

# thread pools are capped before numpy (or anything importing it) loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kcore-seq", "kcore-parcut", "service-mix")
PR_SET_CHILD_SUBREAPER = 36
REAP_GRACE_S = 30.0
MAIN_PID = os.getpid()


def become_subreaper() -> None:
    """Have orphaned descendants re-parented to this process.

    A child's own helpers (the service's pool workers, any multiprocessing
    resource tracker) outlive their parent by a moment; as a subreaper this
    process inherits them and :func:`reap` can wait for each one.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap(grace: float = REAP_GRACE_S) -> None:
    """Stop every process this run started and wait until each has ended.

    The resource tracker that multiprocessing starts for shared memory is
    stopped first; any other descendant gets ``grace`` seconds to end on its
    own, then SIGTERM, then SIGKILL.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    import common

    deadline = time.monotonic() + grace
    sig = signal.SIGTERM
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in common.process_tree(os.getpid())[1:]:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
            sig, deadline = signal.SIGKILL, time.monotonic() + 5.0
        time.sleep(0.01)


def on_sigterm(signum, _frame) -> None:
    """Unwind this process; a forked ParCut worker, which inherits the
    handler, dies of the signal as it would without the benchmark."""
    if os.getpid() != MAIN_PID:
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)
    sys.exit(128 + signum)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # a terminated run still unwinds, so the processes it started are stopped
    signal.signal(signal.SIGTERM, on_sigterm)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(src)]
    become_subreaper()
    try:
        return measure(args)
    finally:
        reap()


def measure(args) -> int:
    src = ROOT / "src"

    # bytecode and imports are warmed before any set-up clock starts; the
    # service child process reuses the same compiled files
    import compileall

    compileall.compile_dir(str(src / "repro"), quiet=1)
    import common
    import kcore
    import service_mix

    spec = load_spec()
    info = {"host": common.host_info(), "args": vars(args)}
    if args.workload == "service-mix":
        out = service_mix.run(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        out = kcore.run(args.workload, args.seed, args.seconds, bool(args.trace))
    info["loadavg_after"] = list(os.getloadavg())
    info["steal_s_after"] = common.steal_seconds()
    info["run"] = out["info"]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    extra = set(out["metrics"]) - {m["name"] for m in wanted}
    if extra:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    # a layer the workload never enters spent no time and did no work there
    metrics = {
        m["name"]: {"value": float(out["metrics"].get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
