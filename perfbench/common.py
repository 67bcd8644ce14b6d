"""Shared pieces of the benchmark: instances, the correctness oracle,
process-tree accounting, and run metadata.

Everything here runs outside the timed windows.  The program under test is
imported from the checkout's ``src/`` tree (``run.py`` puts it on
``sys.path`` before importing this module).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.core.api import minimum_cut
from repro.generators.worlds import DEFAULT_WORLDS, build_suite
from repro.graph.csr import Graph

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space inside the checkout (span dumps, service traces)
OUT_DIR = ROOT / ".perfbench_out"

#: the oracle: an exact configuration that shares neither the queue nor the
#: relaxation kernel with the default ``noi-viecut`` (heap, scalar) path
REFERENCE = {"algorithm": "noi", "pq_kind": "bqueue", "kernel": "vector"}


@dataclass
class Instance:
    """One benchmark graph plus what the oracle knows about it."""

    name: str
    graph: Graph
    delta: int  # minimum weighted degree
    ref: int | None = None  # reference λ, filled outside the timed window


def suite(seed: int, scale: float) -> list[Instance]:
    """The Table-1 k-core suite with every ``WorldSpec.seed`` offset by
    ``seed``; instances come back in the generator's order."""
    worlds = tuple(replace(w, seed=w.seed + seed) for w in DEFAULT_WORLDS)
    return [
        Instance(inst.name, inst.graph, int(inst.graph.min_weighted_degree()[1]))
        for inst in build_suite(worlds, scale=scale)
    ]


def spread_order(sizes: list[int]) -> list[int]:
    """Visit order in which every prefix mixes small and large instances.

    A time-bounded loop stops part-way through its last pass over the suite;
    ranking by size and then visiting ranks in golden-ratio order keeps that
    partial pass representative, so the stop point hardly moves throughput.
    """
    by_size = sorted(range(len(sizes)), key=lambda i: sizes[i])
    golden = (5 ** 0.5 - 1) / 2
    slots = sorted(range(len(sizes)), key=lambda r: ((r + 1) * golden) % 1.0)
    return [by_size[r] for r in slots]


def reference_lambda(graph: Graph, seed: int) -> int:
    """Exact λ from the oracle configuration."""
    return int(minimum_cut(
        graph, REFERENCE["algorithm"], pq_kind=REFERENCE["pq_kind"],
        kernel=REFERENCE["kernel"], rng=seed,
    ).value)


def cut_ok(graph: Graph, ref: int, value: int, side) -> bool:
    """``value`` is the reference λ and ``side`` is a cut of that value.

    ``side`` is either a boolean mask or a list of vertex ids (the service's
    wire form of the smaller side).
    """
    if side is None or int(value) != ref:
        return False
    mask = np.asarray(side)
    if mask.dtype != bool:
        ids = mask.astype(np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= graph.n):
            return False
        mask = np.zeros(graph.n, dtype=bool)
        mask[ids] = True
    if len(mask) != graph.n or mask.all() or not mask.any():
        return False
    return graph.cut_value(mask) == int(value)


def manifest(instances: list[Instance], gaps: dict[str, int | None]) -> list[dict]:
    """Per-instance record: name, n, m, δ, λ and VieCut gap (VieCut − λ).

    Raises when no instance has λ < δ: the paper's Table-1 selection rule
    keeps only cores whose minimum cut is not a trivial degree cut.
    """
    rows = [
        {"name": i.name, "n": i.graph.n, "m": i.graph.m, "delta": i.delta,
         "lambda": i.ref, "viecut_gap": gaps.get(i.name)}
        for i in instances
    ]
    if not any(r["lambda"] is not None and r["lambda"] < r["delta"] for r in rows):
        raise RuntimeError("suite has no instance with lambda < delta")
    return rows


def host_info() -> dict:
    """Run metadata that identifies a drifted run."""
    from repro.kernels import resolve_kernel

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_resolved": {k: resolve_kernel(k)[0] for k in ("scalar", "vector", "compiled")},
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
        "steal_s": steal_seconds(),
    }


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests since boot (all vCPUs)."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


# -- process accounting --------------------------------------------------------

def cpu_self_and_children() -> float:
    """User+sys CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def own_peak_rss_mb() -> float:
    """Peak RSS of this process alone."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_TICK = os.sysconf("SC_CLK_TCK")


def _proc_stat(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # the command name may hold spaces; fields resume after the last ')'
    return raw[raw.rindex(")") + 2:].split()


def _children(pid: int) -> list[int] | None:
    """Live children of ``pid`` from ``/proc/<pid>/task/*/children``, or
    ``None`` where the kernel does not provide those files."""
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return []
    if not Path(f"/proc/{pid}/task/{tasks[0]}/children").exists():
        return None
    kids = []
    for tid in tasks:
        try:
            kids += [int(c) for c in Path(f"/proc/{pid}/task/{tid}/children").read_text().split()]
        except OSError:
            continue
    return kids


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant."""
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        kids = _children(pid)
        if kids is None:
            return _process_tree_scan(root)
        tree.append(pid)
        todo.extend(kids)
    return tree


def _process_tree_scan(root: int) -> list[int]:
    """:func:`process_tree` by a scan of every ``/proc/<pid>/stat``."""
    parents: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        fields = _proc_stat(int(entry.name))
        if fields is not None:
            parents.setdefault(int(fields[1]), []).append(int(entry.name))
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(parents.get(pid, ()))
    return tree


def _pss_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/smaps_rollup").read_text().splitlines():
            if line.startswith("Pss:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreePss:
    """Sampled proportional set size (Pss) of a process tree.

    Forked workers share the parent's pages copy-on-write, so adding up
    per-process RSS peaks counts those pages once per process.  Pss splits
    each shared page between the processes mapping it, so the sum over the
    tree counts it once.  A background thread samples the live tree's sum
    every ``interval`` seconds (a few system calls, the interpreter lock
    released during each); use it as a context manager around the timed
    window and read peaks per slice of it with :meth:`peak`.
    """

    def __init__(self, root: int, interval: float = 0.05) -> None:
        self.root = root
        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (perf_counter, MB)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            total = sum(_pss_kb(pid) for pid in process_tree(self.root)) / 1024.0
            self.samples.append((now(), total))
            self._stop.wait(self.interval)

    def peak(self, t0: float, t1: float) -> float:
        """Largest sample taken in ``[t0, t1)``."""
        return max((mb for t, mb in self.samples if t0 <= t < t1), default=0.0)

    def __enter__(self) -> "TreePss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def vm_hwm_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of one live process."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_cpu_s(root: int) -> float:
    """User+sys CPU of a live process tree, plus the root's reaped children."""
    total = 0
    for pid in process_tree(root):
        fields = _proc_stat(pid)
        if fields is None:
            continue
        # stat fields 14-17 (utime stime cutime cstime) after pid and comm
        total += int(fields[11]) + int(fields[12])
        if pid == root:
            total += int(fields[13]) + int(fields[14])
    return total / _TICK


# -- summaries -----------------------------------------------------------------

def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def latency_summary(latencies: list[float]) -> dict:
    """Median and p90 (numpy's linear interpolation) of successful ops."""
    if not latencies:
        return {"p50": 0.0, "p90": 0.0}
    arr = np.asarray(latencies, dtype=float)
    return {"p50": float(np.percentile(arr, 50)), "p90": float(np.percentile(arr, 90))}


def samples_beyond_p90(samples: list[tuple[float, float]]) -> int:
    """How many of the ``(latency, scale)`` samples lie above their p90."""
    if not samples:
        return 0
    lat = np.asarray([lat * sc for lat, sc in samples], dtype=float)
    return int((lat > np.percentile(lat, 90)).sum())


def end_to_end(*, samples: list[tuple[float, float]], attempted: int, correct: int,
               slices: list[dict], rss_mb: float, setups: list[tuple[float, float]],
               scaled: bool = True) -> dict:
    """The end-to-end metrics of one timed window.

    ``samples`` are ``(latency, scale)`` of the correct ops; ``slices`` cut
    the window into equal shares of the op mix (passes over the suite, or
    fixed sub-windows), each ``{"wall", "cpu", "attempted", "correct",
    "scale"}``; ``setups`` are ``(seconds, scale)`` per set-up repetition.
    ``scale`` converts host seconds to reference seconds (see
    ``calibration``); ``scaled=False`` reports plain host seconds.
    Throughput and CPU per op are medians over the slices, so a slow
    stretch covering less than half the window does not move them.
    """
    def f(sc: float) -> float:
        return sc if scaled else 1.0

    lat = latency_summary([lat * f(sc) for lat, sc in samples])
    return {
        "latency_p50_s": lat["p50"],
        "latency_p90_s": lat["p90"],
        "throughput_ops_per_s": median(s["correct"] / s["wall"] / f(s["scale"])
                                       for s in slices),
        "cpu_s_per_op": median(s["cpu"] / max(1, s["attempted"]) * f(s["scale"])
                               for s in slices),
        "peak_rss_mb": rss_mb,
        "setup_s": median(sec * f(sc) for sec, sc in setups),
        "success_frac": correct / max(1, attempted),
    }


def write_jsonl(path: Path, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def now() -> float:
    return time.perf_counter()


def log(msg: str) -> None:
    """Progress notes go to stderr; stdout carries only result records."""
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)
