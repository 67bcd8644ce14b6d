"""``kcore-seq`` and ``kcore-parcut``: closed-loop solves of the Table-1 suite.

One client calls the solver directly, back to back, over the k-core suite
at ``SCALE``: ``kcore-seq`` with the default ``minimum_cut(g, rng=seed)``
(``noi-viecut``, heap queue, scalar kernel), ``kcore-parcut`` with ParCut on
two worker processes.  Each op is one solve; every answer is checked
against the oracle after the timed window.
"""

from __future__ import annotations

import os
from collections import defaultdict
from contextlib import nullcontext

from repro.core.api import minimum_cut

import calibration
from common import (
    OUT_DIR,
    TreePss,
    cpu_self_and_children,
    cut_ok,
    end_to_end,
    log,
    manifest,
    mean,
    median,
    now,
    own_peak_rss_mb,
    reference_lambda,
    samples_beyond_p90,
    spread_order,
    suite,
    write_jsonl,
)
from tracing import SpanRecorder, self_times

#: suite scale: 24 cores, n ≈ 0.9k–14k, m ≈ 24k–131k, 0.04–0.45 s per solve on
#: a 2-vCPU host.  Scale 2 rather than 4 lets a 30 s window hold about 100
#: solves or more on both workloads (so at least 10 lie beyond p90) while 70
#: runs still fit the benchmark's time budget.
SCALE = 2.0
SETUP_REPS = 3
PARCUT_WORKERS = 2
PROBE_EVERY = 3  # ops between two host-speed probes


def make_op(workload: str, seed: int):
    if workload == "kcore-seq":
        return lambda g: minimum_cut(g, rng=seed)
    return lambda g: minimum_cut(
        g, "parcut", workers=PARCUT_WORKERS, executor="processes", rng=seed
    )


def _setup(op, seed: int) -> tuple[list, dict]:
    """Generate the suite and warm the solve path once; returns the
    instances and this repetition's timings, with probe bursts on both
    sides for the host-speed scale."""
    before = calibration.burst()
    t0 = now()
    instances = suite(seed, SCALE)
    t1 = now()
    op(min(instances, key=lambda i: i.graph.m).graph)
    t2 = now()
    after = calibration.burst()
    return instances, {"generate_s": t1 - t0, "warmup_s": t2 - t1, "setup_s": t2 - t0,
                       "scale": calibration.scale((before + after) / 2)}


def _loop(op, instances, order, seconds: float, recorder: SpanRecorder | None):
    """Closed loop for ``seconds``; returns ``(records, passes)``.

    A record is ``(instance index, latency, result or None, error)``.  A
    pass is one sweep over the suite: ``{"k0", "k1"}`` (its records),
    ``{"t0", "t1"}`` (its clock span), ``"wall"`` and ``"cpu"`` net of the
    calibration probes, and ``"probes"`` (one probe every ``PROBE_EVERY``
    ops).
    """
    records = []
    passes: list[dict] = []
    t0 = now()
    k = 0
    while True:
        if k % len(order) == 0:
            cur = {"k0": k, "t0": now(), "c0": cpu_self_and_children(),
                   "probe_wall": 0.0, "probe_cpu": 0.0, "probes": []}
            passes.append(cur)
        if k % PROBE_EVERY == 0:
            c, t = cpu_self_and_children(), now()
            cur["probes"].append(calibration.probe())
            cur["probe_wall"] += now() - t
            cur["probe_cpu"] += cpu_self_and_children() - c
        idx = order[k % len(order)]
        if recorder is not None:
            recorder.begin_op(len(records), instances[idx].name)
        t = now()
        try:
            res, err = op(instances[idx].graph), None
        except Exception as exc:  # noqa: BLE001 - a failed op is a counted failure
            res, err = None, repr(exc)
        lat = now() - t
        if recorder is not None:
            root = recorder.end_op()
            if res is not None and "phase_seconds" in res.stats:
                # the solver's own phase clock, checked against the op span
                root["phase_s"] = sum(res.stats["phase_seconds"].values())
        records.append((idx, lat, res, err))
        k += 1
        stop = now() - t0 >= seconds
        if stop or k % len(order) == 0:
            cur["k1"], cur["t1"] = k, now()
            cur["wall"] = cur["t1"] - cur["t0"] - cur["probe_wall"]
            cur["cpu"] = cpu_self_and_children() - cur["c0"] - cur["probe_cpu"]
        if stop:
            return records, passes


def _complete(passes) -> list[dict]:
    """The passes that swept the whole suite (all but a cut-off last one)."""
    full = passes[0]["k1"] - passes[0]["k0"]
    return [p for p in passes if p["k1"] - p["k0"] == full]


def _slices(passes, ok: list[bool]) -> list[dict]:
    """Complete passes as end-to-end slices (see ``common.end_to_end``)."""
    return [
        {"wall": p["wall"], "cpu": p["cpu"], "attempted": p["k1"] - p["k0"],
         "correct": sum(ok[p["k0"]:p["k1"]]),
         "scale": calibration.scale(median(p["probes"]))}
        for p in _complete(passes)
    ]


def _samples(records, passes, ok: list[bool]) -> list[tuple[float, float]]:
    """``(latency, scale of its pass)`` of every correct op."""
    out = []
    for p in passes:
        sc = calibration.scale(median(p["probes"]))
        out += [(records[k][1], sc) for k in range(p["k0"], p["k1"]) if ok[k]]
    return out


def _timed(op, instances, order, seconds: float, trace: bool):
    """The timed window: ``(plain, plain_passes, records, passes, recorder)``.

    A traced run spends the first half untraced and the second half traced,
    over the same visit order; their throughput ratio is the tracing
    overhead.
    """
    if not trace:
        records, passes = _loop(op, instances, order, seconds, None)
        return [], [], records, passes, None
    plain, plain_passes = _loop(op, instances, order, seconds / 2, None)
    recorder = SpanRecorder()
    recorder.install()
    try:
        records, passes = _loop(op, instances, order, seconds / 2, recorder)
    finally:
        recorder.uninstall()
    return plain, plain_passes, records, passes, recorder


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    op = make_op(workload, seed)
    reps = []
    for _ in range(SETUP_REPS):
        instances, timing = _setup(op, seed)
        reps.append(timing)
    order = spread_order([i.graph.m for i in instances])

    # ParCut forks its workers, which share this process's pages: the tree
    # is sampled as summed Pss, and its peak is the median over passes of
    # each pass's peak, so one pass's transient does not set it
    sampler = TreePss(os.getpid()) if workload == "kcore-parcut" else None
    with sampler or nullcontext():
        plain, plain_passes, records, passes, recorder = _timed(
            op, instances, order, seconds, trace)
    rss_parts = {"own_peak_rss_mb": own_peak_rss_mb()}
    if sampler is not None:
        rss_parts["tree_pss_peak_mb"] = median(
            sampler.peak(p["t0"], p["t1"]) for p in _complete(passes))
        rss_parts["tree_pss_samples"] = len(sampler.samples)
    rss_mb = max(rss_parts["own_peak_rss_mb"], rss_parts.get("tree_pss_peak_mb", 0.0))

    # -- oracle (outside the timed window and outside setup) ---------------
    for inst in instances:
        inst.ref = reference_lambda(inst.graph, seed)
    failures = []

    def check(recs) -> list[bool]:
        flags = []
        for idx, _lat, res, err in recs:
            inst = instances[idx]
            flags.append(res is not None and cut_ok(inst.graph, inst.ref, res.value, res.side))
            if not flags[-1]:
                failures.append({"instance": inst.name, "error": err,
                                 "value": None if res is None else int(res.value),
                                 "ref": inst.ref})
        return flags

    plain_ok = check(plain)
    ok = check(records)
    attempted = len(records) + len(plain)
    gaps: dict[str, int | None] = {}
    for idx, _lat, res, _err in plain + records:
        vc = None if res is None else res.stats.get("viecut_value")
        if vc is not None:
            gaps.setdefault(instances[idx].name, int(vc) - instances[idx].ref)

    setups = [(r["setup_s"], r["scale"]) for r in reps]
    samples = _samples(records, passes, ok)
    window = {"samples": samples, "attempted": attempted,
              "correct": sum(ok), "slices": _slices(passes, ok), "rss_mb": rss_mb,
              "setups": setups}
    info = {
        "workload": workload,
        "samples": len(records),
        "samples_beyond_p90": samples_beyond_p90(samples),
        "passes": len(passes),
        "probe_median_s": median(p for ps in passes for p in ps["probes"]),
        "instances": manifest(instances, gaps),
        "setup_reps": reps,
        "peak_rss": rss_parts,
        "unscaled": end_to_end(**window, scaled=False),
        "failures": failures[:10],
    }
    if trace:
        metrics = _layer_metrics(workload, records, instances, recorder, reps)
        plain_tput = end_to_end(samples=[], attempted=len(plain), correct=sum(plain_ok),
                                slices=_slices(plain_passes, plain_ok), rss_mb=0.0,
                                setups=setups)["throughput_ops_per_s"]
        metrics["trace.overhead_frac"] = (
            plain_tput / max(end_to_end(**window)["throughput_ops_per_s"], 1e-12) - 1.0
        )
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        write_jsonl(spans_path, recorder.spans)
        info["spans"] = str(spans_path.relative_to(OUT_DIR.parent))
    else:
        metrics = end_to_end(**window)
    log(f"{workload}: {len(records)} ops in {len(passes)} passes, {len(failures)} failed")
    return {"attempted": attempted, "failed": len(failures), "metrics": metrics,
            "info": info}


def _layer_metrics(workload, records, instances, recorder, reps) -> dict:
    """Per-layer numbers of the traced half (per-op means unless noted)."""
    spans = recorder.spans
    selft = self_times(spans)
    ops = max(1, len(records))
    total = defaultdict(float)
    calls = defaultdict(int)
    counters = defaultdict(int)
    first_ratio: dict[int, float] = {}
    for s in spans:
        total[s["name"]] += selft[s["id"]]
        calls[s["name"]] += 1
        if s["name"] == "capforest":
            for key in ("pq_pops", "pq_updates", "edges_scanned"):
                counters[key] += s[key]
        if s["name"] == "contract" and s["op_id"] not in first_ratio:
            first_ratio[s["op_id"]] = s["n_in"] / max(1, s["n_out"])

    results = [res for _i, _l, res, _e in records if res is not None]
    lats = {id(res): lat for _i, lat, res, _e in records if res is not None}
    noi = [r for r in results if r.algorithm.startswith("noi")]
    par = [r for r in results if r.algorithm.startswith("parcut")]
    refs = {id(res): instances[i].ref for i, _l, res, _e in records if res is not None}
    gaps = [r.stats["viecut_value"] - refs[id(r)] for r in results
            if r.stats.get("viecut_value") is not None]
    if par:
        first = [r.stats["contraction_ratios"][0] for r in par if r.stats["contraction_ratios"]]
    else:
        first = list(first_ratio.values())

    def phase(name):
        return mean(r.stats["phase_seconds"].get(name, 0.0) for r in par)

    metrics = {
        "viecut.self_s": total["viecut"] / ops,
        "viecut.lp_s": total["viecut.lp"] / ops,
        "viecut.pr_s": total["viecut.pr"] / ops,
        "viecut.gap": mean(gaps),
        "noi.rounds": mean(r.stats["rounds"] for r in noi),
        "noi.fallback_frac": (sum(r.stats["fallback_rounds"] for r in noi)
                              / max(1, sum(r.stats["rounds"] for r in noi))),
        "capforest.s": total["capforest"] / ops,
        "capforest.calls": calls["capforest"] / ops,
        "capforest.pq_pops": counters["pq_pops"] / ops,
        "capforest.pq_updates": counters["pq_updates"] / ops,
        "capforest.edges_scanned": counters["edges_scanned"] / ops,
        "capforest.ns_per_edge": 1e9 * total["capforest"] / max(1, counters["edges_scanned"]),
        "contract.s": total["contract"] / ops,
        "contract.first_ratio": mean(first),
        "parcut.viecut_s": phase("viecut"),
        "parcut.capforest_s": phase("capforest"),
        "parcut.seq_fallback_s": phase("seq_fallback"),
        "parcut.contract_s": phase("contract"),
        "parcut.unattributed_s": mean(
            lats[id(r)] - sum(r.stats["phase_seconds"].values()) for r in par
        ),
        "parcut.seq_fallback_frac": (sum(r.stats["seq_fallback_rounds"] for r in par)
                                     / max(1, sum(r.stats["rounds"] for r in par))),
        "parcut.modeled_speedup": mean(r.stats["modeled_speedup"] for r in par
                                       if r.stats["modeled_speedup"] is not None),
        "runtime.degradations": mean(len(r.stats["degradations"]) for r in par),
        "runtime.worker_events": mean(len(r.stats["worker_events"]) for r in par),
        "setup.generate_s": median(r["generate_s"] for r in reps),
        "setup.service_start_s": 0.0,
        "setup.warmup_s": median(r["warmup_s"] for r in reps),
    }
    return metrics
