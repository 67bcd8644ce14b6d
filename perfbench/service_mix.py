"""``service-mix``: a closed read/write mix against ``python -m repro.service``.

The service runs as its own process (``--pool-size 2``) so the load
generator does not share its interpreter lock; two keep-alive connections
each send their next request when the previous one returns.  Bodies are
encoded during set-up: each k-core's edge list is encoded once and every
request is a tuple of byte slices around it, sent with an explicit
``Content-Length``.

Per connection the op mix repeats every ten requests: four repeat solves
of a fixed hit set (cache hits), three fresh weight-perturbed solves
(misses), two ``/v1/update`` batches and one ``all_cuts`` solve sent with
``cache: false``.  Each connection owns its dynamic graphs, so the update
order per graph, and with it every post-update graph, follows from the
seed alone.  A graph's life is one registration (a cold solve) and
``LIFECYCLE`` batches that alternately insert new edges (mostly the
certified fast path) and delete them again (seeded re-solves).
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
from collections import defaultdict, deque

import numpy as np

from repro.graph.builder import from_edges
from repro.viecut.viecut import viecut

import calibration
from common import (
    OUT_DIR,
    ROOT,
    SRC,
    TreePss,
    cut_ok,
    end_to_end,
    log,
    manifest,
    mean,
    median,
    now,
    reference_lambda,
    samples_beyond_p90,
    spread_order,
    suite,
    tree_cpu_s,
    vm_hwm_mb,
)

SCALE = 1.0
SETUP_REPS = 3
CONNECTIONS = 2
POOL_SIZE = 2
#: one cycle of the per-connection mix: 40% hit, 30% miss, 20% update,
#: 10% all_cuts
PATTERN = ("hit", "miss", "hit", "update", "hit", "miss", "all_cuts", "hit",
           "miss", "update")
PERTURB_EDGES = 4  # weight bumps that make a fresh (uncached) graph
BATCH_EDGES = 6  # new edges per insert batch
LIFECYCLE = 8  # batches per registered graph before the next registration
#: registrations per connection; the service holds at most 64 dynamic graphs
MAX_REGISTRATIONS = 28
#: requests planned per connection (far more than a window can send)
PLAN_OPS = 2000
#: length of one slice of the timed window (see ``_window``)
SLICE_S = 5.0


class Encoded:
    """One k-core with its edge list encoded once for every request body."""

    def __init__(self, inst):
        self.inst = inst
        g = inst.graph
        self.us, self.vs, self.ws = g.edge_arrays()
        self.edges = json.dumps(np.column_stack((self.us, self.vs, self.ws)).tolist())[1:-1].encode()
        self.keys = np.sort(np.minimum(self.us, self.vs) * g.n + np.maximum(self.us, self.vs))

    def parts(self, head: dict, extras=()) -> tuple[bytes, ...]:
        fields = json.dumps(head)[1:-1]
        opening = f'{{{fields}, "graph": {{"n": {self.inst.graph.n}, "edges": ['.encode()
        tail = b"]}}"
        if extras:
            tail = b", " + json.dumps([list(e) for e in extras])[1:-1].encode() + tail
        return opening, self.edges, tail

    def bumps(self, rng, k: int) -> tuple:
        """``k`` existing edges, each sent again with weight 1 (the service
        merges duplicates by summing weights)."""
        idx = rng.choice(len(self.us), size=k, replace=False)
        return tuple((int(self.us[i]), int(self.vs[i]), 1) for i in sorted(idx))

    def new_edges(self, rng, k: int) -> tuple:
        """``k`` distinct vertex pairs that are not edges of the base graph."""
        n = self.inst.graph.n
        out: dict[int, tuple] = {}
        while len(out) < k:
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            if u == v:
                continue
            key = min(u, v) * n + max(u, v)
            pos = np.searchsorted(self.keys, key)
            if pos < len(self.keys) and self.keys[pos] == key:
                continue
            out[key] = (min(u, v), max(u, v), int(rng.integers(1, 4)))
        return tuple(out[key] for key in sorted(out))


class Op:
    """One planned request: route, body slices, and the graph it targets
    as ``(instance index, extra edges)`` for the oracle."""

    __slots__ = ("kind", "path", "parts", "graph")

    def __init__(self, kind, path, parts, graph):
        self.kind, self.path, self.parts, self.graph = kind, path, parts, graph


def _plan(encoded: list[Encoded], hit_set: list[int], seed: int, conn: int):
    """``(warm-up ops, window ops)`` of one connection."""
    rng = np.random.default_rng([seed, conn, 7])
    count = len(encoded)
    # every cycle visits instances in size-spread order (see spread_order),
    # so each window samples small and large graphs alike whatever the seed;
    # the second connection starts half a cycle later
    sizes = [enc.inst.graph.m for enc in encoded]
    hits = _rotate([hit_set[i] for i in spread_order([sizes[k] for k in hit_set])], conn)
    order = _rotate(spread_order(sizes), conn)
    # dynamic graphs need room for new edges: skip near-complete cores (at
    # some seeds a small core is just one planted clique)
    sparse = [k for k in order
              if encoded[k].inst.graph.m < encoded[k].inst.graph.n ** 2 / 8]
    updates = _update_stream(encoded, sparse, rng, conn)

    def solve(kind, k, extras=()):
        enc = encoded[k]
        head = {"include_side": True}
        if kind == "all_cuts":
            head.update(all_cuts=True, cache=False)
        return Op(kind, "/v1/solve", enc.parts(head, extras), (k, extras))

    warm = [next(updates)] + [solve("hit", k) for k in hit_set[conn::CONNECTIONS]]
    warm.append(solve("all_cuts", min(range(count), key=lambda i: encoded[i].inst.graph.m)))
    window = []
    counters = defaultdict(int)
    for i in range(PLAN_OPS):
        kind = PATTERN[(i + 5 * conn) % len(PATTERN)]
        j = counters[kind]
        counters[kind] += 1
        if kind == "hit":
            window.append(solve(kind, hits[j % len(hits)]))
        elif kind == "miss":
            k = order[j % count]
            window.append(solve(kind, k, encoded[k].bumps(rng, PERTURB_EDGES)))
        elif kind == "all_cuts":
            window.append(solve(kind, order[(j + 3) % count]))
        else:
            window.append(next(updates))
    return warm, window


def _rotate(seq: list, conn: int) -> list:
    cut = conn * len(seq) // CONNECTIONS
    return seq[cut:] + seq[:cut]


def _update_stream(encoded, order, rng, conn):
    """Registrations followed by insert/delete batch pairs, forever."""
    reg = 0
    while True:
        if reg < MAX_REGISTRATIONS:
            k = order[reg % len(order)]
            extras = encoded[k].bumps(rng, PERTURB_EDGES)
            graph_id = f"c{conn}-g{reg}"
            reg += 1
            yield Op("register", "/v1/update",
                     encoded[k].parts({"graph_id": graph_id, "include_side": True}, extras),
                     (k, extras))
        for _ in range(LIFECYCLE // 2):
            batch = encoded[k].new_edges(rng, BATCH_EDGES)
            yield Op("update", "/v1/update", (json.dumps(
                {"graph_id": graph_id, "include_side": True,
                 "inserts": [list(e) for e in batch]}).encode(),), (k, extras + batch))
            yield Op("update", "/v1/update", (json.dumps(
                {"graph_id": graph_id, "include_side": True,
                 "deletes": [[u, v] for u, v, _w in batch]}).encode(),), (k, extras))


# -- the service process ---------------------------------------------------------

class Server:
    """``python -m repro.service`` as a child process on an ephemeral port."""

    def __init__(self, trace_path=None):
        cmd = [sys.executable, "-m", "repro.service", "--port", "0",
               "--pool-size", str(POOL_SIZE)]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        # the service's own log goes to a file so the benchmark's stderr
        # stays readable; its first stdout line names the bound port
        self.log_path = OUT_DIR / "service-stderr.log"
        with open(self.log_path, "ab") as log_file:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                         stderr=log_file, stdin=subprocess.DEVNULL)
        line = self.proc.stdout.readline().decode()
        if not line.startswith("listening on "):
            self.stop()
            tail = self.log_path.read_text(errors="replace")[-2000:]
            raise RuntimeError(f"service did not start: {line!r}\n{tail}")
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", "/v1/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()


def _send(conn: http.client.HTTPConnection, op: Op) -> tuple[int, bytes]:
    length = sum(len(p) for p in op.parts)
    conn.request("POST", op.path, body=op.parts,
                 headers={"Content-Type": "application/json",
                          "Content-Length": str(length)})
    resp = conn.getresponse()
    return resp.status, resp.read()


def _drive(conns, queues: list[deque], seconds: float | None) -> list[list]:
    """Send each queue's ops on its own keep-alive connection and thread,
    closed-loop; with ``seconds`` set, stop starting ops once that long has
    passed.  Returns records ``[op, start, latency, status, raw body]``."""
    records: list[list] = []
    lock = threading.Lock()
    t0 = now()

    def worker(conn, ops: deque) -> None:
        mine = []
        try:
            while ops and (seconds is None or now() - t0 < seconds):
                op = ops.popleft()
                t = now()
                try:
                    status, raw = _send(conn, op)
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    status, raw = 0, repr(exc).encode()
                mine.append([op, t - t0, now() - t, status, raw])
        finally:
            with lock:
                records.extend(mine)

    threads = [threading.Thread(target=worker, args=pair) for pair in zip(conns, queues)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    return records


def _connections(port: int) -> list:
    return [http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            for _ in range(CONNECTIONS)]


def _window(server: Server, queues: list[deque], seconds: float) -> list[dict]:
    """The timed window as ``SLICE_S``-long slices; between slices, with
    the service idle, a probe burst measures the host's speed.  Each slice
    is ``{"records", "wall", "cpu" (service tree), "scale"}``."""
    conns = _connections(server.port)
    slices = []
    try:
        probe = calibration.burst()
        count = max(1, round(seconds / SLICE_S))
        for _ in range(count):
            cpu0, t0 = tree_cpu_s(server.proc.pid), now()
            records = _drive(conns, queues, seconds / count)
            wall, cpu = now() - t0, tree_cpu_s(server.proc.pid) - cpu0
            after = calibration.burst()
            slices.append({"records": records, "t0": t0, "t1": t0 + wall,
                           "wall": wall, "cpu": cpu, "probe": after,
                           "scale": calibration.scale((probe + after) / 2)})
            probe = after
    finally:
        for conn in conns:
            conn.close()
    return slices


def _setup(seed: int, trace_path=None) -> dict:
    before = calibration.burst()
    t0 = now()
    instances = suite(seed, SCALE)
    encoded = [Encoded(inst) for inst in instances]
    by_size = sorted(range(len(instances)), key=lambda i: instances[i].graph.m)
    hit_set = by_size[::2]
    plans = [_plan(encoded, hit_set, seed, c) for c in range(CONNECTIONS)]
    t1 = now()
    server = Server(trace_path)
    t2 = now()
    conns = _connections(server.port)
    try:
        warm = _drive(conns, [deque(p[0]) for p in plans], None)
        bad = [r for r in warm if r[3] != 200]
        if bad:
            raise RuntimeError(f"warm-up request failed: {bad[0][3]} {bad[0][4][:200]!r}")
    except BaseException:
        server.stop()
        raise
    finally:
        for conn in conns:
            conn.close()
    t3 = now()
    after = calibration.burst()
    return {"instances": instances, "encoded": encoded,
            "queues": [deque(p[1]) for p in plans], "server": server, "warm": warm,
            "timing": {"generate_s": t1 - t0, "service_start_s": t2 - t1,
                       "warmup_s": t3 - t2, "setup_s": t3 - t0,
                       "scale": calibration.scale((before + after) / 2)}}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"service-trace-seed{seed}.jsonl"
    setups = []
    try:
        for rep in range(SETUP_REPS):
            last = rep == SETUP_REPS - 1
            setups.append(_setup(seed, trace_path if (trace and last) else None))
            # keep the last server (and, when tracing, the one before it for
            # the untraced half); stop the rest before the next set-up
            if not last and not (trace and rep == SETUP_REPS - 2):
                setups[-1]["server"].stop()
        return _measure(setups, seed, seconds, trace, trace_path)
    finally:
        for s in setups:
            s["server"].stop()


def _e2e(slices: list[dict], timings: list[dict], rss_mb: float, scaled: bool = True) -> dict:
    records = [r for sl in slices for r in sl["records"]]
    return end_to_end(
        samples=[(r["latency"], sl["scale"]) for sl in slices for r in sl["records"] if r["ok"]],
        attempted=len(records), correct=sum(r["ok"] for r in records),
        slices=[{"wall": sl["wall"], "cpu": sl["cpu"], "attempted": len(sl["records"]),
                 "correct": sum(r["ok"] for r in sl["records"]), "scale": sl["scale"]}
                for sl in slices],
        rss_mb=rss_mb, setups=[(t["setup_s"], t["scale"]) for t in timings], scaled=scaled,
    )


def _measure(setups, seed, seconds, trace, trace_path) -> dict:
    timings = [s["timing"] for s in setups]
    main = setups[-1]
    server = main["server"]
    plain = []
    if trace:
        prev = setups[-2]
        plain = _window(prev["server"], prev["queues"], seconds / 2)
        prev["server"].stop()
        _check(prev, plain, seed)
    before = server.stats()
    # the pool workers are forked from the service and share its pages: the
    # tree is sampled as summed Pss, and its peak is the median over slices
    # of each slice's peak, so one slice's transient does not set it
    with TreePss(server.proc.pid) as sampler:
        slices = _window(server, main["queues"], seconds / 2 if trace else seconds)
    rss_parts = {"service_peak_rss_mb": vm_hwm_mb(server.proc.pid),
                 "tree_pss_peak_mb": median(sampler.peak(sl["t0"], sl["t1"]) for sl in slices),
                 "tree_pss_samples": len(sampler.samples)}
    rss_mb = max(rss_parts["service_peak_rss_mb"], rss_parts["tree_pss_peak_mb"])
    after = server.stats()
    server.stop()  # flushes the service trace
    manifest_rows = _check(main, slices, seed)

    records = [r for sl in slices for r in sl["records"]]
    plain_records = [r for sl in plain for r in sl["records"]]
    failed = sum(not r["ok"] for r in records + plain_records)
    info = {
        "workload": "service-mix",
        "samples": len(records),
        "samples_beyond_p90": samples_beyond_p90(
            [(r["latency"], sl["scale"]) for sl in slices for r in sl["records"] if r["ok"]]),
        "probe_median_s": median(sl["probe"] for sl in slices),
        "kinds": {k: sum(1 for r in records if r["kind"] == k)
                  for k in ("hit", "miss", "update", "register", "all_cuts")},
        "instances": manifest_rows,
        "setup_reps": timings,
        "peak_rss": rss_parts,
        "unscaled": _e2e(slices, timings, rss_mb, scaled=False),
        "failures": [r["error"] for r in records + plain_records if not r["ok"]][:10],
    }
    if trace:
        metrics = _layer_metrics(records, before, after, trace_path, len(main["warm"]))
        metrics["trace.overhead_frac"] = (
            _e2e(plain, timings, 0.0)["throughput_ops_per_s"]
            / max(_e2e(slices, timings, 0.0)["throughput_ops_per_s"], 1e-12) - 1.0
        )
        metrics.update({
            "setup.generate_s": median(t["generate_s"] for t in timings),
            "setup.service_start_s": median(t["service_start_s"] for t in timings),
            "setup.warmup_s": median(t["warmup_s"] for t in timings),
        })
        info["service_trace"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = _e2e(slices, timings, rss_mb)
    log(f"service-mix: {len(records)} ops in {len(slices)} slices, {failed} failed")
    return {"attempted": len(records) + len(plain_records), "failed": failed,
            "metrics": metrics, "info": info}


def _check(setup: dict, slices: list[dict], seed: int) -> list[dict]:
    """Oracle pass over a window's records, after the window: replaces each
    slice's raw records by checked ones; returns the instance manifest."""
    encoded = setup["encoded"]
    instances = setup["instances"]
    graphs: dict = {}
    refs: dict = {}

    def graph_of(key):
        if key not in graphs:
            k, extras = key
            enc = encoded[k]
            if extras:
                ex = np.array(extras, dtype=np.int64)
                us = np.concatenate((enc.us, ex[:, 0]))
                vs = np.concatenate((enc.vs, ex[:, 1]))
                ws = np.concatenate((enc.ws, ex[:, 2]))
                graphs[key] = from_edges(enc.inst.graph.n, us, vs, ws)
            else:
                graphs[key] = enc.inst.graph
            refs[key] = reference_lambda(graphs[key], seed)
        return graphs[key], refs[key]

    for inst_idx, inst in enumerate(instances):
        inst.ref = graph_of((inst_idx, ()))[1]
    for sl in slices:
        checked = []
        for op, start, latency, status, raw in sl["records"]:
            rec = {"kind": op.kind, "start": start, "latency": latency,
                   "status": status, "ok": False, "error": None, "body": None}
            if status == 200:
                body = json.loads(raw)
                rec["body"] = body
                g, ref = graph_of(op.graph)
                rec["ok"] = cut_ok(g, ref, body["value"], body.get("side"))
                if not rec["ok"]:
                    rec["error"] = f"{op.kind}: value {body['value']} vs reference {ref}"
            else:
                rec["error"] = f"{op.kind}: HTTP {status} {raw[:200]!r}"
            checked.append(rec)
        sl["records"] = checked
    gaps = {inst.name: int(viecut(inst.graph, rng=seed).value) - inst.ref
            for inst in instances}
    return manifest(instances, gaps)


def _layer_metrics(records, before, after, trace_path, warm_requests) -> dict:
    """Service, engine and dynamic numbers of the traced window."""
    events = [json.loads(line) for line in open(trace_path, encoding="utf-8")]
    # warm-up requests finish before the window opens: skip every event up
    # to the warm-up's last request_done
    done_seen = 0
    start = 0
    for i, ev in enumerate(events):
        if ev["kind"] == "request_done":
            done_seen += 1
            if done_seen == warm_requests:
                start = i + 1
                break
    events = events[start:]
    update_digests = {ev["new_digest"] for ev in events if ev["kind"] == "graph_update"}
    update_reqs = {ev["req_id"] for ev in events
                   if ev["kind"] == "request_start" and ev["digest"][:12] in update_digests}
    solve_ends = [ev for ev in events
                  if ev["kind"] == "request_end" and ev["req_id"] not in update_reqs]
    warm = [ev for ev in events if ev["kind"] == "warm_solve"]
    engine_total = sum(ev["seconds"] for ev in solve_ends) + sum(ev["seconds"] for ev in warm)

    ok = [r for r in records if r["ok"]]
    ops = max(1, len(ok))
    updates = [r for r in ok if r["kind"] in ("update", "register")]
    modes = [(r["body"].get("warm") or {}).get("mode", "cache") for r in updates]
    cache0, cache1 = before["engine"]["cache"], after["engine"]["cache"]
    hits = cache1["hits"] - cache0["hits"]
    lookups = hits + cache1["misses"] - cache0["misses"]

    def kind_s(*kinds):
        return median(r["latency"] for r in ok if r["kind"] in kinds)

    return {
        "service.wire_s": mean(r["latency"] - r["body"]["seconds"] for r in ok),
        "service.handler_s": (sum(r["body"]["seconds"] for r in ok) - engine_total) / ops,
        "engine.request_s": mean(ev["seconds"] for ev in solve_ends),
        "engine.cache_hit_ratio": hits / max(1, lookups),
        "engine.recycles": float(after["engine"]["pool"]["recycles"]
                                 - before["engine"]["pool"]["recycles"]),
        "service.shed_frac": sum(1 for r in records if r["status"] == 429) / max(1, len(records)),
        "service.hit_s": kind_s("hit"),
        "service.miss_s": kind_s("miss"),
        "service.update_s": kind_s("update", "register"),
        "service.all_cuts_s": kind_s("all_cuts"),
        "dynamic.fast_path_frac": sum(m == "fast-path" for m in modes) / max(1, len(modes)),
        "dynamic.seeded_frac": sum(m.startswith("seeded") for m in modes) / max(1, len(modes)),
        "dynamic.cold_frac": sum(m == "cold" for m in modes) / max(1, len(modes)),
        "dynamic.warm_s": mean(ev["seconds"] for ev in warm if ev["mode"] != "cold"),
    }
