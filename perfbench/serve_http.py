"""HTTP serving: ``sptransx serve --workers 1`` (the pool tier) under load.

Set-up (timed as ``setup_s``) writes a 20k x 64 SpTransE checkpoint, starts
the server and waits until ``/v1/health`` answers; it is repeated and the
earlier servers are stopped.  Queries are uniform, distinct (head, relation)
pairs that never repeat, so the result cache is bypassed and every request is
scored exactly.  Load comes from this one process over two keep-alive
connections:

* an open loop at a fixed rate below capacity, request ``i`` due at
  ``i / RATE_QPS``; latency is measured from each request's due time, so a
  stall also delays the requests queued behind it;
* a closed loop on the same connections, each sending its next request when
  the previous one returns, whose completion rate is the capacity.

A non-200 answer, a timeout, or a malformed top-k answer counts as failed and
as missing the latency limit.  The server is stopped on every exit path.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import shutil
import signal
import tempfile
import threading
import time
import urllib.parse
from typing import Dict, List, Optional

import numpy as np

from benchmarks.bench_inference_throughput import (
    _distinct_queries,
    _save_bench_checkpoint,
    _start_cli_server,
    _stop_cli_server,
)
from report import latency_metrics, percentile

N_ENTITIES = 20_000
DIM = 64
K = 10
WORKERS = 1
CONNECTIONS = 2
RATE_QPS = 50.0
LIMIT_MS = 50.0
OPEN_SHARE = 0.6
TIMEOUT_S = 5.0
SETUPS = 3
ROUTE = "/v1/top_k_tails"


class _Connection:
    """One keep-alive client connection and the outcomes it saw."""

    def __init__(self, url: str, tracer, halt: threading.Event) -> None:
        parsed = urllib.parse.urlparse(url)
        self.host, self.port = parsed.hostname, parsed.port
        self.tracer = tracer
        self.halt = halt
        self.conn: Optional[http.client.HTTPConnection] = None
        self.latency_ms: List[float] = []     # from due time (open loop) or send
        self.service_ms: List[float] = []     # from send to parsed answer
        self.late_ms: List[float] = []        # send start minus due time
        self.attempted = 0
        self.ok = 0
        self.failed = 0

    def _span(self, name: str):
        if self.tracer is None or not self.tracer.is_open("http.request"):
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        if self.conn is None:
            self.conn = http.client.HTTPConnection(self.host, self.port,
                                                   timeout=TIMEOUT_S)
        headers = {"Content-Type": "application/json"} if body else {}
        with self._span("client.send"):
            self.conn.request(method, path, body=body, headers=headers)
        with self._span("client.wait"):
            response = self.conn.getresponse()
        with self._span("client.read"):
            payload = response.read()
            value = json.loads(payload) if response.status == 200 else None
        return response.status, value

    def top_k(self, head: int, relation: int, due: Optional[float]) -> None:
        body = json.dumps({"head": head, "relation": relation, "k": K}).encode()
        if due is not None and self.halt.wait(max(0.0, due - time.perf_counter())):
            return
        self.attempted += 1
        sent = time.perf_counter()
        start = sent if due is None else min(due, sent)
        tracer = self.tracer
        if tracer is not None:
            tracer.set_unit(f"{head}:{relation}")
            index = tracer.begin("http.request", start=start)
            if sent > start:  # the generator ran late: time queued client-side
                tracer.end(tracer.begin("client.queue", start=start))
        try:
            status, value = self.request("POST", ROUTE, body)
        except (OSError, http.client.HTTPException, ValueError):
            status, value = None, None
            self.close()
        finally:
            if tracer is not None:
                tracer.end(index)
        done = time.perf_counter()
        self.late_ms.append((sent - start) * 1e3)
        if status == 200 and _answer_ok(value):
            self.ok += 1
            self.latency_ms.append((done - start) * 1e3)
            self.service_ms.append((done - sent) * 1e3)
        else:
            self.failed += 1

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def _answer_ok(value) -> bool:
    if not isinstance(value, dict):
        return False
    ids, scores = value.get("entities"), value.get("scores")
    return (isinstance(ids, list) and isinstance(scores, list)
            and len(ids) == K and len(set(ids)) == K and len(scores) == K
            and all(isinstance(i, int) and 0 <= i < N_ENTITIES for i in ids)
            and all(np.isfinite(scores))
            and all(a <= b for a, b in zip(scores, scores[1:])))


def _wait_ready(url: str, timeout_s: float = 60.0) -> None:
    parsed = urllib.parse.urlparse(url)
    end = time.monotonic() + timeout_s
    while True:
        conn = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=2.0)
        try:
            conn.request("GET", "/v1/health")
            response = conn.getresponse()
            response.read()
            if response.status == 200:
                return
        except (OSError, http.client.HTTPException):
            pass
        finally:
            conn.close()
        if time.monotonic() > end:
            raise RuntimeError(f"server at {url} never became healthy")
        time.sleep(0.01)


def _run_phase(connections: List[_Connection], pairs, due_at=None,
               stop_at: float = float("inf")) -> None:
    """Stripe ``pairs`` over the connections, one thread each."""
    errors: List[BaseException] = []

    def drive(c: int) -> None:
        try:
            for i in range(c, len(pairs), len(connections)):
                if time.perf_counter() >= stop_at or connections[c].halt.is_set():
                    return
                due = due_at(i) if due_at is not None else None
                connections[c].top_k(pairs[i][0], pairs[i][1], due)
        except BaseException as exc:  # noqa: BLE001 — re-raised after join
            errors.append(exc)

    threads = [threading.Thread(target=drive, args=(c,))
               for c in range(len(connections))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (the server's forked pool workers)."""
    children: List[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as handle:
                children.extend(int(c) for c in handle.read().split())
    except OSError:
        pass
    return children


def _stop_server(proc) -> None:
    """Stop the server; if it had to be killed, also kill its orphaned workers."""
    workers = _child_pids(proc.pid)
    _stop_cli_server(proc)
    deadline = time.monotonic() + 10.0
    for pid in workers:
        while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.05)


def _stats_layers(stats: Dict) -> Dict[str, float]:
    route = stats["routes"].get(ROUTE, {})
    workers = [w for w in stats.get("worker_stats") or [] if w]
    shipped_full = sum(w["shipped_full"] for w in workers)
    shipped_deadline = sum(w["shipped_deadline"] for w in workers)
    cache = [w["engine"]["cache"] for w in workers]
    lookups = sum(c["hits"] + c["misses"] for c in cache)
    return {
        "serving.server_ms_p50": route.get("latency", {}).get("p50_ms", 0.0),
        "serving.batch_size_mean": stats["batching"]["mean_batch_size"],
        "serving.shipped_deadline_ratio": (
            shipped_deadline / (shipped_full + shipped_deadline)
            if shipped_full + shipped_deadline else 0.0),
        "serving.service_ms_per_row": (
            float(np.mean([w["service_per_row_ms"] for w in workers]))
            if workers else 0.0),
        "serving.shed.admission": route.get("shed", 0),
        "serving.shed.timeout": route.get("timeout", 0),
        "serving.shed.deadline_miss": route.get("deadline_miss", 0),
        "serving.shed.error": route.get("error", 0),
        "serving.cache_hit_ratio": (sum(c["hits"] for c in cache) / lookups
                                    if lookups else 0.0),
    }


def run(workload: str, seed: int, seconds: float, tracer, scratch: str) -> Dict:
    directory = tempfile.mkdtemp(prefix="http-", dir=scratch)
    checkpoint = os.path.join(directory, "model.npz")
    open_s = OPEN_SHARE * seconds
    closed_s = seconds - open_s
    n_open = int(RATE_QPS * open_s)
    # Uniform distinct pairs in seeded random order; none is ever repeated.
    pairs = _distinct_queries(n_open + 20_000, N_ENTITIES, k=K, seed=seed)
    order = np.random.default_rng(seed).permutation(len(pairs))
    pairs = [(pairs[i].anchor, pairs[i].relation) for i in order]
    open_pairs, closed_pairs = pairs[:n_open], pairs[n_open:]

    setup_s: List[float] = []
    server = None
    halt = threading.Event()
    previous = {sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGHUP)}

    def _terminate(signum, _frame):
        raise SystemExit(128 + signum)

    for sig in previous:
        signal.signal(sig, _terminate)
    connections: List[_Connection] = []
    try:
        for _ in range(SETUPS):
            if server is not None:
                _stop_server(server)
                server = None
            start = time.perf_counter()
            _save_bench_checkpoint(checkpoint, N_ENTITIES, DIM, seed=seed)
            server, url = _start_cli_server(checkpoint, WORKERS, LIMIT_MS)
            _wait_ready(url)
            setup_s.append(time.perf_counter() - start)

        connections = [_Connection(url, tracer, halt) for _ in range(CONNECTIONS)]
        # Open loop at a fixed rate, timed from each request's due time.
        base = time.perf_counter() + 0.01
        open_start = time.perf_counter()
        _run_phase(connections, open_pairs, lambda i: base + i / RATE_QPS)
        open_wall = time.perf_counter() - open_start
        open_latency = [ms for c in connections for ms in c.latency_ms]
        open_service = [ms for c in connections for ms in c.service_ms]
        late = [ms for c in connections for ms in c.late_ms]
        open_failed = sum(c.failed for c in connections)
        within = sum(1 for ms in open_latency if ms <= LIMIT_MS)
        status, stats = connections[0].request("GET", "/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        layers = _stats_layers(stats)
        for c in connections:
            c.latency_ms, c.service_ms, c.late_ms = [], [], []

        # Closed loop on the same connections: the capacity.
        closed_start = time.perf_counter()
        ok_before = sum(c.ok for c in connections)
        _run_phase(connections, closed_pairs, stop_at=closed_start + closed_s)
        closed_wall = time.perf_counter() - closed_start
        closed_ok = sum(c.ok for c in connections) - ok_before
        attempted = sum(c.attempted for c in connections)
        failed = sum(c.failed for c in connections)
    finally:
        halt.set()
        for c in connections:
            c.close()
        if server is not None:
            _stop_server(server)
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        shutil.rmtree(directory, ignore_errors=True)

    if attempted >= len(pairs):
        raise RuntimeError("the closed loop ran out of distinct queries")
    layers.update({
        "serving.transport_ms_p50": (percentile(open_service, 50)
                                     - layers["serving.server_ms_p50"]),
        "serving.generator_late_ms_p99": percentile(late, 99),
        "serving.goodput_qps": within / open_wall,
    })
    return {
        "attempted": attempted,
        "failed": failed,
        "checks": {"answers_valid": failed == 0},
        "window_s": open_wall + closed_wall,
        "backend": "scipy",
        "end_to_end": {
            "setup_s": float(np.median(setup_s)),
            "throughput_per_s": closed_ok / closed_wall,
            **latency_metrics(open_latency),
        },
        "layers": layers,
        "info": {
            "open_requests": n_open, "open_failed": open_failed,
            "open_within_limit": within, "open_wall_s": open_wall,
            "closed_ok": closed_ok, "closed_wall_s": closed_wall,
            "goodput_qps": layers["serving.goodput_qps"],
            "setup_s_samples": setup_s,
        },
    }
