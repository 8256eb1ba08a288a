"""The two serve workloads: ``serve-hot`` and ``serve-wide``.

Each run builds a light-profile store once (``inproc.py build``), then
starts ``repro serve`` with its CLI defaults (``--quiet`` aside) on a
fresh copy of that store for every server it needs, pinned to the
first core while the load generator keeps the others:

- a planning server walks the project list by cursor and records the
  hot paths' ETags, from which the run's request plan is made;
- ``ROUNDS`` rounds, each on a new server: warm the hot paths, a
  closed-loop slice of ``CLOSED_PER_SERVER`` requests on ``THREADS``
  keep-alive connections (their rate is ``throughput_per_s``), then an
  open-loop window at the workload's fixed rate (``OPEN_SHARE`` of the
  run in all), then read the server from outside: ``/proc/<pid>`` (db
  descriptors, threads, VmHWM) and ``/v1/metrics``;
- every spawn, the planning server's too, is timed from spawn to its
  first 200: ``setup_s`` is their median;
- check the answers against an in-process render of each server's store.

A fresh server per round bounds what the seed server's per-request
sqlite connection leak (about 2 MB and two descriptors per request on
this store) can grow to by request count, not by run length or
machine speed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import time
from statistics import median
from urllib.parse import urlsplit

from common import HERE, ROOT, BenchError, child_env, python_child, quantile, run_dir
from loadclient import Connection, Request, closed_loop, open_loop
from spans import Recorder

#: Projects in the served store.  Their 1280 detail and heartbeat paths
#: are five times the server's 256-entry response cache, and serve-wide
#: requests them in one seeded cycle, so it misses the cache.
STORE_COUNT = 640
#: With two or more cores the server gets the first and the load
#: generator the others, so neither steals the other's core and a
#: neighbour slowing one core moves fewer of the figures at once.
CPUS = sorted(os.sched_getaffinity(0))
#: Load threads = keep-alive connections (at most the machine's 2 cores).
THREADS = min(2, len(CPUS))
#: Open-loop request rate, fixed, never retuned to a later version's
#: capacity: about half the seed's closed-loop peak on this store
#: (160 to 180 requests/s on 2 cores).
RATE = 80.0
ROUNDS = 5
#: Requests of each round's closed-loop slice, sent first on a fresh
#: server.  Together with the open window (about 200 requests at the
#: default run length) a server answers some 310 requests in its life,
#: which holds the seed's leak near 700 MB.
CLOSED_PER_SERVER = 100
OPEN_SHARE = 0.9
#: Every n-th GET 200 body of the open loop is checked against an
#: in-process render of the same store file.
SAMPLE_EVERY = 20
ADVISE_POOL = 8
#: The traffic mixes take their proportions from the program's own model
#: of how ``/v1`` is read, ``repro.loadgen.workload.DEFAULT_WEIGHTS``
#: (projects_hot 25, projects_filtered 10, taxa 5, stats 5, failures 5,
#: project_detail 20, heartbeat 15, projects_page 15), copied here so a
#: later change to that model does not change this benchmark's load.
#: serve-hot keeps the families the response cache can hold, with
#: projects_filtered split evenly over two taxon and two metric filters;
#: 30% of its requests revalidate, as ``DEFAULT_ETAG_REUSE``.
HOT_MIX = (
    ("/v1/projects?limit=50", 25.0),
    ("/v1/taxa", 5.0),
    ("/v1/stats", 5.0),
    ("/v1/failures", 5.0),
    ("/v1/projects?taxon=frozen", 2.5),
    ("/v1/projects?taxon=almost+frozen", 2.5),
    ("/v1/projects?min_total_activity=3", 2.5),
    ("/v1/projects?min_n_commits=2", 2.5),
)
REVALIDATE_SHARE = 0.3
#: serve-wide keeps the per-project and page families, and adds advise
#: writes at weight 5, the weight the repository's load-generator smoke
#: test opts the write family in with.  Page walks use loadgen's page
#: sizes; ids are drawn in one seeded cycle over every project rather
#: than loadgen's hot-head skew, so the cache is bypassed.
WIDE_MIX = (("detail", 20.0), ("beat", 15.0), ("page", 15.0), ("advise", 5.0))
PAGE_LIMITS = (10, 25, 50)
PLAN_LENGTH = 6000
PROMETHEUS = "text/plain; version=0.0.4"


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve`` process on its own copy of the store."""

    def __init__(self, base_db: str, where, name: str, trace_out: str | None = None):
        self.db = str(where / f"{name}.db")
        self.trace_out = trace_out
        shutil.copyfile(base_db, self.db)
        self.port = _free_port()
        args = ["serve", "--db", self.db, "--port", str(self.port), "--quiet"]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(HERE / "serve_child.py"), trace_out, *args]
        self.log = open(where / f"{name}.log", "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=self.log, stderr=subprocess.STDOUT
        )
        if len(CPUS) > 1:
            os.sched_setaffinity(self.proc.pid, CPUS[:1])
        try:
            self.setup_s = self._first_200(started)
        except BaseException:
            self.stop()
            raise

    def _first_200(self, started: float) -> float:
        conn = Connection("127.0.0.1", self.port)
        probe = Request("GET", "/v1/taxa", 200)
        try:
            while time.perf_counter() - started < 90:
                status, _, _ = conn.send(probe)
                if status == 200:
                    return time.perf_counter() - started
                if status != 0 or self.proc.poll() is not None:
                    raise BenchError(f"server did not start: status {status}")
                time.sleep(0.005)
        finally:
            conn.close()
        raise BenchError("server did not answer within 90 s")

    def metrics(self) -> dict[str, float]:
        """``/v1/metrics`` as Prometheus text, summed over labels."""
        conn = Connection("127.0.0.1", self.port)
        try:
            status, _, body = conn.send(
                Request("GET", "/v1/metrics", 200, headers={"Accept": PROMETHEUS})
            )
        finally:
            conn.close()
        if status != 200:
            raise BenchError(f"/v1/metrics answered {status}")
        totals: dict[str, float] = {}
        for line in body.decode().splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            name = name.split("{", 1)[0]
            totals[name] = totals.get(name, 0.0) + float(value)
        return totals

    def absent(self) -> list[str]:
        """Patch targets a traced server could not wrap."""
        if self.trace_out is None:
            return []
        with open(self.trace_out + ".absent", encoding="utf-8") as handle:
            return json.load(handle)

    def proc_counters(self) -> dict[str, float]:
        """Read from outside: db descriptors, threads and VmHWM."""
        pid = self.proc.pid
        db = os.path.realpath(self.db)
        fds = 0
        for fd in os.listdir(f"/proc/{pid}/fd"):
            try:
                target = os.readlink(f"/proc/{pid}/fd/{fd}")
            except OSError:
                continue
            if target in (db, db + "-wal", db + "-shm", db + "-journal"):
                fds += 1
        status = {}
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                status[key] = value.split()
        return {
            "open_db_fds": fds,
            "threads": int(status["Threads"][0]),
            "peak_rss_mb": int(status["VmHWM"][0]) / 1024.0,
        }

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()

    def store_bytes(self) -> int:
        return sum(
            os.path.getsize(self.db + suffix)
            for suffix in ("", "-wal", "-shm")
            if os.path.exists(self.db + suffix)
        )


# -- plans -------------------------------------------------------------------


def _get_json(conn: Connection, path: str) -> dict:
    status, _, body = conn.send(Request("GET", path, 200))
    if status != 200:
        raise BenchError(f"warm-up GET {path} answered {status}")
    return json.loads(body)


def _walk(conn: Connection, limit: int) -> tuple[list[Request], list[tuple[int, str]]]:
    """Every cursor page of ``/v1/projects?limit=N``, and the (id, name) rows.

    Pages are labelled by limit and number, so the plan digest does not
    depend on how the server spells its opaque cursor tokens.
    """
    pages, rows = [], []
    path = f"/v1/projects?limit={limit}"
    while path is not None:
        pages.append(Request("GET", path, 200, label=f"walk {limit} page {len(pages)}"))
        page = _get_json(conn, path)
        rows.extend((p["id"], p["project"]) for p in page["projects"])
        cursor = page.get("next_cursor")
        path = f"/v1/projects?limit={limit}&cursor={cursor}" if cursor else None
    return pages, rows


def _hot_plan(rng: random.Random, etags: dict[str, str]) -> list[Request]:
    paths, weights = zip(*HOT_MIX)
    plan = []
    for path in rng.choices(paths, weights=weights, k=PLAN_LENGTH):
        if rng.random() < REVALIDATE_SHARE:
            plan.append(Request("GET", path, 304, headers={"If-None-Match": etags[path]}))
        else:
            plan.append(Request("GET", path, 200))
    return plan


def _cycle(rng: random.Random, items: list):
    """One seeded order, repeated: every path recurs only after all the
    others, a longer cycle than the response cache holds."""
    order = list(items)
    rng.shuffle(order)
    while True:
        yield from order


def _wide_plan(rng, ids, walks, proposals, seed) -> list[Request]:
    details = _cycle(rng, [f"/v1/projects/{i}" for i in ids])
    beats = _cycle(rng, [f"/v1/projects/{i}/heartbeat" for i in ids])
    pages = (page for walk in _cycle(rng, walks) for page in walk)
    families, weights = zip(*WIDE_MIX)
    plan = []
    for family in rng.choices(families, weights=weights, k=PLAN_LENGTH):
        if family == "detail":
            plan.append(Request("GET", next(details), 200))
        elif family == "beat":
            plan.append(Request("GET", next(beats), 200))
        elif family == "page":
            plan.append(next(pages))
        else:
            key = rng.randrange(len(proposals))
            target_id, ddl = proposals[key]
            plan.append(Request(
                "POST", f"/v1/projects/{target_id}/advise", 200,
                body=json.dumps({"ddl": ddl}, sort_keys=True).encode(),
                headers={"Idempotency-Key": f"perfbench-{seed}-{key}"},
            ))
    return plan


def plan_digest(plan: list[Request]) -> str:
    digest = hashlib.sha256()
    for req in plan:
        body = hashlib.sha256(req.body).hexdigest() if req.body is not None else "-"
        key = req.headers.get("Idempotency-Key", "-")
        reval = "r" if "If-None-Match" in req.headers else "-"
        path = req.label or req.path
        digest.update(f"{req.method} {path} {body} {key} {reval}\n".encode())
    return digest.hexdigest()


def _warm(server: Server) -> dict[str, str]:
    """Fetch each hot path once; return their ETags."""
    conn = Connection("127.0.0.1", server.port)
    etags = {}
    try:
        for path, _ in HOT_MIX:
            status, headers, _ = conn.send(Request("GET", path, 200))
            if status != 200 or "etag" not in headers:
                raise BenchError(f"warm-up GET {path} answered {status}")
            etags[path] = headers["etag"]
    finally:
        conn.close()
    return etags


def _make_plan(server: Server, workload: str, seed: int, build: dict) -> list[Request]:
    """The run's request plan, from what the planning server answers."""
    etags = _warm(server)
    rng = random.Random(f"perfbench|{workload}|{seed}|plan")
    if workload == "serve-hot":
        return _hot_plan(rng, etags)
    conn = Connection("127.0.0.1", server.port)
    try:
        walks, rows = [], []
        for limit in PAGE_LIMITS:
            pages, rows = _walk(conn, limit)
            walks.append(pages)
    finally:
        conn.close()
    by_name = {name: row_id for row_id, name in rows}
    proposals = [(by_name[p["name"]], p["ddl"]) for p in build["proposals"]]
    return _wide_plan(rng, [row_id for row_id, _ in rows], walks, proposals, seed)


# -- checks ------------------------------------------------------------------


class Checker:
    """Counts failed requests: wrong status, transport error, 5xx, a degraded
    ``Warning: 110`` answer, or an advise replay that differs from the first
    answer the same server gave for its key."""

    def __init__(self) -> None:
        self.failed = 0
        self.attempted = 0
        self.problems: dict[str, int] = {}
        self.first_advice: dict[tuple[int, str], bytes] = {}
        self.samples: list[tuple[str, str, str, str]] = []  # db, path, query, body sha256
        self.gets = 0

    def fail(self, why: str) -> None:
        self.failed += 1
        self.problems[why] = self.problems.get(why, 0) + 1

    def judge(self, plan: list[Request], outcomes, server: Server, sample: bool) -> None:
        for out in outcomes:
            req = plan[out.index % len(plan)]
            self.attempted += 1
            if out.status == 0:
                self.fail("transport")
                continue
            if out.headers.get("warning", "").startswith("110"):
                self.fail("degraded")
                continue
            if out.status != req.expect:
                self.fail(f"status {out.status} for {req.method}")
                continue
            if req.method == "POST":
                key = (server.port, req.headers["Idempotency-Key"])
                first = self.first_advice.setdefault(key, out.body)
                if first != out.body:
                    self.fail("advise replay differs")
            elif out.status == 200:
                self.gets += 1
                if sample and self.gets % SAMPLE_EVERY == 0:
                    split = urlsplit(req.path)
                    self.samples.append((
                        server.db, split.path, split.query,
                        hashlib.sha256(out.body).hexdigest(),
                    ))

    def check_renders(self) -> int:
        """Compare the sampled bodies with an in-process render of the
        store file each came from; return mismatches."""
        if not self.samples:
            return 0
        rendered = python_child("inproc.py", "render", json.dumps({
            "requests": [[db, p, q] for db, p, q, _ in self.samples],
        }))["digests"]
        bad = sum(1 for (*_, got), want in zip(self.samples, rendered) if got != want)
        for _ in range(bad):
            self.fail("body differs from in-process render")
        return bad


def _latency_stats(outcomes) -> dict[str, float]:
    lat = [1000.0 * o.latency for o in outcomes]
    lag = [1000.0 * (o.sent - o.due) for o in outcomes]
    return {
        "p50_ms": median(lat),
        "p90_ms": quantile(lat, 0.9),
        "p99_ms": quantile(lat, 0.99),
        "gen_lag_p99_ms": quantile(lag, 0.99),
        "n": len(lat),
    }


# -- the run ------------------------------------------------------------------


def _round(part, servers, plan, window, checker, client) -> dict:
    """One round: warm every server, a closed-loop slice on each (the
    traced run's untraced and traced servers alternate which goes
    first), then an open-loop window on the last, the server under test.
    Slices and windows take consecutive stretches of the one plan, so a
    serve-wide path still recurs only after every other."""
    server = servers[-1]
    for target in servers:
        _warm(target)
    before = server.metrics()
    position = part * PLAN_LENGTH // ROUNDS
    rates = [0.0] * len(servers)
    order = list(enumerate(servers))
    for number, target in order[::-1] if part % 2 else order:
        outs, elapsed = closed_loop("127.0.0.1", target.port, plan, THREADS,
                                    CLOSED_PER_SERVER, offset=position)
        checker.judge(plan, outs, target, sample=False)
        rates[number] = sum(1 for o in outs if o.status in (200, 304)) / elapsed
    half_way = server.proc_counters()["open_db_fds"]
    outs = open_loop("127.0.0.1", server.port, plan, THREADS, RATE, window,
                     recorder=client, offset=position + CLOSED_PER_SERVER)
    checker.judge(plan, outs, server, sample=True)
    after = server.metrics()
    counters = server.proc_counters()
    return {
        "rates": rates,
        "open": outs,
        "measured": CLOSED_PER_SERVER + len(outs),
        # Requests the server under test answered: warm-up, slice, window.
        "requests_half_way": len(HOT_MIX) + CLOSED_PER_SERVER,
        "requests": len(HOT_MIX) + CLOSED_PER_SERVER + len(outs),
        "open_db_fds_half_way": half_way,
        "counters": counters,
        "delta": {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after},
    }


def run(workload: str, seed: int, seconds: float, trace: bool, refs) -> dict:
    if len(CPUS) == 1:
        return _run(workload, seed, seconds, trace, refs)
    os.sched_setaffinity(0, CPUS[1:])
    try:
        return _run(workload, seed, seconds, trace, refs)
    finally:
        os.sched_setaffinity(0, CPUS)


def _run(workload: str, seed: int, seconds: float, trace: bool, refs) -> dict:
    where = run_dir(workload)
    rng = random.Random(f"perfbench|{workload}|{seed}|targets")
    targets = sorted(rng.sample(range(STORE_COUNT), ADVISE_POOL))
    base = str(where / "base.db")
    build = python_child("inproc.py", "build", json.dumps(
        {"db": base, "seed": seed, "count": STORE_COUNT, "targets": targets}
    ))
    ok = refs.check("store", build["identity"])

    checker = Checker()
    client = Recorder() if trace else None
    window = OPEN_SHARE * seconds / ROUNDS
    planner = Server(base, where, "plan")
    try:
        plan = _make_plan(planner, workload, seed, build)
    finally:
        planner.stop()
    digest = plan_digest(plan)
    ok = refs.check("plan", digest) and ok
    setups = [planner.setup_s]
    rounds, absent, traces = [], set(), []
    for part in range(ROUNDS):
        servers = []
        try:
            servers.append(Server(base, where, f"round-{part}"))
            setups.append(servers[0].setup_s)
            if trace:
                traces.append(str(where / f"server-trace-{part}.jsonl"))
                servers.append(Server(base, where, f"round-{part}-traced",
                                      trace_out=traces[-1]))
            result = _round(part, servers, plan, window, checker, client)
        finally:
            for running in servers:
                running.stop()
        result["store_bytes"] = servers[-1].store_bytes()
        absent.update(servers[-1].absent())
        rounds.append(result)
    checker.check_renders()
    if not ok:
        checker.fail("reference mismatch")
    for target in sorted(absent):
        # The layer this target times would read as zero.
        checker.fail(f"absent patch target {target}")

    open_outs = [o for r in rounds for o in r["open"]]
    stats = _latency_stats(open_outs)
    delta: dict[str, float] = {}
    for r in rounds:
        for key, value in r["delta"].items():
            delta[key] = delta.get(key, 0.0) + value
    hits = delta.get("repro_serve_cache_hits_total", 0.0)
    misses = delta.get("repro_serve_cache_misses_total", 0.0)
    revalidated = sum(1 for o in open_outs if o.status == 304)
    measured = sum(r["measured"] for r in rounds)
    # The server under test is the last of each round's servers.
    peak_rps = median(r["rates"][-1] for r in rounds)
    out = {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
        "end_to_end": {
            "throughput_per_s": peak_rps,
            "peak_rss_mb": median(r["counters"]["peak_rss_mb"] for r in rounds),
            "store_bytes_per_kib": median(r["store_bytes"] for r in rounds) / build["kib"],
            "setup_s": median(setups),
        },
        "info": {
            "peak_rps": peak_rps,
            "open_loop_requests": stats["n"],
            "p50_ms": stats["p50_ms"],
            "p90_ms": stats["p90_ms"],
            "p99_ms": stats["p99_ms"],
            "rate": RATE,
            "gen_lag_p99_ms": stats["gen_lag_p99_ms"],
            "requests_per_server_half_way": median(r["requests_half_way"] for r in rounds),
            "open_db_fds_half_way": median(r["open_db_fds_half_way"] for r in rounds),
            "requests_per_server": median(r["requests"] for r in rounds),
            "open_db_fds": median(r["counters"]["open_db_fds"] for r in rounds),
            "threads": median(r["counters"]["threads"] for r in rounds),
            "servers": len(rounds),
            "setup_spawns": len(setups),
            "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "renders_per_request": delta.get("repro_serve_renders_total", 0.0) / measured,
            "not_modified_ratio": revalidated / len(open_outs),
            "timeouts": delta.get("repro_http_timeouts_total", 0.0),
            "body_samples": len(checker.samples),
            "plan_digest": digest,
        },
    }
    if trace:
        out["trace"] = {
            "client": client.spans,
            "server_files": traces,
            # Untraced over traced closed-loop rate, round by round.
            "overhead_ratio": median(r["rates"][0] / r["rates"][-1] for r in rounds),
        }
    return out
