"""Per-layer metrics of a traced run, from its spans and counters."""

from __future__ import annotations

from common import declared
from summarize import load, table


def _zeroed() -> dict[str, float]:
    return {m["name"]: 0.0 for m in declared()["per_layer"]}


def _rows(spans, wall=None):
    rows, wall = table(spans, wall)
    return {row["name"]: row for row in rows}, rows, wall


def _get(by, name, field):
    return by[name][field] if name in by else 0


def _ratio_saved(lookups: float, misses: float) -> float:
    return 1.0 - misses / lookups if lookups else 0.0


def ingest(result: dict) -> tuple[dict, list, float]:
    traced = result["traced"]
    spans = load([r["trace"] for r in traced])
    wall = sum(s["end"] - s["start"] for s in spans if s["name"] == "ingest.call")
    by, rows, wall = _rows(spans, wall)
    projects = sum(r["projects"] for r in traced)

    def per(name, field):
        return _get(by, name, field) / projects

    metrics = _zeroed()
    for name in ("schema.build", "sqlddl.parse", "pipeline.scan", "core.diff",
                 "store.persist", "synthesis.project"):
        metrics[f"{name}.calls"] = per(name, "calls")
    for name in ("schema.build", "sqlddl.parse", "pipeline.scan", "core.diff",
                 "core.metrics", "core.taxa", "store.persist", "store.analyze",
                 "store.lookup", "store.fingerprint", "vcs.extract",
                 "synthesis.project", "mining.select", "pipeline.run"):
        metrics[f"{name}.self_s"] = per(name, "self_s")
    metrics["schema.build.bytes"] = sum(
        s.get("bytes", 0) for s in spans if s["name"] == "schema.build"
    ) / projects
    metrics["pipeline.schema_cache.hit_ratio"] = _ratio_saved(
        _get(by, "pipeline.schema_cache", "calls"), _get(by, "schema.build", "calls"))
    metrics["pipeline.diff_cache.hit_ratio"] = _ratio_saved(
        _get(by, "pipeline.diff_cache", "calls"), _get(by, "core.diff", "calls"))
    metrics["program.build_schema_calls"] = sum(
        r["program_build_schema_calls"] or 0 for r in traced
    ) / projects
    metrics["bench.trace_overhead_ratio"] = result["trace_overhead_ratio"]
    return metrics, rows, wall


def _linked(client: list[dict], server: list[dict]) -> list[dict]:
    """Server spans whose chain of parents reaches a client span."""
    client_ids = {s["id"] for s in client}
    by_id = {s["id"]: s for s in server}
    root_of: dict[str, str | None] = {}

    def root(span):
        seen = []
        while True:
            if span["id"] in root_of:
                found = root_of[span["id"]]
                break
            seen.append(span["id"])
            parent = span.get("parent")
            if parent in client_ids:
                found = parent
                break
            span = by_id.get(parent)
            if span is None:
                found = None
                break
        for sid in seen:
            root_of[sid] = found
        return found

    return [s for s in server if root(s) is not None]


def serve(result: dict) -> tuple[dict, list, float]:
    trace, info = result["trace"], result["info"]
    client = trace["client"]
    server = _linked(client, load(trace["server_files"]))
    by, rows, wall = _rows(client + server)
    requests = len(client)

    def per_ms(name):
        return 1000.0 * _get(by, name, "self_s") / requests

    metrics = _zeroed()
    metrics["serve.guard.self_ms"] = per_ms("serve.guard")
    metrics["serve.service.self_ms"] = per_ms("serve.service")
    metrics["serve.render.self_ms"] = per_ms("serve.render")
    metrics["store.read.self_ms"] = per_ms("store.read")
    metrics["store.write.self_ms"] = per_ms("store.write")
    metrics["store.read.calls"] = _get(by, "store.read", "calls") / requests
    metrics["serve.http.self_ms"] = 1000.0 * (
        _get(by, "serve.client", "total_s") - _get(by, "serve.guard", "total_s")
    ) / requests
    metrics["serve.cache.hit_ratio"] = info["cache_hit_ratio"]
    metrics["serve.renders"] = info["renders_per_request"]
    metrics["serve.not_modified_ratio"] = info["not_modified_ratio"]
    metrics["serve.timeouts"] = info["timeouts"]
    metrics["store.open_db_fds"] = info["open_db_fds"]
    metrics["serve.threads"] = info["threads"]
    metrics["bench.gen_lag_ms"] = info["gen_lag_p99_ms"]
    metrics["bench.trace_overhead_ratio"] = trace["overhead_ratio"]
    return metrics, rows, wall
