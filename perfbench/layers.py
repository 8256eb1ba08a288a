"""Which callables of the program the traced runs wrap, and under what span name.

Each row is ``(span name, "module:Owner.attr"[, attrs_of])``.  A target
is patched where its callers look it up: a module global in the
calling module, or a class attribute.  A target that no longer exists
is reported as absent, and the traced run that misses it fails: its
layer would otherwise read as zero time.
"""

from __future__ import annotations

from spans import Recorder, install, patch


def _text_bytes(args, kwargs):
    text = args[0] if args else kwargs.get("text", "")
    return {"bytes": len(text)}


def _stage_project(args, kwargs):
    ctx = args[1] if len(args) > 1 else kwargs.get("ctx")
    return {"tag": getattr(getattr(ctx, "task", None), "repo_name", None)}


_STAGES = ("ExtractStage", "SeededExtractStage", "ParseStage", "DiffStage",
           "MeasureStage", "ClassifyStage")

INGEST = [
    ("synthesis.project", "repro.synthesis.stream:synthesize_project"),
    ("mining.select", "repro.store.ingest:select_lib_io"),
    ("mining.select", "repro.store.ingest:choose_ddl_file"),
    ("vcs.extract", "repro.store.ingest:extract_file_history"),
    ("vcs.extract", "repro.pipeline.stages:extract_file_history"),
    ("store.fingerprint", "repro.store.ingest:history_fingerprint"),
    ("store.lookup", "repro.store.store:CorpusStore.get_project"),
    ("store.persist", "repro.store.store:CorpusStore.persist_batch"),
    ("store.persist", "repro.store.store:CorpusStore.persist_context"),
    ("store.analyze", "repro.store.store:CorpusStore.analyze"),
    ("pipeline.run", "repro.pipeline.pipeline:MeasurementPipeline.run"),
    *[
        (f"pipeline.stage.{stage[:-5].lower()}", f"repro.pipeline.stages:{stage}.run",
         _stage_project)
        for stage in _STAGES
    ],
    ("pipeline.schema_cache", "repro.pipeline.cache:SchemaCache.schema_for"),
    ("pipeline.scan", "repro.pipeline.cache:SchemaCache.has_create_table"),
    ("pipeline.diff_cache", "repro.pipeline.cache:SchemaCache.diff_for"),
    ("schema.build", "repro.pipeline.cache:build_schema", _text_bytes),
    ("sqlddl.parse", "repro.schema.builder:parse_script"),
    ("sqlddl.parse", "repro.sqlddl.dialects.base:parse_script"),
    ("core.diff", "repro.pipeline.cache:diff_schemas"),
    ("core.metrics", "repro.pipeline.stages:compute_metrics"),
    ("core.taxa", "repro.pipeline.stages:classify"),
]

#: The ``CorpusStore`` methods ``CorpusService`` reads through.
STORE_READS = (
    "content_hash", "get_project", "query_projects", "heartbeat_rows",
    "version_rows", "query_failures", "failures", "failure_count",
    "taxa_summary", "taxa_by_dialect", "aggregates", "project_history",
    "advice_records",
)

SERVE = [
    ("serve.guard", "repro.serve.server:CorpusServer.guarded_handle"),
    ("serve.service", "repro.serve.service:CorpusService.handle_rendered"),
    ("serve.render", "repro.serve.service:render_body"),
    ("serve.render", "repro.serve.server:render_body"),
    *[("store.read", f"repro.store.store:CorpusStore.{name}") for name in STORE_READS],
    ("store.write", "repro.store.store:CorpusStore.record_advice"),
    ("store.write", "repro.store.store:CorpusStore.lookup_advice"),
]

#: The HTTP handler methods, each wrapped in a ``serve.http`` span.
HANDLERS = tuple(f"repro.serve.server:CorpusRequestHandler.do_{m}" for m in ("GET", "POST"))
#: Runs each request's service call on a deadline thread.
DEADLINE_CALL = "repro.serve.server:call_with_timeout"

#: Request headers the traced load sends: the client span id and the
#: benchmark's request index.
SPAN_HEADER = "X-Bench-Span"
REQUEST_HEADER = "X-Bench-Request"


def install_ingest(recorder: Recorder) -> list[str]:
    return install(recorder, INGEST)


def install_serve(recorder: Recorder) -> list[str]:
    """Wrap the serve layers, and link spans across the HTTP hop and the
    per-request deadline thread."""
    absent = install(recorder, SERVE)

    def http_span(method):
        def make(fn):
            def handler(self):
                with recorder.span(
                    "serve.http",
                    parent=self.headers.get(SPAN_HEADER),
                    tag=self.headers.get(REQUEST_HEADER),
                    method=method,
                ):
                    return fn(self)
            return handler
        return make

    for target in HANDLERS:
        if not patch(target, http_span(target.rsplit("_", 1)[1])):
            absent.append(target)

    def propagate(fn):
        def call(inner, *args, **kwargs):
            return fn(recorder.bind(inner, recorder.current()), *args, **kwargs)
        return call

    # Not a span: hands the open guard span to the deadline thread so
    # the service span nests under it.
    if not patch(DEADLINE_CALL, propagate):
        absent.append(DEADLINE_CALL)
    return absent
