"""One ingest repeat in a fresh process: set up, make the timed call, report.

Run by ``ingest_wl.py``; the argument is a JSON job.  Prints one JSON
line: the timed call's wall time, the set-up time (from the parent's
spawn of this process until the timed call can start: interpreter,
imports, the empty store, and for ``ingest-paper`` ``build_corpus``),
store size and identity, the input size, the process's peak RSS and,
when traced, the patch targets that do not exist.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import nullcontext


def _peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _store_bytes(path: str) -> int:
    return sum(
        os.path.getsize(path + suffix)
        for suffix in ("", "-wal", "-shm")
        if os.path.exists(path + suffix)
    )


def _history_bytes(repo, ddl_path: str) -> int:
    from repro.pipeline.stages import usable_versions
    from repro.vcs.history import extract_file_history

    if repo is None or not ddl_path:
        return 0
    return sum(len(v.text) for v in usable_versions(extract_file_history(repo, ddl_path)))


def _selected_bytes(corpus) -> int:
    """DDL history of the projects the ingest call will measure: those the
    Libraries.io selection keeps whose DDL file the path filters accept."""
    from repro.mining.path_filters import choose_ddl_file
    from repro.mining.selection import select_lib_io

    total = 0
    for project in select_lib_io(corpus.activity, corpus.lib_io):
        choice = choose_ddl_file(list(project.sql_files))
        if choice.accepted:
            total += _history_bytes(corpus.repos.get(project.repo_name), choice.chosen.path)
    return total


def main() -> int:
    job = json.loads(sys.argv[1])
    recorder = None
    absent: list[str] = []
    if job["trace"]:
        import layers
        from spans import Recorder

        recorder = Recorder()
        absent = layers.install_ingest(recorder)

    from repro.store import CorpusStore, ingest_corpus, ingest_stream

    path = job["store"]
    store = CorpusStore(path)
    if job["workload"] == "ingest-paper":
        from repro.synthesis.corpus import CorpusSpec, build_corpus

        corpus = build_corpus(CorpusSpec(seed=job["subseed"], scale=job["scale"]))
        setup = time.perf_counter() - job["spawned"]
        text_bytes = _selected_bytes(corpus)
        if text_bytes > job["max_kib"] * 1024:
            store.close()
            print(json.dumps({"skipped": True, "kib": text_bytes / 1024.0}))
            return 0

        def call():
            return ingest_corpus(store, corpus.activity, corpus.lib_io, corpus.provider)
    else:
        from repro.synthesis.stream import StreamSpec

        spec = StreamSpec(seed=job["subseed"], count=job["count"], profile="light")
        setup = time.perf_counter() - job["spawned"]

        def call():
            return ingest_stream(store, spec)

    with recorder.span("ingest.call", tag=job["subseed"]) if recorder else nullcontext():
        started = time.perf_counter()
        report = call()
        wall = time.perf_counter() - started
    peak_rss_mb = _peak_rss_mb()
    trace_path = None
    if recorder is not None:
        # Only the timed call's spans: the checks below are not the workload.
        trace_path = job["trace_out"]
        recorder.write(trace_path)
        recorder.spans = []
    store.close()
    size = _store_bytes(path)

    check = CorpusStore(path)
    try:
        identity = {
            "content_hash": check.content_hash(),
            "projects": check.project_count(),
            "outcomes": {
                "studied": report.studied, "rigid": report.rigid,
                "zero_versions": report.zero_versions, "no_create": report.no_create,
                "failed": report.failed,
            },
        }
    finally:
        check.close()
    if job["workload"] != "ingest-paper":
        from repro.synthesis.stream import synthesize_project

        text_bytes = 0
        for index in range(spec.count):
            project = synthesize_project(spec, index)
            text_bytes += _history_bytes(project.repo, project.ddl_path)

    stats = report.stats
    print(json.dumps({
        "projects": report.tasks,
        "wall": wall,
        "setup": setup,
        "store_bytes": size,
        "identity": identity,
        "skipped": False,
        "kib": text_bytes / 1024.0,
        "peak_rss_mb": peak_rss_mb,
        "program_build_schema_calls": (
            stats.cache.build_schema_calls if stats is not None else None
        ),
        "trace": trace_path,
        "absent": absent,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
