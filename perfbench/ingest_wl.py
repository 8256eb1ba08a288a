"""The two ingest workloads: ``ingest-paper`` and ``ingest-stream-light``.

Every repeat runs in a fresh process (``ingest_child.py``) on its own
sub-seed derived from the workload seed, and the run repeats until the
timed calls add up to the run length.  Work is counted in KiB of the
DDL text handed to the call (every usable version of every project),
because paper-calibrated corpora differ by seed far more in size than
in cost per byte.  Set-up is the median, over the repeats, of the time
from spawning the process to the start of its timed call.
"""

from __future__ import annotations

import json
import time
from statistics import median

from common import python_child, quantile, run_dir, subseed

#: ``build_corpus`` scale of one ``ingest-paper`` repeat: 15 projects
#: (studied, rigid, zero-version, no-create and path-omitted cases).
PAPER_SCALE = 0.04
#: At this scale every sub-corpus holds one large history, from 60 KiB
#: to over 14 MiB of DDL (2 to 3 ms of ingest per KiB).  Sub-corpora
#: above this much DDL are skipped (about two in five), so a run covers
#: ten or so corpora instead of one giant history.
PAPER_MAX_KIB = 1024
#: Projects in one ``ingest-stream-light`` repeat (about 1.6 s at the
#: seed, so a run has ten or so repeats and as many set-up samples).
LIGHT_COUNT = 200


def _repeat(workload: str, seed: int, index: int, trace: bool, where) -> dict:
    job = {
        "workload": workload,
        "subseed": subseed(workload, seed, index),
        "scale": PAPER_SCALE,
        "count": LIGHT_COUNT,
        "max_kib": PAPER_MAX_KIB,
        "store": str(where / f"store-{index}-{int(trace)}.db"),
        "trace": trace,
        "trace_out": str(where / f"trace-{index}.jsonl"),
        "spawned": time.perf_counter(),
    }
    return python_child("ingest_child.py", json.dumps(job))


def run(workload: str, seed: int, seconds: float, trace: bool, refs) -> dict:
    where = run_dir(workload)
    plain: list[dict] = []
    traced: list[dict] = []
    failed = 0
    attempted = 0
    problems: dict[str, int] = {}
    elapsed = 0.0
    index = 0
    skipped = 0
    while elapsed < seconds or not plain:
        sides = [(plain, False)] + ([(traced, True)] if trace else [])
        if index % 2:
            sides.reverse()  # alternate which side runs first
        for bucket, traced_side in sides:
            result = _repeat(workload, seed, index, traced_side, where)
            if result["skipped"]:
                skipped += 1
                break
            ok = refs.check(str(index), result["identity"])
            attempted += result["projects"]
            failed += result["identity"]["outcomes"]["failed"]
            if not ok:
                failed += result["projects"]
            for target in result["absent"]:
                # The layer this target times would read as zero.
                problems[f"absent patch target {target}"] = 1
                failed += 1
            bucket.append(result)
            elapsed += result["wall"]
        index += 1

    kib = sum(r["kib"] for r in plain)
    wall = sum(r["wall"] for r in plain)
    ms_per_kib = [1000.0 * r["wall"] / r["kib"] for r in plain]
    out = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": {
            "throughput_per_s": kib / wall,
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
            "store_bytes_per_kib": sum(r["store_bytes"] for r in plain) / kib,
            "setup_s": median(r["setup"] for r in plain),
        },
        "info": {
            "repeats": len(plain),
            "p50_ms_per_kib": median(ms_per_kib),
            "p90_ms_per_kib": quantile(ms_per_kib, 0.9),
            "projects_per_s": sum(r["projects"] for r in plain) / wall,
            "kib_per_repeat": kib / len(plain),
            "projects": sum(r["projects"] for r in plain),
            "skipped_subcorpora": skipped,
            "repeat_kib_per_s": [round(r["kib"] / r["wall"], 2) for r in plain],
        },
    }
    if trace:
        out["traced"] = traced
        out["trace_overhead_ratio"] = sum(r["wall"] for r in traced) / sum(
            r["wall"] for r in plain
        )
    return out
