"""Tests of the benchmark's own machinery (no program needed).

Run with ``python3 -m pytest perfbench -q`` from the checkout root.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import summarize  # noqa: E402
from loadclient import Request, open_loop  # noqa: E402
from serve_wl import _latency_stats  # noqa: E402
from spans import Recorder, patch  # noqa: E402


def span(sid, parent, name, start, end, thread="1:1"):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end,
            "thread": thread}


# A request on thread 1 whose handler hands work to two other threads
# whose spans overlap each other, one of them outliving its parent.
TREE = [
    span("a", None, "guard", 0.0, 10.0),
    span("b", "a", "service", 1.0, 4.0, thread="1:2"),
    span("c", "a", "service", 3.0, 6.0, thread="1:3"),
    span("d", "a", "render", 8.0, 12.0, thread="1:4"),
    span("e", "b", "store", 2.0, 3.0, thread="1:2"),
    span("f", "e", "store", 2.0, 3.0, thread="1:2"),  # a store method calling another
]


def test_self_time_merges_overlapping_children_across_threads():
    own = summarize.self_times(TREE)
    # a: 10 minus the union [1,6] + [8,10] of its children = 3
    assert own == pytest.approx({"a": 3.0, "b": 2.0, "c": 3.0, "d": 4.0, "e": 0.0, "f": 1.0})
    assert min(own.values()) >= 0.0


def test_self_time_never_negative_when_children_cover_the_parent():
    spans = [span("p", None, "x", 0.0, 1.0), span("q", "p", "y", -1.0, 2.0),
             span("r", "p", "y", 0.2, 0.9)]
    own = summarize.self_times(spans)
    assert own["p"] == 0.0
    assert all(value >= 0.0 for value in own.values())


def test_table_counts_calls_once_per_outermost_span():
    rows, wall = summarize.table(TREE)
    by = {row["name"]: row for row in rows}
    assert wall == pytest.approx(12.0)
    assert by["store"]["count"] == 2 and by["store"]["calls"] == 1
    assert by["store"]["total_s"] == pytest.approx(1.0)
    assert by["service"]["self_s"] == pytest.approx(5.0)
    assert sum(row["self_s"] for row in rows) == pytest.approx(13.0)
    assert by["guard"]["share"] == pytest.approx(3.0 / 12.0)
    assert "guard" in summarize.format_table(rows, wall)


def test_files_from_several_processes_nest(tmp_path):
    client = tmp_path / "client.jsonl"
    server = tmp_path / "server.jsonl"
    client.write_text(json.dumps(span("1.1", None, "client", 0.0, 5.0)) + "\n")
    server.write_text(json.dumps(span("2.1", "1.1", "http", 1.0, 4.0, "2:1")) + "\n")
    assert summarize.main([str(client), str(server)]) == 0
    rows, _ = summarize.table(summarize.load([client, server]))
    assert {r["name"]: r["self_s"] for r in rows} == pytest.approx({"client": 2.0, "http": 3.0})


def test_recorder_links_spans_across_threads():
    rec = Recorder()

    def job():
        with rec.span("inner"):
            pass

    with rec.span("outer") as outer:
        worker = threading.Thread(target=rec.bind(job, rec.current()))
        worker.start()
        worker.join()
    by = {s["name"]: s for s in rec.spans}
    assert by["inner"]["parent"] == outer
    assert by["inner"]["thread"] != by["outer"]["thread"]


def test_patch_reports_absent_targets():
    assert patch("json:no_such_function", lambda fn: fn) is False
    assert patch("no_such_module_xyz:f", lambda fn: fn) is False


# -- the open-loop timer ----------------------------------------------------------


class _StallOnce(BaseHTTPRequestHandler):
    """Answers 200; the request with index ``stall_at`` holds a lock every
    request needs for ``stall_s``, so everything behind it waits."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    lock = threading.Lock()
    stall_at = 20
    stall_s = 0.3
    seen = 0

    def do_GET(self):  # noqa: N802
        with _StallOnce.lock:
            index = _StallOnce.seen
            _StallOnce.seen += 1
            if index == _StallOnce.stall_at:
                time.sleep(_StallOnce.stall_s)
        body = b"{}"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stall_server():
    _StallOnce.seen = 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallOnce)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()


def test_open_loop_charges_a_stall_to_the_requests_behind_it(stall_server):
    rate, seconds = 100.0, 1.0
    outcomes = open_loop("127.0.0.1", stall_server, [Request("GET", "/", 200)],
                         threads=2, rate=rate, seconds=seconds)
    assert len(outcomes) == int(rate * seconds)
    assert all(o.status == 200 for o in outcomes)
    stalled = next(o for o in outcomes if o.done - o.sent >= _StallOnce.stall_s * 0.9)
    release = stalled.done
    behind = [o for o in outcomes if stalled.due < o.due < release - 0.05]
    assert len(behind) >= 10
    # Each waited for the stall: its latency counts from when it was due.
    for o in behind:
        assert o.latency >= release - o.due - 0.01
    # Some could not even be sent on time: the generator ran late.
    stats = _latency_stats(outcomes)
    assert stats["gen_lag_p99_ms"] >= 100.0
    assert stats["p99_ms"] >= 200.0
    assert stats["p50_ms"] < 100.0


def test_open_loop_without_stall_keeps_the_generator_on_time(stall_server):
    _StallOnce.seen = -10**6  # the stall index is never reached
    outcomes = open_loop("127.0.0.1", stall_server, [Request("GET", "/", 200)],
                         threads=2, rate=50.0, seconds=0.5)
    assert _latency_stats(outcomes)["gen_lag_p99_ms"] < 50.0


# -- the patch targets ---------------------------------------------------------


def test_every_patch_target_exists_in_the_program():
    """A target the program no longer has would leave its layer at zero."""
    import layers
    from spans import resolve

    sys.path.insert(0, str(HERE.parent / "src"))
    targets = [row[1] for row in layers.INGEST + layers.SERVE]
    targets += [*layers.HANDLERS, layers.DEADLINE_CALL]
    missing = []
    for target in targets:
        try:
            owner, attr = resolve(target)
        except (ImportError, AttributeError):
            missing.append(target)
            continue
        if not callable(getattr(owner, attr, None)):
            missing.append(target)
    assert missing == []
