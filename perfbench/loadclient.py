"""The load generator: keep-alive HTTP connections, a closed loop and an
open loop.

Both loops run in this one process on at most ``threads`` threads, each
owning one keep-alive connection.  The open loop sends request *i* when
it is due (``start + i / rate``), whether or not earlier requests have
finished; a request's latency is measured from when it was due, so a
stall is charged to every request that had to wait behind it, and each
request's lateness (sent minus due) is recorded as generator lag.
"""

from __future__ import annotations

import gzip
import http.client
import socket
import threading
import time
from dataclasses import dataclass, field

from layers import REQUEST_HEADER, SPAN_HEADER


@dataclass
class Request:
    method: str
    path: str  # path and query, as sent
    expect: int
    body: bytes | None = None
    headers: dict[str, str] = field(default_factory=dict)
    label: str | None = None  # stands for the path in plan digests


@dataclass
class Outcome:
    index: int
    status: int  # 0: transport error
    due: float
    sent: float
    done: float
    headers: dict[str, str]
    body: bytes

    @property
    def latency(self) -> float:
        return self.done - self.due


class Connection:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self._conn: http.client.HTTPConnection | None = None

    def _open(self) -> http.client.HTTPConnection:
        if self._conn is None:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
            conn.connect()
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._conn = conn
        return self._conn

    def send(self, req: Request, extra: dict[str, str] | None = None):
        """(status, headers, decoded body); status 0 on a transport error."""
        headers = {"Accept-Encoding": "gzip", **req.headers, **(extra or {})}
        if req.body is not None:
            headers["Content-Type"] = "application/json"
        try:
            conn = self._open()
            conn.request(req.method, req.path, body=req.body, headers=headers)
            resp = conn.getresponse()
            body = resp.read()
            got = {k.lower(): v for k, v in resp.getheaders()}
            if got.get("content-encoding") == "gzip":
                body = gzip.decompress(body)
            if resp.will_close:
                self.close()
            return resp.status, got, body
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return 0, {"error": type(exc).__name__}, b""

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _send(conn: Connection, req: Request, index: int, recorder):
    """Send one request; with a recorder, inside a client span whose id
    the server adopts as the parent of its own spans."""
    if recorder is None:
        return conn.send(req)
    with recorder.span("serve.client", tag=index) as sid:
        return conn.send(req, {SPAN_HEADER: sid, REQUEST_HEADER: str(index)})


def _run_threads(threads: int, work) -> None:
    workers = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()


def closed_loop(host, port, plan, threads, count, offset=0):
    """Each thread sends its next request when its last one finishes,
    until *count* requests have been sent.

    Returns (outcomes, elapsed seconds).  Requests cycle through *plan*
    from index *offset*.
    """
    lock = threading.Lock()
    counter = iter(range(offset, offset + count))
    outcomes: list[Outcome] = []
    start = time.perf_counter()

    def work(_):
        conn = Connection(host, port)
        try:
            while True:
                with lock:
                    index = next(counter, None)
                if index is None:
                    return
                now = time.perf_counter()
                req = plan[index % len(plan)]
                status, headers, body = conn.send(req)
                outcomes.append(
                    Outcome(index, status, now, now, time.perf_counter(), headers, body)
                )
        finally:
            conn.close()

    _run_threads(threads, work)
    return outcomes, time.perf_counter() - start


def open_loop(host, port, plan, threads, rate, seconds, recorder=None, offset=0):
    """Send request *i* at ``start + i / rate`` for *seconds*.

    Returns the outcomes, one per request due inside the window, in
    index order; a request that could not be sent on time is sent as
    soon as a connection frees up, and its latency still counts from
    its due time.  Requests are taken from *plan* from index *offset*.
    """
    lock = threading.Lock()
    counter = iter(range(10**9))
    total = int(rate * seconds)
    outcomes: list[Outcome] = []
    start = time.perf_counter() + 0.05

    def work(_):
        conn = Connection(host, port)
        try:
            while True:
                with lock:
                    index = next(counter)
                if index >= total:
                    return
                due = start + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                index += offset
                req = plan[index % len(plan)]
                status, headers, body = _send(conn, req, index, recorder)
                outcomes.append(
                    Outcome(index, status, due, sent, time.perf_counter(), headers, body)
                )
        finally:
            conn.close()

    _run_threads(threads, work)
    outcomes.sort(key=lambda o: o.index)
    return outcomes
