"""Single-threaded load generator for ``repro serve`` (one ``selectors`` loop).

Frames are built and read with the program's public codec and protocol
functions (``pack_compact``, ``pack_message``, ``unpack_message``,
``hello_body``, ``check_welcome``); only the length prefix is handled here,
because the codec's ``send_frame``/``recv_frame`` block.  Sending and
receiving share one thread on purpose: a generator that sends from one
thread and receives on another contends for the interpreter lock and
measured its own stalls (p99 110-918 ms against 2.4-3.4 ms for this loop).
"""

from __future__ import annotations

import selectors
import socket
import struct
from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.distributed.codec import pack_compact, pack_message, unpack_message
from repro.serving.protocol import check_welcome, hello_body
from spans import now

_LEN = struct.Struct(">Q")

#: Requests per burst in the open loop, drawn uniformly.
BURST_SIZES = (1, 2, 4, 8)


class Connection:
    """One serving session: blocking handshake, then non-blocking frames."""

    def __init__(self, address: str, timeout: float = 10.0) -> None:
        host, port = address.rsplit(":", 1)
        sock = socket.create_connection((host, int(port)), timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello = hello_body()
        sock.sendall(_LEN.pack(len(hello)) + hello)
        header = self._recv_exact(sock, _LEN.size)
        kind, meta, _ = unpack_message(self._recv_exact(sock, _LEN.unpack(header)[0]))
        check_welcome(kind, meta, address)
        sock.setblocking(False)
        self.sock = sock
        self.out = bytearray()
        self.inbuf = bytearray()

    @staticmethod
    def _recv_exact(sock: socket.socket, n: int) -> bytes:
        chunks = []
        while n:
            chunk = sock.recv(n)
            if not chunk:
                raise ConnectionError("server closed the connection during the handshake")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def queue(self, body: bytes) -> None:
        self.out += _LEN.pack(len(body))
        self.out += body

    def flush(self) -> None:
        if self.out:
            try:
                sent = self.sock.send(self.out)
            except BlockingIOError:
                return
            del self.out[:sent]

    def frames(self) -> List[bytes]:
        """Every complete frame readable now (empty when none arrived)."""
        try:
            data = self.sock.recv(1 << 20)
        except BlockingIOError:
            return []
        if not data:
            raise ConnectionError("server closed the connection")
        self.inbuf += data
        frames = []
        while len(self.inbuf) >= _LEN.size:
            (size,) = _LEN.unpack_from(self.inbuf)
            if len(self.inbuf) < _LEN.size + size:
                break
            frames.append(bytes(self.inbuf[_LEN.size : _LEN.size + size]))
            del self.inbuf[: _LEN.size + size]
        return frames

    def close(self) -> None:
        self.sock.close()


def _wait(selector: selectors.BaseSelector, conns, timeout: float):
    """Select with sub-millisecond wake-ups: epoll rounds timeouts up to 1 ms,
    so the last millisecond before a due time is polled, not slept."""
    for conn in conns:
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.out else 0)
        selector.modify(conn.sock, events, conn)
    return selector.select(timeout - 0.001 if timeout > 0.002 else 0)


# ---------------------------------------------------------------------- #
# Open loop: Poisson bursts of tagged one-row predicts
# ---------------------------------------------------------------------- #
def burst_schedule(rng: np.random.Generator, rate: float, n_requests: int) -> np.ndarray:
    """Due times (s from start) of ``n_requests`` predicts at mean ``rate``/s.

    Bursts arrive as a Poisson process; each burst holds a uniformly drawn
    size from :data:`BURST_SIZES`, all due at the burst's arrival time.
    """
    burst_rate = rate / float(np.mean(BURST_SIZES))
    due: List[float] = []
    t = 0.0
    while len(due) < n_requests:
        t += rng.exponential(1.0 / burst_rate)
        due.extend([t] * int(rng.choice(BURST_SIZES)))
    return np.asarray(due[:n_requests])


@dataclass
class OpenLoopResult:
    latency_ms: np.ndarray  #: reply time minus due time (NaN when unanswered)
    late_ms: np.ndarray  #: send time minus due time
    rtt_ms: np.ndarray  #: reply time minus send time
    tags: np.ndarray
    failed: int = 0
    wrong: int = 0
    backlog_growing: bool = False
    #: replies per second over the middle half of the replies (steady state)
    throughput: float = 0.0


def open_loop(
    conn: Connection,
    due: np.ndarray,
    rows: np.ndarray,
    probe: np.ndarray,
    expected: np.ndarray,
    tag0: int,
    drain_s: float = 5.0,
) -> OpenLoopResult:
    """Send tagged predicts of ``probe[rows[i]]`` at ``due[i]``; check labels."""
    n = due.shape[0]
    bodies = [
        pack_compact("predict", {"tag": tag0 + i}, codes=probe[rows[i] : rows[i] + 1])
        for i in range(n)
    ]
    sent = np.full(n, np.nan)
    done = np.full(n, np.nan)
    failed = wrong = 0
    selector = selectors.DefaultSelector()
    selector.register(conn.sock, selectors.EVENT_READ, conn)
    start = now() + 0.01
    deadline = start + float(due[-1]) + drain_s
    i = outstanding = 0
    try:
        while (i < n or outstanding) and now() < deadline:
            t = now()
            while i < n and start + due[i] <= t:
                conn.queue(bodies[i])
                sent[i] = t
                i += 1
                outstanding += 1
            conn.flush()
            timeout = start + due[i] - now() if i < n else 0.05
            for key, events in _wait(selector, [conn], timeout):
                if events & selectors.EVENT_WRITE:
                    conn.flush()
                if events & selectors.EVENT_READ:
                    for body in conn.frames():
                        arrived = now()
                        kind, meta, arrays = unpack_message(body)
                        j = int(meta["tag"]) - tag0
                        done[j] = arrived
                        outstanding -= 1
                        if kind != "labels":
                            failed += 1
                        elif int(arrays["labels"][0]) != int(expected[rows[j]]):
                            wrong += 1
    finally:
        selector.close()
    failed += outstanding + (n - i)
    due_abs = start + due
    latency = (done - due_abs) * 1e3
    return OpenLoopResult(
        latency_ms=latency,
        late_ms=(sent - due_abs) * 1e3,
        rtt_ms=(done - sent) * 1e3,
        tags=tag0 + np.arange(n),
        failed=failed,
        wrong=wrong,
        backlog_growing=backlog_grows(latency),
        throughput=_steady_rate(done),
    )


def backlog_grows(latency_ms: np.ndarray) -> bool:
    """A backlog that grows across a rung shows as latency rising from the
    first to the last quarter, even while the p99 is under the limit."""
    quarter = max(1, latency_ms.shape[0] // 4)
    return bool(np.nanmedian(latency_ms[-quarter:])
                > 2.0 * np.nanmedian(latency_ms[:quarter]) + 5.0)


def _steady_rate(done: np.ndarray) -> float:
    finished = np.sort(done[np.isfinite(done)])
    lo, hi = len(finished) // 4, (3 * len(finished)) // 4
    if hi - lo < 2 or finished[hi] <= finished[lo]:
        return 0.0
    return float((hi - lo) / (finished[hi] - finished[lo]))


# ---------------------------------------------------------------------- #
# Closed loops: one sequential reader beside one sequential writer
# ---------------------------------------------------------------------- #
@dataclass
class ClosedLoopResult:
    read_ms: List[float] = field(default_factory=list)
    #: per read: (probe row, label, lowest and highest ingest count it may see)
    reads: List[tuple] = field(default_factory=list)
    write_ms: List[float] = field(default_factory=list)
    acked_labels: List[np.ndarray] = field(default_factory=list)
    read_span_s: float = 0.0
    write_span_s: float = 0.0
    failed: int = 0


def closed_loops(
    reader: Connection,
    writer: Connection,
    probe: np.ndarray,
    batches: List[np.ndarray],
    deadline_s: float = 120.0,
) -> ClosedLoopResult:
    """Untagged one-row predicts (what ``ServingClient.predict`` sends) on
    ``reader`` beside untagged ``ingest`` of every batch on ``writer``, each
    waiting for its reply before sending the next; reads stop when the last
    batch is acknowledged.  A fixed batch count (not a duration) keeps the
    served model's final size, which ingest cost grows with, the same on
    every run."""
    result = ClosedLoopResult()
    read_bodies = [
        pack_message("predict", {}, codes=probe[r : r + 1]) for r in range(probe.shape[0])
    ]
    conns = [reader, writer]
    selector = selectors.DefaultSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    start = now()
    n_reads = 0
    read_sent = write_sent = None
    read_lo = 0
    last_read = last_write = start

    def send_read() -> None:
        nonlocal read_sent, read_lo
        reader.queue(read_bodies[n_reads % len(read_bodies)])
        read_lo = len(result.acked_labels)
        read_sent = now()

    def send_write() -> None:
        nonlocal write_sent
        writer.queue(pack_message("ingest", {}, codes=batches[len(result.write_ms)]))
        write_sent = now()

    send_read()
    send_write()
    try:
        while read_sent is not None or write_sent is not None:
            for conn in conns:
                conn.flush()
            if now() > start + deadline_s:
                break  # a reply never came: counted as failed below
            for key, events in _wait(selector, conns, 0.05):
                conn = key.data
                if events & selectors.EVENT_WRITE:
                    conn.flush()
                if not events & selectors.EVENT_READ:
                    continue
                for body in conn.frames():
                    arrived = now()
                    kind, meta, arrays = unpack_message(body)
                    if conn is reader:
                        result.read_ms.append((arrived - read_sent) * 1e3)
                        in_flight = 1 if write_sent is not None else 0
                        if kind != "labels":
                            result.failed += 1
                        else:
                            result.reads.append((
                                n_reads % len(read_bodies), int(arrays["labels"][0]),
                                read_lo, len(result.acked_labels) + in_flight,
                            ))
                        n_reads += 1
                        last_read = arrived
                        read_sent = None
                        if write_sent is not None:
                            send_read()
                    else:
                        result.write_ms.append((arrived - write_sent) * 1e3)
                        if kind != "labels":
                            result.failed += 1
                        else:
                            result.acked_labels.append(np.asarray(arrays["labels"]))
                        last_write = arrived
                        write_sent = None
                        if len(result.write_ms) < len(batches):
                            send_write()
    finally:
        selector.close()
    result.failed += (read_sent is not None) + (write_sent is not None)
    result.read_span_s = last_read - start
    result.write_span_s = last_write - start
    return result
