"""Shared wire codec and threaded frame server for every repro network tier.

Every message is one length-prefixed frame with one body layout, spoken
by the shard workers, the serving tier (:mod:`repro.serving`), its
replication stream and its write-ahead log:

* :func:`pack_message` / :func:`unpack_message` — frame body <-> ``(kind,
  meta, arrays)``.  The compact layout is a JSON meta (message kind,
  scalars) followed by the numpy arrays as raw C-order bytes behind
  bounds-checked headers: pickle-free, bit-exact, a few µs per one-row
  predict.  Dtypes outside :data:`_COMPACT_DTYPES` or more than 4
  dimensions raise :class:`~repro.distributed.transport.TransportError` at
  the sender; a body that is not well formed (no magic, truncated, trailing
  bytes, bad JSON, no ``kind``, a refused dtype, a duplicate name) raises it
  at the receiver, never a raw ``json``/``numpy`` exception.
* :func:`send_frame` / :func:`recv_frame` — the length-prefixed framing with
  a frame-size cap enforced on *both* send and receive, so a corrupt length
  prefix can never turn into a multi-exabyte allocation and an oversized send
  fails at the sender with the real diagnosis.  The cap defaults to
  :data:`MAX_FRAME` (1 GiB) but is configurable: per call via the
  ``max_frame`` argument, or fleet-wide via the ``REPRO_MAX_FRAME``
  environment variable (see :func:`frame_cap`).  The default connect and
  per-operation socket timeouts are likewise configurable through
  ``REPRO_CONNECT_TIMEOUT`` / ``REPRO_IO_TIMEOUT``
  (:func:`default_connect_timeout` / :func:`default_io_timeout`).
  :class:`FrameReader` is the buffered, drain-aware reader long-lived
  sessions use: one ``recv`` takes a whole burst of pipelined frames, and a
  poll timeout lets an idle session notice a shutdown request instead of
  blocking in ``recv`` forever.
* :class:`ThreadedFrameServer` — the accept-loop skeleton shared by the shard
  worker (:class:`repro.distributed.rpc.WorkerServer`) and the model server
  (:class:`repro.serving.ModelServer`): bind immediately (so ``port=0``
  resolves before ``serve_forever``), one daemon thread per session, ``once``
  semantics (exit when every accepted session finished), idempotent
  ``shutdown``.
* :func:`wal_record` / :func:`read_wal_records` — the on-disk record framing
  of the serving tier's write-ahead ingest log (PR 10).  A record is the
  wire frame layout plus a CRC: ``u64 body length | u32 crc32(body) | body``,
  where the body is a regular :func:`pack_message` frame body.  The CRC is
  what makes crash recovery exact: a record torn by a crash mid-append
  (truncated length, truncated body, or a body that does not match its
  checksum) is detected and *dropped*, never half-applied —
  :func:`read_wal_records` returns every intact record plus the byte offset
  where the clean prefix ends, so the reader can truncate the torn tail
  before appending again.
"""

from __future__ import annotations

import json
import math
import os
import socket
import struct
import threading
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.distributed.transport import TransportError

__all__ = [
    "MAX_FRAME",
    "COMPACT_MAGIC",
    "frame_cap",
    "default_connect_timeout",
    "default_io_timeout",
    "pack_message",
    "unpack_message",
    "send_frame",
    "recv_frame",
    "FrameReader",
    "wal_record",
    "read_wal_records",
    "parse_address",
    "ThreadedFrameServer",
]

#: Frame header: one unsigned 64-bit big-endian body length.
_LEN = struct.Struct(">Q")

#: Default sanity cap on a single frame (1 GiB) — a corrupt length prefix
#: must not turn into an attempted multi-exabyte allocation.  The effective
#: cap is :func:`frame_cap` (``REPRO_MAX_FRAME`` overrides this constant).
MAX_FRAME = 1 << 30


def _positive_number_env(name: str, kind: type) -> Optional[float]:
    """Parse a positive-number environment override; ``None`` when unset."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = kind(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a positive {kind.__name__}, got {raw!r}"
        ) from None
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {raw!r}")
    return value


def frame_cap() -> int:
    """The effective per-frame byte cap.

    ``REPRO_MAX_FRAME`` (a positive integer, validated) overrides the
    :data:`MAX_FRAME` default, so deployments shipping very large shards —
    or hardening against them — can retune every sender and receiver without
    code changes.  Callers can still override per call through the
    ``max_frame`` argument of :func:`send_frame` / :func:`recv_frame`.
    """
    env = _positive_number_env("REPRO_MAX_FRAME", int)
    return MAX_FRAME if env is None else int(env)


def default_connect_timeout() -> float:
    """Default connect/handshake timeout in seconds (``REPRO_CONNECT_TIMEOUT``).

    Used by every codec consumer that dials out (the TCP shard transports,
    the serving client and router) when no explicit ``connect_timeout`` is
    passed.  Defaults to 10 seconds.
    """
    env = _positive_number_env("REPRO_CONNECT_TIMEOUT", float)
    return 10.0 if env is None else float(env)


def default_io_timeout() -> Optional[float]:
    """Default per-operation socket timeout (``REPRO_IO_TIMEOUT``; ``None`` blocks).

    Unset means block indefinitely — a sweep or predict on a large batch
    legitimately takes a while — but fleets that prefer failing fast over
    waiting on a wedged peer can arm a global receive deadline here.
    """
    return _positive_number_env("REPRO_IO_TIMEOUT", float)


def parse_address(address: str) -> Tuple[str, int]:
    """Split ``"host:port"`` (the port is mandatory)."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"worker address must be 'host:port', got {address!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"invalid port in worker address {address!r}") from None


# ---------------------------------------------------------------------- #
# Codec: frames of (JSON meta + raw arrays)
# ---------------------------------------------------------------------- #
#: First bytes of every frame body.
COMPACT_MAGIC = b"RFC1"

#: Dtypes a frame may carry: fixed-width little-endian numerics and bools.
#: Anything else is refused at the sender and by the receiver.
_COMPACT_DTYPES = {name: np.dtype(name) for name in ("<i8", "<f8", "<i4", "|u1", "|b1")}

#: ``u8 dtype_len | dtype str`` of each allowed dtype, as the sender writes it.
_DTYPE_FIELDS = {dtype: bytes((len(n),)) + n.encode() for n, dtype in _COMPACT_DTYPES.items()}
_FIELD_DTYPES = {field: dtype for dtype, field in _DTYPE_FIELDS.items()}

#: Meta key naming the array count of a body with two or more arrays, so a
#: body cut at a record boundary cannot pass for a shorter message.
_ARRAY_COUNT = "__arrays__"

#: What follows the meta of a body that carries no array.
_NO_ARRAYS = b"\x00\x00"

#: ``RFC1 | u32 meta_len``.
_HEAD = struct.Struct(">4sI")

#: ``u8 ndim | ndim * u32 shape`` for each allowed ndim.
_SHAPES = [struct.Struct(f">B{ndim}I") for ndim in range(5)]

_JSON = json.JSONDecoder()


def pack_message(kind: str, meta: Optional[Dict[str, Any]] = None, **arrays) -> bytes:
    """Serialise one message into a frame body: ``RFC1 | u32 meta_len | meta
    JSON (with "kind")``, then per array ``u8 name_len | name | u8 dtype_len
    | dtype str | u8 ndim | ndim * u32 shape | raw C-order bytes``.

    A body with no array ends in ``\\x00\\x00``; one with two or more names
    their count in the meta.  An array the header cannot describe raises
    :class:`TransportError` here, at the sender.
    """
    payload = {"kind": kind, **meta} if meta else {"kind": kind}
    if len(arrays) > 1:
        payload[_ARRAY_COUNT] = len(arrays)
    meta_bytes = json.dumps(payload).encode("utf-8")
    parts = [_HEAD.pack(COMPACT_MAGIC, len(meta_bytes)), meta_bytes]
    if not arrays:
        parts.append(_NO_ARRAYS)
    for name, value in arrays.items():
        array = np.asarray(value)
        name_bytes = name.encode("utf-8")
        dtype_field = _DTYPE_FIELDS.get(array.dtype)
        try:
            if dtype_field is None or len(name_bytes) > 0xFF:
                raise struct.error
            shape = _SHAPES[array.ndim].pack(array.ndim, *array.shape)
        except (struct.error, IndexError):  # a dim over 2**32 - 1, or ndim > 4
            raise TransportError(
                f"cannot send array {name!r} of {kind!r}: dtype {array.dtype.str}, "
                f"shape {array.shape} (frames carry {', '.join(_COMPACT_DTYPES)} "
                "arrays of at most 4 dimensions)"
            ) from None
        parts += [
            bytes((len(name_bytes),)), name_bytes, dtype_field, shape,
            array.tobytes(),  # C order, whatever the input's strides
        ]
    return b"".join(parts)


#: The older name of :func:`pack_message`, which perfbench imports and traces.
pack_compact = pack_message


def _malformed(detail: str) -> TransportError:
    return TransportError(f"malformed compact frame: {detail}")


def _read_array(body: bytes, offset: int) -> Tuple[str, np.ndarray, int]:
    """The array record at ``offset``: ``(name, array, end offset)``.  Every
    length is checked against the body, in Python ints that cannot wrap."""
    try:
        name_end = offset + 1 + body[offset]
        dtype_end = name_end + 1 + body[name_end]
        ndim = body[dtype_end]
    except IndexError:
        raise _malformed(f"truncated at byte {offset}") from None
    dtype = _FIELD_DTYPES.get(body[name_end:dtype_end])
    if dtype is None:
        raise _malformed(f"dtype {body[name_end + 1 : dtype_end]!r} is not allowed")
    if ndim > 4:
        raise _malformed(f"{ndim} dimensions")
    header = _SHAPES[ndim]
    start = dtype_end + header.size
    if start > len(body):
        raise _malformed(f"truncated at byte {dtype_end}")
    shape = header.unpack_from(body, dtype_end)[1:]
    count = math.prod(shape)
    end = start + count * dtype.itemsize
    if end > len(body):
        raise _malformed(f"truncated at byte {start}")
    try:
        name = body[offset + 1 : name_end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _malformed(str(exc)) from None
    # .copy(): writable and owning its memory, not a read-only view of the body.
    return name, np.frombuffer(body, dtype, count, start).reshape(shape).copy(), end


def unpack_message(body: bytes) -> Tuple[str, Dict[str, Any], Dict[str, np.ndarray]]:
    """Inverse of :func:`pack_message`.  Any body that is not well formed —
    no :data:`COMPACT_MAGIC`, truncated, over-long, bad meta, a refused
    dtype, a duplicate name, a wrong array count — raises
    :class:`TransportError`, the same on every consumer."""
    if body[: len(COMPACT_MAGIC)] != COMPACT_MAGIC:
        raise TransportError(f"malformed frame: body does not start with {COMPACT_MAGIC!r}")
    size = len(body)
    try:
        offset = _HEAD.size + _HEAD.unpack_from(body)[1]
        if offset > size:
            raise ValueError("truncated meta")
        text = body[_HEAD.size : offset].decode("utf-8")
        meta, end = _JSON.raw_decode(text)
        if end != len(text):
            raise ValueError("trailing bytes after the meta JSON")
        kind = meta.pop("kind")
        count = meta.pop(_ARRAY_COUNT, None)
        if not isinstance(kind, str):
            raise TypeError("compact meta must be a JSON object with a string 'kind'")
    except Exception as exc:
        raise _malformed(str(exc)) from exc
    if count is None and size - offset == len(_NO_ARRAYS) and body[offset:] == _NO_ARRAYS:
        return kind, meta, {}
    arrays: Dict[str, np.ndarray] = {}
    while offset < size:
        name, array, offset = _read_array(body, offset)
        if name in arrays:
            raise _malformed(f"duplicate array {name!r}")
        arrays[name] = array
    if len(arrays) != (count or 1):
        raise _malformed(f"{len(arrays)} arrays, expected {count or 1}")
    return kind, meta, arrays


def send_frame(sock: socket.socket, *bodies: bytes, max_frame: Optional[int] = None) -> None:
    """Send each body as one length-prefixed frame, all in one ``sendall``."""
    cap = frame_cap() if max_frame is None else int(max_frame)
    parts = []
    for body in bodies:
        if len(body) > cap:
            # Enforced on both ends: failing here names the real problem
            # instead of the receiver dropping the connection and the sender
            # reporting a phantom worker death.
            raise TransportError(
                f"frame of {len(body)} bytes exceeds the {cap} cap; "
                "use more (smaller) shards, or raise REPRO_MAX_FRAME"
            )
        parts += [_LEN.pack(len(body)), body]
    try:
        sock.sendall(b"".join(parts))
    except OSError as exc:
        raise TransportError(f"connection lost while sending: {exc}") from exc


def recv_frame(sock: socket.socket, max_frame: Optional[int] = None) -> bytes:
    """One frame body, reading nothing past it off the socket."""
    return FrameReader(sock, max_frame, greedy=False).read()


class FrameReader:
    """Reader of the frames arriving on one socket; length prefixes are
    checked against the frame cap before any body is buffered.

    A ``greedy`` reader takes everything the peer has sent so far in one
    ``recv``, so a pipelining peer's frames cost one system call per burst;
    it must then be the socket's only reader, as it may hold bytes of frames
    it has not returned yet.
    """

    def __init__(
        self, sock: socket.socket, max_frame: Optional[int] = None, greedy: bool = True
    ) -> None:
        self.sock = sock
        self._cap = frame_cap() if max_frame is None else int(max_frame)
        self._chunk = 1 << 16 if greedy else 1
        self._buffer = bytearray()
        self._start = 0  # where the next unread frame begins in the buffer

    def _missing(self) -> int:
        """Bytes still to receive before the next frame is whole (0: it is)."""
        have = len(self._buffer) - self._start
        if have < _LEN.size:
            return _LEN.size - have
        (length,) = _LEN.unpack_from(self._buffer, self._start)
        if length > self._cap:
            raise TransportError(f"frame of {length} bytes exceeds the {self._cap} cap")
        return max(0, _LEN.size + length - have)

    def read(
        self,
        stop_requested: Optional[Callable[[], bool]] = None,
        poll_interval: float = 0.2,
    ) -> Optional[bytes]:
        """The next frame body; :class:`TransportError` if the connection is
        lost or closed.

        With ``stop_requested`` the socket is polled every ``poll_interval``
        seconds and ``None`` returned once it reports true, idle *or*
        mid-frame, so a stalled peer can never park a draining server (a
        request cut off mid-frame was never acknowledged).  The socket's
        timeout is restored on exit.
        """
        missing = self._missing()
        if missing:
            del self._buffer[: self._start]  # drop the frames already returned
            self._start = 0
            previous_timeout = self.sock.gettimeout()
            if stop_requested is not None:
                self.sock.settimeout(poll_interval)
            try:
                while missing:
                    if stop_requested is not None and stop_requested():
                        return None
                    try:
                        chunk = self.sock.recv(min(max(self._chunk, missing), 1 << 20))
                    except OSError as exc:
                        if stop_requested is not None and isinstance(exc, socket.timeout):
                            continue
                        raise TransportError(f"connection lost while receiving: {exc}") from exc
                    if not chunk:
                        raise TransportError("peer closed the connection")
                    self._buffer += chunk
                    missing = self._missing()
            finally:
                if stop_requested is not None:
                    try:
                        self.sock.settimeout(previous_timeout)
                    except OSError:  # pragma: no cover - socket already torn down
                        pass
        (length,) = _LEN.unpack_from(self._buffer, self._start)
        start = self._start + _LEN.size
        self._start = start + length
        with memoryview(self._buffer) as view:
            return bytes(view[start : self._start])


# ---------------------------------------------------------------------- #
# Write-ahead-log record framing (serving-tier durability)
# ---------------------------------------------------------------------- #
#: WAL record header: the frame length prefix plus a CRC-32 of the body.
_WAL_HEADER = struct.Struct(">QI")


def wal_record(body: bytes, max_record: Optional[int] = None) -> bytes:
    """One append-only log record: ``u64 len | u32 crc32(body) | body``.

    The body is a regular frame body (:func:`pack_message`), so a WAL record
    is the wire layout with a checksum bolted on — the checksum is what lets
    :func:`read_wal_records` tell a record torn by a crash mid-append from an
    intact one.  Oversized bodies are rejected with the same cap as
    :func:`send_frame` (a corrupt length must never drive a huge allocation
    at replay, so the cap is enforced symmetrically at append).
    """
    cap = frame_cap() if max_record is None else int(max_record)
    if len(body) > cap:
        raise TransportError(
            f"WAL record of {len(body)} bytes exceeds the {cap} cap; "
            "ingest smaller batches, or raise REPRO_MAX_FRAME"
        )
    return _WAL_HEADER.pack(len(body), zlib.crc32(body) & 0xFFFFFFFF) + body


def read_wal_records(
    data: bytes, max_record: Optional[int] = None
) -> Tuple[List[bytes], int]:
    """Every intact record in ``data``, plus the clean-prefix byte offset.

    Reads records front to back and stops at the first sign of damage: a
    truncated header, a length over the cap (a corrupt prefix), a truncated
    body, or a CRC mismatch.  Returns ``(bodies, clean_offset)`` where
    ``clean_offset`` is the end of the last intact record — everything past
    it is a torn tail the writer crashed in the middle of (or trailing
    corruption) and must be discarded: truncate the file to ``clean_offset``
    before appending again.  Records *before* the damage are exactly the
    appends that completed, so replaying them is exact.
    """
    cap = frame_cap() if max_record is None else int(max_record)
    bodies: List[bytes] = []
    offset = 0
    total = len(data)
    while offset + _WAL_HEADER.size <= total:
        length, crc = _WAL_HEADER.unpack_from(data, offset)
        if length > cap:
            break  # corrupt length prefix: nothing past it can be trusted
        end = offset + _WAL_HEADER.size + length
        if end > total:
            break  # torn tail: the append never completed
        body = data[offset + _WAL_HEADER.size : end]
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            break  # bit rot or a torn overwrite: drop from here on
        bodies.append(body)
        offset = end
    return bodies, offset


# ---------------------------------------------------------------------- #
# The threaded accept-loop skeleton
# ---------------------------------------------------------------------- #
class ThreadedFrameServer:
    """Accept-loop base class shared by the shard worker and the model server.

    Binds immediately (so ``port=0`` resolves to a real ephemeral port before
    :meth:`serve_forever` is entered — callers can read :attr:`address` right
    after construction), serves each connection on a daemon thread via the
    :meth:`handle_session` hook, and stops when :meth:`shutdown` closes the
    listening socket.

    With ``once``, the server exits as soon as every session accepted so far
    has finished (and at least one ran).  Sessions are *always* served on
    their own threads — a client opening several concurrent connections (a
    coordinator placing several shards on one worker, a fleet of serving
    clients) would otherwise deadlock against an inline handler.
    """

    #: How long :meth:`serve_forever` waits for each session thread on exit.
    session_join_timeout = 30.0

    def __init__(self, host: str = "127.0.0.1", port: int = 0, once: bool = False) -> None:
        self.once = bool(once)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)
        self.host, self.port = self._sock.getsockname()[:2]
        self._closing = threading.Event()
        self._sessions: List[threading.Thread] = []
        self._accepted = 0

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    def handle_session(self, conn: socket.socket) -> None:  # pragma: no cover
        """Serve one accepted connection (runs on its own daemon thread)."""
        raise NotImplementedError

    def _run_session(self, conn: socket.socket) -> None:
        try:
            self.handle_session(conn)
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    # ------------------------------------------------------------------ #
    def serve_forever(self) -> None:
        """Accept and serve sessions until :meth:`shutdown` (or ``once`` exit)."""
        # Poll the listening socket rather than blocking in accept(): closing
        # a socket does not reliably wake another thread's blocked accept()
        # (shutdown would stall), and with ``once`` the exit condition (all
        # accepted sessions finished) must be evaluated between accepts.
        self._sock.settimeout(0.2)
        try:
            while not self._closing.is_set():
                try:
                    conn, _ = self._sock.accept()
                except socket.timeout:
                    # Drop finished session threads so a long-lived server
                    # does not retain one Thread per connection ever served.
                    self._sessions = [t for t in self._sessions if t.is_alive()]
                    if self.once and self._accepted and not self._sessions:
                        break
                    continue
                except OSError:
                    break  # listening socket closed by shutdown()
                thread = threading.Thread(
                    target=self._run_session, args=(conn,), daemon=True
                )
                thread.start()
                self._sessions.append(thread)
                self._accepted += 1
            for thread in self._sessions:
                thread.join(timeout=self.session_join_timeout)
        finally:
            self.shutdown()
            self._on_drained()

    def _on_drained(self) -> None:
        """Hook run after every session has been joined (subclass cleanup)."""

    def shutdown(self) -> None:
        """Stop accepting connections (idempotent); in-flight sessions finish."""
        self._closing.set()
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass
