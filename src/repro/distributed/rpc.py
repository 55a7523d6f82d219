"""The ``"tcp"`` transport backend: shards on remote ``repro worker`` hosts.

The LocalUpdate/GlobalStep decomposition makes the multi-host case cheap:
per sweep only ``O(k * M)`` count statistics and the shard's labels travel,
so a plain TCP socket per shard is plenty.  Two layers live here (the wire
codec itself — length-prefixed frames of a JSON meta plus raw arrays,
pickle-free, arrays round-tripping bit-exactly — is shared with the serving
tier and lives in :mod:`repro.distributed.codec`):

* **Worker** — :class:`WorkerServer` listens on ``host:port`` (the
  ``repro worker --listen`` CLI subcommand hosts one).  Each coordinator
  connection is served on its own thread: the handshake ships the shard's
  codes once, a :class:`~repro.core.sync.ShardWorker` keeps them resident,
  and subsequent frames are shard-local method calls.  One server therefore
  hosts any number of shards (one connection each) and any number of
  sequential fits.
* **Coordinator** — :class:`TCPTransport` implements the
  :class:`~repro.distributed.transport.ShardTransport` protocol over one
  socket; ``submit`` writes the request frame immediately (the socket
  pipelines), ``result`` reads reply frames in order.  The ``tcp`` executor
  (:class:`repro.distributed.resilience.TCPExecutor`) connects one transport
  per shard.

A worker that dies mid-sweep (connection reset / EOF) raises
:class:`~repro.distributed.transport.TransportError` on the coordinator —
never a hang — and a malformed frame (fuzzed bytes, a truncated body, a
corrupt length prefix) ends the session cleanly on the worker; an
undecodable ``hello`` is answered with an ``error`` frame first.  The protocol
is trusted-network plumbing: no authentication or encryption; run it on
cluster-internal interfaces only.

Protocol v2 (this module) extends the v1 handshake for the resilience layer
(:mod:`repro.distributed.resilience`):

* every shard ``hello`` carries the shard's *content key*
  (:func:`repro.distributed.shardcache.shard_content_key`); a **cache-first**
  hello omits the codes entirely, and the worker either restores the shard
  from its content-addressed cache (``repro worker --shard-cache DIR``) and
  welcomes directly — zero payload bytes shipped — or asks with a
  ``need_codes`` frame, after which the coordinator ships a ``codes`` frame;
* ``hello`` with ``mode="ping"`` opens a *liveness session* with no shard at
  all — :func:`ping_host` and the heartbeat monitor use it to probe worker
  health without touching shard state;
* every reply carries the worker-side wall time of the call (``elapsed`` in
  the reply meta), which is what drives measured epoch-boundary rebalancing.
"""

from __future__ import annotations

import socket
import threading
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.sync import ShardUpdate, ShardWorker, SweepBroadcast
from repro.distributed.codec import (
    ThreadedFrameServer,
    default_connect_timeout,
    default_io_timeout,
    pack_message,
    parse_address,
    recv_frame,
    send_frame,
    unpack_message,
)
from repro.distributed.shardcache import ShardCache
from repro.distributed.transport import RemoteWorkerError, TransportError
from repro.engine import EngineState

__all__ = [
    "PROTOCOL_VERSION",
    "TCPTransport",
    "WorkerServer",
    "serve_worker",
    "local_worker_pool",
    "ping_host",
    "parse_address",
    "pack_message",
    "unpack_message",
    "send_frame",
    "recv_frame",
]

PROTOCOL_VERSION = 2


# -- EngineState / protocol dataclass (de)serialisation ------------------ #
def _state_arrays(state: EngineState, prefix: str) -> Dict[str, np.ndarray]:
    return {
        f"{prefix}packed": state.packed,
        f"{prefix}valid": state.valid_counts,
        f"{prefix}sizes": state.sizes,
        f"{prefix}ncat": np.asarray(state.n_categories, dtype=np.int64),
    }


def _state_from_arrays(arrays: Dict[str, np.ndarray], prefix: str) -> EngineState:
    return EngineState(
        arrays[f"{prefix}packed"],
        arrays[f"{prefix}valid"],
        arrays[f"{prefix}sizes"],
        tuple(int(m) for m in arrays[f"{prefix}ncat"]),
    )


def encode_request(method: str, args: tuple) -> bytes:
    """One shard-local method call as a frame body."""
    meta: Dict[str, Any] = {"method": method}
    arrays: Dict[str, np.ndarray] = {}
    if method == "begin_epoch":
        n_clusters, labels = args
        meta["n_clusters"] = int(n_clusters)
        meta["has_labels"] = labels is not None
        if labels is not None:
            arrays["labels"] = np.asarray(labels, dtype=np.int64)
    elif method == "sweep":
        (broadcast,) = args
        meta["has_omega"] = broadcast.omega is not None
        arrays.update(_state_arrays(broadcast.state, "state_"))
        arrays["u"] = broadcast.u
        arrays["rho"] = broadcast.rho
        arrays["blocked"] = broadcast.blocked
        if broadcast.omega is not None:
            arrays["omega"] = broadcast.omega
    elif method == "rebuild":
        (labels,) = args
        arrays["labels"] = np.asarray(labels, dtype=np.int64)
    elif method == "hamming_assign":
        modes, theta = args
        arrays["modes"] = np.asarray(modes)
        arrays["theta"] = np.asarray(theta)
    elif method == "append":
        (codes,) = args
        arrays["codes"] = np.ascontiguousarray(codes, dtype=np.int64)
    elif method == "split":
        (n_keep,) = args
        meta["n_keep"] = int(n_keep)
    elif method == "online_sims":
        rows, exclude, state, omega = args
        meta["has_omega"] = omega is not None
        arrays["rows"] = np.asarray(rows, dtype=np.int64)
        arrays["exclude"] = np.asarray(exclude, dtype=np.int64)
        arrays.update(_state_arrays(state, "state_"))
        if omega is not None:
            arrays["omega"] = np.asarray(omega, dtype=np.float64)
    elif method in ("ping", "shutdown"):
        pass
    else:
        raise TransportError(f"unknown shard method {method!r}")
    return pack_message("call", meta, **arrays)


def decode_request(meta: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> Tuple[str, tuple]:
    method = meta["method"]
    if method == "begin_epoch":
        labels = arrays["labels"] if meta["has_labels"] else None
        return method, (int(meta["n_clusters"]), labels)
    if method == "sweep":
        broadcast = SweepBroadcast(
            state=_state_from_arrays(arrays, "state_"),
            u=arrays["u"],
            rho=arrays["rho"],
            omega=arrays["omega"] if meta["has_omega"] else None,
            blocked=arrays["blocked"],
        )
        return method, (broadcast,)
    if method == "rebuild":
        return method, (arrays["labels"],)
    if method == "hamming_assign":
        return method, (arrays["modes"], arrays["theta"])
    if method == "append":
        return method, (arrays["codes"],)
    if method == "split":
        return method, (int(meta["n_keep"]),)
    if method == "online_sims":
        omega = arrays["omega"] if meta["has_omega"] else None
        return method, (
            arrays["rows"],
            arrays["exclude"],
            _state_from_arrays(arrays, "state_"),
            omega,
        )
    if method in ("ping", "shutdown"):
        return method, ()
    raise TransportError(f"unknown shard method {method!r}")


def encode_result(result: Any, meta: Optional[Dict[str, Any]] = None) -> bytes:
    """A shard method's return value as a frame body.

    ``meta`` lets the worker attach side-channel facts to any reply — the
    v2 protocol uses it for ``elapsed`` (worker-side wall seconds of the
    call), which the coordinator's rebalancer reads without the estimators
    ever seeing it.
    """
    meta = dict(meta or {})
    if isinstance(result, EngineState):
        return pack_message("state", meta, **_state_arrays(result, "state_"))
    if isinstance(result, ShardUpdate):
        return pack_message(
            "update",
            {"changed": bool(result.changed), **meta},
            labels=result.labels,
            win_counts=result.win_counts,
            win_gain=result.win_gain,
            rival_pen=result.rival_pen,
            rival_counts=result.rival_counts,
            win_sim_total=result.win_sim_total,
            **_state_arrays(result.state, "state_"),
        )
    if isinstance(result, np.ndarray):
        return pack_message("array", meta, array=result)
    if isinstance(result, (int, np.integer)):
        return pack_message("scalar", {"value": int(result), **meta})
    raise TransportError(f"cannot encode worker result of type {type(result).__name__}")


def decode_result(kind: str, meta: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> Any:
    if kind == "state":
        return _state_from_arrays(arrays, "state_")
    if kind == "update":
        return ShardUpdate(
            labels=arrays["labels"],
            changed=bool(meta["changed"]),
            state=_state_from_arrays(arrays, "state_"),
            win_counts=arrays["win_counts"],
            win_gain=arrays["win_gain"],
            rival_pen=arrays["rival_pen"],
            rival_counts=arrays["rival_counts"],
            win_sim_total=arrays["win_sim_total"],
        )
    if kind == "array":
        return arrays["array"]
    if kind == "scalar":
        return int(meta["value"])
    if kind == "error":
        # RemoteWorkerError: the channel is healthy, the *application* raised.
        # The resilience layer must not treat this as a dead worker.
        raise RemoteWorkerError(
            f"worker raised {meta.get('error', 'an exception')}: {meta.get('message', '')}"
            + ("\n--- worker traceback ---\n" + meta["traceback"] if meta.get("traceback") else "")
        )
    raise TransportError(f"unknown response kind {kind!r}")


# ---------------------------------------------------------------------- #
# Worker side
# ---------------------------------------------------------------------- #
def _serve_ping_session(conn: socket.socket) -> None:
    """A liveness-only session: no shard, answers ``ping`` until closed."""
    send_frame(conn, pack_message("welcome", {
        "protocol": PROTOCOL_VERSION, "mode": "ping",
    }))
    while True:
        try:
            body = recv_frame(conn)
        except TransportError:
            return
        method, _ = decode_request(*unpack_message(body)[1:])
        if method in ("ping", "shutdown"):
            send_frame(conn, pack_message("scalar", {"value": 1}))
            if method == "shutdown":
                return
        else:
            send_frame(conn, pack_message("error", {
                "error": "ProtocolError",
                "message": f"a ping session hosts no shard; cannot run {method!r}",
            }))


def _receive_shard(
    conn: socket.socket,
    meta: Dict[str, Any],
    arrays: Dict[str, np.ndarray],
    shard_cache: Optional[ShardCache],
) -> Optional[Tuple[np.ndarray, List[int], str]]:
    """Resolve the hello into the shard payload: shipped, cached, or asked for.

    Returns ``(codes, n_categories, cache_status)`` or ``None`` if the
    coordinator disappeared mid-handshake.  ``cache_status`` lands in the
    welcome so the coordinator's transport counters can attribute the
    handshake to a hit, a miss, or a plain ship.
    """
    content_key = meta.get("content_key")
    if "codes" in arrays:
        codes = arrays["codes"]
        ncat = [int(m) for m in arrays["ncat"]]
        if shard_cache is not None and content_key:
            shard_cache.put(content_key, codes, ncat)
        return codes, ncat, "shipped"
    # Cache-first hello: no payload; restore from the cache or ask for it.
    cached = shard_cache.get(content_key) if (shard_cache and content_key) else None
    if cached is not None:
        codes, ncat = cached
        return codes, ncat, "hit"
    send_frame(conn, pack_message("need_codes", {"content_key": content_key}))
    try:
        kind, _, codes_arrays = unpack_message(recv_frame(conn))
    except TransportError:
        return None  # coordinator went away mid-handshake
    if kind != "codes" or "codes" not in codes_arrays:
        send_frame(conn, pack_message("error", {
            "error": "ProtocolError", "message": f"expected codes, got {kind!r}",
        }))
        return None
    codes = codes_arrays["codes"]
    ncat = [int(m) for m in codes_arrays["ncat"]]
    if shard_cache is not None and content_key:
        shard_cache.put(content_key, codes, ncat)
    return codes, ncat, "miss"


def _serve_session(conn: socket.socket, shard_cache: Optional[ShardCache] = None) -> None:
    """One coordinator connection: handshake, then a shard-call loop.

    The handshake resolves the shard payload exactly once per session — from
    the ``hello`` itself, from the worker-side content-addressed cache, or
    via a ``need_codes`` round-trip — after which every request is a small
    method payload against the resident :class:`ShardWorker`.  Every reply
    carries the call's worker-side wall time (``elapsed``).  Worker-side
    exceptions are reported back as ``error`` frames so the coordinator can
    re-raise them; transport-level failures end the session.
    """
    try:
        try:
            kind, meta, arrays = unpack_message(recv_frame(conn))
        except TransportError as exc:  # e.g. an .npz hello: refuse, end
            send_frame(conn, pack_message("error", {"error": "ProtocolError", "message": str(exc)}))
            return
        if kind != "hello":
            send_frame(conn, pack_message("error", {
                "error": "ProtocolError", "message": f"expected hello, got {kind!r}",
            }))
            return
        if meta.get("protocol") != PROTOCOL_VERSION:
            send_frame(conn, pack_message("error", {
                "error": "ProtocolError",
                "message": f"protocol {meta.get('protocol')!r} != {PROTOCOL_VERSION}",
            }))
            return
        if meta.get("mode") == "ping":
            _serve_ping_session(conn)
            return
        shard = _receive_shard(conn, meta, arrays, shard_cache)
        if shard is None:
            return
        codes, ncat, cache_status = shard
        worker = ShardWorker(codes, ncat, engine=str(meta.get("engine", "auto")))
        send_frame(conn, pack_message("welcome", {
            "protocol": PROTOCOL_VERSION,
            "n_objects": worker.ping(),
            "cache": cache_status,
        }))
        while True:
            try:
                body = recv_frame(conn)
            except TransportError:
                return  # coordinator went away; nothing left to serve
            # A frame that does not decode leaves the stream in an unknown
            # state: end the session (cleanly) rather than guess at framing.
            method, args = decode_request(*unpack_message(body)[1:])
            if method == "shutdown":
                send_frame(conn, pack_message("scalar", {"value": 0}))
                return
            started = time.perf_counter()
            try:
                result = getattr(worker, method)(*args)
            except Exception as exc:  # report, keep serving
                send_frame(conn, pack_message("error", {
                    "error": type(exc).__name__,
                    "message": str(exc),
                    "traceback": traceback.format_exc(),
                }))
                continue
            elapsed = time.perf_counter() - started
            send_frame(conn, encode_result(result, {"elapsed": elapsed}))
    except TransportError:
        pass  # half-open teardown / malformed frame; the peer sees its own error
    except Exception:
        pass  # adversarial handshake payload (e.g. hello without codes)
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


class WorkerServer(ThreadedFrameServer):
    """A shard host: accepts coordinator connections and serves shard calls.

    The accept-loop mechanics (immediate bind so ``port=0`` resolves before
    :meth:`serve_forever`, one daemon thread per session, ``once`` semantics,
    idempotent :meth:`shutdown`) live in :class:`ThreadedFrameServer`; this
    subclass contributes the shard-session protocol.  With ``shard_cache``
    (``repro worker --shard-cache DIR``) the worker keeps every shard it ever
    received in a content-addressed directory, so re-fits of the same data —
    and shards re-placed onto it after another worker's death — handshake
    without any payload bytes.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        once: bool = False,
        shard_cache: Union[None, str, Path, ShardCache] = None,
        shard_cache_max_bytes: Union[None, str, int] = None,
    ) -> None:
        super().__init__(host, port, once=once)
        if shard_cache is not None and not isinstance(shard_cache, ShardCache):
            shard_cache = ShardCache(shard_cache, max_bytes=shard_cache_max_bytes)
        self.shard_cache = shard_cache

    def handle_session(self, conn: socket.socket) -> None:
        _serve_session(conn, shard_cache=self.shard_cache)


def serve_worker(
    listen: str = "127.0.0.1:0",
    once: bool = False,
    shard_cache: Union[None, str, Path, ShardCache] = None,
    shard_cache_max_bytes: Union[None, str, int] = None,
) -> WorkerServer:
    """Start a :class:`WorkerServer` on a daemon thread; returns it (bound).

    The blocking equivalent — what ``repro worker --listen`` runs — is
    ``WorkerServer(host, port).serve_forever()``.
    """
    host, port = parse_address(listen)
    server = WorkerServer(
        host, port, once=once, shard_cache=shard_cache,
        shard_cache_max_bytes=shard_cache_max_bytes,
    )
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


@contextmanager
def local_worker_pool(
    n_workers: int = 2,
    host: str = "127.0.0.1",
    shard_cache: Union[None, str, Path, ShardCache] = None,
) -> Iterator[List[str]]:
    """Spin up ``n_workers`` loopback worker servers (threads); yields addresses.

    Test/demo convenience: the in-process equivalent of launching
    ``repro worker`` on ``n_workers`` machines.
    """
    servers = [serve_worker(f"{host}:0", shard_cache=shard_cache) for _ in range(int(n_workers))]
    try:
        yield [server.address for server in servers]
    finally:
        for server in servers:
            server.shutdown()


def ping_host(address: str, timeout: Optional[float] = None) -> float:
    """Round-trip a liveness probe to a worker; returns the latency in seconds.

    Opens a throwaway ``mode="ping"`` session (no shard payload, no resident
    state) and runs one ``ping``.  Raises :class:`TransportError` if the
    worker is unreachable, hung past ``timeout`` (default: the codec's
    connect timeout), or answers garbage — exactly the signal the heartbeat
    monitor needs.
    """
    timeout = default_connect_timeout() if timeout is None else float(timeout)
    host, port = parse_address(address)
    started = time.perf_counter()
    try:
        sock = socket.create_connection((host, port), timeout=max(0.1, timeout))
    except OSError as exc:
        raise TransportError(f"cannot reach worker at {address}: {exc}") from exc
    try:
        sock.settimeout(timeout)
        send_frame(sock, pack_message("hello", {
            "protocol": PROTOCOL_VERSION, "mode": "ping",
        }))
        kind, meta, _ = unpack_message(recv_frame(sock))
        if kind != "welcome" or meta.get("mode") != "ping":
            raise TransportError(
                f"worker at {address} rejected the ping handshake (got {kind!r})"
            )
        send_frame(sock, encode_request("ping", ()))
        unpack_message(recv_frame(sock))
        return time.perf_counter() - started
    except socket.timeout as exc:
        raise TransportError(f"worker at {address} timed out on ping") from exc
    finally:
        try:
            sock.close()
        except OSError:  # pragma: no cover
            pass


# ---------------------------------------------------------------------- #
# Coordinator side
# ---------------------------------------------------------------------- #
class TCPTransport:
    """One shard's channel to a remote worker over a single socket.

    Connecting performs the handshake: the ``hello`` names the shard by its
    content key and — unless ``cache_first`` — carries the codes, which stay
    resident on the worker.  A ``cache_first`` hello ships no payload; if the
    worker's content-addressed cache misses it answers ``need_codes`` and the
    codes travel in a follow-up frame.  ``submit`` writes the request frame
    immediately (TCP pipelines; replies come back in order), ``result`` reads
    the next reply frame.

    Observability: :attr:`payload_bytes_shipped` counts the shard-code bytes
    that actually travelled (0 on a warm cache hit), :attr:`cache_status`
    holds the worker's handshake verdict (``"shipped"``/``"hit"``/``"miss"``)
    and :attr:`last_elapsed` the worker-side wall seconds of the most recent
    completed call (``None`` before the first one) — the rebalancer's input.
    """

    def __init__(
        self,
        address: str,
        codes: np.ndarray,
        n_categories: Sequence[int],
        engine: str = "auto",
        timeout: Optional[float] = None,
        connect_timeout: Optional[float] = None,
        defer_welcome: bool = False,
        content_key: Optional[str] = None,
        cache_first: bool = False,
    ) -> None:
        self.address = address
        self._pending = 0
        self._welcomed = False
        self.payload_bytes_shipped = 0
        self.cache_status: Optional[str] = None
        self.last_elapsed: Optional[float] = None
        connect_timeout = (
            default_connect_timeout() if connect_timeout is None else float(connect_timeout)
        )
        self._timeout = default_io_timeout() if timeout is None else timeout
        host, port = parse_address(address)
        try:
            self._sock: Optional[socket.socket] = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except OSError as exc:
            raise TransportError(f"cannot connect to worker at {address}: {exc}") from exc
        try:
            # The handshake runs under the *connect* timeout — a worker that
            # accepted the connection but never answers the hello must fail
            # the handshake, not hang the coordinator.  The per-operation
            # timeout takes over once welcomed.
            self._sock.settimeout(connect_timeout)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._codes = np.ascontiguousarray(codes, dtype=np.int64)
            self._ncat = np.asarray(list(n_categories), dtype=np.int64)
            self._expected_objects = int(codes.shape[0])
            self.content_key = content_key
            hello_meta = {"protocol": PROTOCOL_VERSION, "engine": engine}
            if content_key is not None:
                hello_meta["content_key"] = content_key
            if cache_first and content_key is not None:
                send_frame(self._sock, pack_message("hello", hello_meta))
            else:
                send_frame(self._sock, pack_message(
                    "hello", hello_meta, codes=self._codes, ncat=self._ncat,
                ))
                self.payload_bytes_shipped += int(self._codes.nbytes)
            # `defer_welcome` lets a multi-shard caller ship every shard's
            # hello first and gather the replies afterwards, so the workers'
            # engine builds overlap instead of serialising per host.
            if not defer_welcome:
                self.await_welcome()
        except BaseException:
            self.close()
            raise

    def await_welcome(self) -> None:
        """Block until the worker acknowledges the resident shard (idempotent).

        Handles the cache-first miss inline: a ``need_codes`` reply triggers
        the payload ship, after which the welcome proper follows.
        """
        if self._welcomed:
            return
        if self._sock is None:
            raise TransportError(f"transport to {self.address} is closed")
        while True:
            kind, meta, arrays = unpack_message(recv_frame(self._sock))
            if kind == "error":
                decode_result(kind, meta, arrays)  # raises TransportError
            if kind == "need_codes":
                send_frame(self._sock, pack_message(
                    "codes", {}, codes=self._codes, ncat=self._ncat,
                ))
                self.payload_bytes_shipped += int(self._codes.nbytes)
                continue
            break
        if kind != "welcome" or meta.get("n_objects") != self._expected_objects:
            raise TransportError(
                f"handshake with worker at {self.address} failed (got {kind!r})"
            )
        self.cache_status = meta.get("cache")
        self._welcomed = True
        self._sock.settimeout(self._timeout)

    def submit(self, method: str, args: tuple) -> None:
        if self._sock is None:
            raise TransportError(f"transport to {self.address} is closed")
        try:
            send_frame(self._sock, encode_request(method, args))
        except TransportError as exc:
            raise TransportError(f"worker at {self.address}: {exc}") from exc
        self._pending += 1

    def result(self) -> Any:
        if self._sock is None:
            raise TransportError(f"transport to {self.address} is closed")
        if self._pending <= 0:
            raise TransportError(f"no pending call on transport to {self.address}")
        self._pending -= 1
        try:
            kind, meta, arrays = unpack_message(recv_frame(self._sock))
        except (TransportError, socket.timeout) as exc:
            raise TransportError(
                f"worker at {self.address} failed mid-operation: {exc}"
            ) from exc
        elapsed = meta.pop("elapsed", None)
        if elapsed is not None:
            self.last_elapsed = float(elapsed)
        return decode_result(kind, meta, arrays)

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is None:
            return
        try:
            if self._pending == 0:
                sock.settimeout(1.0)
                send_frame(sock, encode_request("shutdown", ()))
                recv_frame(sock)  # worker acks, then both sides close cleanly
        except (TransportError, OSError):
            pass  # best-effort goodbye; the worker handles abrupt EOF too
        finally:
            self._pending = 0
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
