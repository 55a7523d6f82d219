"""In-memory spans around calls into repro's layers, installed from outside.

The benchmark never edits the program: it wraps public functions and methods
of the imported ``repro`` modules, records one span per call (name, start,
end, parent span, thread, attributes), keeps the spans in memory and writes
them out when the process is done.  ``install_layers`` wraps every layer
boundary the per-layer metrics need; ``install_probes`` wraps only the
executor sweep, whose per-call latency is an end-to-end metric, so the
untraced runs pay for two clock reads per MGCPL sweep and nothing else.

A wrapped function is replaced in its defining module *and* in every loaded
``repro`` module that imported it by name (``from ... import send_frame``),
so call sites inside the program see the wrapper too.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import resource
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

now = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes

Attrs = Optional[Callable[[tuple, dict, Any], Dict[str, Any]]]

#: Marks a patch of a method the class inherited (undone by deleting it).
_INHERITED = object()


class Tracer:
    """Span store plus the patches that feed it (undone by ``uninstall``)."""

    def __init__(self) -> None:
        #: (span id, parent id, name, start, end, thread id, attrs or None)
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []
        self.counters: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, attrs: Attrs = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == name:
                # A subclass method calling super(): one span, not two.
                return fn(*args, **kwargs)
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            stack.append((span_id, name))
            start = now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = now()
                stack.pop()
                extra = None
                if attrs is not None:
                    try:
                        extra = attrs(args, kwargs, result)
                    except Exception:  # noqa: BLE001 - attributes are best effort
                        extra = None
                tracer.spans.append(
                    (span_id, parent, name, start, end, threading.get_ident(), extra)
                )

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def record(self, name: str, start: float, end: float, attrs=None) -> None:
        """Add a span measured by the caller (lock waits and holds)."""
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        self.spans.append(
            (next(self._ids), parent, name, start, end, threading.get_ident(), attrs)
        )

    # ------------------------------------------------------------------ #
    def patch_function(self, module, attr: str, name: str, attrs: Attrs = None) -> None:
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, attrs)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def patch_method(self, cls, attr: str, name: str, attrs: Attrs = None) -> None:
        """Wrap ``cls.attr``; an inherited method is wrapped on ``cls`` only
        (and so on its subclasses), leaving the base class untouched."""
        original = cls.__dict__.get(attr, _INHERITED)
        if original is _INHERITED:
            replacement = self.wrap(name, getattr(cls, attr), attrs)
        elif isinstance(original, staticmethod):
            replacement = staticmethod(self.wrap(name, original.__func__, attrs))
        else:
            replacement = self.wrap(name, original, attrs)
        setattr(cls, attr, replacement)
        self._patches.append((cls, attr, original))

    def patch_before(self, cls, attr: str, hook: Callable) -> None:
        """Call ``hook(self)`` before each ``cls.attr(self, ...)``."""
        original = cls.__dict__[attr]

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            hook(obj)
            return original(obj, *args, **kwargs)

        setattr(cls, attr, wrapper)
        self._patches.append((cls, attr, original))

    def patch_lock(self, cls, attr: str, name: str) -> None:
        """Wrap a ``@contextmanager`` lock method: one wait and one hold span."""
        original = cls.__dict__[attr]
        tracer = self

        @contextmanager
        def locked(lock_self):
            start = now()
            with original(lock_self):
                acquired = now()
                tracer.record(name + "_wait", start, acquired)
                try:
                    yield
                finally:
                    tracer.record(name + "_hold", acquired, now())

        setattr(cls, attr, locked)
        self._patches.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    def dump(self, path: Path) -> None:
        """Write the spans (and the process's peak RSS) as one JSON file."""
        payload = {
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "spans": list(self.spans),
        }
        tmp = Path(str(path) + ".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)


# ---------------------------------------------------------------------- #
# Attribute extractors (run after the call, on its arguments and result)
# ---------------------------------------------------------------------- #
def _frame_attrs(args, kwargs, result) -> dict:
    body = args[1] if len(args) > 1 else kwargs.get("body", b"")
    return {"bytes": len(body), "npz": bool(body[:2] == b"PK")}


def _recv_attrs(args, kwargs, result) -> dict:
    return {"bytes": len(result), "npz": bool(result[:2] == b"PK")}


def _unpack_attrs(args, kwargs, result) -> dict:
    body = args[0]
    kind, meta, _ = result
    return {"bytes": len(body), "npz": bool(body[:2] == b"PK"), "kind": kind,
            "tag": meta.get("tag")}


def _pack_attrs(args, kwargs, result) -> dict:
    meta = args[1] if len(args) > 1 else kwargs.get("meta")
    return {"kind": args[0], "tag": (meta or {}).get("tag"), "bytes": len(result)}


def _sweep_local_attrs(args, kwargs, result) -> dict:
    blocked = args[2].blocked
    return {"k": int(blocked.shape[0]), "live": int((~blocked).sum())}


def _similarity_attrs(args, kwargs, result) -> dict:
    engine = args[0]
    rows, cols = result.shape
    return {"rows": int(rows), "cols": int(cols), "m": int(engine.n_values)}


def _lookup_attrs(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _rows_attrs(args, kwargs, result) -> dict:
    return {"rows": int(result.shape[0])}


def _wal_attrs(args, kwargs, result) -> dict:
    return {"bytes": len(args[1]) + 12}  # u64 length + u32 crc header


# ---------------------------------------------------------------------- #
def _import_layers() -> dict:
    import repro.core.assignment as assignment
    import repro.core.base as base
    import repro.core.came as came
    import repro.core.mcdc as mcdc
    import repro.core.sync as sync
    import repro.distributed.codec as codec
    import repro.distributed.rpc as rpc
    import repro.distributed.runtime  # noqa: F401 - registers the backends
    import repro.distributed.transport as transport
    import repro.engine.compiled as compiled
    import repro.engine.packed as packed
    import repro.engine.reference as reference
    import repro.engine.state as state
    import repro.persistence as persistence
    import repro.serving.client  # noqa: F401 - imports codec names to patch
    import repro.serving.server as server

    return dict(
        assignment=assignment, base=base, came=came, mcdc=mcdc, sync=sync,
        codec=codec, rpc=rpc, transport=transport, compiled=compiled, packed=packed,
        reference=reference, state=state, persistence=persistence, server=server,
    )


def pin_cpu() -> set:
    """Bind the calling thread (and the threads it starts later) to the
    lowest CPU it may use; return the CPU set it had, for ``os.sched_setaffinity``."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


def install_probes(tracer: Tracer) -> None:
    """Only the executor sweep behind ``fit_sweep_ms``."""
    m = _import_layers()
    for cls in (m["sync"].InProcessShardExecutor, m["transport"].ShardExecutor):
        tracer.patch_method(cls, "sweep", "exec.sweep")


def install_layers(tracer: Tracer) -> None:
    """Every layer boundary named by the per-layer metrics."""
    m = _import_layers()
    install_probes(tracer)
    for cls in (m["sync"].InProcessShardExecutor, m["transport"].ShardExecutor):
        tracer.patch_method(cls, "hamming_assign", "exec.hamming_assign")
        tracer.patch_method(cls, "rebuild", "exec.rebuild")
        tracer.patch_method(cls, "begin_epoch", "exec.begin_epoch")
    # core
    tracer.patch_method(m["mcdc"].MCDC, "fit", "core.mcdc")
    tracer.patch_method(m["mcdc"].MCDCEncoder, "fit", "core.mgcpl")
    tracer.patch_method(m["came"].CAME, "fit", "core.came")
    tracer.patch_method(m["sync"].ShardWorker, "sweep", "worker.sweep")
    tracer.patch_function(m["sync"], "mgcpl_sweep_local", "core.sweep_local",
                          _sweep_local_attrs)
    tracer.patch_method(m["assignment"].AssignmentModel, "assign", "serve.assign",
                        _rows_attrs)
    tracer.patch_method(m["base"].BaseClusterer, "ingest", "serve.ingest_apply")
    tracer.patch_method(m["base"].BaseClusterer, "replay_ingest", "serve.ingest_apply")
    # engine: every class that defines the method (subclass super() calls
    # collapse into one span)
    engine_classes = [
        m["packed"].PackedFrequencyEngine, m["packed"].DenseEngine,
        m["packed"].ChunkedEngine, m["reference"].LoopEngine,
        m["compiled"].CompiledEngine,
    ]
    for cls in engine_classes:
        for attr, name, attrs in (
            ("similarity_matrix", "engine.similarity", _similarity_attrs),
            ("rebuild", "engine.rebuild", None),
            ("snapshot", "engine.snapshot", None),
            ("hamming_distances", "engine.hamming", None),
            ("feature_cluster_weights", "state.omega", None),
        ):
            if attr in cls.__dict__:
                tracer.patch_method(cls, attr, name, attrs)
    tracer.patch_method(m["packed"].OneHotCache, "lookup", "engine.onehot_lookup",
                        _lookup_attrs)
    # state
    tracer.patch_method(m["state"].EngineState, "merge_all", "state.merge")
    tracer.patch_method(m["state"].EngineState, "feature_cluster_weights", "state.omega")
    # codec and framing (shared by the distributed and serving tiers)
    codec = m["codec"]
    tracer.patch_function(codec, "pack_message", "codec.pack", _pack_attrs)
    tracer.patch_function(codec, "pack_compact", "codec.pack", _pack_attrs)
    tracer.patch_function(codec, "unpack_message", "codec.unpack", _unpack_attrs)
    tracer.patch_function(codec, "send_frame", "codec.send", _frame_attrs)
    tracer.patch_function(codec, "recv_frame", "codec.recv", _recv_attrs)
    shipped = {}

    def count_payload(transport) -> None:
        # Read at close: a closed executor reports no live transports.
        shipped[id(transport)] = transport.payload_bytes_shipped
        tracer.counters["dist.payload_bytes_shipped"] = sum(shipped.values())

    tracer.patch_before(m["rpc"].TCPTransport, "close", count_payload)
    # serving, WAL, persistence
    server = m["server"]
    tracer.patch_method(server.ModelServer, "__init__", "serve.server_init")
    tracer.patch_method(server.WriteAheadLog, "append", "wal.append", _wal_attrs)
    tracer.patch_lock(server.ReadWriteLock, "read", "lock.read")
    tracer.patch_lock(server.ReadWriteLock, "write", "lock.write")
    tracer.patch_function(m["persistence"], "save_model", "persistence.save")
    tracer.patch_function(m["persistence"], "load_model", "persistence.load")
