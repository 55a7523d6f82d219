"""Per-layer metrics and the traced-run report, computed from recorded spans.

``processes`` maps a process label (``bench``, ``worker0``, ``server``...)
to its spans, each ``(id, parent, name, start, end, thread, attrs)`` as
written by :mod:`spans`.  Metrics of a layer a workload does not reach read
0: that is the prediction for a workload that bypasses the layer.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

import numpy as np

#: Every per-layer metric with its unit, in BENCHMARK.json order.
PER_LAYER = {
    "core.mgcpl_s": "s", "core.came_s": "s", "core.sweeps": "count",
    "core.sweep_self_s": "s", "core.scored_per_live_col": "ratio",
    "engine.similarity_s": "s", "engine.similarity_calls": "count",
    "engine.similarity_gflop": "GFLOP", "engine.rebuild_s": "s",
    "engine.snapshot_s": "s", "engine.hamming_s": "s", "engine.onehot_hit_ratio": "ratio",
    "state.merge_s": "s", "state.omega_s": "s",
    "dist.sweep_rtt_s": "s", "dist.worker_sweep_s": "s", "dist.wait_s": "s",
    "dist.shard_skew": "ratio", "dist.bytes_tx": "bytes", "dist.bytes_rx": "bytes",
    "dist.frames": "count", "dist.npz_frame_share": "ratio", "dist.codec_s": "s",
    "dist.payload_bytes_shipped": "bytes", "dist.recoveries": "count",
    "serve.decode_s": "s", "serve.assign_s": "s", "serve.encode_s": "s",
    "serve.send_s": "s", "serve.rows_per_assign": "rows", "serve.unaccounted_ms": "ms",
    "serve.lock_read_wait_s": "s", "serve.lock_write_hold_s": "s",
    "wal.append_s": "s", "wal.bytes": "bytes", "serve.ingest_apply_s": "s",
    "serve.snapshot_s": "s", "wal.replay_s": "s", "persistence.load_s": "s",
    "gen.late_p99_ms": "ms", "gen.sent": "count", "gen.failed": "count",
}

#: Spans that record time spent in a state rather than a call; they overlap
#: the calls made while in that state, so self times leave them out.
_STATE_SPANS = ("lock.",)


def _dur(span) -> float:
    return span[4] - span[3]


def _named(spans, name: str) -> list:
    return [s for s in spans if s[2] == name]


def _total(spans, name: str) -> float:
    return sum(_dur(s) for s in spans if s[2] == name)


def self_times(spans) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s[0]: _dur(s) for s in spans if not s[2].startswith(_STATE_SPANS)}
    for s in spans:
        if s[1] in own and not s[2].startswith(_STATE_SPANS):
            own[s[1]] -= _dur(s)
    return own


def per_layer_metrics(
    processes: Dict[str, list], extra: Optional[dict] = None, gen: Optional[dict] = None
) -> Dict[str, tuple]:
    bench = processes.get("bench", [])
    server = processes.get("server", [])
    # Fit layers count only inside the traced fits (the workers also served
    # the set-up and untraced fits; the bench process also ingests and loads).
    windows = [(s[3], s[4]) for s in bench if s[2] == "core.mcdc"]

    def in_fit(spans):
        return [s for s in spans if any(lo <= s[3] <= hi for lo, hi in windows)]

    workers = [in_fit(spans) for label, spans in processes.items()
               if label.startswith("worker")]
    fit = in_fit(bench) + [s for spans in workers for s in spans]
    values: Dict[str, float] = defaultdict(float)

    # core / engine / state: wherever the fit ran (coordinator and workers)
    values["core.mgcpl_s"] = _total(bench, "core.mgcpl")
    values["core.came_s"] = _total(bench, "core.came")
    values["core.sweeps"] = len(_named(bench, "exec.sweep"))
    own = self_times(fit)
    local = _named(fit, "core.sweep_local")
    values["core.sweep_self_s"] = sum(own[s[0]] for s in local)
    local_ids = {s[0] for s in local}
    live = sum(s[6]["live"] for s in local if s[6])
    scored = sum(s[6]["cols"] for s in fit
                 if s[2] == "engine.similarity" and s[1] in local_ids and s[6])
    values["core.scored_per_live_col"] = scored / live if live else 0.0
    sims = _named(fit, "engine.similarity")
    values["engine.similarity_s"] = sum(_dur(s) for s in sims)
    values["engine.similarity_calls"] = len(sims)
    values["engine.similarity_gflop"] = sum(
        2.0 * s[6]["rows"] * s[6]["cols"] * s[6]["m"] for s in sims if s[6]) / 1e9
    for key, name in (("engine.rebuild_s", "engine.rebuild"),
                      ("engine.snapshot_s", "engine.snapshot"),
                      ("engine.hamming_s", "engine.hamming"),
                      ("state.merge_s", "state.merge"), ("state.omega_s", "state.omega")):
        values[key] = _total(fit, name)
    lookups = [s for s in fit if s[2] == "engine.onehot_lookup" and s[6]]
    values["engine.onehot_hit_ratio"] = (
        sum(s[6]["hit"] for s in lookups) / len(lookups) if lookups else 0.0)

    # distributed: only when the fit ran on remote workers
    if workers:
        coordinator = in_fit(bench)
        rtts = _named(coordinator, "exec.sweep")
        remote = [s for spans in workers for s in spans if s[2] == "worker.sweep"]
        values["dist.sweep_rtt_s"] = sum(_dur(s) for s in rtts)
        values["dist.worker_sweep_s"] = sum(_dur(s) for s in remote)
        skews = []
        for rtt in rtts:
            inside = [_dur(s) for s in remote if rtt[3] <= s[3] and s[4] <= rtt[4]]
            if inside:
                values["dist.wait_s"] += _dur(rtt) - max(inside)
                if len(inside) > 1:
                    skews.append(max(inside) / (sum(inside) / len(inside)))
        values["dist.shard_skew"] = float(np.mean(skews)) if skews else 0.0
        frames = [s for s in coordinator if s[2] in ("codec.send", "codec.recv") and s[6]]
        values["dist.bytes_tx"] = sum(s[6]["bytes"] for s in frames if s[2] == "codec.send")
        values["dist.bytes_rx"] = sum(s[6]["bytes"] for s in frames if s[2] == "codec.recv")
        values["dist.frames"] = len(frames)
        values["dist.npz_frame_share"] = (
            sum(s[6]["npz"] for s in frames) / len(frames) if frames else 0.0)
        values["dist.codec_s"] = (_total(coordinator, "codec.pack")
                                  + _total(coordinator, "codec.unpack"))

    # serving and the WAL: spans of the server process
    if server:
        values["serve.decode_s"] = _total(server, "codec.unpack")
        assigns = _named(server, "serve.assign")
        values["serve.assign_s"] = sum(_dur(s) for s in assigns)
        values["serve.rows_per_assign"] = (
            sum(s[6]["rows"] for s in assigns if s[6]) / len(assigns) if assigns else 0.0)
        values["serve.encode_s"] = _total(server, "codec.pack")
        values["serve.send_s"] = _total(server, "codec.send")
        values["serve.lock_read_wait_s"] = _total(server, "lock.read_wait")
        values["serve.lock_write_hold_s"] = _total(server, "lock.write_hold")
        appends = _named(server, "wal.append")
        values["wal.append_s"] = sum(_dur(s) for s in appends)
        values["wal.bytes"] = sum(s[6]["bytes"] for s in appends if s[6])
        values["serve.ingest_apply_s"] = _total(server, "serve.ingest_apply")
        values["serve.snapshot_s"] = _total(server, "persistence.save")
        if gen and gen.get("rtt_ms"):
            accounted = tag_server_ms(server)
            gaps = [rtt - accounted[tag] for tag, rtt in gen["rtt_ms"].items()
                    if tag in accounted and np.isfinite(rtt)]
            values["serve.unaccounted_ms"] = float(np.median(gaps)) if gaps else 0.0

    # recovery and persistence, wherever they ran
    inits = _named(bench, "serve.server_init")
    loads_in_init = sum(_dur(s) for s in bench if s[2] == "persistence.load"
                        and s[1] in {i[0] for i in inits})
    values["wal.replay_s"] = sum(_dur(s) for s in inits) - loads_in_init
    values["persistence.load_s"] = sum(
        _total(spans, "persistence.load") for spans in processes.values())

    if gen:
        values["gen.late_p99_ms"] = float(np.nanpercentile(gen["late_ms"], 99))
        values["gen.sent"] = gen["sent"]
        values["gen.failed"] = gen["failed"]
    values.update(extra or {})
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()}


def tag_server_ms(server: list) -> Dict[int, float]:
    """Tag -> ms of server spans spent on that predict: its decode, the batch
    assign it waited for, its encode and the send that followed."""
    per_tag: Dict[int, float] = defaultdict(float)
    by_thread: Dict[int, list] = defaultdict(list)
    for s in server:
        by_thread[s[5]].append(s)
    for spans in by_thread.values():
        spans.sort(key=lambda s: s[3])
        last_assign = 0.0
        pending_tag = None
        for s in spans:
            name, attrs = s[2], s[6] or {}
            if name == "serve.assign":
                last_assign = _dur(s)
            elif name == "codec.unpack" and attrs.get("tag") is not None:
                per_tag[attrs["tag"]] += _dur(s) * 1e3
            elif name == "codec.pack" and attrs.get("tag") is not None:
                per_tag[attrs["tag"]] += (_dur(s) + last_assign) * 1e3
                pending_tag = attrs["tag"]
            elif name == "codec.send" and pending_tag is not None:
                per_tag[pending_tag] += _dur(s) * 1e3
                pending_tag = None
    return per_tag


def traced_report(processes: Dict[str, list], gen: Optional[dict] = None) -> List[str]:
    """Self time and call count of every span name, per process; span
    coverage of each traced fit; per-request unaccounted serving time."""
    lines = []
    for label, spans in processes.items():
        if not spans:
            continue
        own = self_times(spans)
        table: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for s in spans:
            row = table[s[2]]
            row[0] += 1
            row[1] += _dur(s)
            row[2] += own.get(s[0], 0.0)
        lines.append(f"[{label}] layer self time (s), total (s), calls:")
        for name in sorted(table, key=lambda n: -table[n][2]):
            calls, total, self_s = table[name]
            lines.append(f"  {name:<24} {self_s:10.4f} {total:10.4f} {calls:8d}")
        for root in _named(spans, "core.mcdc"):
            covered = _dur(root) - own[root[0]]
            leaves = sum(own[s[0]] for s in spans if s[0] in own
                         and s[2].split(".")[0] in ("engine", "state", "codec")
                         and root[3] <= s[3] <= root[4])
            lines.append(
                f"[{label}] traced fit_s {_dur(root):.3f} s: spans cover "
                f"{100 * covered / _dur(root):.1f}%, engine/state/codec self time "
                f"{100 * leaves / _dur(root):.1f}%"
            )
    server = processes.get("server")
    if server and gen and gen.get("rtt_ms"):
        accounted = tag_server_ms(server)
        rows = sorted(
            (rtt - accounted[tag], rtt, tag) for tag, rtt in gen["rtt_ms"].items()
            if tag in accounted and np.isfinite(rtt))
        if rows:
            gaps = np.array([r[0] for r in rows])
            lines.append(
                f"serve.unaccounted_ms per request (client round trip minus server spans): "
                f"p10 {np.percentile(gaps, 10):.3f}  p50 {np.median(gaps):.3f}  "
                f"p90 {np.percentile(gaps, 90):.3f}  max {gaps.max():.3f} over {len(rows)}"
            )
    return lines
