"""The serving tier: a long-lived model server and its client.

The roadmap's north star is serving heavy traffic from fitted models; this
package is that tier.  A :class:`ModelServer` loads an ``.npz`` model archive
once (:func:`repro.persistence.load_model`) and answers ``predict`` /
``ingest`` / ``info`` / ``snapshot`` requests over the same length-prefixed
frames (a JSON meta plus raw arrays) as the multi-host shard workers
(:mod:`repro.distributed.codec`), with concurrent read-locked predicts,
serialized exact-merge ingests, atomic write-temp-then-rename snapshots
back to disk, and an optional write-ahead ingest log (``wal=True``) that
replays acked batches exactly after a crash — "acked means durable".
:class:`ServingClient` is the connection handle application code uses;
``repro serve`` / ``repro predict --server`` are the CLI faces.

Quick start::

    from repro.serving import ServingClient, serve_model

    server = serve_model("model.npz", listen="127.0.0.1:0",
                         snapshot_every=100)
    with ServingClient(server.address) as client:
        labels = client.predict(batch)     # bit-identical to in-process
        client.ingest(fresh_batch)         # exact EngineState merge
    server.stop()
"""

from repro.serving.client import PendingPredict, ServingClient
from repro.serving.protocol import SERVICE_NAME, SERVING_PROTOCOL_VERSION
from repro.serving.router import ServingRouter, route_serving
from repro.serving.server import (
    ModelServer,
    ReadWriteLock,
    WriteAheadLog,
    serve_model,
)

__all__ = [
    "ModelServer",
    "PendingPredict",
    "ReadWriteLock",
    "ServingClient",
    "ServingRouter",
    "WriteAheadLog",
    "route_serving",
    "serve_model",
    "SERVICE_NAME",
    "SERVING_PROTOCOL_VERSION",
]
