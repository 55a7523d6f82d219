"""The transport-pluggable executor API and the multi-host TCP backend.

The contract under test (ISSUE 4): ``make_executor`` is the single,
registry-driven construction path for shard-executor backends; a
loopback-TCP fit is **bit-identical** (EngineState counts and labels) to the
serial backend on the UCI analogue sets; and every failure mode — refused
connections, workers dying mid-sweep, partial construction — surfaces as a
clear :class:`TransportError` instead of a hang or a leak.

ISSUE 5 added the adversarial half (``TestCodecFuzz``): truncated frames,
oversized length prefixes, malformed or ``.npz`` bodies and mid-frame
disconnects must fail cleanly — on the worker server, on the serving server
and on the clients — never hang, and never take the server down for the next
session.  The whole file runs under a hard timeout.
"""

from __future__ import annotations

import socket
import struct
import threading

import numpy as np
import pytest

from repro.core.sync import InProcessShardExecutor
from repro.data.uci.registry import load_dataset
from repro.distributed import (
    GranularityAwareScheduler,
    ShardedCAME,
    ShardedMGCPL,
    TransportError,
    available_backends,
    default_n_shards,
    make_executor,
    make_node_pool,
)
from repro.distributed import rpc
from repro.distributed import runtime
from repro.distributed.resilience import TCPExecutor
from repro.distributed.transport import (
    ShardExecutor,
    get_backend_spec,
    resolve_backend,
)
from repro.engine import make_engine

pytestmark = pytest.mark.timeout(120)


@pytest.fixture(scope="module")
def tcp_hosts():
    with rpc.local_worker_pool(2) as hosts:
        yield hosts


# ---------------------------------------------------------------------- #
# The backend registry
# ---------------------------------------------------------------------- #
class TestBackendRegistry:
    def test_shipped_backends_are_registered(self):
        names = available_backends()
        assert {"serial", "process", "tcp"} <= set(names)

    def test_canonical_backends_are_exactly_the_four(self):
        assert set(available_backends()) == {"serial", "process", "shm", "tcp"}

    def test_aliases_resolve(self):
        assert resolve_backend("in-process") == "serial"
        assert resolve_backend("TCP") == "tcp"
        assert resolve_backend(" Remote ") == "tcp"

    def test_streaming_names_are_aliases_of_tcp(self):
        assert resolve_backend("streaming") == resolve_backend("stream") == "tcp"
        assert get_backend_spec("streaming") is get_backend_spec("tcp")

    def test_streaming_and_tcp_build_the_same_executor(self, small_clusters, tcp_hosts):
        built = []
        for name in ("streaming", "tcp"):
            executor = make_executor(
                name, small_clusters.codes, small_clusters.n_categories,
                shards=2, hosts=tcp_hosts,
            )
            built.append(type(executor))
            executor.close()
        assert built[0] is built[1] is TCPExecutor

    def test_unknown_backend_lists_available(self):
        with pytest.raises(ValueError, match="available"):
            resolve_backend("thread")

    def test_unknown_option_names_the_backend(self, small_clusters):
        with pytest.raises(ValueError, match="serial.*does not accept.*hosts"):
            make_executor(
                "serial", small_clusters.codes, small_clusters.n_categories,
                shards=2, hosts=["127.0.0.1:1"],
            )

    def test_serial_backend_is_the_reference_executor(self, small_clusters):
        executor = make_executor(
            "serial", small_clusters.codes, small_clusters.n_categories, shards=3
        )
        assert isinstance(executor, InProcessShardExecutor)
        # A real subclass (in the MRO), not a registered virtual one.
        assert issubclass(InProcessShardExecutor, ShardExecutor)
        assert ShardExecutor in InProcessShardExecutor.__mro__
        assert executor.n_shards == 3
        executor.close()

    def test_spec_metadata(self):
        spec = get_backend_spec("tcp")
        assert spec.description
        assert "hosts" in spec.options

    def test_tcp_requires_hosts(self, small_clusters):
        with pytest.raises(ValueError, match="repro worker"):
            make_executor(
                "tcp", small_clusters.codes, small_clusters.n_categories, shards=2
            )


class TestDefaultShards:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_SHARDS", "3")
        assert default_n_shards() == 3
        assert default_n_shards(5) == 5  # explicit request wins

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_SHARDS", "many")
        with pytest.raises(ValueError, match="REPRO_N_SHARDS"):
            default_n_shards()
        monkeypatch.setenv("REPRO_N_SHARDS", "0")
        with pytest.raises(ValueError):
            default_n_shards()

    def test_env_absent_falls_back_to_cores(self, monkeypatch):
        monkeypatch.delenv("REPRO_N_SHARDS", raising=False)
        assert default_n_shards() >= 1


# ---------------------------------------------------------------------- #
# Loopback-TCP equivalence: bit-identical to the serial backend
# ---------------------------------------------------------------------- #
class TestTCPEquivalence:
    @pytest.mark.parametrize("dataset_name", ["Vot", "Bal"])
    def test_mgcpl_fit_bit_identical_to_serial(self, dataset_name, tcp_hosts):
        dataset = load_dataset(dataset_name)
        serial = ShardedMGCPL(n_shards=4, backend="serial", random_state=7).fit(dataset)
        over_tcp = ShardedMGCPL(
            n_shards=4, backend="tcp", hosts=tcp_hosts, random_state=7
        ).fit(dataset)

        np.testing.assert_array_equal(over_tcp.labels_, serial.labels_)
        assert over_tcp.kappa_ == serial.kappa_
        state_serial = serial.assignment_model_.state
        state_tcp = over_tcp.assignment_model_.state
        np.testing.assert_array_equal(state_tcp.packed, state_serial.packed)
        np.testing.assert_array_equal(state_tcp.valid_counts, state_serial.valid_counts)
        np.testing.assert_array_equal(state_tcp.sizes, state_serial.sizes)

    def test_came_fit_bit_identical_to_serial(self, small_clusters, tcp_hosts):
        gamma = ShardedMGCPL(n_shards=2, backend="serial", random_state=3).fit(
            small_clusters
        ).encoding_
        serial = ShardedCAME(n_clusters=3, n_shards=4, backend="serial", random_state=5)
        over_tcp = ShardedCAME(
            n_clusters=3, n_shards=4, backend="tcp", hosts=tcp_hosts, random_state=5
        )
        serial.fit(gamma)
        over_tcp.fit(gamma)
        np.testing.assert_array_equal(over_tcp.labels_, serial.labels_)
        assert over_tcp.objective_ == serial.objective_
        np.testing.assert_array_equal(over_tcp.modes_, serial.modes_)

    def test_executor_level_counts_merge_exactly(self, small_clusters, tcp_hosts):
        codes, cats = small_clusters.codes, list(small_clusters.n_categories)
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 5, size=codes.shape[0]).astype(np.int64)
        with make_executor("tcp", codes, cats, shards=3, hosts=tcp_hosts) as executor:
            executor.begin_epoch(5, labels)
            merged = executor.rebuild(labels)
        full = make_engine(codes, cats, 5, labels=labels).snapshot()
        np.testing.assert_array_equal(merged.packed, full.packed)
        np.testing.assert_array_equal(merged.sizes, full.sizes)

    def test_default_shards_follow_hosts(self, small_clusters, tcp_hosts):
        with make_executor(
            "tcp", small_clusters.codes, small_clusters.n_categories, hosts=tcp_hosts
        ) as executor:
            assert executor.n_shards == len(tcp_hosts)

    def test_registry_name_pins_tcp_backend(self, tcp_hosts):
        from repro.registry import make_clusterer

        model = make_clusterer("mgcpl@tcp", hosts=tcp_hosts, random_state=0)
        assert isinstance(model, ShardedMGCPL)
        assert model.backend == "tcp"
        assert model.get_params()["hosts"] == list(tcp_hosts)

    def test_once_worker_serves_several_shards_without_deadlock(self, small_clusters):
        """Multiple shards on one --once worker: concurrent sessions, no hang."""
        server = rpc.serve_worker("127.0.0.1:0", once=True)
        model = ShardedMGCPL(
            n_shards=3, backend="tcp", hosts=[server.address], random_state=7
        ).fit(small_clusters)
        reference = ShardedMGCPL(n_shards=3, backend="serial", random_state=7).fit(
            small_clusters
        )
        np.testing.assert_array_equal(model.labels_, reference.labels_)

    def test_backend_host_pairing_validated_at_construction(self, tcp_hosts):
        with pytest.raises(ValueError, match="requires hosts"):
            ShardedMGCPL(backend="tcp")
        with pytest.raises(ValueError, match="does not take hosts"):
            ShardedMGCPL(backend="serial", hosts=list(tcp_hosts))


# ---------------------------------------------------------------------- #
# Placement
# ---------------------------------------------------------------------- #
class TestPlacement:
    def test_scheduler_places_every_shard_on_a_node(self):
        pool = make_node_pool(n_nodes=6, n_profiles=3, random_state=0)
        scheduler = GranularityAwareScheduler(n_groups=3, random_state=0)
        sizes = [400, 300, 200, 100]
        placement = scheduler.place_shards(sizes, pool)
        assert len(placement) == len(sizes)
        assert all(0 <= p < len(pool) for p in placement)
        # deterministic for a fixed seed
        assert placement == scheduler.place_shards(sizes, pool)

    def test_tcp_executor_honours_placement(self, small_clusters, tcp_hosts):
        with make_executor(
            "tcp", small_clusters.codes, small_clusters.n_categories,
            shards=2, hosts=tcp_hosts, placement=[1, 1],
        ) as executor:
            assert executor.placement == [1, 1]
            state = executor.begin_epoch(2, None)
            assert state.n_clusters == 2

    def test_bad_placement_rejected(self, small_clusters, tcp_hosts):
        with pytest.raises(ValueError, match="placement"):
            make_executor(
                "tcp", small_clusters.codes, small_clusters.n_categories,
                shards=2, hosts=tcp_hosts, placement=[0],
            )
        with pytest.raises(ValueError, match="placement"):
            make_executor(
                "tcp", small_clusters.codes, small_clusters.n_categories,
                shards=2, hosts=tcp_hosts, placement=[0, 7],
            )


# ---------------------------------------------------------------------- #
# Failure paths: TransportError, never a hang or a leak
# ---------------------------------------------------------------------- #
class TestFailurePaths:
    def test_connection_refused_is_a_transport_error(self, small_clusters):
        with pytest.raises(TransportError, match="cannot connect"):
            make_executor(
                "tcp", small_clusters.codes, small_clusters.n_categories,
                shards=1, hosts=["127.0.0.1:1"],
            )

    def test_partial_tcp_connect_failure_cleans_up(self, small_clusters, tcp_hosts):
        # Shard 0 connects to a live worker, shard 1 to a dead port: the
        # construction must fail *and* close the live connection; the worker
        # stays healthy for the next session.
        with pytest.raises(TransportError):
            make_executor(
                "tcp", small_clusters.codes, small_clusters.n_categories,
                shards=2, hosts=[tcp_hosts[0], "127.0.0.1:1"],
            )
        with make_executor(
            "tcp", small_clusters.codes, small_clusters.n_categories,
            shards=1, hosts=[tcp_hosts[0]],
        ) as executor:
            assert int(executor.begin_epoch(2, None).sizes.sum()) == 0

    def test_worker_dying_mid_sweep_raises_not_hangs(self, small_clusters):
        """A worker that completes the handshake and then dies -> TransportError."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        address = "127.0.0.1:%d" % listener.getsockname()[1]

        def half_worker():
            conn, _ = listener.accept()
            _, _, arrays = rpc.unpack_message(rpc.recv_frame(conn))
            rpc.send_frame(conn, rpc.pack_message("welcome", {
                "protocol": rpc.PROTOCOL_VERSION,
                "n_objects": int(arrays["codes"].shape[0]),
            }))
            conn.close()  # "dies" right after the handshake

        thread = threading.Thread(target=half_worker, daemon=True)
        thread.start()
        try:
            executor = make_executor(
                "tcp", small_clusters.codes, small_clusters.n_categories,
                shards=1, hosts=[address],
            )
            with pytest.raises(TransportError, match="failed mid-operation|connection"):
                executor.begin_epoch(3, None)
            executor.close()  # idempotent even after the failure
            executor.close()
        finally:
            thread.join(timeout=5)
            listener.close()

    def test_remote_exception_reports_worker_traceback(self, small_clusters, tcp_hosts):
        transport = rpc.TCPTransport(
            tcp_hosts[0], small_clusters.codes[:10], list(small_clusters.n_categories)
        )
        try:
            # rebuild before begin_epoch: the shard engine does not exist yet,
            # so the worker raises and must report it back — and keep serving.
            transport.submit("rebuild", (np.zeros(10, dtype=np.int64),))
            with pytest.raises(TransportError, match="worker raised"):
                transport.result()
            transport.submit("ping", ())
            assert transport.result() == 10
        finally:
            transport.close()

    def test_closed_executor_refuses_new_work(self, small_clusters, tcp_hosts):
        executor = make_executor(
            "tcp", small_clusters.codes, small_clusters.n_categories,
            shards=2, hosts=tcp_hosts,
        )
        executor.close()
        executor.close()  # idempotent
        with pytest.raises(TransportError, match="closed"):
            executor.begin_epoch(2, None)

    @pytest.mark.parametrize("backend", ["process", "shm", "tcp"])
    def test_failed_call_leaves_no_stale_reply(self, backend, tcp_hosts):
        """Both shards reject a bad call; the next valid call gets its own
        replies, not the second shard's pending error."""
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 3, size=(60, 4)).astype(np.int64)
        n_categories = [3] * 4
        options = {"hosts": tcp_hosts} if backend == "tcp" else {}
        labels = rng.integers(0, 3, size=60).astype(np.int64)
        reference = InProcessShardExecutor(
            codes, n_categories, shard_indices=[np.arange(30), np.arange(30, 60)]
        )
        reference.begin_epoch(3, None)
        with make_executor(backend, codes, n_categories, shards=2, **options) as executor:
            executor.begin_epoch(3, None)
            with pytest.raises((ValueError, TransportError), match="2 features"):
                executor.hamming_assign(np.zeros((3, 2), dtype=np.int64), np.ones(4))
            merged = executor.rebuild(labels)
        expected = reference.rebuild(labels)
        np.testing.assert_array_equal(merged.packed, expected.packed)
        np.testing.assert_array_equal(merged.sizes, expected.sizes)

    def test_process_pool_partial_construction_cleans_up(self, monkeypatch, tiny_clusters):
        """If a later shard's pool fails to start, earlier pools are shut down."""
        created, closed = [], []
        real = runtime.ProcessTransport
        original_close = real.close

        class Flaky(real):
            def __init__(self, *args, **kwargs):
                if created:
                    raise OSError("no more processes")
                super().__init__(*args, **kwargs)
                created.append(self)

        def tracking_close(self):
            closed.append(self)
            original_close(self)

        monkeypatch.setattr(real, "close", tracking_close)
        monkeypatch.setattr(runtime, "ProcessTransport", Flaky)
        with pytest.raises(OSError, match="no more processes"):
            make_executor(
                "process", tiny_clusters.codes, tiny_clusters.n_categories, shards=2
            )
        assert len(created) == 1
        assert created[0] in closed

    def test_process_shard_cap_enforced_before_spawning(self, small_clusters):
        indices = [np.array([i]) for i in range(small_clusters.n_objects)]
        with pytest.raises(ValueError, match="worker"):
            make_executor(
                "process", small_clusters.codes, small_clusters.n_categories,
                shards=indices,
            )


# ---------------------------------------------------------------------- #
# Codec round trips
# ---------------------------------------------------------------------- #
class TestCodec:
    def test_request_round_trip_sweep(self, small_clusters):
        from repro.core.sync import SweepBroadcast

        codes, cats = small_clusters.codes, list(small_clusters.n_categories)
        state = make_engine(codes, cats, 4).snapshot()
        broadcast = SweepBroadcast(
            state=state,
            u=np.linspace(0, 1, 4),
            rho=np.zeros(4),
            omega=np.full((len(cats), 4), 0.25),
            blocked=np.array([False, True, False, False]),
        )
        body = rpc.encode_request("sweep", (broadcast,))
        kind, meta, arrays = rpc.unpack_message(body)
        method, (decoded,) = rpc.decode_request(meta, arrays)
        assert method == "sweep"
        np.testing.assert_array_equal(decoded.u, broadcast.u)
        np.testing.assert_array_equal(decoded.blocked, broadcast.blocked)
        np.testing.assert_array_equal(decoded.omega, broadcast.omega)
        np.testing.assert_array_equal(decoded.state.packed, state.packed)
        assert decoded.state.n_categories == state.n_categories

    def test_result_round_trip_state_and_labels(self, small_clusters):
        codes, cats = small_clusters.codes, list(small_clusters.n_categories)
        state = make_engine(codes, cats, 3).snapshot()
        kind, meta, arrays = rpc.unpack_message(rpc.encode_result(state))
        decoded = rpc.decode_result(kind, meta, arrays)
        np.testing.assert_array_equal(decoded.packed, state.packed)

        labels = np.arange(7, dtype=np.int64)
        kind, meta, arrays = rpc.unpack_message(rpc.encode_result(labels))
        np.testing.assert_array_equal(rpc.decode_result(kind, meta, arrays), labels)

    def test_bad_address_rejected(self):
        with pytest.raises(ValueError, match="host:port"):
            rpc.parse_address("localhost")
        with pytest.raises(ValueError, match="port"):
            rpc.parse_address("localhost:http")


# ---------------------------------------------------------------------- #
# Codec fuzzing: adversarial bytes fail cleanly on every server and client
# ---------------------------------------------------------------------- #
class TestCodecFuzz:
    """Hostile frames must raise TransportError / close cleanly — never hang."""

    @pytest.fixture()
    def worker_target(self, small_clusters):
        server = rpc.serve_worker("127.0.0.1:0")

        def healthy():
            transport = rpc.TCPTransport(
                server.address, small_clusters.codes[:20],
                list(small_clusters.n_categories),
            )
            try:
                transport.submit("ping", ())
                assert transport.result() == 20
            finally:
                transport.close()

        yield server.address, healthy
        server.shutdown()

    @pytest.fixture()
    def serving_target(self, tmp_path, small_clusters):
        from repro.persistence import save_model
        from repro.registry import make_clusterer
        from repro.serving import ServingClient, serve_model

        model = make_clusterer(
            "kmodes", n_clusters=3, n_init=1, random_state=0
        ).fit(small_clusters)
        path = tmp_path / "fuzzed.npz"
        save_model(model, path)
        server = serve_model(path)

        def healthy():
            with ServingClient(server.address, connect_timeout=5) as client:
                assert client.info()["service"] == "repro-serving"
                assert client.predict(small_clusters.codes[:5]).shape == (5,)

        yield server.address, healthy
        assert server.stop(timeout=10)

    @pytest.fixture(params=["worker", "serving"])
    def target(self, request):
        """(address, health-check) for each long-lived server flavour."""
        return request.getfixturevalue(f"{request.param}_target")

    @staticmethod
    def _connect(address: str) -> socket.socket:
        host, port = rpc.parse_address(address)
        sock = socket.create_connection((host, port), timeout=5)
        sock.settimeout(5)
        return sock

    @staticmethod
    def _server_closed(sock: socket.socket) -> bool:
        """Read until EOF; socket.timeout here would mean the server hung."""
        while True:
            data = sock.recv(1 << 16)
            if not data:
                return True

    # -- unit level: unpack_message rejects garbage as TransportError ------ #
    def test_unpack_rejects_malformed_bodies(self):
        import io

        from repro.distributed.codec import unpack_message
        from repro.serving import WriteAheadLog

        with pytest.raises(TransportError, match="malformed frame"):
            unpack_message(b"")  # empty body
        with pytest.raises(TransportError, match="malformed frame"):
            unpack_message(b"not an npz archive at all")
        # a well-formed npz body: the wire no longer speaks that layout
        buffer = io.BytesIO()
        np.savez(buffer, __meta__=np.asarray('{"kind": "hello"}'))
        with pytest.raises(TransportError, match="malformed frame"):
            unpack_message(buffer.getvalue())
        # Only the legacy WAL decoder still reads npz bodies, and it too
        # refuses malformed ones.  An archive missing the __meta__ entry:
        buffer = io.BytesIO()
        np.savez(buffer, data=np.arange(3))
        with pytest.raises(TransportError, match="malformed frame"):
            WriteAheadLog.decode(buffer.getvalue())
        # __meta__ present but not JSON
        buffer = io.BytesIO()
        np.savez(buffer, __meta__=np.asarray("{this is not json"))
        with pytest.raises(TransportError, match="malformed frame"):
            WriteAheadLog.decode(buffer.getvalue())
        # valid JSON object without a kind
        buffer = io.BytesIO()
        np.savez(buffer, __meta__=np.asarray('{"protocol": 1}'))
        with pytest.raises(TransportError, match="malformed frame"):
            WriteAheadLog.decode(buffer.getvalue())
        # a truncated archive
        buffer = io.BytesIO()
        np.savez(buffer, __meta__=np.asarray('{"kind": "wal"}'))
        with pytest.raises(TransportError, match="malformed frame"):
            WriteAheadLog.decode(buffer.getvalue()[:40])

    def test_npz_hello_refused_with_a_clean_error(self, target):
        """An ``.npz`` hello, as older builds sent it, is answered with an
        error frame naming the malformed body; then the session ends."""
        import io
        import json

        address, healthy = target
        buffer = io.BytesIO()
        np.savez(
            buffer,
            __meta__=np.asarray(json.dumps(
                {"kind": "hello", "protocol": 2, "service": "repro-serving"}
            )),
            codes=np.zeros((4, 3), dtype=np.int64), ncat=np.full(3, 2),
        )
        sock = self._connect(address)
        try:
            rpc.send_frame(sock, buffer.getvalue())
            kind, meta, _ = rpc.unpack_message(rpc.recv_frame(sock))
            assert kind == "error"
            assert "malformed frame" in meta["message"]
            assert self._server_closed(sock)
        finally:
            sock.close()
        healthy()

    # -- server side ------------------------------------------------------- #
    def test_truncated_frame_then_disconnect(self, target):
        address, healthy = target
        sock = self._connect(address)
        try:
            # promise 64 bytes, deliver 16, vanish: the server must treat the
            # mid-frame EOF as a dead peer and close the session
            sock.sendall(struct.pack(">Q", 64) + b"x" * 16)
        finally:
            sock.close()
        healthy()

    def test_oversized_length_prefix_is_refused(self, target):
        address, healthy = target
        sock = self._connect(address)
        try:
            # a corrupt prefix promising 1 TiB must be rejected before any
            # allocation, closing the connection — not honoured, not hung on
            sock.sendall(struct.pack(">Q", 1 << 40))
            assert self._server_closed(sock)
        finally:
            sock.close()
        healthy()

    def test_malformed_frame_body_closes_session(self, target):
        address, healthy = target
        body = b"\x00garbage that is not an npz archive\xff" * 4
        sock = self._connect(address)
        try:
            sock.sendall(struct.pack(">Q", len(body)) + body)
            assert self._server_closed(sock)
        finally:
            sock.close()
        healthy()

    def test_garbage_after_valid_serving_handshake(self, serving_target):
        from repro.serving.protocol import hello_body

        address, healthy = serving_target
        sock = self._connect(address)
        try:
            rpc.send_frame(sock, hello_body())
            kind, _, _ = rpc.unpack_message(rpc.recv_frame(sock))
            assert kind == "welcome"
            # now turn hostile mid-session
            sock.sendall(struct.pack(">Q", 32) + b"Z" * 32)
            assert self._server_closed(sock)
        finally:
            sock.close()
        healthy()

    # -- client side ------------------------------------------------------- #
    def test_client_mid_frame_disconnect_raises(self, small_clusters):
        """A fake server that dies mid-frame -> TransportError on the client."""
        from repro.serving import ServingClient

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        address = "127.0.0.1:%d" % listener.getsockname()[1]

        def half_server():
            conn, _ = listener.accept()
            rpc.recv_frame(conn)  # swallow the hello
            conn.sendall(struct.pack(">Q", 1 << 16) + b"partial")
            conn.close()

        thread = threading.Thread(target=half_server, daemon=True)
        thread.start()
        try:
            with pytest.raises(TransportError):
                ServingClient(address, connect_timeout=5).connect()
        finally:
            thread.join(timeout=5)
            listener.close()

    def test_client_rejects_garbage_welcome(self):
        from repro.serving import ServingClient

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        address = "127.0.0.1:%d" % listener.getsockname()[1]

        def garbage_server():
            conn, _ = listener.accept()
            rpc.recv_frame(conn)
            body = b"ceci n'est pas une npz"
            conn.sendall(struct.pack(">Q", len(body)) + body)
            conn.close()

        thread = threading.Thread(target=garbage_server, daemon=True)
        thread.start()
        try:
            with pytest.raises(TransportError, match="malformed frame"):
                ServingClient(address, connect_timeout=5).connect()
        finally:
            thread.join(timeout=5)
            listener.close()

    def test_frame_reader_splits_a_burst_and_stops_mid_frame(self):
        from repro.distributed import codec

        left, right = socket.socketpair()
        try:
            bodies = [b"first", b"", b"third" * 1000]
            codec.send_frame(left, *bodies)  # one sendall, three frames
            reader = codec.FrameReader(right)
            assert [reader.read() for _ in bodies] == bodies
            # a stalled peer: one header byte, then silence
            left.sendall(b"\x00")
            assert reader.read(stop_requested=lambda: True, poll_interval=0.05) is None
            # a length prefix over the cap is refused before any body arrives
            left.sendall(struct.pack(">Q", 1 << 40)[1:])
            with pytest.raises(TransportError, match="exceeds"):
                reader.read()
            left.close()
            with pytest.raises(TransportError, match="peer closed"):
                codec.FrameReader(right).read()
        finally:
            left.close()
            right.close()

    def test_frame_cap_enforced_on_send(self, monkeypatch):
        from repro.distributed import codec

        monkeypatch.setattr(codec, "MAX_FRAME", 128)
        left, right = socket.socketpair()
        try:
            with pytest.raises(TransportError, match="exceeds the 128"):
                codec.send_frame(left, b"x" * 129)
        finally:
            left.close()
            right.close()
