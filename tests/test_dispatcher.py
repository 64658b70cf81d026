"""The shard dispatcher's contract: phase order, ack-after-fsync, shutdown.

These pin what one dispatcher cycle does with everything it collected —
releases, then faults, then the submit batch, with every acknowledgement
sent only after the cycle's WAL sync — and what each waiter still queued
gets back when the server stops.

Both tests park the dispatcher on a blocked worker thread (a snapshot
write or a fault fold) so several items land in the queue before the next
cycle collects them.
"""

import asyncio
import threading

from repro.engine import DEFAULT_NETWORK_ID
from repro.faults.model import FaultAction, FaultEvent, FaultTarget
from repro.network.cloud import CloudNetwork
from repro.service import EmbeddingServer, ServiceClient, ServiceConfig, protocol
from repro.sfc.builder import DagSfcBuilder
from repro.wal.log import read_wal, shard_wal_path

from .conftest import build_line_graph


def line_network(n: int) -> CloudNetwork:
    """0-…-(n-1) line; one unit-rate request on 0→2 saturates node 1's VNF."""
    net = CloudNetwork(build_line_graph(n, price=1.0, capacity=1.0))
    net.deploy(1, 1, price=5.0, capacity=1.0)
    return net


def single_vnf_dag():
    return DagSfcBuilder().single(1).build()


def fail_node(node: int) -> FaultEvent:
    return FaultEvent(time=0, action=FaultAction.FAIL, target=FaultTarget.node(node))


async def wait_until(predicate, timeout: float = 10.0) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition not reached in time"
        await asyncio.sleep(0.005)


class RecordingWriter:
    """A stand-in connection writer that keeps every reply line it gets."""

    def __init__(self) -> None:
        self.replies: list[dict] = []

    def write(self, data: bytes) -> None:
        self.replies.append(protocol.decode_message(data))

    async def drain(self) -> None:
        return None


class TestCyclePhaseOrder:
    def test_release_fault_submit_order_and_ack_after_sync(self, tmp_path):
        """Queued submit → release → fault run as release, fault, submit."""
        network = line_network(4)
        wal_dir = str(tmp_path / "wal")
        config = ServiceConfig(
            batch_size=8, wal_dir=wal_dir, snapshot_path=str(tmp_path / "snap.json")
        )
        wal_path = shard_wal_path(wal_dir, DEFAULT_NETWORK_ID)
        gate = threading.Event()
        parked = threading.Event()

        async def drive():
            async with EmbeddingServer(network, config) as server:
                real_save = server.router.save_snapshot

                def parked_save(path, **kwargs):
                    parked.set()
                    gate.wait(10)
                    return real_save(path, **kwargs)

                server.router.save_snapshot = parked_save
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    first = await client.submit(1, single_vnf_dag(), 0, 2, seed=1)
                    # The snapshot's hold parks the dispatcher until the
                    # (blocked) write finishes; everything below queues up.
                    snap = asyncio.create_task(client.snapshot())
                    await wait_until(parked.is_set)
                    submit = asyncio.create_task(
                        client.submit(2, single_vnf_dag(), 0, 2, seed=2)
                    )
                    await wait_until(lambda: server.queue_depth == 1)
                    release = asyncio.create_task(client.release(1))
                    queue = server._default_shard().queue
                    await wait_until(lambda: queue.qsize() == 2)
                    server.inject_fault(fail_node(3))
                    gate.set()
                    second = await submit
                    # Ack-after-fsync: by the time the reply arrives, the
                    # commit it acknowledges is already in the file.
                    on_disk_at_ack = [
                        (r.type, r.payload.get("request_id"))
                        for r in read_wal(wal_path).records
                    ]
                    released = await release
                    await snap
                counters = server.stats_payload()["counters"]
            return first, second, released, on_disk_at_ack, counters

        first, second, released, on_disk_at_ack, counters = asyncio.run(drive())
        assert first.accepted
        # Node 1's VNF fits one request: the second accept proves the
        # release ran before the submit in the same cycle.
        assert released is True
        assert second.accepted
        assert second.decision_index == 1
        records = [
            (r.type, r.payload.get("request_id")) for r in read_wal(wal_path).records
        ]
        assert records == [
            ("header", None),
            ("commit", 1),
            ("release", 1),
            ("fault", None),
            ("commit", 2),
        ]
        assert ("commit", 2) in on_disk_at_ack
        assert counters["accepted"] == 2
        assert counters["departed"] == 1
        assert counters["faults_injected"] == 1


class TestStopWithQueuedWork:
    def test_every_waiter_gets_its_server_stopped_reply(self, tmp_path):
        network = line_network(3)
        config = ServiceConfig(
            batch_size=8, wal_dir=str(tmp_path / "wal"), standby=True, standby_poll=0.01
        )
        snapshot = tmp_path / "held.json"
        gate = threading.Event()
        parked = threading.Event()

        async def drive():
            server = EmbeddingServer(network, config)
            await server.start()
            engine = server.router.default
            real_apply = engine.apply_fault

            def parked_apply(event, rng=None, *, auto_seed=False):
                parked.set()
                gate.wait(10)
                return real_apply(event, rng, auto_seed=auto_seed)

            engine.apply_fault = parked_apply
            saved: list[str] = []
            server.router.save_snapshot = lambda path, **kwargs: saved.append(path)
            server.inject_fault(fail_node(2))
            await wait_until(parked.is_set)

            writer = RecordingWriter()
            lock = asyncio.Lock()
            messages = [
                protocol.submit_message(
                    msg_id=1, request_id=1, dag=single_vnf_dag(), source=0, dest=2
                ),
                protocol.release_message(msg_id=2, request_id=5),
                protocol.promote_message(msg_id=3),
                protocol.rebalance_message(msg_id=4),
                protocol.drain_message(msg_id=5),
            ]
            handlers = [
                asyncio.create_task(server._handle_message(message, writer, lock))
                for message in messages
            ]
            hold = asyncio.create_task(server._snapshot_quiesced(str(snapshot)))
            server.inject_fault(fail_node(0))  # no waiter: dropped on stop
            queue = server._default_shard().queue
            await wait_until(lambda: queue.qsize() == 7)
            assert server.queue_depth == 1
            await server.stop()
            gate.set()
            await asyncio.wait_for(asyncio.gather(*handlers, hold), timeout=10)
            return writer.replies, server.queue_depth, saved

        replies, depth, saved = asyncio.run(drive())
        assert depth == 0
        by_msg = {reply["msg_id"]: reply for reply in replies}
        assert sorted(by_msg) == [1, 2, 3, 4, 5]
        assert by_msg[1] == {
            "type": "rejected",
            "msg_id": 1,
            "request_id": 1,
            "code": "draining",
            "reason": "server stopped before the request was decided",
        }
        assert by_msg[2] == {
            "type": "released",
            "msg_id": 2,
            "request_id": 5,
            "ok": False,
            "reason": "server stopped before the release was applied",
        }
        assert by_msg[3] == {
            "type": "error",
            "msg_id": 3,
            "reason": "server stopped before the promotion ran",
        }
        assert by_msg[4] == {
            "type": "error",
            "msg_id": 4,
            "reason": "server stopped before the rebalance cycle ran",
        }
        assert by_msg[5]["type"] == "drained"
        assert by_msg[5]["draining"] is True
        # The stop released the held snapshot, which then went ahead.
        assert saved == [str(snapshot)]
