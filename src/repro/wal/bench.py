"""Durability benchmark: crash recovery and warm-standby promotion.

Two phases, one report (``BENCH_durability.json``):

* **crash** — launch the real service as a subprocess with ``--wal``,
  drive acknowledged submits over the wire, ``SIGKILL`` it mid-stream,
  then prove the acknowledged state survives: a timed offline
  :meth:`~repro.engine.core.EmbeddingEngine.restore` from the log alone
  must hold *every* acknowledged commit (zero loss), and a restarted
  ``serve --resume --wal`` must report the exact same ledger fingerprint
  and keep serving.
* **promotion** — in-process fail-over: a primary with a WAL, a
  :class:`~repro.wal.standby.StandbyEngine` tailing it, and a never-crashed
  twin engine. After the primary "dies", the promoted standby must make the
  next batch of decisions identically to the twin, ending on the same
  ledger fingerprint; the swap itself is timed.

The phases are wall-clock measurements over real processes and sockets, so
the report's timings vary run to run — the invariants (``lost_commits``,
``fingerprint_match``, ``decisions_identical``) must not.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from typing import Any

from ..config import FlowConfig, NetworkConfig, SfcConfig
from ..engine import DEFAULT_NETWORK_ID, EmbeddingEngine, EmbeddingRequest, ShardRouter
from ..network.cloud import CloudNetwork
from ..network.generator import generate_network
from ..sfc.generator import generate_dag_sfc
from ..utils.rng import as_generator
from .log import shard_wal_path
from .standby import StandbyEngine

__all__ = [
    "format_durability_table",
    "run_durability_bench",
    "write_durability_report",
]

REPORT_FORMAT = "repro.dag-sfc/bench-durability"
REPORT_VERSION = 1

_BANNER = re.compile(r" on ([\d.]+):(\d+) ")

#: network dimensions shared by both phases (and by the served subprocess).
_NET = NetworkConfig(
    size=40, connectivity=4.0, n_vnf_types=6, deploy_ratio=0.5,
    vnf_capacity=4.0, link_capacity=4.0,
)


def _bench_network(seed: int) -> CloudNetwork:
    return generate_network(_NET, rng=seed)


def _bench_requests(
    network: CloudNetwork, n: int, *, seed: int, first_id: int = 0
) -> list[EmbeddingRequest]:
    gen = as_generator(seed)
    out = []
    for offset in range(n):
        rid = first_id + offset
        dag = generate_dag_sfc(SfcConfig(size=3), _NET.n_vnf_types, rng=gen)
        src, dst = (int(v) for v in gen.choice(network.num_nodes, size=2, replace=False))
        out.append(
            EmbeddingRequest(
                request_id=rid, dag=dag, source=src, dest=dst,
                flow=FlowConfig(rate=1.0), seed=int(gen.integers(2**31)),
                arrival_index=rid,
            )
        )
    return out


# -- phase 1: kill -9 the server, recover from the log ------------------------------


def _serve_command(*, solver: str, seed: int, wal_dir: str, snapshot: str) -> list[str]:
    return [
        sys.executable, "-m", "repro", "serve",
        "--host", "127.0.0.1", "--port", "0",
        "--network-size", str(_NET.size),
        "--connectivity", str(_NET.connectivity),
        "--n-vnf-types", str(_NET.n_vnf_types),
        "--deploy-ratio", str(_NET.deploy_ratio),
        "--vnf-capacity", str(_NET.vnf_capacity),
        "--link-capacity", str(_NET.link_capacity),
        "--seed", str(seed), "--solver", solver,
        "--batch-size", "4",
        "--wal", wal_dir, "--snapshot", snapshot, "--resume",
    ]


def _spawn_server(command: list[str], *, timeout: float = 30.0) -> tuple[Any, str, int]:
    """Start the serve subprocess and wait for its listening banner."""
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env
    )
    assert proc.stdout is not None
    deadline = time.monotonic() + timeout
    lines: list[str] = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        lines.append(line)
        match = _BANNER.search(line)
        if match:
            return proc, match.group(1), int(match.group(2))
    proc.kill()
    proc.wait()
    raise RuntimeError(
        "serve subprocess never printed its listening banner; output was:\n"
        + "".join(lines)
    )


async def _drive_until_kill(
    proc: Any, host: str, port: int, requests: list[EmbeddingRequest], kill_after: int
) -> list[int]:
    """Submit sequentially; SIGKILL the server once ``kill_after`` accepts
    are acknowledged. Returns the acknowledged-accepted request ids."""
    from ..service import ServiceClient

    acked: list[int] = []
    client = await ServiceClient.connect(host, port)
    try:
        for request in requests:
            outcome = await client.submit(
                request.request_id, request.dag, request.source, request.dest,
                rate=request.flow.rate, seed=request.seed,
            )
            if outcome.accepted:
                acked.append(outcome.request_id)
            if len(acked) >= kill_after:
                proc.kill()
                break
    finally:
        try:
            await client.close()
        except (ConnectionError, OSError):
            pass
    return acked


async def _drive_after_restart(
    host: str, port: int, requests: list[EmbeddingRequest]
) -> tuple[dict[str, Any], int]:
    """Read stats, serve one more burst, then drain the server down."""
    from ..service import ServiceClient

    async with await ServiceClient.connect(host, port) as client:
        stats = await client.stats()
        accepted = 0
        for request in requests:
            outcome = await client.submit(
                request.request_id, request.dag, request.source, request.dest,
                rate=request.flow.rate, seed=request.seed,
            )
            accepted += 1 if outcome.accepted else 0
        await client.drain(shutdown=True)
    return stats, accepted


def _crash_phase(*, solver: str, seed: int) -> dict[str, Any]:
    network = _bench_network(seed)
    first_burst = _bench_requests(network, 24, seed=seed + 100)
    second_burst = _bench_requests(network, 8, seed=seed + 200, first_id=100)
    with tempfile.TemporaryDirectory(prefix="dagsfc-durability-") as workdir:
        wal_dir = os.path.join(workdir, "wal")
        snapshot = os.path.join(workdir, "state.json")
        command = _serve_command(
            solver=solver, seed=seed, wal_dir=wal_dir, snapshot=snapshot
        )

        proc, host, port = _spawn_server(command)
        try:
            acked = asyncio.run(
                _drive_until_kill(proc, host, port, first_burst, kill_after=8)
            )
        finally:
            proc.kill()
            proc.wait()

        # Recovery = deterministic replay of the per-shard log; timed cold.
        wal_path = shard_wal_path(wal_dir, DEFAULT_NETWORK_ID)
        started = time.perf_counter()
        restored, _ = EmbeddingEngine.restore(
            network, solver, None, seed=seed, wal_path=wal_path
        )
        recovery_time_s = time.perf_counter() - started
        lost = [rid for rid in acked if not restored.is_active(rid)]
        fingerprint = restored.ledger_fingerprint()

        # The service itself must come back to the same state and keep going.
        proc, host, port = _spawn_server(command)
        try:
            stats, second_accepted = asyncio.run(
                _drive_after_restart(host, port, second_burst)
            )
        finally:
            proc.kill()
            proc.wait()
    shard_stats = stats["shards"][DEFAULT_NETWORK_ID]
    return {
        "acked_accepts": len(acked),
        "lost_commits": len(lost),
        "lost_request_ids": lost,
        "recovery_time_s": recovery_time_s,
        "recovered_active": restored.active_count(),
        "ledger_fingerprint": fingerprint,
        "restart_fingerprint_match": shard_stats["ledger_fingerprint"] == fingerprint,
        "restart_resumed_active": shard_stats["active"],
        "second_burst_accepted": second_accepted,
    }


# -- phase 2: promote a warm standby, decisions must not change ---------------------


def _promotion_phase(*, solver: str, seed: int) -> dict[str, Any]:
    from ..faults.model import FaultAction, FaultEvent, FaultTarget

    network = _bench_network(seed + 1)
    batch1 = _bench_requests(network, 12, seed=seed + 300)
    batch2 = _bench_requests(network, 8, seed=seed + 400, first_id=100)
    with tempfile.TemporaryDirectory(prefix="dagsfc-promotion-") as workdir:
        wal_path = shard_wal_path(workdir, DEFAULT_NETWORK_ID)
        primary = EmbeddingEngine(network, solver, seed=seed)
        primary.attach_wal_file(wal_path, network_id=DEFAULT_NETWORK_ID)
        twin = EmbeddingEngine(network, solver, seed=seed)
        router = ShardRouter({DEFAULT_NETWORK_ID: primary})
        router.attach_standby(
            DEFAULT_NETWORK_ID, StandbyEngine(network, solver, wal_path, seed=seed)
        )

        for request in batch1:
            primary.submit(request, rng=request.seed)
            twin.submit(request, rng=request.seed)
        for rid in (batch1[0].request_id, batch1[3].request_id):
            if primary.is_active(rid):
                primary.release(rid)
                twin.release(rid)
        event = FaultEvent(time=0, action=FaultAction.FAIL, target=FaultTarget.node(5))
        primary.apply_fault(event, auto_seed=True)
        twin.apply_fault(event, auto_seed=True)
        assert primary.wal is not None
        primary.wal.sync()
        # One more decision the primary never fsyncs (and thus never acks):
        # the fail-over must discard it, not replay it.
        unacked = _bench_requests(network, 1, seed=seed + 500, first_id=900)[0]
        primary.submit(unacked, rng=unacked.seed)

        # Fail-over: the primary "dies" with that record still buffered; the
        # standby catches up from the synced log and takes over.
        started = time.perf_counter()
        promoted = router.promote(DEFAULT_NETWORK_ID)
        promotion_time_s = time.perf_counter() - started

        identical = promoted.ledger_fingerprint() == twin.ledger_fingerprint()
        for request in batch2:
            ours = promoted.submit(request, rng=request.seed)
            theirs = twin.submit(request, rng=request.seed)
            identical = identical and (
                ours.success == theirs.success
                and abs(ours.total_cost - theirs.total_cost) < 1e-9
            )
        fingerprint_match = promoted.ledger_fingerprint() == twin.ledger_fingerprint()
        unacked_discarded = not promoted.is_active(unacked.request_id)
        promoted.detach_wal()
    return {
        "promotion_time_s": promotion_time_s,
        "unacked_discarded": unacked_discarded,
        "applied_before_takeover": promoted.wal_applied_seq,
        "decisions_identical": identical,
        "fingerprint_match": fingerprint_match,
        "post_promotion_decisions": len(batch2),
        "active_after": promoted.active_count(),
    }


# -- report ------------------------------------------------------------------------


def run_durability_bench(*, solver: str = "MBBE", seed: int = 1) -> dict[str, Any]:
    """Run both phases and assemble the report document."""
    crash = _crash_phase(solver=solver, seed=seed)
    promotion = _promotion_phase(solver=solver, seed=seed)
    return {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "solver": solver,
        "seed": seed,
        "network": {
            "size": _NET.size,
            "connectivity": _NET.connectivity,
            "n_vnf_types": _NET.n_vnf_types,
        },
        "crash": crash,
        "promotion": promotion,
        "zero_loss": crash["lost_commits"] == 0,
        "ok": (
            crash["lost_commits"] == 0
            and crash["restart_fingerprint_match"]
            and promotion["decisions_identical"]
            and promotion["fingerprint_match"]
        ),
    }


def write_durability_report(path: str, report: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def format_durability_table(report: dict[str, Any]) -> str:
    """A short human-readable summary for the CLI."""
    crash = report["crash"]
    promotion = report["promotion"]
    lines = [
        "durability bench "
        f"(solver {report['solver']}, seed {report['seed']})",
        f"  crash:     {crash['acked_accepts']} acked accepts, "
        f"{crash['lost_commits']} lost, "
        f"recovery {crash['recovery_time_s'] * 1000:.1f} ms, "
        f"restart fingerprint match: {crash['restart_fingerprint_match']}",
        f"  promotion: {promotion['promotion_time_s'] * 1000:.1f} ms takeover, "
        f"decisions identical: {promotion['decisions_identical']}, "
        f"fingerprint match: {promotion['fingerprint_match']}",
        f"  verdict:   {'OK' if report['ok'] else 'FAILED'}",
    ]
    return "\n".join(lines)
