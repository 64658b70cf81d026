"""Rebalance benchmark: live migration under churn, kill -9 mid-move.

Two phases, one report (``BENCH_rebalance.json``):

* **live** — an in-process engine on a deliberately tight substrate takes a
  burst of requests, half of them depart (churn), and the
  :class:`~repro.engine.rebalance.Rebalancer` then runs a fixed number of
  cycles. Every cycle's moves and recovered cost are recorded as the
  cost-recovered-vs-moves-made curve; afterwards an offline WAL replay and
  a promoted :class:`~repro.wal.standby.StandbyEngine` that tailed the same
  log must both land on the primary's exact ledger fingerprint (migrations
  replay like any other record).
* **crash** — the real service runs as a subprocess with ``--rebalance``
  and an aggressive cycle interval; churny traffic is driven over the wire
  until the shard reports applied migrations, then the process is
  ``SIGKILL``\\ ed mid-stream. Recovery from the log alone must hold exactly
  the acknowledged active set — zero lost, zero duplicated reservations —
  release cleanly to an empty residual, and a restarted ``serve --resume``
  must report the identical fingerprint.

Timings vary run to run; the invariants (``lost``/``duplicated`` counts,
fingerprint matches, net-positive recovery) must not.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
import time
from typing import Any

from ..config import FlowConfig, NetworkConfig, SfcConfig
from ..network.cloud import CloudNetwork
from ..network.generator import generate_network
from ..sfc.generator import generate_dag_sfc
from ..utils.rng import as_generator
from ..wal.log import shard_wal_path
from ..wal.standby import StandbyEngine
from .core import EmbeddingEngine
from .rebalance import RebalanceConfig, Rebalancer, fragmentation_index
from .request import EmbeddingRequest
from .router import DEFAULT_NETWORK_ID

__all__ = [
    "format_rebalance_table",
    "run_rebalance_bench",
    "write_rebalance_report",
]

REPORT_FORMAT = "repro.dag-sfc/bench-rebalance"
REPORT_VERSION = 1

#: a tight substrate: capacities low enough that arrival order leaves
#: genuinely sub-optimal placements for the rebalancer to recover.
_NET = NetworkConfig(
    size=40, connectivity=4.0, n_vnf_types=6, deploy_ratio=0.5,
    vnf_capacity=2.0, link_capacity=2.0,
)

_REBALANCE = RebalanceConfig(max_moves=4, candidates=16, min_gain=0.001, cooldown=1)


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


def _fill_and_churn(engine: EmbeddingEngine, requests: list[EmbeddingRequest]) -> int:
    """Submit a burst, then release every other accept — the fragmentation
    pattern a half-departed tenant population leaves behind."""
    accepted = []
    for request in requests:
        if engine.submit(request, rng=request.seed).success:
            accepted.append(request.request_id)
    for rid in accepted[::2]:
        engine.release(rid)
    return len(accepted)


# -- phase 1: in-process curve + replay/standby identity ----------------------------


def _live_phase(*, solver: str, seed: int, cycles: int = 10) -> dict[str, Any]:
    network = _bench_network(seed)
    requests = _bench_requests(network, 60, seed=seed + 100)
    with tempfile.TemporaryDirectory(prefix="dagsfc-rebalance-") as workdir:
        wal_path = shard_wal_path(workdir, DEFAULT_NETWORK_ID)
        engine = EmbeddingEngine(network, solver, seed=seed)
        engine.attach_wal_file(wal_path, network_id=DEFAULT_NETWORK_ID)
        standby = StandbyEngine(network, solver, wal_path, seed=seed)

        accepted = _fill_and_churn(engine, requests)
        assert engine.wal is not None
        engine.wal.sync()
        fragmentation_before = fragmentation_index(engine)

        rebalancer = Rebalancer(engine, _REBALANCE)
        curve: list[dict[str, Any]] = []
        moves_cum = 0
        recovered_cum = 0.0
        started = time.perf_counter()
        for _ in range(cycles):
            report = rebalancer.run_cycle()
            engine.wal.sync()
            moves_cum += report.applied
            recovered_cum += report.cost_recovered
            curve.append(
                {
                    "cycle": report.cycle,
                    "applied": report.applied,
                    "conflicts": report.conflicts,
                    "cost_recovered": round(report.cost_recovered, 6),
                    "moves_cum": moves_cum,
                    "cost_recovered_cum": round(recovered_cum, 6),
                }
            )
        cycles_time_s = time.perf_counter() - started
        fingerprint = engine.ledger_fingerprint()

        # Offline replay: the log alone reproduces ledger + move counters.
        restored, _ = EmbeddingEngine.restore(
            network, solver, None, seed=seed, wal_path=wal_path
        )
        replay_match = restored.ledger_fingerprint() == fingerprint
        counters_match = (
            restored.rebalance_counters["migrations_applied"]
            == engine.rebalance_counters["migrations_applied"]
        )

        # Fail-over: a standby that tailed the log takes over mid-defrag.
        promoted = standby.promote(attach_writer=False)
        standby_match = promoted.ledger_fingerprint() == fingerprint
        engine.detach_wal()
    return {
        "accepted": accepted,
        "cycles": cycles,
        "cycles_time_s": cycles_time_s,
        "moves_made": moves_cum,
        "conflicts": int(engine.rebalance_counters["migrations_conflicted"]),
        "cost_recovered": round(recovered_cum, 6),
        "fragmentation_before": round(fragmentation_before, 6),
        "fragmentation_after": round(fragmentation_index(engine), 6),
        "curve": curve,
        "ledger_fingerprint": fingerprint,
        "replay_fingerprint_match": replay_match,
        "replay_counters_match": counters_match,
        "standby_fingerprint_match": standby_match,
    }


# -- phase 2: kill -9 the rebalancing server, recover from the log ------------------


_REBALANCE_INTERVAL_S = 0.05


def _serve_command(*, solver: str, seed: int, wal_dir: str, snapshot: str) -> list[str]:
    import sys

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
        "--rebalance",
        "--rebalance-interval", str(_REBALANCE_INTERVAL_S),
        "--rebalance-min-gain", str(_REBALANCE.min_gain),
        "--rebalance-cooldown", str(_REBALANCE.cooldown),
    ]


async def _drive_churn_until_migration(
    proc: Any, host: str, port: int, requests: list[EmbeddingRequest]
) -> tuple[list[int], list[int], int]:
    """Fill the substrate, churn out every other accept, then wait for the
    shard to report applied migrations and SIGKILL it mid-stream.

    The fill-then-churn order matters: releases interleaved with arrivals
    are immediately backfilled by the next submit, while a burst of
    departures *after* the substrate is full leaves exactly the fragmented
    holes the rebalancer exists to recover.

    Returns (acked accepts, acked releases, migrations observed at kill).
    """
    from ..service import ServiceClient

    acked: list[int] = []
    released: list[int] = []
    migrations = 0
    client = await ServiceClient.connect(host, port)
    try:
        for request in requests:
            outcome = await client.submit(
                request.request_id, request.dag, request.source, request.dest,
                rate=request.flow.rate, seed=request.seed,
            )
            if outcome.accepted:
                acked.append(outcome.request_id)
        for rid in acked[::2]:
            if await client.release(rid):
                released.append(rid)
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            stats = await client.stats()
            shard = stats["shards"][DEFAULT_NETWORK_ID]
            migrations = int(shard["rebalance"]["migrations_applied"])
            if migrations >= 1:
                break
            await asyncio.sleep(0.1)
        proc.kill()
    finally:
        try:
            await client.close()
        except (ConnectionError, OSError):
            pass
    return acked, released, migrations


async def _restart_fingerprint(host: str, port: int) -> str:
    from ..service import ServiceClient

    async with await ServiceClient.connect(host, port) as client:
        stats = await client.stats()
        fingerprint = str(stats["shards"][DEFAULT_NETWORK_ID]["ledger_fingerprint"])
        await client.drain(shutdown=True)
    return fingerprint


def _crash_phase(*, solver: str, seed: int) -> dict[str, Any]:
    from ..wal.bench import _spawn_server

    network = _bench_network(seed)
    requests = _bench_requests(network, 60, seed=seed + 100)
    with tempfile.TemporaryDirectory(prefix="dagsfc-rebalance-crash-") as workdir:
        wal_dir = os.path.join(workdir, "wal")
        snapshot = os.path.join(workdir, "state.json")
        command = _serve_command(
            solver=solver, seed=seed, wal_dir=wal_dir, snapshot=snapshot
        )

        proc, host, port = _spawn_server(command)
        try:
            acked, released, migrations = asyncio.run(
                _drive_churn_until_migration(proc, host, port, requests)
            )
        finally:
            proc.kill()
            proc.wait()

        wal_path = shard_wal_path(wal_dir, DEFAULT_NETWORK_ID)
        started = time.perf_counter()
        restored, _ = EmbeddingEngine.restore(
            network, solver, None, seed=seed, wal_path=wal_path
        )
        recovery_time_s = time.perf_counter() - started
        expected = set(acked) - set(released)
        actual = set(restored.active_ids())
        lost = sorted(expected - actual)
        duplicated = sorted(actual - expected)
        fingerprint = restored.ledger_fingerprint()
        replayed_migrations = int(restored.rebalance_counters["migrations_applied"])

        # Double-booked capacity would survive a full drain: release every
        # survivor and demand a pristine residual.
        for rid in list(restored.active_ids()):
            restored.release(rid)
        residual_clean = not any(restored.ledger.state.used_links()) and not any(
            restored.ledger.state.used_vnfs()
        )

        proc, host, port = _spawn_server(command)
        try:
            restart_fingerprint = asyncio.run(_restart_fingerprint(host, port))
        finally:
            proc.kill()
            proc.wait()
    return {
        "acked_accepts": len(acked),
        "acked_releases": len(released),
        "migrations_at_kill": migrations,
        "replayed_migrations": replayed_migrations,
        "lost_reservations": len(lost),
        "lost_request_ids": lost,
        "duplicated_reservations": len(duplicated),
        "duplicated_request_ids": duplicated,
        "recovery_time_s": recovery_time_s,
        "residual_clean": residual_clean,
        "ledger_fingerprint": fingerprint,
        "restart_fingerprint_match": restart_fingerprint == fingerprint,
    }


# -- report ------------------------------------------------------------------------


def run_rebalance_bench(*, solver: str = "MBBE", seed: int = 1) -> dict[str, Any]:
    """Run both phases and assemble the report document."""
    live = _live_phase(solver=solver, seed=seed)
    crash = _crash_phase(solver=solver, seed=seed)
    return {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "solver": solver,
        "seed": seed,
        "network": {
            "size": _NET.size,
            "connectivity": _NET.connectivity,
            "n_vnf_types": _NET.n_vnf_types,
            "vnf_capacity": _NET.vnf_capacity,
            "link_capacity": _NET.link_capacity,
        },
        "live": live,
        "crash": crash,
        "ok": (
            live["cost_recovered"] > 0
            and live["moves_made"] > 0
            and live["replay_fingerprint_match"]
            and live["replay_counters_match"]
            and live["standby_fingerprint_match"]
            and crash["migrations_at_kill"] >= 1
            and crash["lost_reservations"] == 0
            and crash["duplicated_reservations"] == 0
            and crash["residual_clean"]
            and crash["restart_fingerprint_match"]
        ),
    }


def write_rebalance_report(path: str, report: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def format_rebalance_table(report: dict[str, Any]) -> str:
    """A short human-readable summary for the CLI."""
    live = report["live"]
    crash = report["crash"]
    lines = [
        f"rebalance bench (solver {report['solver']}, seed {report['seed']})",
        f"  live:   {live['moves_made']} moves over {live['cycles']} cycles "
        f"recovered {live['cost_recovered']:.1f} cost "
        f"(fragmentation {live['fragmentation_before']:.3f} -> "
        f"{live['fragmentation_after']:.3f}), "
        f"replay match: {live['replay_fingerprint_match']}, "
        f"standby match: {live['standby_fingerprint_match']}",
        f"  crash:  killed at {crash['migrations_at_kill']} migrations, "
        f"{crash['lost_reservations']} lost / "
        f"{crash['duplicated_reservations']} duplicated, "
        f"recovery {crash['recovery_time_s'] * 1000:.1f} ms, "
        f"restart fingerprint match: {crash['restart_fingerprint_match']}",
        f"  verdict: {'OK' if report['ok'] else 'FAILED'}",
    ]
    return "\n".join(lines)
