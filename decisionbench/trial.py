"""One closed-loop replay of a workload's inputs against a running server.

Accepted requests are released at their trace departure step, before that
step's arrivals (the departures-first order of ``repro.sim.trace.replay``),
so the operation sequence — and with it every decision — is fixed by the
inputs and the server's own replies, never by timing.

The timed submits are cut into :data:`SLICES` slices. After the warm-up and
after each slice, a callback (the gate's offline replay) runs outside the
timed window while the server idles. The host's speed drifts over tens of
seconds, so spreading the slices over the whole run averages more of that
drift than one contiguous window would. The client's own garbage collector
is paused inside each stretch, so its pauses never land in a measured
latency; the server's collector runs as it always does.
"""

from __future__ import annotations

import gc
import heapq
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .harness import ServerProcess
from .stats import median
from .workloads import Arrival

#: timed slices per run; ``decisions_per_s`` is the median of their rates.
SLICES = 10

#: reject codes that mean the server refused work instead of deciding it.
REFUSAL_CODES = frozenset(
    {"queue_full", "draining", "duplicate_id", "admission", "degraded", "unknown_network"}
)


@dataclass(frozen=True)
class Op:
    """One request sent and the reply it got."""

    kind: str  # "submit" or "release"
    request_id: int
    line: bytes
    reply: dict[str, Any]
    sent_at: float
    done_at: float
    timed: bool

    @property
    def latency_s(self) -> float:
        """Client-observed request→reply seconds."""
        return self.done_at - self.sent_at

    @property
    def failed(self) -> bool:
        """True when the server errored or refused instead of deciding."""
        rtype = self.reply.get("type")
        if self.kind == "release":
            return rtype != "released" or not self.reply.get("ok", False)
        if rtype == "accepted":
            return False
        return rtype != "rejected" or self.reply.get("code") in REFUSAL_CODES


@dataclass
class Trial:
    """Everything one replay observed."""

    ops: list[Op] = field(default_factory=list)
    #: (timed submits, seconds) of each timed slice.
    slices: list[tuple[int, float]] = field(default_factory=list)
    rss_warm_kb: int = 0
    memory_end_kb: dict[str, int] = field(default_factory=dict)
    wal_bytes_warm: int = 0
    wal_bytes_end: int = 0
    drained: dict[str, Any] = field(default_factory=dict)

    @property
    def submits(self) -> list[Op]:
        return [op for op in self.ops if op.kind == "submit"]

    @property
    def timed_submits(self) -> list[Op]:
        return [op for op in self.ops if op.kind == "submit" and op.timed]

    def decisions_per_s(self) -> float:
        """Median over the timed slices of submits decided per second.

        A slice's time runs from its first request (a release, if one is
        due) to its last reply, so releases count as work. The median keeps
        one runaway solve from setting the rate of the whole run.
        """
        return median([count / seconds for count, seconds in self.slices])

    def served_fingerprint(self) -> str:
        """The ledger fingerprint the server reported when it drained."""
        shards = self.drained.get("shards", {})
        (shard,) = shards.values()
        return str(shard["ledger_fingerprint"])


def drive(
    server: ServerProcess,
    arrivals: Sequence[Arrival],
    *,
    warmup: int,
    between: Callable[[Sequence[Op]], None],
    wal_path: str | None = None,
) -> Trial:
    """Replay ``arrivals`` with one request in flight, then drain the server.

    The first ``warmup`` submits (and the releases before them) are not
    timed. ``between`` receives the ops of the warm-up and of each timed
    slice as soon as that stretch ends; its run time is not measured.
    """
    trial = Trial()
    departures: list[tuple[int, int, bytes]] = []
    timed = len(arrivals) - warmup
    if timed < SLICES:
        raise ValueError(f"need at least {SLICES} timed submits, got {timed}")
    bounds = [0, warmup] + [warmup + round(k * timed / SLICES) for k in range(1, SLICES + 1)]
    for stretch, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        is_timed = stretch > 0
        if stretch == 1:
            trial.rss_warm_kb = server.memory_kb()["VmRSS"]
            if wal_path is not None:
                trial.wal_bytes_warm = os.path.getsize(wal_path)
        first_op = len(trial.ops)
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            for arrival in arrivals[lo:hi]:
                while departures and departures[0][0] <= arrival.step:
                    _, rid, release_line = heapq.heappop(departures)
                    reply, sent_at, done_at = server.call(release_line)
                    trial.ops.append(
                        Op("release", rid, release_line, reply, sent_at, done_at, is_timed)
                    )
                reply, sent_at, done_at = server.call(arrival.submit_line)
                trial.ops.append(
                    Op("submit", arrival.request_id, arrival.submit_line, reply,
                       sent_at, done_at, is_timed)
                )
                if reply.get("type") == "accepted":
                    heapq.heappush(
                        departures,
                        (arrival.departure_step, arrival.request_id, arrival.release_line),
                    )
        finally:
            gc.enable()
        if is_timed:
            trial.slices.append((hi - lo, trial.ops[-1].done_at - start))
        between(trial.ops[first_op:])
    trial.memory_end_kb = server.memory_kb()
    if wal_path is not None:
        trial.wal_bytes_end = os.path.getsize(wal_path)
    trial.drained = server.shutdown()
    return trial
