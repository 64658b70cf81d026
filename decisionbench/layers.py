"""Per-layer metrics from the traced run's spans.

A span's *self* time is its duration minus the spans nested in it, so a
commit that rebuilds the view for a constraint check and appends a WAL
record counts those parts under ``engine.view``, ``constraints.check`` and
``wal.append``, not twice. For each timed submit::

    latency = engine (view + commit) + solver + constraints + wal + overhead

where ``overhead`` (the service layer: wire, codec, queue, event loop) is
what the other layers leave of the client-observed latency.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .trial import Trial
from .stats import mean, percentile

#: end-to-end latency components must reconstruct the mean within this share.
SUM_TOLERANCE = 0.05

#: (name, unit) of every per-layer metric, in report order.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("service.overhead_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.codec_us_per_msg", "us"),
    ("service.msgs_per_decision", "count"),
    ("engine.view_ms", "ms"),
    ("engine.view_calls_per_decision", "count"),
    ("engine.commit_ms", "ms"),
    ("engine.release_ms", "ms"),
    ("solvers.solve_ms_mean", "ms"),
    ("solvers.solve_ms_p50", "ms"),
    ("solvers.solve_ms_p99", "ms"),
    ("solvers.failed_time_share", "ratio"),
    ("solvers.escalations_per_solve", "count"),
    ("solvers.forward_expansions_per_solve", "count"),
    ("solvers.tree_size_mean", "count"),
    ("constraints.rounds_per_constrained_solve", "count"),
    ("constraints.useful_round_share", "ratio"),
    ("constraints.check_ms", "ms"),
    ("constraints.checks_per_decision", "count"),
    ("wal.append_us", "us"),
    ("wal.sync_ms_p50", "ms"),
    ("wal.sync_ms_p99", "ms"),
    ("wal.records_per_sync", "count"),
    ("wal.bytes_per_decision", "B"),
    ("wal.ms_per_decision", "ms"),
    ("server.rss_growth_kb_per_decision", "KiB"),
    ("setup.import_s", "s"),
    ("setup.substrate_s", "s"),
    ("setup.start_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.latency_mean_ms", "ms"),
    ("trace.layer_sum_ms", "ms"),
)


@dataclass
class _Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: tuple[str, int | None] | None
    extra: dict[str, Any] | None
    self_s: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start


@dataclass
class _Request:
    """The spans of one timed submit, summed per layer (seconds)."""

    latency: float
    accepted: bool
    view: list[float] = field(default_factory=list)
    commit: float = 0.0
    checks: list[float] = field(default_factory=list)
    solves: list[_Span] = field(default_factory=list)
    wal: float = 0.0
    queued_at: float | None = None
    first_view_at: float | None = None

    @property
    def layers(self) -> float:
        return (
            sum(self.view) + self.commit + sum(self.checks)
            + sum(s.dur for s in self.solves) + self.wal
        )


def _spans(raw: Iterable[Sequence[Any]]) -> list[_Span]:
    spans = [
        _Span(s[0], s[1], s[2], s[3], s[4], tuple(s[5]) if s[5] else None, s[6])
        for s in raw
    ]
    nested: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            nested[span.parent] += span.dur
    for span in spans:
        span.self_s = span.dur - nested.get(span.id, 0.0)
    return spans


def _percentile_or_zero(values: Sequence[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def per_layer(
    raw_spans: Iterable[Sequence[Any]],
    traced: Trial,
    untraced: Trial,
    *,
    import_s: float,
) -> tuple[dict[str, float], list[str]]:
    """The per-layer metrics plus any consistency problems found."""
    spans = _spans(raw_spans)
    by_op: dict[tuple[str, int | None], list[_Span]] = defaultdict(list)
    for span in spans:
        if span.op is not None:
            by_op[span.op].append(span)

    timed_ops = [op for op in traced.ops if op.timed]
    requests: list[_Request] = []
    release_s: list[float] = []
    codec: list[float] = []
    appends: list[float] = []
    syncs: list[float] = []
    for op in timed_ops:
        group = by_op.get((op.kind, op.request_id), [])
        codec += [s.dur for s in group if s.name in ("service.decode", "service.encode")]
        appends += [s.self_s for s in group if s.name == "wal.append"]
        syncs += [s.self_s for s in group if s.name == "wal.sync"]
        if op.kind == "release":
            release_s += [s.self_s for s in group if s.name == "engine.release"]
            continue
        req = _Request(latency=op.latency_s, accepted=op.reply.get("type") == "accepted")
        for span in sorted(group, key=lambda s: s.start):
            if span.name == "engine.view":
                req.view.append(span.self_s)
                if req.first_view_at is None:
                    req.first_view_at = span.start
            elif span.name == "engine.commit":
                req.commit += span.self_s
            elif span.name == "constraints.check":
                req.checks.append(span.self_s)
            elif span.name == "solvers.solve":
                req.solves.append(span)
            elif span.name in ("wal.append", "wal.sync"):
                req.wal += span.self_s
            elif span.name == "service.submit_from_message":
                req.queued_at = span.end
        requests.append(req)

    problems: list[str] = []
    n = len(requests)
    if n == 0:
        return {}, ["the traced run has no timed submits"]
    overheads = [r.latency - r.layers for r in requests]
    negative = sum(1 for o in overheads if o < -1e-6)
    if negative:
        problems.append(f"{negative} requests have layer spans longer than their latency")
    if any(not r.solves or not r.view for r in requests):
        problems.append("a timed submit is missing its solve or view span")

    solves = [s for r in requests for s in r.solves]
    solve_ms = [s.dur * 1e3 for s in solves]
    solve_total = sum(s.dur for s in solves)
    failed_solve = sum(s.dur for r in requests if not r.accepted for s in r.solves)
    stats = [s.extra or {} for s in solves]
    with_tree = [x["tree_size"] for x in stats if "tree_size" in x]
    constrained = [
        (x["constraint_rounds"], r.accepted)
        for r in requests for s in r.solves
        for x in [s.extra or {}] if "constraint_rounds" in x
    ]
    rounds_total = sum(rounds for rounds, _ in constrained)
    views = [v for r in requests for v in r.view]
    checks = [c for r in requests for c in r.checks]
    queue_waits = [
        r.first_view_at - r.queued_at
        for r in requests if r.first_view_at is not None and r.queued_at is not None
    ]
    setup = {s.name: s.dur for s in spans if s.name.startswith("setup.")}
    latency_mean = mean([r.latency for r in requests]) * 1e3
    timed_untraced = untraced.timed_submits
    dps_untraced = untraced.decisions_per_s()
    dps_traced = traced.decisions_per_s()

    metrics: dict[str, float] = {
        "service.overhead_ms": mean(overheads) * 1e3,
        "service.queue_wait_ms": mean(queue_waits) * 1e3,
        "service.codec_us_per_msg": mean(codec) * 1e6,
        "service.msgs_per_decision": len(codec) / n,
        "engine.view_ms": mean(views) * 1e3,
        "engine.view_calls_per_decision": len(views) / n,
        "engine.commit_ms": mean([r.commit for r in requests]) * 1e3,
        "engine.release_ms": mean(release_s) * 1e3,
        "solvers.solve_ms_mean": mean(solve_ms),
        "solvers.solve_ms_p50": _percentile_or_zero(solve_ms, 0.50),
        "solvers.solve_ms_p99": _percentile_or_zero(solve_ms, 0.99),
        "solvers.failed_time_share": failed_solve / solve_total if solve_total else 0.0,
        "solvers.escalations_per_solve": mean([x.get("escalations", 0) for x in stats]),
        "solvers.forward_expansions_per_solve": mean(
            [x.get("forward_expansions", 0) for x in stats]
        ),
        "solvers.tree_size_mean": mean(with_tree),
        "constraints.rounds_per_constrained_solve": mean([r for r, _ in constrained]),
        "constraints.useful_round_share": (
            sum(r for r, ok in constrained if ok) / rounds_total if rounds_total else 0.0
        ),
        "constraints.check_ms": mean(checks) * 1e3,
        "constraints.checks_per_decision": len(checks) / n,
        "wal.append_us": mean(appends) * 1e6,
        "wal.sync_ms_p50": _percentile_or_zero([s * 1e3 for s in syncs], 0.50),
        "wal.sync_ms_p99": _percentile_or_zero([s * 1e3 for s in syncs], 0.99),
        "wal.records_per_sync": len(appends) / len(syncs) if syncs else 0.0,
        "wal.bytes_per_decision": (
            (untraced.wal_bytes_end - untraced.wal_bytes_warm) / len(timed_untraced)
        ),
        "wal.ms_per_decision": mean([r.wal for r in requests]) * 1e3,
        "server.rss_growth_kb_per_decision": (
            (untraced.memory_end_kb["VmRSS"] - untraced.rss_warm_kb) / len(timed_untraced)
        ),
        "setup.import_s": import_s,
        "setup.substrate_s": setup.get("setup.substrate", 0.0),
        "setup.start_s": setup.get("setup.start", 0.0),
        "trace.overhead_pct": 100.0 * (dps_untraced - dps_traced) / dps_untraced,
        "trace.latency_mean_ms": latency_mean,
    }
    # Rebuild the mean latency from the per-call figures reported above.
    layer_sum = (
        metrics["engine.view_ms"] * metrics["engine.view_calls_per_decision"]
        + metrics["engine.commit_ms"]
        + metrics["constraints.check_ms"] * metrics["constraints.checks_per_decision"]
        + metrics["solvers.solve_ms_mean"] * len(solves) / n
        + metrics["wal.ms_per_decision"]
        + metrics["service.overhead_ms"]
    )
    metrics["trace.layer_sum_ms"] = layer_sum
    if abs(layer_sum - latency_mean) > SUM_TOLERANCE * latency_mean:
        problems.append(
            f"layers sum to {layer_sum:.3f} ms against a mean latency of "
            f"{latency_mean:.3f} ms"
        )
    return metrics, problems
