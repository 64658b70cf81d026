"""One benchmark run: spawn the server, replay the inputs, gate, measure."""

from __future__ import annotations

import itertools
import json
import os
from typing import Any, Callable, Sequence

from repro.wal.log import shard_wal_path

from . import gate
from .harness import ServerProcess
from .layers import LAYER_METRICS, per_layer
from .trial import Op, Trial, drive
from .stats import host_probe, median, percentile
from .workloads import WARMUP_SUBMITS, Workload, build_inputs

#: the repository root: the server child runs from here with ``src`` on its path.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the server child: the repository's own ``serve`` command ...
SERVE = ("-m", "repro.cli")
#: ... or the same command behind the tracing shim.
SHIM = os.path.join("decisionbench", "serve_shim.py")

#: stretches after which an untraced run spawns one more server just to
#: time its set-up; ``setup_s`` is the median over these and the measured one.
SETUP_STRETCHES = (3, 7)

#: (name, unit) of every end-to-end metric, in report order.
E2E_METRICS: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("decisions_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("acceptance_ratio", "ratio"),
    ("cost_per_accept", "cost"),
    ("server_rss_mb", "MiB"),
)


def _serve(
    argv: Sequence[str],
    workload: Workload,
    arrivals: Sequence[Any],
    work: str,
    tag: str,
    between: Callable[[Sequence[Op]], None],
) -> tuple[Trial, float, dict[str, Any], str | None]:
    """Start one server, drive it through the inputs, drain it."""
    wal_dir = os.path.join(work, f"wal_{tag}") if workload.wal else None
    wal_path = shard_wal_path(wal_dir, "net0") if wal_dir else None
    log = os.path.join(work, f"serve_{tag}.log")
    with ServerProcess([*argv, *workload.serve_args(wal_dir)], root=ROOT,
                       log_path=log) as server:
        setup_s = server.start()
        trial = drive(
            server, arrivals, warmup=WARMUP_SUBMITS, wal_path=wal_path, between=between
        )
        return trial, setup_s, server.hello, wal_path


def _setup_only(workload: Workload, work: str, tag: str) -> float:
    """Spawn one server just to time its set-up, then drain it."""
    wal_dir = os.path.join(work, f"wal_{tag}") if workload.wal else None
    log = os.path.join(work, f"serve_{tag}.log")
    with ServerProcess([*SERVE, *workload.serve_args(wal_dir)],
                       root=ROOT, log_path=log) as server:
        setup_s = server.start()
        server.shutdown()
        return setup_s


def _gated_run(
    argv: Sequence[str],
    workload: Workload,
    arrivals: Sequence[Any],
    work: str,
    tag: str,
    problems: list[str],
    also: Callable[[int], None] | None = None,
) -> tuple[Trial, float]:
    """One served run with the gate's offline replay interleaved between slices.

    ``also(k)`` runs after the gate has replayed stretch ``k`` (0 is the
    warm-up), while the measured server idles.
    """
    engine = gate.make_engine(workload)
    stretches = itertools.count()

    def between(ops: Sequence[Op]) -> None:
        problems.extend(f"{tag}: {p}" for p in gate.replay(engine, ops))
        if also is not None:
            also(next(stretches))

    trial, setup_s, hello, wal_path = _serve(argv, workload, arrivals, work, tag, between)
    if hello.get("network_fingerprint") != engine.fingerprint:
        problems.append(f"{tag}: served substrate differs from the offline one")
    served = trial.served_fingerprint()
    if engine.ledger_fingerprint() != served:
        problems.append(f"{tag}: offline ledger fingerprint differs from the served one")
    if wal_path is not None and gate.recovered_fingerprint(workload, wal_path) != served:
        problems.append(f"{tag}: ledger recovered from the WAL differs from the served one")
    return trial, setup_s


def e2e_metrics(trial: Trial, setups: Sequence[float]) -> dict[str, float]:
    """The end-to-end metrics of one untraced run."""
    submits = trial.submits
    latencies_ms = [op.latency_s * 1e3 for op in trial.timed_submits]
    accepted = [op for op in submits if op.reply.get("type") == "accepted"]
    return {
        "setup_s": median(setups),
        "decisions_per_s": trial.decisions_per_s(),
        "latency_p50_ms": percentile(latencies_ms, 0.50),
        "latency_p99_ms": percentile(latencies_ms, 0.99),
        "acceptance_ratio": len(accepted) / len(submits),
        "cost_per_accept": sum(op.reply["total_cost"] for op in accepted) / len(accepted),
        "server_rss_mb": trial.memory_end_kb["VmHWM"] / 1024.0,
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool, work: str) -> tuple[
    dict[str, Any], dict[str, Any]
]:
    """One run; returns (result line, side line) in the order run.py prints them."""
    probe_before = host_probe()
    timed = workload.timed_submits(seconds)
    arrivals = build_inputs(workload, seed, WARMUP_SUBMITS + timed)
    problems: list[str] = []
    setups: list[float] = []

    def setup_spawn(stretch: int) -> None:
        # Extra set-up timings, spread over the run like the slices.
        if not trace and stretch in SETUP_STRETCHES:
            setups.append(_setup_only(workload, work, f"setup{stretch}"))

    trial, setup_s = _gated_run(
        SERVE, workload, arrivals, work, "measured", problems, setup_spawn
    )
    setups.append(setup_s)
    ops = list(trial.ops)
    if not trace:
        values, units = e2e_metrics(trial, setups), E2E_METRICS
    else:
        # Same inputs, same gate between slices, so the two runs differ only
        # by the tracer.
        spans_path = os.path.join(work, "spans.json")
        traced, _ = _gated_run(
            [SHIM, spans_path], workload, arrivals, work, "traced", problems
        )
        with open(spans_path, encoding="utf-8") as fh:
            dump = json.load(fh)
        values, layer_problems = per_layer(
            dump["spans"], traced, trial, import_s=dump["import_s"]
        )
        problems += layer_problems
        units = LAYER_METRICS
        ops += traced.ops
    side = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "warmup_submits": WARMUP_SUBMITS,
        "timed_submits": timed,
        "setup_spawns_s": setups,
        "host_probe_s": {"before": probe_before, "after": host_probe()},
        "problems": problems[:20],
    }
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    return result, side
