"""The benchmark's workloads and the inputs each one replays.

Inputs are a pure function of ``(workload, seed, submits)``: the arrival
trace, the per-request solver seeds and the constraint draws all come from
streams seeded by the workload seed. The substrate is fixed per workload
(:data:`SUBSTRATE_SEED`), so only the traffic changes with ``--seed``.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.config import NetworkConfig, SfcConfig
from repro.service import protocol
from repro.sim.trace import generate_trace

#: submits decided before the timed window opens (loads lazy imports and
#: registries); they are still checked by the gate.
WARMUP_SUBMITS = 40

#: smallest timed window: p99 needs ten samples beyond it.
MIN_TIMED_SUBMITS = 1020

# Shared by every workload. SFC size 2 is one layer of two parallel VNFs
# plus the merger: cheap enough per decision that a run holds the thousands
# of decisions a steady p99 needs.
CONNECTIVITY = 5.0
N_VNF_TYPES = 8
DEPLOY_RATIO = 0.4
SFC_SIZE = 2
SUBSTRATE_SEED = 5
#: delay budget of a constrained submit: about a quarter of the constrained
#: requests on ``durable_150`` use every reprice round and are rejected.
DELAY_BUDGET = 6.0


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one fixed substrate."""

    name: str
    size: int
    capacity: float
    arrival_probability: float
    mean_hold: float
    #: decided submits per second the timed window is sized for; the window
    #: is a fixed submit count, never a measured duration.
    nominal_rate: float
    #: serve with a write-ahead log (ack after fsync).
    wal: bool = False
    #: share of submits that carry a delay budget.
    delay_share: float = 0.0

    def network_config(self) -> NetworkConfig:
        """The substrate generator parameters ``serve`` is given."""
        return NetworkConfig(
            size=self.size,
            connectivity=CONNECTIVITY,
            n_vnf_types=N_VNF_TYPES,
            deploy_ratio=DEPLOY_RATIO,
            vnf_capacity=self.capacity,
            link_capacity=self.capacity,
        )

    def serve_args(self, wal_dir: str | None) -> list[str]:
        """The ``serve`` sub-command line: one shard, strict FIFO, inline MBBE."""
        args = [
            "serve",
            "--port", "0",
            "--network-size", str(self.size),
            "--connectivity", repr(CONNECTIVITY),
            "--n-vnf-types", str(N_VNF_TYPES),
            "--deploy-ratio", repr(DEPLOY_RATIO),
            "--vnf-capacity", repr(self.capacity),
            "--link-capacity", repr(self.capacity),
            "--seed", str(SUBSTRATE_SEED),
            "--solver", "MBBE",
            "--workers", "0",
            "--admission", "fifo",
            "--batch-size", "1",
        ]
        if self.wal:
            if wal_dir is None:
                raise ValueError(f"workload {self.name} needs a WAL directory")
            args += ["--wal", wal_dir]
        return args

    def timed_submits(self, seconds: float) -> int:
        """Submits in the timed window for a nominal ``seconds``-long run."""
        return max(MIN_TIMED_SUBMITS, round(self.nominal_rate * seconds))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Solver-bound: tight capacity makes MBBE prune and escalate failed
        # solves; the 40-node view is cheap, so view work is bypassed.
        Workload(
            name="contended_40",
            size=40,
            capacity=2.0,
            arrival_probability=1.0,
            mean_hold=20.0,
            nominal_rate=300.0,
        ),
        # WAL fsync before every reply, about one release per submit, and
        # LARAC-style delay repricing on half the submits.
        Workload(
            name="durable_150",
            size=150,
            capacity=4.0,
            arrival_probability=0.5,
            mean_hold=10.0,
            nominal_rate=134.0,
            wal=True,
            delay_share=0.5,
        ),
    )
}


@dataclass(frozen=True)
class Arrival:
    """One submit of the replay plus the step its reservation departs."""

    request_id: int
    step: int
    departure_step: int
    constrained: bool
    submit_line: bytes
    release_line: bytes


def _streams(workload: Workload, seed: int) -> list[np.random.Generator]:
    salt = zlib.crc32(workload.name.encode())
    root = np.random.SeedSequence([seed, salt])
    return [np.random.default_rng(child) for child in root.spawn(3)]


def build_inputs(workload: Workload, seed: int, submits: int) -> tuple[Arrival, ...]:
    """The first ``submits`` arrivals of the workload's trace for ``seed``."""
    if submits < 1:
        raise ValueError(f"submits must be >= 1, got {submits}")
    trace_rng, seed_rng, constraint_rng = _streams(workload, seed)
    # Trace steps draw sequentially, so a longer trace extends the same
    # prefix; grow it until it holds enough arrivals, then truncate.
    steps = math.ceil(submits / workload.arrival_probability * 1.2) + 20
    state = trace_rng.bit_generator.state
    while True:
        trace_rng.bit_generator.state = state
        trace = generate_trace(
            steps=steps,
            n_nodes=workload.size,
            n_vnf_types=N_VNF_TYPES,
            sfc=SfcConfig(size=SFC_SIZE),
            arrival_probability=workload.arrival_probability,
            mean_hold=workload.mean_hold,
            rng=trace_rng,
        )
        if len(trace) >= submits:
            break
        steps *= 2
    delay_spec: list[dict[str, Any]] = [
        {"kind": "delay", "budget": DELAY_BUDGET}
    ]
    arrivals = []
    for event in trace.events[:submits]:
        request = event.request
        solver_seed = int(seed_rng.integers(2**31))
        constrained = bool(constraint_rng.random() < workload.delay_share)
        rid = request.request_id
        submit = protocol.submit_message(
            msg_id=2 * rid + 1,
            request_id=rid,
            dag=request.dag,
            source=request.source,
            dest=request.dest,
            rate=request.flow.rate,
            seed=solver_seed,
            constraints=delay_spec if constrained else None,
        )
        release = protocol.release_message(msg_id=2 * rid + 2, request_id=rid)
        arrivals.append(
            Arrival(
                request_id=rid,
                step=event.step,
                departure_step=event.departure_step,
                constrained=constrained,
                submit_line=protocol.encode_message(submit),
                release_line=protocol.encode_message(release),
            )
        )
    return tuple(arrivals)
