"""The correctness gate: every served reply must match an offline replay.

The exact operation sequence a run sent is replayed through an in-process
``EmbeddingEngine`` on the same substrate. Each reply must agree bit for bit
on accept/reject, rejection code, total cost and ``decision_index``; each
release must succeed on both sides. With a write-ahead log, the shard log is
also recovered into a fresh engine whose ledger fingerprint must equal the
one the server reported.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping

from repro.engine import Decision, EmbeddingEngine
from repro.exceptions import ConfigurationError
from repro.network.generator import generate_network
from repro.service import protocol

from .trial import Op
from .workloads import SUBSTRATE_SEED, Workload

#: the reply fields a decision is judged on.
DECISION_FIELDS = ("accepted", "code", "total_cost", "decision_index")


def decision_fields(decision: Decision) -> dict[str, Any]:
    """What an offline decision says, in reply terms."""
    return {
        "accepted": decision.accepted,
        "code": None if decision.accepted else decision.code,
        "total_cost": decision.total_cost,
        "decision_index": decision.decision_index,
    }


def reply_fields(reply: Mapping[str, Any]) -> dict[str, Any]:
    """What a served ``accepted``/``rejected`` reply says."""
    accepted = reply.get("type") == "accepted"
    return {
        "accepted": accepted,
        "code": None if accepted else reply.get("code"),
        "total_cost": reply.get("total_cost") if accepted else None,
        "decision_index": reply.get("decision_index"),
    }


def mismatch(expected: Mapping[str, Any], got: Mapping[str, Any]) -> str | None:
    """A description of the first differing field, or None when identical.

    Costs compare by their exact float value (the wire carries ``repr``
    floats, which round-trip), not within a tolerance.
    """
    for key in DECISION_FIELDS:
        if json.dumps(expected[key]) != json.dumps(got[key]):
            return f"{key}: offline {expected[key]!r}, served {got[key]!r}"
    return None


def make_engine(workload: Workload) -> EmbeddingEngine:
    """A fresh engine on the substrate ``serve`` builds for this workload."""
    network = generate_network(workload.network_config(), rng=SUBSTRATE_SEED)
    return EmbeddingEngine(network, "MBBE", seed=SUBSTRATE_SEED)


def replay(engine: EmbeddingEngine, ops: Iterable[Op]) -> list[str]:
    """Replay ``ops`` through ``engine``; returns one line per mismatch."""
    problems: list[str] = []
    for op in ops:
        if op.kind == "release":
            try:
                engine.release(op.request_id)
            except ConfigurationError as exc:
                problems.append(f"release {op.request_id}: offline refused: {exc}")
            else:
                if not op.reply.get("ok", False):
                    problems.append(f"release {op.request_id}: served {op.reply!r}")
            continue
        request = protocol.submit_from_message(protocol.decode_message(op.line))
        result = engine.solve(request, rng=request.seed)
        decision = engine.commit(request, result)
        problem = mismatch(decision_fields(decision), reply_fields(op.reply))
        if problem is not None:
            problems.append(f"submit {op.request_id}: {problem}")
    return problems


def recovered_fingerprint(workload: Workload, wal_path: str) -> str:
    """Ledger fingerprint of a fresh engine rebuilt from the shard log alone."""
    network = generate_network(workload.network_config(), rng=SUBSTRATE_SEED)
    engine, _ = EmbeddingEngine.restore(
        network, "MBBE", None, seed=SUBSTRATE_SEED, wal_path=wal_path
    )
    return engine.ledger_fingerprint()
