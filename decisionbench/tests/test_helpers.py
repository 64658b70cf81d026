"""Tests of the benchmark's own helpers (inputs, gate, percentiles)."""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from decisionbench import gate
from decisionbench.layers import LAYER_METRICS
from decisionbench.bench import E2E_METRICS
from decisionbench.trial import Op
from decisionbench.stats import TooFewSamples, percentile
from decisionbench.workloads import WORKLOADS, Workload, build_inputs

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: a small substrate so the gate test runs in well under a second.
TINY = Workload(
    name="tiny",
    size=12,
    capacity=1.0,
    arrival_probability=1.0,
    mean_hold=8.0,
    nominal_rate=1.0,
    delay_share=0.5,
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_pure_function_of_workload_and_seed(name: str) -> None:
    workload = WORKLOADS[name]
    first = build_inputs(workload, 7, 30)
    assert first == build_inputs(workload, 7, 30)
    assert first != build_inputs(workload, 8, 30)
    # a longer run replays the same prefix
    assert build_inputs(workload, 7, 60)[:30] == first


def test_inputs_differ_between_workloads_with_one_seed() -> None:
    lines = {
        name: [a.submit_line for a in build_inputs(w, 3, 5)] for name, w in WORKLOADS.items()
    }
    assert len({tuple(v) for v in lines.values()}) == len(lines)


def test_delay_budgets_ride_on_the_configured_share() -> None:
    workload = WORKLOADS["durable_150"]
    arrivals = build_inputs(workload, 1, 400)
    constrained = [a for a in arrivals if a.constrained]
    assert abs(len(constrained) - 400 * workload.delay_share) < 50
    assert all(b'"kind":"delay"' in a.submit_line for a in constrained)
    assert not any(b"constraints" in a.submit_line for a in arrivals if not a.constrained)


def _served_ops(workload: Workload, count: int) -> list[Op]:
    """What an honest server would have replied, built from an offline engine."""
    engine = gate.make_engine(workload)
    ops = []
    for arrival in build_inputs(workload, 2, count):
        request = gate.protocol.submit_from_message(
            gate.protocol.decode_message(arrival.submit_line)
        )
        decision = engine.commit(request, engine.solve(request, rng=request.seed))
        reply = {
            "type": "accepted" if decision.accepted else "rejected",
            "request_id": decision.request_id,
            "decision_index": decision.decision_index,
        }
        if decision.accepted:
            reply["total_cost"] = decision.total_cost
        else:
            reply["code"] = decision.code
        ops.append(Op("submit", arrival.request_id, arrival.submit_line, reply, 0.0, 0.0, True))
    return ops


def test_gate_accepts_honest_replies_and_rejects_a_tampered_one() -> None:
    ops = _served_ops(TINY, 12)
    assert gate.replay(gate.make_engine(TINY), ops) == []
    index = next(i for i, op in enumerate(ops) if op.reply["type"] == "accepted")
    tampered = dict(ops[index].reply)
    tampered["total_cost"] = tampered["total_cost"] * (1 + 1e-12)
    ops[index] = dataclasses.replace(ops[index], reply=tampered)
    problems = gate.replay(gate.make_engine(TINY), ops)
    assert len(problems) == 1 and "total_cost" in problems[0]


@pytest.mark.parametrize(
    "verdict,field,value",
    [
        ("accepted", "type", "rejected"),
        ("accepted", "decision_index", 99),
        ("rejected", "code", "capacity_conflict"),
        ("rejected", "type", "accepted"),
    ],
)
def test_gate_rejects_each_tampered_decision_field(
    verdict: str, field: str, value: object
) -> None:
    ops = _served_ops(TINY, 30)
    index = next(i for i, op in enumerate(ops) if op.reply["type"] == verdict)
    reply = dict(ops[index].reply, **{field: value})
    ops[index] = dataclasses.replace(ops[index], reply=reply)
    assert len(gate.replay(gate.make_engine(TINY), ops)) == 1


def test_percentile_refuses_fewer_than_ten_samples_beyond() -> None:
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 0.99)
    assert percentile(list(range(1000)), 0.99) == 989
    assert percentile([3.0, 1.0, 2.0] * 10, 0.5) == 2.0
    with pytest.raises(TooFewSamples):
        percentile([1.0, 2.0], 0.5)


def test_benchmark_json_names_every_reported_metric() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
