"""RPL601-clean fixture: transport code reaching domain logic via the engine."""

from repro.engine import EmbeddingEngine, Rebalancer, ReservationLedger
from repro.network.cloud import CloudNetwork


def build(network: CloudNetwork) -> tuple[object, object, object]:
    return EmbeddingEngine, ReservationLedger, Rebalancer
