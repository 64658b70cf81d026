"""Residual-capacity tracking: the "real-time network graph" of Algorithm 1.

:class:`ResidualState` overlays usage counters on an immutable
:class:`~repro.network.cloud.CloudNetwork`. Solvers reserve VNF processing
rate and link bandwidth as they commit meta-paths; transactions allow a
candidate sub-solution to be costed and rolled back cheaply.

Reservation semantics follow the paper's reuse model:

* a VNF reservation consumes ``rate`` per *use* (per SFC position assigned
  to the instance — eq. 7);
* a link reservation consumes ``rate`` per *charged traversal*: inner-layer
  paths reserve per traversal, inter-layer multicast reserves each link once
  per layer (eq. 8–10). The caller expresses that by how many times it calls
  :meth:`reserve_link`.
"""

from __future__ import annotations

from typing import Callable, Iterator

from ..exceptions import CapacityError
from ..types import EdgeKey, NodeId, VnfTypeId, edge_key
from .cloud import CloudNetwork
from .graph import Link

__all__ = ["ResidualState"]


class ResidualState:
    """Mutable residual capacities over a cloud network."""

    def __init__(self, network: CloudNetwork) -> None:
        self.network = network
        self._link_used: dict[EdgeKey, float] = {}
        self._vnf_used: dict[tuple[NodeId, VnfTypeId], float] = {}
        # Transaction journal: (kind, key, amount) entries, kept only while
        # a transaction is open (between mark() and its commit/rollback), so
        # a long-lived state does not grow with every reserve and release.
        self._journal: list[tuple[str, object, float]] = []
        self._marks: list[int] = []

    # -- queries -----------------------------------------------------------------

    def link_used(self, u: NodeId, v: NodeId) -> float:
        """Bandwidth already reserved on link ``{u, v}``."""
        return self._link_used.get(edge_key(u, v), 0.0)

    def link_residual(self, u: NodeId, v: NodeId) -> float:
        """Remaining bandwidth on link ``{u, v}``."""
        link = self.network.graph.link(u, v)
        return link.capacity - self.link_used(u, v)

    def vnf_used(self, node: NodeId, vnf_type: VnfTypeId) -> float:
        """Processing rate already reserved on instance ``f_v(i)``."""
        return self._vnf_used.get((node, vnf_type), 0.0)

    def vnf_residual(self, node: NodeId, vnf_type: VnfTypeId) -> float:
        """Remaining processing rate on instance ``f_v(i)``."""
        inst = self.network.instance(node, vnf_type)
        return inst.capacity - self.vnf_used(node, vnf_type)

    def link_admits(self, link: Link, rate: float) -> bool:
        """True when the link still has ``rate`` bandwidth available."""
        return link.capacity - self._link_used.get(link.key, 0.0) >= rate - 1e-12

    def vnf_admits(self, node: NodeId, vnf_type: VnfTypeId, rate: float) -> bool:
        """True when the instance exists and has ``rate`` capacity available."""
        inst = self.network.deployments.instance(node, vnf_type)
        if inst is None:
            return False
        return inst.capacity - self.vnf_used(node, vnf_type) >= rate - 1e-12

    # -- reservation ---------------------------------------------------------------

    def reserve_link(self, u: NodeId, v: NodeId, rate: float) -> None:
        """Reserve ``rate`` bandwidth on link ``{u, v}`` (raises on overflow)."""
        key = edge_key(u, v)
        link = self.network.graph.link(u, v)
        used = self._link_used.get(key, 0.0)
        if used + rate > link.capacity + 1e-9:
            raise CapacityError(
                f"link {key}: reserving {rate} exceeds capacity "
                f"{link.capacity} (used {used})"
            )
        self._link_used[key] = used + rate
        self._journal_entry("link", key, rate)

    def reserve_vnf(self, node: NodeId, vnf_type: VnfTypeId, rate: float) -> None:
        """Reserve ``rate`` processing on instance ``f_v(i)`` (raises on overflow)."""
        inst = self.network.instance(node, vnf_type)
        key = (node, vnf_type)
        used = self._vnf_used.get(key, 0.0)
        if used + rate > inst.capacity + 1e-9:
            raise CapacityError(
                f"VNF {vnf_type}@{node}: reserving {rate} exceeds capacity "
                f"{inst.capacity} (used {used})"
            )
        self._vnf_used[key] = used + rate
        self._journal_entry("vnf", key, rate)

    def release_link(self, u: NodeId, v: NodeId, rate: float) -> None:
        """Return ``rate`` bandwidth on link ``{u, v}`` (departures)."""
        key = edge_key(u, v)
        used = self._link_used.get(key, 0.0)
        if rate > used + 1e-9:
            raise CapacityError(
                f"link {key}: releasing {rate} but only {used} is reserved"
            )
        remaining = used - rate
        if remaining <= 1e-12:
            self._link_used.pop(key, None)
        else:
            self._link_used[key] = remaining
        self._journal_entry("link", key, -rate)

    def release_vnf(self, node: NodeId, vnf_type: VnfTypeId, rate: float) -> None:
        """Return ``rate`` processing on instance ``f_v(i)`` (departures)."""
        key = (node, vnf_type)
        used = self._vnf_used.get(key, 0.0)
        if rate > used + 1e-9:
            raise CapacityError(
                f"VNF {vnf_type}@{node}: releasing {rate} but only {used} is reserved"
            )
        remaining = used - rate
        if remaining <= 1e-12:
            self._vnf_used.pop(key, None)
        else:
            self._vnf_used[key] = remaining
        self._journal_entry("vnf", key, -rate)

    # -- derived views -----------------------------------------------------------------

    def to_network(self) -> CloudNetwork:
        """A :class:`CloudNetwork` whose capacities are the current residuals.

        Saturated links and instances are dropped entirely, so any solver can
        run unmodified against the leftover capacity — the mechanism behind
        the online-arrivals simulator (:mod:`repro.sim.online`).
        """
        from .graph import Graph  # local: avoid import cycle at module load

        graph = Graph()
        graph.add_nodes(self.network.graph.nodes())
        for link in self.network.graph.links():
            residual = link.capacity - self._link_used.get(link.key, 0.0)
            if residual > 1e-9:
                graph.add_link(link.u, link.v, price=link.price, capacity=residual)
        out = CloudNetwork(graph)
        for inst in self.network.deployments.all_instances():
            residual = inst.capacity - self._vnf_used.get((inst.node, inst.vnf_type), 0.0)
            if residual > 1e-9:
                out.deploy(inst.node, inst.vnf_type, price=inst.price, capacity=residual)
        return out

    # -- transactions -----------------------------------------------------------------

    def _journal_entry(self, kind: str, key: object, amount: float) -> None:
        if self._marks:
            self._journal.append((kind, key, amount))

    def mark(self) -> int:
        """Open a transaction; returns the mark to roll back (or commit) to."""
        mark = len(self._journal)
        self._marks.append(mark)
        return mark

    def commit(self, mark: int) -> None:
        """Close the transaction opened at ``mark``, keeping its reservations.

        Closes the transactions nested inside it too; once none is open the
        journal is dropped.
        """
        while self._marks and self._marks[-1] > mark:
            self._marks.pop()
        if self._marks and self._marks[-1] == mark:
            self._marks.pop()
        if not self._marks:
            self._journal.clear()

    def rollback(self, mark: int) -> None:
        """Undo every reservation made after ``mark`` and close its transaction."""
        if mark < 0 or mark > len(self._journal):
            raise ValueError(f"invalid journal mark {mark}")
        while len(self._journal) > mark:
            kind, key, rate = self._journal.pop()
            if kind == "link":
                self._link_used[key] -= rate  # type: ignore[index]
                if self._link_used[key] <= 1e-12:  # type: ignore[index]
                    del self._link_used[key]  # type: ignore[arg-type]
            else:
                self._vnf_used[key] -= rate  # type: ignore[index]
                if self._vnf_used[key] <= 1e-12:  # type: ignore[index]
                    del self._vnf_used[key]  # type: ignore[arg-type]
        self.commit(mark)

    def clear(self) -> None:
        """Drop every reservation."""
        self._link_used.clear()
        self._vnf_used.clear()
        self._journal.clear()

    # -- filters for searches -----------------------------------------------------------

    def link_filter(self, rate: float) -> Callable[[Link], bool]:
        """A :data:`~repro.network.shortest.LinkFilter` admitting ``rate``."""

        def _filter(link: Link) -> bool:
            return self.link_admits(link, rate)

        return _filter

    # -- introspection --------------------------------------------------------------------

    def used_links(self) -> Iterator[tuple[EdgeKey, float]]:
        """(link, reserved bandwidth) pairs with non-zero usage."""
        return iter(self._link_used.items())

    def used_vnfs(self) -> Iterator[tuple[tuple[NodeId, VnfTypeId], float]]:
        """((node, type), reserved rate) pairs with non-zero usage."""
        return iter(self._vnf_used.items())

    def snapshot(self) -> "ResidualState":
        """Independent deep copy (journal not carried over)."""
        clone = ResidualState(self.network)
        clone._link_used = dict(self._link_used)
        clone._vnf_used = dict(self._vnf_used)
        return clone
