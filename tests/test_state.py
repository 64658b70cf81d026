"""Tests for residual-capacity tracking (the real-time network graph)."""

import tracemalloc

import pytest

from repro.exceptions import CapacityError, ConfigurationError
from repro.network.cloud import CloudNetwork
from repro.network.reservations import Reservation, ReservationLedger
from repro.network.state import ResidualState

from .conftest import build_line_graph


@pytest.fixture
def small_cloud():
    g = build_line_graph(4, price=1.0, capacity=2.0)
    net = CloudNetwork(g)
    net.deploy(1, 1, price=10.0, capacity=3.0)
    net.deploy(2, 2, price=12.0, capacity=1.0)
    return net


class TestLinkReservations:
    def test_reserve_and_residual(self, small_cloud):
        st = ResidualState(small_cloud)
        assert st.link_residual(0, 1) == pytest.approx(2.0)
        st.reserve_link(0, 1, 1.5)
        assert st.link_residual(0, 1) == pytest.approx(0.5)
        assert st.link_used(1, 0) == pytest.approx(1.5)  # symmetric

    def test_overflow_raises(self, small_cloud):
        st = ResidualState(small_cloud)
        st.reserve_link(0, 1, 2.0)
        with pytest.raises(CapacityError):
            st.reserve_link(0, 1, 0.5)

    def test_link_admits(self, small_cloud):
        st = ResidualState(small_cloud)
        link = small_cloud.graph.link(0, 1)
        assert st.link_admits(link, 2.0)
        st.reserve_link(0, 1, 1.0)
        assert st.link_admits(link, 1.0)
        assert not st.link_admits(link, 1.1)


class TestVnfReservations:
    def test_reserve_and_residual(self, small_cloud):
        st = ResidualState(small_cloud)
        st.reserve_vnf(1, 1, 2.0)
        assert st.vnf_residual(1, 1) == pytest.approx(1.0)

    def test_overflow_raises(self, small_cloud):
        st = ResidualState(small_cloud)
        with pytest.raises(CapacityError):
            st.reserve_vnf(2, 2, 1.5)

    def test_missing_instance(self, small_cloud):
        st = ResidualState(small_cloud)
        with pytest.raises(ConfigurationError):
            st.reserve_vnf(0, 1, 1.0)

    def test_vnf_admits(self, small_cloud):
        st = ResidualState(small_cloud)
        assert st.vnf_admits(1, 1, 3.0)
        assert not st.vnf_admits(1, 1, 3.1)
        assert not st.vnf_admits(0, 1, 0.1)  # not deployed


class TestTransactions:
    def test_rollback_restores(self, small_cloud):
        st = ResidualState(small_cloud)
        st.reserve_link(0, 1, 1.0)
        mark = st.mark()
        st.reserve_link(0, 1, 1.0)
        st.reserve_vnf(1, 1, 2.0)
        st.rollback(mark)
        assert st.link_used(0, 1) == pytest.approx(1.0)
        assert st.vnf_used(1, 1) == 0.0

    def test_nested_marks(self, small_cloud):
        st = ResidualState(small_cloud)
        m0 = st.mark()
        st.reserve_link(0, 1, 0.5)
        m1 = st.mark()
        st.reserve_link(1, 2, 0.5)
        st.rollback(m1)
        assert st.link_used(1, 2) == 0.0
        st.rollback(m0)
        assert st.link_used(0, 1) == 0.0

    def test_rollback_after_failed_nested_attempt_keeps_outer_open(self, small_cloud):
        st = ResidualState(small_cloud)
        m0 = st.mark()
        st.reserve_link(0, 1, 0.5)
        m1 = st.mark()
        st.reserve_link(1, 2, 0.5)
        st.rollback(m1)
        st.reserve_link(2, 3, 0.5)  # still inside the outer transaction
        st.rollback(m0)
        assert st.link_used(0, 1) == st.link_used(2, 3) == 0.0

    def test_commit_keeps_reservations_and_drops_the_journal(self, small_cloud):
        st = ResidualState(small_cloud)
        m0 = st.mark()
        st.reserve_link(0, 1, 0.5)
        m1 = st.mark()
        st.reserve_link(1, 2, 0.5)
        st.commit(m1)
        assert st._journal  # the outer transaction still needs it
        st.commit(m0)
        assert st._journal == []
        assert st.link_used(0, 1) == st.link_used(1, 2) == pytest.approx(0.5)

    def test_no_journal_outside_a_transaction(self, small_cloud):
        st = ResidualState(small_cloud)
        st.reserve_link(0, 1, 1.0)
        st.release_link(0, 1, 1.0)
        st.reserve_vnf(1, 1, 1.0)
        assert st._journal == []

    def test_invalid_mark(self, small_cloud):
        st = ResidualState(small_cloud)
        with pytest.raises(ValueError):
            st.rollback(5)

    def test_clear(self, small_cloud):
        st = ResidualState(small_cloud)
        st.reserve_link(0, 1, 1.0)
        st.clear()
        assert st.link_used(0, 1) == 0.0

    def test_snapshot_independent(self, small_cloud):
        st = ResidualState(small_cloud)
        st.reserve_link(0, 1, 1.0)
        snap = st.snapshot()
        st.reserve_link(0, 1, 1.0)
        assert snap.link_used(0, 1) == pytest.approx(1.0)
        assert st.link_used(0, 1) == pytest.approx(2.0)


class TestFilters:
    def test_link_filter_for_search(self, small_cloud):
        st = ResidualState(small_cloud)
        st.reserve_link(1, 2, 2.0)  # saturate middle link
        f = st.link_filter(rate=1.0)
        assert f(small_cloud.graph.link(0, 1))
        assert not f(small_cloud.graph.link(1, 2))

    def test_used_iterators(self, small_cloud):
        st = ResidualState(small_cloud)
        st.reserve_link(0, 1, 1.0)
        st.reserve_vnf(1, 1, 1.0)
        assert dict(st.used_links()) == {(0, 1): 1.0}
        assert dict(st.used_vnfs()) == {(1, 1): 1.0}


class TestJournalSoak:
    """A long-lived ledger's journal stays empty and its memory flat."""

    def test_churn_leaves_no_journal_and_flat_memory(self, small_cloud):
        ledger = ReservationLedger(ResidualState(small_cloud))
        reservation = Reservation(
            vnf={(1, 1): 1.0, (2, 2): 1.0},
            links={(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0},
            cost=1.0,
        )
        too_big = Reservation(vnf={(1, 1): 1.0, (2, 2): 2.0}, links={}, cost=1.0)

        def churn(cycles: int, first_id: int) -> None:
            for request_id in range(first_id, first_id + cycles):
                ledger.reserve(request_id, reservation)
                try:
                    ledger.reserve(request_id + 10**6, too_big)
                except CapacityError:
                    pass  # rolled back
                else:
                    raise AssertionError("over-capacity reserve went through")
                ledger.release(request_id)

        tracemalloc.start()
        try:
            churn(500, 0)  # one-time allocations land before the baseline
            before, _ = tracemalloc.get_traced_memory()
            churn(5000, 1000)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ledger.state._journal == []
        assert len(ledger) == 0
        assert dict(ledger.state.used_links()) == {}
        # 5000 cycles x 10 journal entries would retain several hundred KiB.
        assert after - before < 16 * 1024
