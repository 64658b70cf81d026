"""The transport-agnostic embedding engine.

One :class:`EmbeddingEngine` owns the *authoritative* state of one
substrate network — the residual capacity (via the shared
:class:`~repro.network.reservations.ReservationLedger`), the live
:class:`~repro.faults.model.FaultState`, and the
:class:`~repro.faults.repair.RepairEngine` that walks damaged requests down
the reroute → re-embed → evict ladder — and exposes the full admission
lifecycle as plain synchronous methods:

* :meth:`view` — the residual network solves run on (degraded under
  active faults; the projection is never built fault-free, keeping the
  no-chaos pipeline bit-identical to a state machine without faults);
* :meth:`solve` / :meth:`commit` — the two halves of one decision, split
  so a transport can run solves elsewhere (a worker thread) and feed
  the results back into the sole state mutator;
* :meth:`submit` / :meth:`submit_batch` — synchronous compositions of the
  two for in-process drivers (the offline simulator, tests), including the
  strict vs speculative batch-view policy;
* :meth:`release`, :meth:`apply_fault`, :meth:`stats`, :meth:`drain`,
  :meth:`save_snapshot` / :meth:`restore` — departures, chaos, telemetry,
  durability;
* :meth:`migrate` — the rebalancer's atomic apply: release-old +
  reserve-new as one ledger effect with apply-time re-validation, rolled
  back cleanly on conflict and logged as one ``migrate`` WAL record.

Everything here is synchronous and transport-free by design: the asyncio
server (:mod:`repro.service.server`) and the offline simulator
(:mod:`repro.sim.online`) are both thin drivers over this one code path, so
offline replay ≡ service decisions holds by construction instead of by
hand-maintained duplication.

The engine is **not** thread-safe; a transport must funnel all mutations
through one writer (the service's dispatcher task already does).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

from ..embedding.base import Embedder, EmbeddingResult
from ..exceptions import CapacityError, ConfigurationError, LedgerError, WalError
from ..faults.model import FaultAction, FaultEvent, FaultState, degrade_network
from ..faults.repair import RepairAction, RepairEngine, RepairOutcome
from ..network.cloud import CloudNetwork
from ..network.reservations import Reservation, ReservationLedger
from ..network.state import ResidualState
from ..solvers.registry import make_solver
from ..utils.rng import RngStream, trial_seed
from ..utils.stats import percentile
from ..wal import records as wal_records
from ..wal.log import WalRecord, WalWriter, read_wal
from . import state_store
from .request import EmbeddingRequest

__all__ = [
    "ENGINE_COUNTER_KEYS",
    "FLOAT_COUNTER_KEYS",
    "REBALANCE_COUNTER_KEYS",
    "Decision",
    "Migration",
    "EmbeddingEngine",
]

#: Seed salt for engine-derived solver streams (callers may override per
#: request); distinct from the runner's 0xA160 so service traffic never
#: aliases experiment streams.
_SERVICE_SEED_SALT = 0x5EC5

#: Seed salt for the repair ladder's re-embed solves (one stream per fault
#: event), distinct from both the runner's and the submit-path salts.
_CHAOS_SEED_SALT = 0xFA17

#: Counters the engine itself maintains (decision + fault lifecycle).
#: Transport-level counters (``submitted``, ``shed_*``) live with the
#: transport; :meth:`EmbeddingEngine.stats` reports only these.
ENGINE_COUNTER_KEYS = (
    "dispatched",
    "accepted",
    "rejected_no_solution",
    "rejected_conflict",
    "departed",
    "faults_injected",
    "recoveries",
    "repairs_rerouted",
    "repairs_reembedded",
    "evictions",
    "total_cost_accepted",
    "repair_cost_delta",
)

#: counters that accumulate objective values rather than event counts.
FLOAT_COUNTER_KEYS = frozenset({"total_cost_accepted", "repair_cost_delta"})

#: Counters of the migrate transaction, kept in a block of their own so the
#: historical wire/snapshot counter order (and every golden gated on it)
#: stays byte-identical while the rebalancer is off. ``cost_recovered`` is
#: a float (accumulated objective), the other two are event counts.
REBALANCE_COUNTER_KEYS = (
    "migrations_applied",
    "migrations_conflicted",
    "cost_recovered",
)


@dataclass(frozen=True)
class Decision:
    """The engine's verdict on one submitted request.

    A transport formats this into its wire reply; the engine keeps it
    protocol-free. ``decision_index`` is the engine-global decision sequence
    number; ``commit_index`` is the order among accepted requests (``None``
    when rejected).
    """

    request_id: int
    msg_id: int
    accepted: bool
    decision_index: int
    #: structured rejection code (``no_solution`` / ``capacity_conflict``).
    code: str | None = None
    reason: str | None = None
    total_cost: float | None = None
    vnf_cost: float | None = None
    link_cost: float | None = None
    runtime: float | None = None
    commit_index: int | None = None


@dataclass(frozen=True)
class Migration:
    """The engine's verdict on one attempted rebalancer move.

    ``applied`` mirrors :class:`Decision.accepted`: the move either took
    effect atomically or the ledger is exactly as it was before the call.
    """

    request_id: int
    applied: bool
    old_cost: float
    new_cost: float
    #: structured failure code (``departed`` / ``no_solution`` /
    #: ``capacity_conflict``) when the move was not applied.
    code: str | None = None
    reason: str | None = None

    @property
    def gain(self) -> float:
        """Objective cost recovered by the move (0.0 unless applied)."""
        return self.old_cost - self.new_cost if self.applied else 0.0


class EmbeddingEngine:
    """The synchronous admission/repair state machine of one substrate."""

    def __init__(
        self,
        network: CloudNetwork,
        solver: Embedder | str,
        *,
        seed: int = 0,
        ledger: ReservationLedger | None = None,
        counters: Mapping[str, float] | None = None,
    ) -> None:
        self.network = network
        self.solver: Embedder = solver if isinstance(solver, Embedder) else make_solver(solver)
        #: registry name of the solver (recorded in WAL headers).
        self.solver_name = self.solver.name
        #: master seed for engine-derived solver streams.
        self.seed = seed
        if ledger is not None and ledger.state.network is not network:
            raise ConfigurationError("restored ledger belongs to a different network")
        self.ledger = ledger if ledger is not None else ReservationLedger(ResidualState(network))
        # Event counts stay ints; only accumulated costs are floats.
        self.counters: dict[str, float] = {key: 0 for key in ENGINE_COUNTER_KEYS}
        for key in FLOAT_COUNTER_KEYS:
            self.counters[key] = 0.0
        if counters:
            for key, value in counters.items():
                if key in self.counters:
                    self.counters[key] = (
                        float(value) if key in FLOAT_COUNTER_KEYS else int(value)
                    )
        # The repair ladder re-embeds with the engine's own solver (a
        # transport's dispatcher is the sole writer, so repairs cannot
        # overlap a solve's commit).
        self._repair = RepairEngine(self.ledger, self.solver)
        # decision_index and dispatched advance in lockstep, so a restored
        # engine continues the decision sequence instead of restarting it.
        self._decision_counter = int(self.counters["dispatched"])
        self._fault_counter = 0
        # Migrate-transaction counters live outside ``counters`` so the
        # historical snapshot/wire counter order stays byte-identical.
        self.rebalance_counters: dict[str, float] = {
            key: 0 for key in REBALANCE_COUNTER_KEYS
        }
        self.rebalance_counters["cost_recovered"] = 0.0
        self._repair_times: list[float] = []
        self._fingerprint: str | None = None
        self._wal: WalWriter | None = None
        #: last WAL sequence number this engine's state reflects.
        self._applied_wal_seq = 0

    # -- identity -------------------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """SHA-256 of the substrate's canonical serialization (lazy, cached)."""
        if self._fingerprint is None:
            self._fingerprint = state_store.network_fingerprint(self.network)
        return self._fingerprint

    @property
    def faults(self) -> FaultState:
        """The live fault state (pristine unless :meth:`apply_fault` was used)."""
        return self._repair.faults

    @property
    def repair_engine(self) -> RepairEngine:
        """The engine tracking embeddings and running the repair ladder."""
        return self._repair

    @property
    def degraded(self) -> bool:
        """True while any substrate element is dead."""
        return self._repair.faults.any_dead

    def is_active(self, request_id: int) -> bool:
        """True while ``request_id`` holds resources."""
        return self.ledger.is_active(request_id)

    def active_ids(self) -> Iterator[int]:
        """Ids of requests currently holding resources."""
        return self.ledger.active_ids()

    def active_count(self) -> int:
        """Number of requests currently holding resources."""
        return len(self.ledger)

    def repair_times(self) -> tuple[float, ...]:
        """Wall seconds of every completed repair, in occurrence order."""
        return tuple(self._repair_times)

    # -- views and solves -----------------------------------------------------------

    def view(self) -> CloudNetwork:
        """The residual view solves run on, degraded under active faults.

        Fault-free engines take the first branch only — the projection is
        never built, keeping the no-chaos pipeline bit-identical to a
        state machine without the fault subsystem.
        """
        network = self.ledger.state.to_network()
        if self._repair.faults.any_dead:
            network = degrade_network(network, self._repair.faults)
        return network

    def solve_seed(self, request: EmbeddingRequest) -> int:
        """The solver seed for one request: its own, or engine-derived."""
        if request.seed is not None:
            return request.seed
        return trial_seed(self.seed, request.arrival_index, salt=_SERVICE_SEED_SALT)

    def solve(
        self,
        request: EmbeddingRequest,
        *,
        view: CloudNetwork | None = None,
        rng: RngStream = None,
    ) -> EmbeddingResult:
        """Solve one request in-process (no state mutation).

        ``rng`` is passed to the solver verbatim — in-process drivers own
        their seeding discipline; transports that want the engine's derived
        stream pass ``rng=self.solve_seed(request)``.
        """
        if view is None:
            view = self.view()
        return self.solver.embed(
            view,
            request.dag,
            request.source,
            request.dest,
            request.flow,
            rng=rng,
            constraints=request.constraints,
        )

    # -- decisions (sole state mutators) ----------------------------------------------

    def commit(self, request: EmbeddingRequest, result: EmbeddingResult) -> Decision:
        """Apply one solve outcome to the authoritative state (sync, atomic).

        Re-validates capacity through the ledger's all-or-nothing reserve:
        a speculative solve whose resources were taken by an earlier commit
        comes back as a ``capacity_conflict`` rejection instead of corrupting
        the residual state.
        """
        decision_index = self._decision_counter
        self._decision_counter += 1
        self.counters["dispatched"] += 1
        if not result.success:
            self.counters["rejected_no_solution"] += 1
            decision = Decision(
                request_id=request.request_id,
                msg_id=request.msg_id,
                accepted=False,
                decision_index=decision_index,
                code="no_solution",
                reason=result.reason or "no feasible embedding",
            )
            self._log_commit(request, decision, None, None)
            return decision
        assert result.cost is not None
        if request.constraints and result.embedding is not None:
            # Commit-time re-validation: a speculative solve (made on the
            # batch-start view) may hand back an embedding that no longer
            # satisfies the request's registered rules.
            violation = request.constraints.check(
                self.view(), result.embedding, request.flow
            )
            if violation is not None:
                self.counters["rejected_no_solution"] += 1
                decision = Decision(
                    request_id=request.request_id,
                    msg_id=request.msg_id,
                    accepted=False,
                    decision_index=decision_index,
                    code="constraint_violation",
                    reason=f"{violation.constraint}: {violation}",
                )
                self._log_commit(request, decision, None, None)
                return decision
        reservation = Reservation.from_counts(
            result.cost.alpha_vnf,
            result.cost.alpha_link,
            rate=request.flow.rate,
            cost=result.total_cost,
        )
        try:
            self.ledger.reserve(request.request_id, reservation)
        except CapacityError as exc:
            # Only reachable with stale views (speculative batches): an
            # earlier commit consumed the capacity this solve assumed.
            self.counters["rejected_conflict"] += 1
            decision = Decision(
                request_id=request.request_id,
                msg_id=request.msg_id,
                accepted=False,
                decision_index=decision_index,
                code="capacity_conflict",
                reason=str(exc),
            )
            self._log_commit(request, decision, None, None)
            return decision
        if result.embedding is not None:
            # Remembered for the repair ladder; dropped again on release.
            self._repair.track(
                request.request_id,
                result.embedding,
                request.flow,
                result.total_cost,
                constraints=request.constraints,
            )
        self.counters["accepted"] += 1
        self.counters["total_cost_accepted"] += result.total_cost
        decision = Decision(
            request_id=request.request_id,
            msg_id=request.msg_id,
            accepted=True,
            decision_index=decision_index,
            total_cost=result.total_cost,
            vnf_cost=result.cost.vnf_cost,
            link_cost=result.cost.link_cost,
            runtime=result.runtime,
            commit_index=int(self.counters["accepted"]) - 1,
        )
        self._log_commit(request, decision, reservation, result.embedding)
        return decision

    def submit(self, request: EmbeddingRequest, rng: RngStream = None) -> EmbeddingResult:
        """Solve-and-commit one request on the current residual view.

        Raises :class:`~repro.exceptions.LedgerError` for a duplicate id —
        in-process drivers treat that as a caller bug; transports screen
        duplicates before they reach the engine.
        """
        if self.ledger.is_active(request.request_id):
            raise LedgerError(
                request.request_id,
                "duplicate_request",
                f"request id {request.request_id} is already active",
            )
        result = self.solve(request, rng=rng)
        self.commit(request, result)
        return result

    def submit_batch(
        self,
        requests: Sequence[EmbeddingRequest],
        rng: RngStream = None,
        *,
        speculative: bool = False,
    ) -> list[Decision]:
        """Decide one micro-batch synchronously (the two dispatch modes).

        * **strict** — each member solves against the residual view left by
          the previous commit (bit-identical to submitting them one by one);
        * **speculative** — every member solves against the batch-start
          view, then commits in order with re-validation; losers of the
          capacity race come back as ``capacity_conflict``.
        """
        if speculative and len(requests) > 1:
            batch_view = self.view()
            results = [self.solve(r, view=batch_view, rng=rng) for r in requests]
            return [self.commit(r, res) for r, res in zip(requests, results)]
        return [self.commit(r, self.solve(r, rng=rng)) for r in requests]

    def release(self, request_id: int) -> None:
        """Return all resources held by an accepted request.

        Raises :class:`~repro.exceptions.ConfigurationError` when the id is
        not active (transports translate that into a structured reply).
        """
        self.ledger.release(request_id)
        self._repair.forget(request_id)
        self.counters["departed"] += 1
        if self._wal is not None:
            self._wal_append(wal_records.RELEASE, wal_records.release_payload(request_id))

    def migrate(self, request_id: int, result: EmbeddingResult) -> Migration:
        """Atomically swap an active request onto a re-planned embedding.

        The rebalancer plans moves against a point-in-time residual view;
        by apply time the substrate may have changed, so this transaction
        re-validates through the ledger's all-or-nothing reserve:
        release-old + reserve-new happen as one effect, and a capacity
        conflict re-reserves the just-freed old reservation (guaranteed to
        fit) and reports ``capacity_conflict`` — the ledger is never left
        between states. Applied moves log one fingerprint-chained
        ``migrate`` WAL record; rolled-back conflicts mutate nothing and
        log nothing.
        """
        if not self.ledger.is_active(request_id):
            # The request departed between plan and apply.
            return Migration(
                request_id=request_id,
                applied=False,
                old_cost=0.0,
                new_cost=0.0,
                code="departed",
                reason=f"request {request_id} no longer holds resources",
            )
        tracked = self._repair.tracked(request_id)
        if (
            not result.success
            or result.cost is None
            or result.embedding is None
            or tracked is None
        ):
            return Migration(
                request_id=request_id,
                applied=False,
                old_cost=tracked.cost if tracked is not None else 0.0,
                new_cost=0.0,
                code="no_solution",
                reason=result.reason or "planned move carries no embedding",
            )
        if tracked.constraints:
            # The move must keep honoring the rules the request was admitted
            # under; a plan that drifted out of bounds is refused pre-apply.
            violation = tracked.constraints.check(
                self.view(), result.embedding, tracked.flow
            )
            if violation is not None:
                return Migration(
                    request_id=request_id,
                    applied=False,
                    old_cost=tracked.cost,
                    new_cost=result.total_cost,
                    code="constraint_violation",
                    reason=f"{violation.constraint}: {violation}",
                )
        old = self.ledger.release(request_id)
        replacement = Reservation.from_counts(
            result.cost.alpha_vnf,
            result.cost.alpha_link,
            rate=tracked.flow.rate,
            cost=result.total_cost,
        )
        try:
            self.ledger.reserve(request_id, replacement)
        except CapacityError as exc:
            # Conflict with state committed since the plan's view: restore
            # the old reservation — it just vacated these exact resources,
            # so re-reserving it cannot fail.
            self.ledger.reserve(request_id, old)
            self.rebalance_counters["migrations_conflicted"] += 1
            return Migration(
                request_id=request_id,
                applied=False,
                old_cost=old.cost,
                new_cost=result.total_cost,
                code="capacity_conflict",
                reason=str(exc),
            )
        self._repair.track(
            request_id,
            result.embedding,
            tracked.flow,
            result.total_cost,
            constraints=tracked.constraints,
        )
        self.rebalance_counters["migrations_applied"] += 1
        self.rebalance_counters["cost_recovered"] += old.cost - result.total_cost
        if self._wal is not None:
            self._wal_append(
                wal_records.MIGRATE,
                wal_records.migrate_payload(
                    request_id=request_id,
                    old_cost=old.cost,
                    new_cost=result.total_cost,
                    flow=tracked.flow,
                    reservation=replacement,
                    embedding=result.embedding,
                    constraints=tracked.constraints,
                ),
            )
        return Migration(
            request_id=request_id,
            applied=True,
            old_cost=old.cost,
            new_cost=result.total_cost,
        )

    # -- faults ---------------------------------------------------------------------

    def apply_fault(
        self,
        event: FaultEvent,
        rng: RngStream = None,
        *,
        auto_seed: bool = False,
    ) -> list[RepairOutcome]:
        """Fold one fault event in, repairing every affected embedding.

        Failures immediately run the reroute → re-embed → evict ladder over
        the affected requests; recoveries just restore visibility (a later
        arrival sees the element again). With ``auto_seed`` the repair
        solves draw from the engine's own chaos stream (one seed per
        effective failure); otherwise ``rng`` is used verbatim.
        """
        changed = self._repair.faults.apply(event)
        if event.action is FaultAction.RECOVER:
            if changed:
                self.counters["recoveries"] += 1
                if self._wal is not None:
                    self._wal_append(
                        wal_records.FAULT,
                        wal_records.fault_payload(event, auto_seed=False),
                    )
            return []
        if not changed:
            return []
        self.counters["faults_injected"] += 1
        if auto_seed:
            rng = trial_seed(self.seed, self._fault_counter, salt=_CHAOS_SEED_SALT)
            self._fault_counter += 1
        if self._wal is not None:
            # Only *effective* events are logged (no-op events mutate nothing),
            # with the auto_seed flag so replay advances the chaos stream too.
            self._wal_append(
                wal_records.FAULT, wal_records.fault_payload(event, auto_seed=auto_seed)
            )
        outcomes = self._repair.repair_affected(rng=rng)
        for outcome in outcomes:
            self._account_repair(outcome)
            self._log_repair(outcome)
        return outcomes

    # -- write-ahead log --------------------------------------------------------------

    @property
    def wal(self) -> WalWriter | None:
        """The attached write-ahead log writer, if any."""
        return self._wal

    @property
    def wal_applied_seq(self) -> int:
        """Last WAL sequence number this engine's state reflects."""
        return self._applied_wal_seq

    def ledger_fingerprint(self) -> str:
        """SHA-256 of the canonical ledger state (the recovery oracle)."""
        return wal_records.ledger_fingerprint(self.ledger)

    def attach_wal(self, writer: WalWriter) -> None:
        """Start logging lifecycle events through ``writer``.

        The writer must describe *this* engine (header fingerprint) and be
        positioned exactly at the state the engine already reflects — a
        fresh log for a fresh engine, or a resumed log whose records were
        replayed into this engine (``restore`` with ``wal_path``).
        """
        if self._wal is not None:
            raise ConfigurationError("engine already has a WAL attached")
        wal_records.check_header(writer.header, network_fingerprint=self.fingerprint)
        if writer.seq != self._applied_wal_seq:
            raise WalError(
                f"WAL {writer.path!r} is at seq {writer.seq} but the engine "
                f"reflects seq {self._applied_wal_seq}; restore with its "
                "wal_path (serve --resume --wal) before attaching"
            )
        self._wal = writer

    def attach_wal_file(
        self, path: str, *, network_id: str | None = None
    ) -> WalWriter:
        """Create-or-resume the log at ``path`` and attach it (blocking IO)."""
        header = None
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            header = wal_records.header_payload(
                network_fingerprint=self.fingerprint,
                solver=self.solver_name,
                seed=self.seed,
                network_id=network_id,
            )
        writer = WalWriter(path, header=header)
        try:
            self.attach_wal(writer)
        except Exception:
            writer.close()
            raise
        return writer

    def detach_wal(self) -> None:
        """Stop logging; syncs and closes the writer (blocking IO)."""
        if self._wal is not None:
            self._wal.sync()
            self._wal.close()
            self._wal = None

    def abandon_wal(self) -> None:
        """Drop the writer without syncing (this engine lost a fail-over).

        The promoted successor owns the log now; any unsynced buffer here
        was never acknowledged and is discarded, not flushed.
        """
        if self._wal is not None:
            self._wal.abandon()
            self._wal = None

    def wal_position(self) -> dict[str, Any] | None:
        """The durable log position (``{"seq", "chain"}``), syncing first.

        Snapshots embed this so restore replays only the suffix; syncing
        here guarantees a snapshot never claims a position whose records
        are not yet on disk.
        """
        if self._wal is None:
            return None
        self._wal.sync()
        return {"seq": self._wal.seq, "chain": self._wal.chain}

    def note_wal_position(self, seq: int) -> None:
        """Declare the log position this engine's state already reflects."""
        self._applied_wal_seq = max(self._applied_wal_seq, int(seq))

    def _wal_append(self, record_type: str, payload: dict[str, Any]) -> None:
        assert self._wal is not None
        self._applied_wal_seq = self._wal.append_record(record_type, payload)

    def _log_commit(
        self,
        request: EmbeddingRequest,
        decision: Decision,
        reservation: Reservation | None,
        embedding: Any,
    ) -> None:
        if self._wal is None:
            return
        self._wal_append(
            wal_records.COMMIT,
            wal_records.commit_payload(
                request_id=decision.request_id,
                msg_id=decision.msg_id,
                accepted=decision.accepted,
                decision_index=decision.decision_index,
                code=decision.code,
                reason=decision.reason,
                total_cost=decision.total_cost,
                vnf_cost=decision.vnf_cost,
                link_cost=decision.link_cost,
                commit_index=decision.commit_index,
                flow=request.flow,
                reservation=reservation,
                embedding=embedding,
                constraints=request.constraints,
            ),
        )

    def _log_repair(self, outcome: RepairOutcome) -> None:
        if self._wal is None:
            return
        reservation = embedding = flow = None
        constraints = None
        if outcome.survived:
            reservation = self.ledger.reservation(outcome.request_id)
            tracked = self._repair.tracked(outcome.request_id)
            if tracked is not None:
                embedding = tracked.embedding
                flow = tracked.flow
                constraints = tracked.constraints
        self._wal_append(
            wal_records.REPAIR,
            wal_records.repair_payload(
                outcome,
                reservation=reservation,
                embedding=embedding,
                flow=flow,
                constraints=constraints,
            ),
        )

    def apply_wal_record(self, record: WalRecord) -> None:
        """Re-apply one logged state transition (deterministic replay).

        Raises :class:`~repro.exceptions.WalError` when the record cannot
        be applied to the current state — the log and the starting state
        (snapshot) do not belong together.
        """
        payload = record.payload
        if record.type == wal_records.HEADER:
            wal_records.check_header(payload, network_fingerprint=self.fingerprint)
        elif record.type == wal_records.COMMIT:
            self._replay_commit(payload, record.seq)
        elif record.type == wal_records.RELEASE:
            self._replay_release(payload, record.seq)
        elif record.type == wal_records.FAULT:
            self._replay_fault(payload, record.seq)
        elif record.type == wal_records.REPAIR:
            self._replay_repair(payload, record.seq)
        elif record.type == wal_records.MIGRATE:
            self._replay_migrate(payload, record.seq)
        else:
            raise WalError(f"unknown WAL record type {record.type!r} at seq {record.seq}")
        self._applied_wal_seq = record.seq

    def _replay_commit(self, payload: Mapping[str, Any], seq: int) -> None:
        self._decision_counter = int(payload["decision_index"]) + 1
        self.counters["dispatched"] += 1
        if not payload["accepted"]:
            if payload.get("code") == "capacity_conflict":
                self.counters["rejected_conflict"] += 1
            else:
                self.counters["rejected_no_solution"] += 1
            return
        if payload["reservation"] is None:
            raise WalError(f"accepted commit at seq {seq} carries no reservation")
        request_id = int(payload["request_id"])
        reservation = wal_records.reservation_from_payload(payload["reservation"])
        try:
            self.ledger.reserve(request_id, reservation)
        except (CapacityError, LedgerError) as exc:
            raise WalError(f"replaying commit at seq {seq} diverged: {exc}") from exc
        if payload["embedding"] is not None:
            self._repair.track(
                request_id,
                wal_records.embedding_from_payload(payload["embedding"]),
                wal_records.flow_from_payload(payload["flow"]),
                float(payload["total_cost"]),
                constraints=wal_records.constraints_from_payload(payload),
            )
        self.counters["accepted"] += 1
        self.counters["total_cost_accepted"] += float(payload["total_cost"])

    def _replay_release(self, payload: Mapping[str, Any], seq: int) -> None:
        request_id = int(payload["request_id"])
        try:
            self.ledger.release(request_id)
        except LedgerError as exc:
            raise WalError(f"replaying release at seq {seq} diverged: {exc}") from exc
        self._repair.forget(request_id)
        self.counters["departed"] += 1

    def _replay_fault(self, payload: Mapping[str, Any], seq: int) -> None:
        event = wal_records.fault_event_from_payload(payload)
        changed = self._repair.faults.apply(event)
        if not changed:
            raise WalError(f"fault record at seq {seq} had no effect on replay")
        if event.action is FaultAction.RECOVER:
            self.counters["recoveries"] += 1
            return
        self.counters["faults_injected"] += 1
        if bool(payload.get("auto_seed")):
            self._fault_counter += 1

    def _replay_repair(self, payload: Mapping[str, Any], seq: int) -> None:
        outcome = wal_records.repair_outcome_from_payload(payload)
        try:
            self.ledger.release(outcome.request_id)
        except LedgerError as exc:
            raise WalError(f"replaying repair at seq {seq} diverged: {exc}") from exc
        self._repair.forget(outcome.request_id)
        if payload["reservation"] is not None:
            reservation = wal_records.reservation_from_payload(payload["reservation"])
            try:
                self.ledger.reserve(outcome.request_id, reservation)
            except (CapacityError, LedgerError) as exc:
                raise WalError(
                    f"replaying repair at seq {seq} diverged: {exc}"
                ) from exc
            if payload["embedding"] is not None and payload["flow"] is not None:
                self._repair.track(
                    outcome.request_id,
                    wal_records.embedding_from_payload(payload["embedding"]),
                    wal_records.flow_from_payload(payload["flow"]),
                    outcome.new_cost,
                    constraints=wal_records.constraints_from_payload(payload),
                )
        self._account_repair(outcome)

    def _replay_migrate(self, payload: Mapping[str, Any], seq: int) -> None:
        # Only *applied* moves are logged, so replay is unconditional:
        # atomic release-old + reserve-new on the same id, like live apply.
        try:
            request_id = int(payload["request_id"])
            old_cost = float(payload["old_cost"])
            new_cost = float(payload["new_cost"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WalError(f"malformed migrate record at seq {seq}: {exc}") from None
        try:
            self.ledger.release(request_id)
        except LedgerError as exc:
            raise WalError(f"replaying migrate at seq {seq} diverged: {exc}") from exc
        reservation = wal_records.reservation_from_payload(payload["reservation"])
        try:
            self.ledger.reserve(request_id, reservation)
        except (CapacityError, LedgerError) as exc:
            raise WalError(f"replaying migrate at seq {seq} diverged: {exc}") from exc
        self._repair.track(
            request_id,
            wal_records.embedding_from_payload(payload["embedding"]),
            wal_records.flow_from_payload(payload["flow"]),
            new_cost,
            constraints=wal_records.constraints_from_payload(payload),
        )
        self.rebalance_counters["migrations_applied"] += 1
        self.rebalance_counters["cost_recovered"] += old_cost - new_cost

    def replay_wal(self, path: str, *, after_seq: int = 0) -> int:
        """Replay every record past ``after_seq`` from the log at ``path``.

        Returns the number of records applied. The log's header is always
        identity-checked; a torn tail is tolerated (those records were
        never acknowledged).
        """
        scan = read_wal(path)
        if not scan.records:
            return 0
        wal_records.check_header(
            scan.records[0].payload, network_fingerprint=self.fingerprint
        )
        last_seq = scan.records[-1].seq
        if last_seq < after_seq:
            raise WalError(
                f"snapshot reflects WAL seq {after_seq} but {path!r} ends at "
                f"{last_seq}"
            )
        applied = 0
        for record in scan.records[1:]:
            if record.seq <= after_seq:
                continue
            self.apply_wal_record(record)
            applied += 1
        self._applied_wal_seq = max(self._applied_wal_seq, last_seq)
        return applied

    def _account_repair(self, outcome: RepairOutcome) -> None:
        if outcome.action is RepairAction.REROUTED:
            self.counters["repairs_rerouted"] += 1
            self.counters["repair_cost_delta"] += outcome.cost_delta
        elif outcome.action is RepairAction.RE_EMBEDDED:
            self.counters["repairs_reembedded"] += 1
            self.counters["repair_cost_delta"] += outcome.cost_delta
        else:
            self.counters["evictions"] += 1
        self._repair_times.append(outcome.duration)

    # -- telemetry and durability ------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The engine-level stats body (counters + live gauges)."""
        accepted = self.counters["accepted"]
        dispatched = self.counters["dispatched"]
        dead_nodes, dead_links, dead_instances = self._repair.faults.dead_sets()
        times = sorted(self._repair_times)
        return {
            "counters": {key: self.counters[key] for key in ENGINE_COUNTER_KEYS},
            "acceptance_ratio": accepted / dispatched if dispatched else 1.0,
            "active": len(self.ledger),
            "rebalance": {
                key: self.rebalance_counters[key] for key in REBALANCE_COUNTER_KEYS
            },
            "faults": {
                "degraded": self.degraded,
                "dead_nodes": len(dead_nodes),
                "dead_links": len(dead_links),
                "dead_instances": len(dead_instances),
                "tracked_embeddings": self._repair.tracked_count(),
                "repair_time_s": (
                    {
                        "p50": percentile(times, 0.50),
                        "p95": percentile(times, 0.95),
                        "max": times[-1],
                    }
                    if times
                    else None
                ),
            },
        }

    def drain(self) -> dict[str, Any]:
        """Final engine stats (the engine has no queue of its own to flush)."""
        return self.stats()

    def snapshot_doc(
        self, *, extra_counters: Mapping[str, float] | None = None
    ) -> dict[str, Any]:
        """The versioned snapshot document (engine + transport counters)."""
        counters: dict[str, float] = dict(extra_counters or {})
        counters.update(self.counters)
        return state_store.snapshot_to_dict(
            self.ledger, counters=counters, wal=self.wal_position()
        )

    def save_snapshot(
        self, path: str, *, extra_counters: Mapping[str, float] | None = None
    ) -> None:
        """Atomically persist the snapshot document to ``path``.

        With a WAL attached the document embeds the (synced) log position,
        so a later restore replays only records past the snapshot.
        """
        counters: dict[str, float] = dict(extra_counters or {})
        counters.update(self.counters)
        state_store.save_snapshot(
            path, self.ledger, counters=counters, wal=self.wal_position()
        )

    @classmethod
    def restore(
        cls,
        network: CloudNetwork,
        solver: Embedder | str,
        path: str | None,
        *,
        seed: int = 0,
        wal_path: str | None = None,
    ) -> tuple["EmbeddingEngine", dict[str, float]]:
        """Rebuild an engine from a snapshot and/or a write-ahead log.

        Recovery = latest snapshot + deterministic log replay: the snapshot
        (if any) seeds the state and names the log position it reflects;
        every log record past that position is then re-applied. ``path``
        may be None (or name a not-yet-written file when ``wal_path`` is
        given) for WAL-only recovery from a fresh engine.

        Returns the engine plus the leftover (transport-level) counters the
        snapshot carried, so a server can rehydrate its shed statistics.
        """
        counters: dict[str, float] = {}
        after_seq = 0
        have_snapshot = path is not None and (
            wal_path is None or os.path.exists(path)
        )
        if have_snapshot:
            assert path is not None
            doc = state_store.read_document(path)
            ledger, counters = state_store.ledger_from_dict(doc, network)
            after_seq = state_store.wal_position_of(doc)
            engine = cls(network, solver, seed=seed, ledger=ledger, counters=counters)
        else:
            engine = cls(network, solver, seed=seed)
        engine.note_wal_position(after_seq)
        if (
            wal_path is not None
            and os.path.exists(wal_path)
            and os.path.getsize(wal_path) > 0
        ):
            engine.replay_wal(wal_path, after_seq=after_seq)
        leftover = {
            key: value for key, value in counters.items() if key not in engine.counters
        }
        return engine, leftover
