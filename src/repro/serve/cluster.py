"""Replica fleets: engines behind a request router on one global clock.

A fleet runs independent engine replicas — each its own
:class:`repro.serve.ServingEngine` over its own scheduler and (for the
paged policies) its own :class:`repro.serve.BlockManager` pool —
against one arrival stream.  A :class:`repro.serve.router.Router`
assigns every request to a replica at its arrival instant; one event
loop (``_Fleet._drive``) then interleaves the replicas' steps in global
time order through the engine's external-clock API
(:meth:`~repro.serve.ServingEngine.start` / ``submit`` / ``step`` /
``advance_to`` / ``finish``).  :class:`ServingCluster` is the fixed
fleet; :class:`repro.serve.AutoscalingCluster` is the elastic one, the
same loop plus replica lifecycle events (boots and autoscaler ticks).

Each replica has a role:

* **unified** — serves requests end to end (prefill and decode), the
  iso-silicon baseline for router comparisons;
* **prefill** / **decode** — DistServe-style disaggregation
  (``mode="disaggregated"``): the first ``prefill_replicas`` replicas
  run prefill only (any scheduler policy, so paged prefix caches live
  here), the rest decode only.  When a prefill finishes, the
  sequence's KV migrates to a decode replica over the cluster
  ``interconnect``: the transfer of the context's KV bytes is charged
  as arrival delay on the decode side (one
  :class:`~repro.parallel.InterconnectConfig` link hop), and the decode
  replica admits the request with :attr:`Request.kv_ready` — full
  footprint reserved, no prefill compute.

Event-loop causality: a replica's step is committed once every arrival
up to the step's start has been routed, so router decisions at time
``t`` see each replica at its last step boundary — a lead/lag of less
than one step, the same bounded staleness a real async router works
under.  All tie-breaks are by replica index and any router randomness
is seeded, so fleet runs are deterministic functions of
``(trace, routers, replica construction)``.

Requests are re-instantiated per replica (`dataclasses.replace`), so
replicas fed from the same trace can never alias per-request state.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ..errors import ConfigError
from ..parallel.collective import DEFAULT_INTERCONNECT, InterconnectConfig
from .engine import ServingEngine
from .metrics import ClusterReport, CompletionStore
from .router import Router, make_router
from .scheduler import make_scheduler
from .trace import Request, offered_load_rps

__all__ = ["Replica", "ServingCluster", "make_cluster"]


@dataclass
class Replica:
    """One engine of a cluster or elastic fleet plus its routing-time view.

    On an elastic fleet ``state`` walks ``provisioning → active →
    draining → retired`` (warm initial replicas skip provisioning;
    scale-down may retire a booting replica directly).  The router only
    ever sees ``active`` replicas; a draining replica finishes its
    in-flight work and retires the moment its engine goes idle.  A fixed
    cluster's replicas stay ``active``.
    """

    index: int
    engine: ServingEngine
    role: str = "unified"  # "unified" | "prefill" | "decode"
    state: str = "active"
    #: When the scaler ordered this replica (on-time billing starts).
    spun_up_s: float = 0.0
    #: When it became routable (== spun_up_s for warm starts).
    ready_s: float = 0.0

    @property
    def outstanding_tokens(self) -> int:
        """KV-footprint-weighted work this replica still owes.

        The load signal the state-aware routers compare: every queued
        request counts its full footprint (``total_tokens``), every
        admitted sequence its footprint minus the tokens already
        generated — so a long-prompt decode still weighs its held
        context, not just its remaining outputs.  Works across both
        scheduler families (peak-reservation ``queue`` of requests vs
        the paged ``waiting``/``running``/``swapped`` state lists).

        Routers read this once or more per arrival, so both scheduler
        families maintain it incrementally (enqueue / generation /
        release) instead of walking their queues here; the conservation
        test suite pins the counter to the walked sum.
        """
        return self.engine.scheduler.outstanding_tokens


#: Minimum arrival span a per-replica rate is computed over.  A
#: sub-stream whose arrivals all share one timestamp (a single burst
#: routed to one replica) has no usable span; flooring it keeps the
#: stat finite instead of the inf that used to poison ClusterReport
#: balance rollups.
_MIN_SPAN_S = 1e-9


def _offered_rps(arrivals: list) -> float:
    """Offered rate of one replica's routed sub-stream (0 if < 2).

    Degenerate same-instant streams report ``len(arrivals)`` over the
    :data:`_MIN_SPAN_S` floor — enormous, as an instantaneous burst
    deserves, but finite.  Streams with a real span are unchanged.
    """
    if len(arrivals) < 2:
        return 0.0
    span = max(arrivals) - min(arrivals)
    if span < _MIN_SPAN_S:
        return len(arrivals) / _MIN_SPAN_S
    return (len(arrivals) - 1) / span


def _engine_factory(design, config, policy: str, max_batch: int,
                    kv_capacity_bytes: float | None, kvq_bits: int,
                    scheduler_kwargs: dict | None, seq_len_bucket: int,
                    **engine_kwargs) -> partial:
    """``build(replica_policy=policy)``: a fresh replica engine per call.

    Every engine gets its own scheduler (and, for the paged policies,
    its own block pool); ``scheduler_kwargs`` apply to ``policy``
    replicas only.  A partial, not a closure, so a fleet holding one
    still pickles.
    """
    scheduler_kwargs = dict(scheduler_kwargs or {})
    if "block_manager" in scheduler_kwargs:
        raise ConfigError(
            "pass kv_capacity_bytes, not a block_manager: a shared pool "
            "instance would alias KV state across replicas")
    return partial(_new_engine, design, config, policy, max_batch,
                   kv_capacity_bytes, kvq_bits, scheduler_kwargs,
                   seq_len_bucket, engine_kwargs)


def _new_engine(design, config, policy, max_batch, kv_capacity_bytes,
                kvq_bits, scheduler_kwargs, seq_len_bucket, engine_kwargs,
                replica_policy: str | None = None) -> ServingEngine:
    replica_policy = replica_policy or policy
    kwargs = scheduler_kwargs if replica_policy == policy else {}
    scheduler = make_scheduler(replica_policy, config, max_batch=max_batch,
                               kv_capacity_bytes=kv_capacity_bytes,
                               kvq_bits=kvq_bits, **kwargs)
    return ServingEngine(design, config, scheduler, kvq_bits=kvq_bits,
                         seq_len_bucket=seq_len_bucket, **engine_kwargs)


def _prologue(trace: list[Request]) -> tuple:
    """``(pending, times)``: the trace in arrival order, checked before
    any replica steps, and its arrival times."""
    if not trace:
        raise ConfigError("empty trace")
    pending = sorted(trace, key=lambda r: (r.arrival_s, r.req_id))
    if len({r.req_id for r in pending}) != len(pending):
        raise ConfigError("trace has duplicate req_ids; cluster "
                          "completion merging needs unique ids")
    for request in pending:
        if request.kv_ready:
            raise ConfigError(
                f"request {request.req_id} sets kv_ready; that flag "
                f"is cluster-internal (set on KV migration)")
    return pending, np.fromiter((r.arrival_s for r in pending),
                                dtype=np.float64, count=len(pending))


def _epilogue(reports: list, pending: list,
              completions: CompletionStore | None = None
              ) -> CompletionStore:
    """Close a run: each replica report's offered rate, then the
    fleet-level rows (``reports`` joined unless ``completions`` is
    given), checked against the trace."""
    for report in reports:  # Every routed request completed there.
        report.offered_rps = _offered_rps(
            report.completions["arrival_s"].tolist())
    if completions is None:
        completions = CompletionStore.joined(
            [report.completions for report in reports]).ordered()
    if len(completions) != len(pending):
        raise ConfigError(
            f"completed {len(completions)} of {len(pending)} requests; "
            f"completion merging lost records")
    return completions


class _Fleet:
    """The event loop every replica fleet runs, fixed or elastic.

    A fleet is a list of :class:`Replica` behind an arrival router.  Its
    events are arrival cohorts, KV migrations, boot-ready instants and
    autoscaler ticks; between two events the earliest busy replica
    steps.  Replica roles shape the events: a ``prefill`` replica's
    completions spawn migrations onto ``decode`` replicas (routed by
    ``decode_router``), and a decode replica leaps no further than the
    earliest busy prefill clock (:meth:`_leap_horizon`).  A fixed
    cluster is the case without scaler events: it never ticks, nothing
    boots and no replica drains.  :class:`repro.serve.AutoscalingCluster`
    adds the lifecycle behind those events (``_activate``,
    ``_retire``, ``_decide``).

    Subclasses set ``replicas`` and ``router``; a fleet with
    prefill/decode roles also sets ``decode_router``, ``config`` and
    ``interconnect``.
    """

    #: Autoscaler decision cadence; a fixed fleet never ticks.
    tick_s = math.inf

    # -- views -----------------------------------------------------------
    def _routable(self) -> list:
        """Replicas taking trace arrivals: active, not decode-only."""
        return [rep for rep in self.replicas
                if rep.state == "active" and rep.role != "decode"]

    def _decode_targets(self) -> list:
        return [r for r in self.replicas if r.role == "decode"]

    # -- validation ------------------------------------------------------
    @staticmethod
    def _distinct_schedulers(replicas: list) -> list:
        """One scheduler per admission-equivalent class.

        ``admission_error`` is a pure function of the scheduler's
        construction parameters (model, capacity, quantization, block
        geometry), so identical replicas — the common case — need one
        trace check instead of N.
        """
        probes: dict = {}
        for rep in replicas:
            scheduler = rep.engine.scheduler
            manager = getattr(scheduler, "block_manager", None)
            key = (type(scheduler), scheduler.config,
                   scheduler.kv_capacity_bytes, scheduler.kvq_bits,
                   None if manager is None
                   else (manager.num_blocks, manager.block_size))
            probes.setdefault(key, scheduler)
        return list(probes.values())

    def _validate(self, pending: list) -> None:
        """Whole-trace admission check before simulating anything.

        Each role sees the requests it will serve: a unified replica
        the trace itself, a prefill replica the one-token prefill half,
        a decode replica the migrated half of every request with more
        than one output token.
        """
        for role in dict.fromkeys(rep.role for rep in self.replicas):
            if role == "unified":
                probes = pending
            elif role == "prefill":
                probes = [replace(r, output_len=1) for r in pending]
            else:
                probes = [self._decode_request(r, arrival_s=0.0)
                          for r in pending if r.output_len > 1]
            for scheduler in self._distinct_schedulers(
                    [rep for rep in self.replicas if rep.role == role]):
                error = scheduler.trace_error(probes)
                if error:
                    raise ConfigError(f"unservable trace: {error}")

    # -- disaggregation --------------------------------------------------
    def _decode_request(self, origin: Request,
                        arrival_s: float) -> Request:
        """The decode-side half of a migrated request.

        The prefill replica produced the first token, so the decode
        replica sees a context of ``prompt_len + 1`` tokens already
        materialized (``kv_ready``) and ``output_len - 1`` tokens left
        to generate; the total KV footprint is unchanged.  The prefix
        group is dropped — migrated KV arrives whole, nothing is left
        for a prefix cache to serve.
        """
        return replace(origin, arrival_s=arrival_s,
                       prompt_len=origin.prompt_len + 1,
                       output_len=origin.output_len - 1,
                       prefix_group=None, prefix_len=0, kv_ready=True)

    def _transfer(self, origin: Request, kvq_bits: int) -> tuple:
        """(bytes, seconds) of one KV migration over the interconnect."""
        moved = self.config.kv_cache_bytes(
            seq_len=origin.prompt_len + 1, batch=1, bits=kvq_bits)
        seconds = moved / self.interconnect.link_bandwidth_bytes \
            + self.interconnect.link_latency_s
        return moved, seconds

    def _leap_horizon(self, next_event: float) -> float:
        """How far a decode replica's step may safely leap.

        Unified and prefill replicas only ever receive trace arrivals,
        all of which are known, so the next pending event bounds them.
        A decode replica additionally receives KV migrations that do
        not exist yet: a prefill completion at time ``f`` enqueues a
        migration arriving strictly after ``f``, and ``f`` can be no
        earlier than that replica's current clock — so the earliest
        busy prefill clock also bounds the horizon.

        The prefill-clock minimum is cached (``_prefill_min``,
        invalidated whenever a prefill replica steps, advances, or
        takes a route) instead of rescanning the fleet for every decode
        step.
        """
        bound = self._prefill_min
        if bound is None:
            bound = math.inf
            for other in self.replicas:
                if other.role == "prefill" and other.engine.has_work() \
                        and other.engine.now < bound:
                    bound = other.engine.now
            self._prefill_min = bound
        return bound if bound < next_event else next_event

    def _spawn_migrations(self, rep: Replica) -> None:
        """Spawn the KV migrations of a prefill replica's new completions.

        Runs after every prefill-replica step, since a migration must
        exist before the event loop continues.  The cluster-level rows
        are stitched by column at teardown (:meth:`_stitch`).
        """
        store = rep.engine.report.completions
        seen = self._seen.get(rep.index, 0)
        self._seen[rep.index] = len(store)
        for half, finish in zip(store.requests[seen:],
                                store["finish_s"][seen:].tolist()):
            # Entries live from routing until the prefill half drains —
            # popping here (rather than never) is what keeps a
            # million-request disaggregated run's memory flat.
            origin = self._origins.pop(half.req_id)
            if origin.output_len == 1:
                continue  # Nothing left to decode: done at prefill.
            moved, seconds = self._transfer(origin, rep.engine.kvq_bits)
            self._n_migrations += 1
            self._transfer_bytes += moved
            self._transfer_seconds += seconds
            sub = self._decode_request(origin, arrival_s=finish + seconds)
            # Tie-break by req_id, not push order: leaping can reorder
            # which replica drains first, and the heap order must not
            # depend on that.
            heapq.heappush(self._migrations, (sub.arrival_s, sub.req_id, sub))

    # -- the event loop --------------------------------------------------
    def _reset(self) -> None:
        """Forget the previous run's routing and event state."""
        self.router.reset()
        #: Migration heap of (arrival_s, req_id, Request).
        self._migrations: list = []
        self._origins: dict[int, Request] = {}
        self._seen: dict[int, int] = {}
        self._n_migrations = 0
        self._transfer_bytes = 0.0
        self._transfer_seconds = 0.0
        self._prefill_min: float | None = None
        #: Replicas mid cold start, and the earliest of their ready times.
        self._booting: list = []
        self._ready_t = math.inf

    def _submit(self, rep: Replica, request: Request, heap: list) -> None:
        """Hand ``request`` to ``rep`` at its arrival instant.

        A replica the request wakes joins the clock heap.  A busy one
        is already in it, and its clock is at or past the instant of
        every event the loop handles, so the clock entry stays exact.
        """
        engine = rep.engine
        woke = not engine.has_work()
        engine.advance_to(request.arrival_s)
        engine.submit(request)
        if rep.role == "prefill":
            self._prefill_min = None
        if woke:
            heapq.heappush(heap, (engine.now, rep.index))

    def _drive(self, pending: list, times: np.ndarray) -> None:
        """Serve ``pending`` (arrival ``times``) to the end of the run.

        Steps commit in global clock order: a ``(clock, index)``
        min-heap holding one entry per busy replica picks the earliest
        one (lowest index first on ties), which steps — leaping up to
        the next event, which is causal because every later submission
        to it happens at an event — until an event comes first.  Events
        at one instant fire boot-ready, then arrival, then migration,
        then tick.  Each arrival cohort (every arrival no later than the
        earliest busy clock, the next migration and the next tick, and
        before the next boot) routes through one batched
        :meth:`Router.select_batch`; a replica a cohort wakes can end it
        early.  Event order — and so every report field — is that of a
        one-event-at-a-time scan of the fleet (pinned by
        ``tests/data/cluster_identity.json``).
        """
        replicas = self.replicas
        migrations = self._migrations
        heappush, heappop = heapq.heappush, heapq.heappop
        inf = math.inf
        heap: list = []   # (engine clock, replica index) per busy replica.
        idx = 0
        n_pending = len(pending)
        next_tick = self.tick_s
        while True:
            arrival_t = float(times[idx]) if idx < n_pending else inf
            ready_t = self._ready_t
            next_event = min(arrival_t, migrations[0][0] if migrations
                             else inf, ready_t, next_tick)
            # Steps: the earliest busy replica goes while it precedes
            # every event (a prefill step may spawn an earlier one).
            while heap and heap[0][0] < next_event:
                worker = replicas[heappop(heap)[1]]
                engine = worker.engine
                role = worker.role
                if role == "prefill":
                    self._prefill_min = None
                if engine.step(horizon=self._leap_horizon(next_event)
                               if role == "decode" else next_event):
                    if engine.has_work():
                        heappush(heap, (engine.now, worker.index))
                    elif worker.state == "draining":  # Elastic only.
                        self._retire(worker, engine.now)
                    if role == "prefill":
                        self._spawn_migrations(worker)
                        if migrations and migrations[0][0] < next_event:
                            next_event = migrations[0][0]
                elif next_event == inf:
                    raise ConfigError(
                        f"replica {worker.index} "
                        f"({engine.scheduler.name}) stalled with "
                        f"work queued but nothing planned")
                else:
                    engine.advance_to(next_event)
                    heappush(heap, (engine.now, worker.index))
            if next_event == inf:
                break
            migration_t = migrations[0][0] if migrations else inf
            if ready_t == next_event:
                for rep in list(self._booting):
                    if rep.ready_s <= ready_t:
                        self._activate(rep, ready_t)
            elif arrival_t == next_event:
                bound = min(heap[0][0] if heap else inf, migration_t,
                            next_tick)
                upto = n_pending if bound == inf else \
                    int(np.searchsorted(times, bound, side="right"))
                if ready_t < inf:
                    upto = min(upto, int(np.searchsorted(
                        times, ready_t, side="left")))

                def commit(request: Request, rep: Replica) -> bool:
                    nonlocal idx, bound
                    if rep.role == "prefill":
                        self._origins[request.req_id] = request
                        sub = replace(request, output_len=1)
                    else:
                        # Re-instantiated per replica: replicas fed from
                        # one trace never alias per-request state.
                        sub = replace(request)
                    self._submit(rep, sub, heap)
                    idx += 1
                    now = rep.engine.now
                    if now < bound:
                        bound = now
                    return idx < upto and times[idx] <= bound

                self.router.select_batch(pending[idx:upto],
                                         self._routable(), commit)
            elif migration_t == next_event:
                _, _, sub = heappop(migrations)
                self._submit(self.decode_router.select(
                    sub, self._decode_targets()), sub, heap)
            elif idx < n_pending or heap or self._booting:
                self._decide(next_tick, idx)
                next_tick += self.tick_s
            else:
                # Nothing can arrive or run again: stop ticking rather
                # than scale an empty fleet forever.
                break


class ServingCluster(_Fleet):
    """N engine replicas behind a router, on one global clock.

    Parameters
    ----------
    engines:
        One :class:`ServingEngine` per replica, all serving the same
        model (designs may differ — e.g. mixed single-chip and
        :class:`repro.parallel.ShardedSystem` replicas).
    router:
        :class:`~repro.serve.router.Router` name or instance assigning
        arrivals (to prefill replicas in disaggregated mode).
    mode:
        ``"unified"`` or ``"disaggregated"``.
    prefill_replicas:
        Disaggregated mode: how many leading replicas are dedicated to
        prefill (default half, at least one of each role).
    decode_router:
        Router for KV migrations onto decode replicas (disaggregated
        mode only; prefix affinity is meaningless there, so the default
        is least-outstanding).
    interconnect:
        Link the migrated KV crosses; one hop of the context's KV bytes
        is charged per migration.
    """

    def __init__(self, engines: list, router: Router | str = "round-robin",
                 mode: str = "unified", prefill_replicas: int | None = None,
                 decode_router: Router | str = "least-outstanding",
                 interconnect: InterconnectConfig = DEFAULT_INTERCONNECT,
                 name: str | None = None):
        if not engines:
            raise ConfigError("a cluster needs at least one engine")
        if mode not in ("unified", "disaggregated"):
            raise ConfigError(f"unknown cluster mode {mode!r}; choose "
                              f"'unified' or 'disaggregated'")
        self.config = engines[0].config
        for engine in engines:
            if engine.config != self.config:
                raise ConfigError(
                    f"replica serves {engine.config.name}, cluster serves "
                    f"{self.config.name}; all replicas must share a model")
        self.mode = mode
        self.interconnect = interconnect
        self.router = make_router(router)
        self.decode_router = make_router(decode_router)
        n = len(engines)
        if mode == "unified":
            if prefill_replicas is not None:
                raise ConfigError("prefill_replicas only applies to "
                                  "disaggregated clusters")
            roles = ["unified"] * n
        else:
            if n < 2:
                raise ConfigError("disaggregation needs >= 2 replicas")
            if prefill_replicas is None:
                prefill_replicas = max(1, n // 2)
            if not 1 <= prefill_replicas <= n - 1:
                raise ConfigError(
                    f"need 1 <= prefill_replicas <= {n - 1}, got "
                    f"{prefill_replicas}")
            roles = ["prefill"] * prefill_replicas + \
                ["decode"] * (n - prefill_replicas)
            for engine, role in zip(engines, roles):
                if role == "decode" and \
                        not engine.scheduler.supports_kv_ready:
                    raise ConfigError(
                        f"decode replicas admit migrated KV directly, "
                        f"which the {engine.scheduler.name} scheduler "
                        f"cannot represent; use a peak-reservation "
                        f"policy for decode replicas")
        self.replicas = [Replica(index=i, engine=engine, role=role)
                         for i, (engine, role) in
                         enumerate(zip(engines, roles))]
        designs = {getattr(e.design, "name", type(e.design).__name__)
                   for e in engines}
        self.name = name if name is not None else \
            f"{n}x {designs.pop() if len(designs) == 1 else 'mixed'}"

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    def _stitch(self, reports: list, pending: list) -> CompletionStore:
        """Cluster-level rows of a disaggregated run, by column.

        Every request has one prefill-half row (arrival, admission,
        first token); a migrated one takes its finish time from its
        decode half, joined by ``req_id``.  Rows name the original
        trace requests and their full output lengths.
        """
        pre, dec = (CompletionStore.joined(
            [report.completions for rep, report in zip(self.replicas, reports)
             if rep.role == role]) for role in ("prefill", "decode"))
        if len(dec) != self._n_migrations:
            raise ConfigError(
                f"{self._n_migrations - len(dec)} migrated requests never "
                f"completed decode; cluster bookkeeping is broken")
        order = np.argsort(pre["req_id"])
        at = order[np.searchsorted(pre["req_id"], dec["req_id"], sorter=order)]
        pre["finish_s"][at] = dec["finish_s"]
        pre["output_len"][at] = dec["output_len"] + 1
        origin = {q.req_id: q for q in pending}
        pre.requests = [origin[rid] for rid in pre["req_id"].tolist()]
        return pre.ordered()

    def run(self, trace: list[Request]) -> ClusterReport:
        """Serve a trace across the replicas; merge into one report."""
        pending, times = _prologue(trace)
        self._validate(pending)
        self._reset()
        self.decode_router.reset()
        for rep in self.replicas:
            rep.engine.start()

        self._drive(pending, times)

        makespan = max(rep.engine.now for rep in self.replicas)
        reports = [rep.engine.finish() for rep in self.replicas]
        stitched = None if self.mode == "unified" \
            else self._stitch(reports, pending)
        completions = _epilogue(reports, pending, stitched)
        return ClusterReport(
            design=self.name, router=self.router.name, mode=self.mode,
            replicas=reports, completions=completions, makespan_s=makespan,
            offered_rps=offered_load_rps(trace),
            routed=[report.completed for report in reports],
            migrations=self._n_migrations,
            kv_transfer_bytes=self._transfer_bytes,
            kv_transfer_seconds=self._transfer_seconds)


def make_cluster(design, config, n_replicas: int,
                 policy: str = "paged", router: Router | str = "round-robin",
                 mode: str = "unified", prefill_replicas: int | None = None,
                 decode_router: Router | str = "least-outstanding",
                 max_batch: int = 16,
                 kv_capacity_bytes: float | None = None, kvq_bits: int = 4,
                 scheduler_kwargs: dict | None = None,
                 interconnect: InterconnectConfig = DEFAULT_INTERCONNECT,
                 seq_len_bucket: int = 1, **engine_kwargs) -> ServingCluster:
    """N identical replicas of ``design`` behind a router.

    ``kv_capacity_bytes`` is the *per-replica* KV budget; every replica
    builds its own scheduler (and, for paged policies, its own block
    pool) from it.  In disaggregated mode the prefill replicas run
    ``policy`` while decode replicas run the peak-reservation
    ``continuous`` policy, which admits migrated (``kv_ready``) KV.

    ``make_cluster(make_design("mugi", 256), SERVE_MODEL, 4,
    router="prefix-affinity")``
    """
    if n_replicas < 1:
        raise ConfigError("n_replicas must be positive")
    build = _engine_factory(design, config, policy, max_batch,
                            kv_capacity_bytes, kvq_bits, scheduler_kwargs,
                            seq_len_bucket, **engine_kwargs)
    if mode == "disaggregated" and prefill_replicas is None:
        prefill_replicas = max(1, n_replicas // 2)
    engines = [build("continuous" if mode == "disaggregated"
                     and index >= prefill_replicas else policy)
               for index in range(n_replicas)]
    return ServingCluster(engines, router=router, mode=mode,
                          prefill_replicas=prefill_replicas,
                          decode_router=decode_router,
                          interconnect=interconnect)
