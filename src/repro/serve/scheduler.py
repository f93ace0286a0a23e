"""Batching policies for the serving engine.

Two schedulers share a strictly-FCFS admission queue with KV-capacity
admission control (a request reserves its *peak* KV footprint —
prompt + output tokens — at admission, so capacity can never be exceeded
mid-decode and no running sequence is ever preempted):

* :class:`StaticBatchScheduler` — admit up to ``max_batch`` requests,
  run the batch to completion, only then admit the next batch (the
  pre-Orca serving model; late joiners wait for the whole drain).
* :class:`ContinuousBatchScheduler` — admit at *every* step boundary
  while batch slots and KV capacity allow; newly admitted requests
  prefill in the same step the existing set decodes (prefill–decode
  interleaving, the Orca/vLLM-style iteration-level policy).

Admission is head-of-line: a queued request that does not fit blocks the
requests behind it, which is what makes FCFS starvation-free.

Per-sequence counters live in a :class:`repro.serve.soa.SequenceTable`;
:class:`SequenceState` is a view over one table row (same attribute
API as the old dataclass).  Both schedulers emit *slot plans* — a
``decode_slots`` index array instead of a list of state objects — so
the engine can commit a decode step with a few vectorized column ops.
``kv_ready`` admissions (cluster KV migrations) fall back to object
plans, which the engine still handles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..llm.config import ModelConfig
from .soa import PHASE_RUNNING, SequenceTable
from .trace import Request


def context_window_error(config: ModelConfig, request: Request
                         ) -> str | None:
    """Why ``request`` cannot fit ``config``'s context window, or None.

    Shared by every scheduler family's ``admission_error`` — the check
    is capacity-independent: prompt + output must fit ``max_seq_len``.
    """
    if request.total_tokens > config.max_seq_len:
        return (f"request {request.req_id} needs "
                f"{request.total_tokens} context tokens, over "
                f"{config.name}'s max_seq_len {config.max_seq_len}")
    return None


class SequenceState:
    """Mutable serving state of one admitted request.

    ``context_len`` is the KV depth used to lower the next decode step;
    ``generated`` counts emitted tokens (the prefill step emits the
    first).

    The counters live in a shared :class:`SequenceTable` row; this
    object is a view carrying ``(table, slot)``.  Standalone
    construction (tests, ad-hoc probes) gets a private one-row table.
    Identity semantics match the scheduler lists' usage: two views are
    equal only if they are the same object.
    """

    __slots__ = ("request", "table", "slot")

    def __init__(self, request: Request, admitted_s: float | None,
                 context_len: int = 0, generated: int = 0,
                 first_token_s: float | None = None, *,
                 table: SequenceTable | None = None):
        if table is None:
            table = SequenceTable(capacity=1)
        self.request = request
        self.table = table
        i = self.slot = table.alloc()
        table.req_id[i] = request.req_id
        table.prompt_len[i] = request.prompt_len
        table.output_len[i] = request.output_len
        table.arrival_s[i] = request.arrival_s
        table.tenant[i] = request.tenant
        table.context_len[i] = context_len
        table.generated[i] = generated
        table.admitted_s[i] = np.nan if admitted_s is None else admitted_s
        table.first_token_s[i] = (np.nan if first_token_s is None
                                  else first_token_s)
        table.phase[i] = PHASE_RUNNING

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(req_id={self.request.req_id}, "
                f"context_len={self.context_len}, "
                f"generated={self.generated})")

    @property
    def context_len(self) -> int:
        return int(self.table.context_len[self.slot])

    @context_len.setter
    def context_len(self, value: int) -> None:
        self.table.context_len[self.slot] = value

    @property
    def generated(self) -> int:
        return int(self.table.generated[self.slot])

    @generated.setter
    def generated(self, value: int) -> None:
        self.table.generated[self.slot] = value

    @property
    def admitted_s(self) -> float | None:
        value = self.table.admitted_s[self.slot]
        # NaN-as-None: NaN is the only float that is != itself.
        return None if value != value else float(value)

    @admitted_s.setter
    def admitted_s(self, value: float | None) -> None:
        self.table.admitted_s[self.slot] = np.nan if value is None else value

    @property
    def first_token_s(self) -> float | None:
        value = self.table.first_token_s[self.slot]
        return None if value != value else float(value)

    @first_token_s.setter
    def first_token_s(self, value: float | None) -> None:
        self.table.first_token_s[self.slot] = (np.nan if value is None
                                               else value)

    @property
    def phase(self) -> int:
        return int(self.table.phase[self.slot])

    @phase.setter
    def phase(self, value: int) -> None:
        self.table.phase[self.slot] = value

    @property
    def done(self) -> bool:
        return self.generated >= self.request.output_len


@dataclass
class StepPlan:
    """The active set of one engine step.

    ``prefill`` holds whole-prompt prefills (the PR 1 schedulers);
    ``chunks`` holds :class:`repro.serve.policy.ChunkTask` chunked
    prefill work (the paged schedulers); ``swap_seconds`` is host-link
    time this step spent moving preempted KV, added to the step clock.

    Decoders come in one of two forms.  Object plans list
    :class:`SequenceState` views in ``decode`` (paged schedulers and
    ``kv_ready`` admissions).  Slot plans instead carry
    ``decode_slots`` — table row indices, in running-list order — plus
    ``decode_index`` (positions within ``scheduler.running`` at plan
    time; admissions only ever append, so they stay valid through the
    step) and ``table``.  A ``decode_index`` of ``None`` on a slot plan
    means the identity mapping: every pre-admission running sequence
    decodes, so position *i* in ``decode_slots`` is ``running[i]`` —
    the common case, kept index-free to spare the per-step allocation.
    Exactly one of ``decode`` / ``decode_slots`` is populated.
    """

    prefill: list = field(default_factory=list)
    decode: list = field(default_factory=list)
    chunks: list = field(default_factory=list)
    swap_seconds: float = 0.0
    decode_slots: np.ndarray | None = None
    decode_index: np.ndarray | None = None
    table: SequenceTable | None = None

    @property
    def batch(self) -> int:
        n = len(self.prefill) + len(self.decode) + len(self.chunks)
        if self.decode_slots is not None:
            n += len(self.decode_slots)
        return n


class Scheduler:
    """FCFS queue + KV-capacity admission shared by both policies.

    Parameters
    ----------
    config:
        The served model (its GQA geometry sets per-token KV bytes).
    max_batch:
        Most sequences decoded together (array occupancy bound).
    kv_capacity_bytes:
        On-device KV budget; ``None`` disables the capacity check.
    kvq_bits:
        KV-cache quantization width (4 under KVQ).
    """

    name = "fcfs"
    #: Whether the policy can admit :attr:`Request.kv_ready` sequences
    #: (KV migrated in from a prefill replica) straight into decode.
    #: The paged schedulers cannot — their block tables only materialize
    #: through local chunk compute — and override this to False.
    supports_kv_ready = True

    def __init__(self, config: ModelConfig, max_batch: int = 16,
                 kv_capacity_bytes: float | None = None, kvq_bits: int = 4):
        if max_batch < 1:
            raise ConfigError("max_batch must be positive")
        if kv_capacity_bytes is not None and kv_capacity_bytes <= 0:
            raise ConfigError("kv_capacity_bytes must be positive")
        self.config = config
        self.max_batch = max_batch
        self.kv_capacity_bytes = kv_capacity_bytes
        self.kvq_bits = kvq_bits
        self.queue: deque[Request] = deque()
        self.running: list[SequenceState] = []
        self.table = SequenceTable(capacity=max(2 * max_batch, 16))
        #: Table rows of ``running``, same order; ``_slots_array``
        #: materializes it as an ndarray on demand.
        self._slots: list[int] = []
        self._slots_stale = True
        self._slots_arr = np.empty(0, dtype=np.int64)
        self.reserved_bytes = 0.0
        #: KV footprints are a pure function of total tokens; traces
        #: draw lengths from a handful of distributions, so memoizing by
        #: token count turns the per-request ``kv_cache_bytes`` call
        #: into a dict hit.
        self._footprints: dict[int, float] = {}
        #: KV-footprint-weighted work still owed: every queued request
        #: counts its full ``total_tokens``, every admitted sequence its
        #: total minus the tokens already generated.  Maintained
        #: incrementally (enqueue / per-step generation / release) so
        #: cluster routers read it in O(1) instead of walking the queue
        #: per arrival.
        self.outstanding_tokens = 0
        #: Ingest epoch: bumped by every enqueue so the engine can tell
        #: whether anything arrived between two of its steps.  A
        #: decode walk cut short by a *foreign* event (another
        #: replica's clock, a fleet tick) leaves the plan valid; the
        #: engine resumes it on the next step iff this counter is
        #: unchanged (:meth:`repro.serve.ServingEngine.step`).
        self.mutations = 0

    # -- KV accounting --------------------------------------------------
    def kv_bytes(self, tokens: int) -> float:
        """KV footprint of one sequence at ``tokens`` context."""
        return self.config.kv_cache_bytes(seq_len=tokens, batch=1,
                                          bits=self.kvq_bits)

    def _footprint_of(self, tokens: int) -> float:
        footprint = self._footprints.get(tokens)
        if footprint is None:
            footprint = self._footprints[tokens] = self.kv_bytes(tokens)
        return footprint

    def _footprint(self, request: Request) -> float:
        return self._footprint_of(request.total_tokens)

    def admission_error(self, request: Request) -> str | None:
        """Why this request can never be served, or None if it can be.

        The engine pre-validates whole traces with this before simulating
        so an unservable request fails fast, not mid-run.
        """
        error = context_window_error(self.config, request)
        if error:
            return error
        if self.kv_capacity_bytes is not None and \
                self._footprint(request) > self.kv_capacity_bytes:
            return (f"request {request.req_id} needs "
                    f"{self._footprint(request):.3g} KV bytes, over the "
                    f"{self.kv_capacity_bytes:.3g}-byte capacity")
        return None

    def trace_error(self, requests: list[Request]) -> str | None:
        """First reason any of ``requests`` can never be served, or None.

        Vectorized equivalent of calling :meth:`admission_error` on each
        request in order: both length checks are monotone in total
        tokens, so the whole batch reduces to array compares plus one
        footprint probe per *distinct* total.  The offending request is
        re-diagnosed object-wise so the message matches exactly.
        """
        if not requests:
            return None
        totals = np.fromiter((r.prompt_len + r.output_len
                              for r in requests),
                             dtype=np.int64, count=len(requests))
        return self._totals_error(requests, totals)

    def _totals_error(self, requests: list[Request],
                      totals: np.ndarray) -> str | None:
        bad = totals > self.config.max_seq_len
        if not bad.any() and self.kv_capacity_bytes is not None:
            over = [t for t in np.unique(totals).tolist()
                    if self._footprint_of(t) > self.kv_capacity_bytes]
            if over:
                bad = np.isin(totals, over)
        if bad.any():
            return self.admission_error(requests[int(bad.argmax())])
        return None

    def enqueue(self, request: Request) -> None:
        """Append to the FCFS queue (rejects requests that can never fit)."""
        error = self.admission_error(request)
        if error:
            raise ConfigError(error)
        self.queue.append(request)
        self.outstanding_tokens += request.total_tokens
        self.mutations += 1

    def enqueue_many(self, requests: list[Request]) -> None:
        """Bulk :meth:`enqueue` — one vectorized validation pass, one
        queue extend.  Equivalent to enqueueing one at a time."""
        if not requests:
            return
        totals = np.fromiter((r.prompt_len + r.output_len
                              for r in requests),
                             dtype=np.int64, count=len(requests))
        error = self._totals_error(requests, totals)
        if error:
            raise ConfigError(error)
        self.queue.extend(requests)
        self.outstanding_tokens += int(totals.sum())
        self.mutations += 1

    def _admit_head(self, now: float) -> SequenceState | None:
        """Admit the queue head if slots and KV capacity allow."""
        if not self.queue or len(self.running) >= self.max_batch:
            return None
        footprint = self._footprint(self.queue[0])
        if self.kv_capacity_bytes is not None and \
                self.reserved_bytes + footprint > self.kv_capacity_bytes:
            return None
        request = self.queue.popleft()
        self.reserved_bytes += footprint
        state = SequenceState(request=request, admitted_s=now,
                              context_len=request.prompt_len,
                              table=self.table)
        self.running.append(state)
        self._slots.append(state.slot)
        self._slots_stale = True
        return state

    def _admit_all(self, now: float) -> list[SequenceState]:
        """Admit queue heads until slots or KV capacity run out."""
        if not self.queue or len(self.running) >= self.max_batch:
            return []
        if self.kv_capacity_bytes is None:
            # Unbounded KV: only the slot count gates admission, so the
            # batch size is known up front and — past the point where
            # column writes beat scalar stores — the whole cohort lands
            # in bulk.
            queue = self.queue
            take = min(len(queue), self.max_batch - len(self.running))
            if take > 2:
                requests = [queue.popleft() for _ in range(take)]
                return self._admit_bulk(requests, now)
        admitted = []
        while True:
            state = self._admit_head(now)
            if state is None:
                return admitted
            admitted.append(state)

    def _admit_bulk(self, requests: list[Request],
                    now: float) -> list[SequenceState]:
        """Construct and enroll one admission cohort with column writes.

        Slots are allocated in queue order — the identical recycling
        sequence the head-by-head path produces — and every column the
        per-state constructor fills is filled here (fetch columns only
        *after* all allocs: an alloc may grow the table and replace the
        column arrays).
        """
        table = self.table
        new = SequenceState.__new__
        admitted = []
        slot_list = []
        for request in requests:
            state = new(SequenceState)
            state.request = request
            state.table = table
            state.slot = slot = table.alloc()
            slot_list.append(slot)
            admitted.append(state)
        ids = [r.req_id for r in requests]
        plens = [r.prompt_len for r in requests]
        olens = [r.output_len for r in requests]
        arrivals = [r.arrival_s for r in requests]
        # reserved_bytes advances with the same sequential float
        # additions the head-by-head loop performs.
        footprints = self._footprints
        reserved = self.reserved_bytes
        for prompt, output in zip(plens, olens):
            total = prompt + output
            footprint = footprints.get(total)
            if footprint is None:
                footprint = footprints[total] = self.kv_bytes(total)
            reserved += footprint
        self.reserved_bytes = reserved
        slots = np.asarray(slot_list, dtype=np.int64)
        table.req_id[slots] = ids
        table.prompt_len[slots] = plens
        table.output_len[slots] = olens
        table.arrival_s[slots] = arrivals
        table.tenant[slots] = [r.tenant for r in requests]
        table.context_len[slots] = plens
        table.generated[slots] = 0
        table.admitted_s[slots] = now
        table.first_token_s[slots] = np.nan
        table.phase[slots] = PHASE_RUNNING
        self.running.extend(admitted)
        self._slots.extend(slot_list)
        self._slots_stale = True
        return admitted

    def _slots_array(self) -> np.ndarray:
        """Table rows of the running set, in running-list order."""
        if self._slots_stale:
            self._slots_arr = np.asarray(self._slots, dtype=np.int64)
            self._slots_stale = False
        return self._slots_arr

    def release(self, state: SequenceState) -> None:
        """Free a finished sequence's slot and KV reservation."""
        index = self.running.index(state)
        del self.running[index]
        del self._slots[index]
        self._slots_stale = True
        self.table.free(state.slot)
        self.reserved_bytes -= self._footprint(state.request)
        self.outstanding_tokens -= \
            state.request.total_tokens - state.generated
        if not self.running:
            self.reserved_bytes = 0.0  # Clear accumulated float dust.

    def release_many(self, states: list[SequenceState]) -> None:
        """Free a completion cohort in one pass over the running list.

        Equivalent to calling :meth:`release` per state in order — the
        slot-free sequence, the ``reserved_bytes`` float additions, and
        the surviving running order are all identical — but the list
        surgery is one rebuild instead of ``len(states)`` O(batch)
        index-scans.  (``reserved_bytes`` can only dust-clear once the
        *last* cohort member leaves, so the end-of-loop check matches
        the per-release one.)
        """
        if len(states) == 1:
            self.release(states[0])
            return
        gone = {id(s) for s in states}
        self.running = [s for s in self.running if id(s) not in gone]
        self._slots = [s.slot for s in self.running]
        self._slots_stale = True
        table = self.table
        slots = [s.slot for s in states]
        arr = np.asarray(slots, dtype=np.int64)
        totals = (table.prompt_len[arr] + table.output_len[arr]).tolist()
        generated = int(table.generated[arr].sum())
        table.free_many(slots)
        footprints = self._footprints
        reserved = self.reserved_bytes
        for total in totals:
            footprint = footprints.get(total)
            if footprint is None:
                footprint = footprints[total] = self.kv_bytes(total)
            reserved -= footprint
        self.reserved_bytes = reserved
        self.outstanding_tokens -= sum(totals) - generated
        if not self.running:
            self.reserved_bytes = 0.0  # Clear accumulated float dust.

    def note_generated(self, tokens: int) -> None:
        """Engine hook: ``tokens`` were generated this step, shrinking
        the outstanding work by that much."""
        self.outstanding_tokens -= tokens

    # -- policy ---------------------------------------------------------
    def has_work(self) -> bool:
        return bool(self.queue or self.running)

    def plan_step(self, now: float) -> StepPlan:
        """The active set for the step starting at ``now``."""
        raise NotImplementedError

    # -- engine hooks ----------------------------------------------------
    def arrivals_inert(self) -> bool:
        """True when a newly arrived request cannot change the plan.

        :meth:`repro.serve.ServingEngine.run` uses this to pick the
        leap horizon: when the batch is saturated an arrival can only
        join the queue — every admission path first checks
        ``len(running) < max_batch``, and a full batch never even
        examines the queue head (so no prefix-cache LRU touch either,
        see :meth:`repro.serve.policy.PagedScheduler.plan_step`) — so a
        decode leap may sail straight through arrivals.  The stepwise
        loop would have ingested each arrival at its step boundary and
        then planned the *identical* step; the queue refills in bulk,
        in the same arrival order, when the leap-breaking event
        (always a planned step) replans.  Only a completion or
        preemption can reopen admission, and both break a leap.
        """
        return len(self.running) >= self.max_batch

    def leap_window(self, plan: StepPlan, max_steps: int) -> int:
        """How many steps after ``plan``'s first the plan stays valid.

        The certificate behind :meth:`repro.serve.ServingEngine.step`'s
        decode walk.  The engine asks it once per walk, for a pure-decode
        plan (no prefills, no chunks, no swap time), with ``max_steps``
        reaching through the step that completes the first sequence;
        the scheduler shrinks it to the next step at which its *own*
        state could change the plan.  Bucket crossings are the engine's
        business and the horizon bounds the walk separately.

        Peak-reservation admission depends only on ``reserved_bytes``,
        the running-slot count, and the static queue head — none of
        which a pure-decode step changes — so a queue head blocked at
        the walk's first step stays blocked through the completing one:
        the engine bound stands.
        """
        return max_steps

    def decode_successor(self) -> StepPlan:
        """The plan following a committed admission step that released
        nothing, with nothing enqueued since.

        Admission stopped at an empty queue, a full batch, or a head
        over KV capacity, and none of those moves without a release or
        an enqueue; with no finisher, every running sequence is live.
        So :meth:`plan_step` would admit nobody and decode the whole
        running set (both peak-reservation policies) — this builds that
        plan without the admission probe.
        """
        return StepPlan(decode_slots=self._slots_array(), table=self.table)

    def commit_leap(self, plan: StepPlan, steps: int) -> list:
        """Advance KV accounting past ``steps`` walked decode steps.

        Returns the per-step KV-utilization series the stepwise path
        would have recorded — constant here, because peak reservations
        only move at admission and release, neither of which happens
        inside a walk.
        """
        return [self.kv_utilization()] * steps

    def kv_utilization(self) -> float:
        """Share of the KV budget held right now (0 when unbounded)."""
        if self.kv_capacity_bytes is None:
            return 0.0
        return self.reserved_bytes / self.kv_capacity_bytes

    def runtime_stats(self) -> dict:
        """Post-run counters folded into the :class:`ServingReport`."""
        return {}


def split_kv_ready(admitted: list) -> tuple[list, list]:
    """(prefill, decode) split of freshly admitted sequences.

    ``kv_ready`` admissions (a cluster KV migration delivered the
    context over the interconnect) skip prefill compute entirely: their
    ``context_len`` is already the full prompt depth, so they join the
    decode set in the same step they are admitted.
    """
    prefill = [s for s in admitted if not s.request.kv_ready]
    ready = [s for s in admitted if s.request.kv_ready]
    return prefill, ready


class ContinuousBatchScheduler(Scheduler):
    """Iteration-level batching with prefill–decode interleaving."""

    name = "continuous"

    def plan_step(self, now: float) -> StepPlan:
        # Decoders are the pre-admission running set; capture its slots
        # before admitting (admissions only append).
        slots = self._slots_array()
        table = self.table
        live = table.generated[slots] < table.output_len[slots]
        prefill, ready = split_kv_ready(self._admit_all(now))
        if ready:
            # kv_ready admissions decode in their admission step; fall
            # back to an object plan so the engine's per-state path
            # initializes them (and callers can inspect plan.decode).
            decode = [self.running[i]
                      for i in np.flatnonzero(live).tolist()] + ready
            return StepPlan(prefill=prefill, decode=decode)
        if live.all():
            # The engine releases finishers eagerly, so this is the
            # steady state: decode the whole running set, identity
            # index, no per-step array copies.
            return StepPlan(prefill=prefill, decode_slots=slots,
                            table=table)
        return StepPlan(prefill=prefill, decode_slots=slots[live],
                        decode_index=np.flatnonzero(live), table=table)


class StaticBatchScheduler(Scheduler):
    """Admit a fresh batch only after the previous batch fully drains."""

    name = "static"

    def plan_step(self, now: float) -> StepPlan:
        if self.running:
            slots = self._slots_array()
            table = self.table
            live = table.generated[slots] < table.output_len[slots]
            if live.all():
                return StepPlan(decode_slots=slots, table=table)
            return StepPlan(decode_slots=slots[live],
                            decode_index=np.flatnonzero(live), table=table)
        prefill, ready = split_kv_ready(self._admit_all(now))
        return StepPlan(prefill=prefill, decode=ready)

    def arrivals_inert(self) -> bool:
        """A draining static batch admits nothing until it empties, so
        any non-empty running set makes arrivals inert — not just a
        full one."""
        return bool(self.running)


#: Scheduler registry for string-based construction.
SCHEDULERS = {cls.name: cls
              for cls in (ContinuousBatchScheduler, StaticBatchScheduler)}


def make_scheduler(policy: str, config: ModelConfig, **kwargs) -> Scheduler:
    """``make_scheduler("continuous", LLAMA2_70B_GQA, max_batch=16)``."""
    try:
        cls = SCHEDULERS[policy]
    except KeyError:
        raise ConfigError(f"unknown scheduler policy {policy!r}; "
                          f"choose from {sorted(SCHEDULERS)}") from None
    return cls(config, **kwargs)
