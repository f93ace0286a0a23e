"""Discrete-event continuous-batching serving engine.

The engine advances a clock step by step.  Each step it

1. ingests every request that has arrived by the clock;
2. asks the scheduler for the step's active set (new admissions to
   prefill + running sequences to decode; the paged schedulers of
   :mod:`repro.serve.policy` hand back budgeted prefill *chunks* and
   may charge host-link swap time for preempted KV);
3. prices that *ragged* active set as one fused step — the graph
   :func:`repro.llm.workload.build_serving_step_ops` describes:
   projections and FFN GEMMs shared by every active token so model
   weights stream once per step, attention per context length — on any
   Table 2 design, NoC system, or tensor/pipeline-sharded deployment
   (:class:`repro.parallel.ShardedSystem`), through the per-design cost
   surface (equivalent to :func:`repro.arch.simulate_workload` over the
   op list, without rebuilding it);
4. advances the clock by the step's roofline time — for sharded
   deployments that roofline overlaps compute with the step's exposed
   collective-communication time — and credits one token to every
   active sequence (the prefill step emits the first token).

Steps over near-identical active sets dominate a trace, so the engine
prices steps through a shared, LRU-bounded cache keyed by the active
set's length signature (:mod:`repro.serve.costs` — cluster replicas of
one design share it), with misses priced by the precomputed per-design
cost surface (:class:`repro.llm.workload.StepCostSurface`) instead of
re-walking a full operator list.

On top of that sits the **decode walk**, which separates two things a
step-by-step loop conflates: *plan validity* and *cost segments*.  A
pure-decode plan stays the scheduler's plan until something changes
the running set or the queue: a completion (release), an admission, an
arrival before the caller's horizon, or a scheduler-state event
(:meth:`repro.serve.Scheduler.leap_window` certifies the rest — paged
block supply, blocked heads).  Within that validity span the plan's
*cost* is piecewise constant: it changes only where some decoder's
context crosses a ``seq_len_bucket`` boundary.  So :meth:`step`
commits a valid plan's steps without replanning: it gathers contexts
once, schedules every crossing at once, prices each new segment's
signature through the step cache at its crossing step and the
completing step's at that step (each counted as the planned step a
replan there would be), re-applies a segment's cost to
the steps in between with the exact sequential float arithmetic of the
stepwise loop, and commits the completing step itself — records and
release included.  KV/block growth lands in bulk
(:meth:`repro.serve.Scheduler.commit_leap` /
:meth:`repro.serve.BlockManager.extend_bulk`) and the per-step
KV-utilization series is reconstructed exactly, so a walking run's
:class:`~repro.serve.ServingReport` — its diagnostic step and cache
counters included — is bit-identical to step-by-step execution (the
counters are pinned in ``tests/data/step_counters.json``).  Walks need
``seq_len_bucket > 1`` (exact mode changes every step's signature).
Admission, chunked-prefill, and swap steps are planned one at a time;
an admission's decode successor is walked in the same call, and a lone
mid-prompt prefill chunk leaps its successor chunks.

The engine no longer has to own the event loop: :meth:`ServingEngine.run`
drives the classic single-engine trace-to-completion loop, but the
primitives it is built from — :meth:`~ServingEngine.start` /
:meth:`~ServingEngine.submit` / :meth:`~ServingEngine.step` /
:meth:`~ServingEngine.advance_to` / :meth:`~ServingEngine.finish` — are
public, so an external clock (the multi-replica
:class:`repro.serve.ServingCluster`) can interleave many engines'
steps against one global arrival stream, passing each step the arrival
horizon up to which leaping is safe.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import attrgetter

import numpy as np

from ..arch.simulator import SimulationResult
from ..arch.technology import TECH_45NM
from ..errors import ConfigError
from ..llm.config import ModelConfig
from .costs import step_cost_store
from .metrics import RequestRecord, ServingReport
from .scheduler import Scheduler, StepPlan, make_scheduler
from .trace import Request, offered_load_rps


class _Walk:
    """Cursor of one decode walk (see :meth:`ServingEngine.step`).

    ``ctx`` and ``rem`` are the decoders' contexts and remaining tokens
    at step 0; step ``span - 1`` completes a sequence; ``last`` is the
    last step the scheduler certified; ``crossings`` lists the steps
    whose cost bucket changes.  ``j`` is the next step to commit, ``ci``
    the next crossing, ``key``/``cost`` the current segment's
    signature and price, ``epoch``/``clock`` the scheduler mutation
    count and engine clock a horizon cut left it at.
    """

    __slots__ = ("plan", "slots", "table", "ctx", "rem", "span", "last",
                 "crossings", "ci", "j", "key", "cost", "epoch", "clock")

    def __init__(self, plan: StepPlan, slots: np.ndarray, table,
                 ctx: np.ndarray, rem: np.ndarray, span: int, last: int,
                 crossings: list):
        self.plan, self.slots, self.table = plan, slots, table
        self.ctx, self.rem, self.span, self.last = ctx, rem, span, last
        self.crossings = crossings
        self.ci = self.j = 0
        self.key = self.cost = None


class ServingEngine:
    """Serve request traces on one design with one batching policy.

    Parameters
    ----------
    design:
        Anything :func:`repro.arch.simulate_workload` accepts (single
        node or :class:`repro.arch.NocSystem`).
    config:
        The served Table 1 model.
    scheduler:
        A :class:`repro.serve.scheduler.Scheduler` bound to ``config``.
    woq_bits / kvq_bits:
        Weight-only and KV-cache quantization widths.
    include_lm_head:
        Price the vocabulary projection each step.
    seq_len_bucket:
        Round context/prompt lengths up to this multiple *for costing
        only* (KV accounting stays exact).  1 keeps costs exact; larger
        buckets collapse near-identical steps onto cached costs and
        enable decode leaping.
    leap:
        Enable the decode-leaping fast path (exact; see the module
        docstring).  Disable to force stepwise execution — the
        regression tests diff the two.
    """

    def __init__(self, design, config: ModelConfig, scheduler: Scheduler,
                 woq_bits: int = 4, kvq_bits: int = 4,
                 include_lm_head: bool = True, seq_len_bucket: int = 1,
                 leap: bool = True):
        if seq_len_bucket < 1:
            raise ConfigError("seq_len_bucket must be >= 1")
        if scheduler.config != config:
            raise ConfigError("scheduler is bound to a different model")
        design_config = getattr(design, "config", None)
        if isinstance(design_config, ModelConfig) and \
                design_config != config:
            # A sharded deployment classifies ops against its own model
            # geometry; serving a different model would silently misprice
            # every collective.
            raise ConfigError(
                f"design {getattr(design, 'name', design)} is sharded for "
                f"{design_config.name}, not {config.name}")
        self.design = design
        self.config = config
        self.scheduler = scheduler
        self.woq_bits = woq_bits
        self.kvq_bits = kvq_bits
        self.include_lm_head = include_lm_head
        self.seq_len_bucket = seq_len_bucket
        self.leap = leap
        self.tech = getattr(design, "tech", TECH_45NM)
        store = step_cost_store(design, config, woq_bits, kvq_bits,
                                include_lm_head, tech=self.tech)
        #: Shared across every engine on this (design, config, bits)
        #: combination — cluster replicas price each signature once.
        self._step_cache = store.cache
        self._surface = store.surface
        self._cache_hits = 0
        self._cache_misses = 0
        self._report: ServingReport | None = None
        self._now = 0.0
        #: Cursor of a decode walk the horizon cut (see :meth:`step`).
        self._walk: _Walk | None = None

    # -- step lowering --------------------------------------------------
    def _signature(self, plan: StepPlan,
                   ctx: np.ndarray | None = None) -> tuple:
        """Cost-equivalence key of a step's active set.

        The decode part is the *sorted multiset* of bucketed context
        lengths (equivalent to a histogram, cheaper to build — this
        runs every planned step); the cost surface groups it on cache
        misses only.  The ceil-to-bucket rounding ``-(-x // b) * b`` is
        inlined here and mirrored by :meth:`_leap_window`'s crossing
        check — change them together.

        ``ctx`` is the slot plan's pre-gathered context column
        (:meth:`step` reuses one gather across signature, commit, and
        leap window — batches are small, so per-call numpy overhead,
        not arithmetic, dominates the planned-step budget).
        """
        b = self.seq_len_bucket
        prefill = () if not plan.prefill else tuple(
            sorted(-(-s.request.prompt_len // b) * b
                   for s in plan.prefill))
        if ctx is None and plan.decode_slots is not None:
            ctx = plan.table.context_len[plan.decode_slots]
        if ctx is not None:
            # Pre-gathered context column (slot plans always, list plans
            # when the step gathered one): bucket it in one shot.
            # tolist() converts to Python ints so the cache key matches
            # the object path's keys exactly; Python's sort beats
            # np.sort at these batch sizes.
            decode = tuple(sorted((-(-ctx // b) * b).tolist()))
        else:
            decode = tuple(sorted(-(-s.context_len // b) * b
                                  for s in plan.decode))
        # Chunked prefill: past KV is bucketed like decode context; the
        # chunk itself is budget-sized and stays exact.  Whether a chunk
        # finishes matters because only finishing chunks cross the LM
        # head.
        chunks = () if not plan.chunks else tuple(sorted(Counter(
            (-(-t.past // b) * b if t.past else 0, t.new, t.finishes)
            for t in plan.chunks).items()))
        return prefill, decode, chunks

    def _price(self, key: tuple) -> SimulationResult:
        """Cost of one step signature through the shared step cache.

        Every planned step — stepwise, a walk's first, crossing and
        completing steps, and each leapt prefill chunk — prices here,
        so one counted lookup is one planned step.
        """
        result = self._step_cache.get(key)
        if result is not None:
            self._cache_hits += 1
            return result
        self._cache_misses += 1
        result = self._surface.price_step(*key)
        if self.seq_len_bucket > 1:
            # In exact mode nearly every step's signature is unique
            # (contexts grow each step), so storing would only churn
            # the LRU; the surface's component tables still carry the
            # speedup.
            self._step_cache.put(key, result)
        return result

    # -- externally clocked session --------------------------------------
    @property
    def now(self) -> float:
        """The engine's clock: end time of the last committed step."""
        return self._now

    @property
    def report(self) -> ServingReport | None:
        """The in-progress report of the active session (None outside)."""
        return self._report

    def _active_report(self) -> ServingReport:
        if self._report is None:
            raise ConfigError("no active serving session; call start()")
        return self._report

    def start(self, offered_rps: float = 0.0) -> ServingReport:
        """Open a serving session at clock 0 and return its live report.

        ``run`` calls this internally; an external driver (the cluster's
        event loop) calls it once, then interleaves :meth:`submit` /
        :meth:`step` / :meth:`advance_to` and closes with
        :meth:`finish`.
        """
        self._report = ServingReport(
            design=getattr(self.design, "name", type(self.design).__name__),
            scheduler=self.scheduler.name,
            kv_capacity_bytes=self.scheduler.kv_capacity_bytes,
            offered_rps=offered_rps)
        self._now = 0.0
        self._cache_hits = 0
        self._cache_misses = 0
        self._walk = None
        return self._report

    def submit(self, request: Request) -> None:
        """Hand one request to the scheduler (external-clock ingest)."""
        error = self.scheduler.admission_error(request)
        if error:
            raise ConfigError(f"unservable request: {error}")
        self.scheduler.enqueue(request)

    def has_work(self) -> bool:
        return self.scheduler.has_work()

    def advance_to(self, t: float) -> None:
        """Move the clock forward to ``t`` (idle time; never backward)."""
        if t > self._now:
            self._now = t

    def step(self, horizon: float | None = None) -> bool:
        """Plan, price, and commit the step at the current clock.

        Returns False (and leaves every clock and state untouched) when
        the scheduler plans an empty step; the caller decides whether
        that means idle-until-next-arrival or a stall.

        ``horizon`` is the caller's promise that no request will be
        submitted before that absolute time.  Without one (the default)
        every call commits exactly one planned step.  With one, a
        pure-decode plan starts a *decode walk* (see the module
        docstring): the engine keeps committing steps of that plan —
        every step after the first must start strictly before the
        horizon — through bucket crossings up to and including the
        step that completes a sequence.  An admission step's decode
        successor is planned and walked in the same call.  The call
        returns at the first release, at the horizon, or when the
        scheduler's certificate (:meth:`Scheduler.leap_window`) runs
        out.

        A walk cut by the horizon keeps its cursor.  When nothing was
        submitted in between (:attr:`Scheduler.mutations` unchanged)
        and the clock did not move, the next call *resumes* that walk
        instead of replanning: the plan is provably unchanged (no
        completion, and admission stays blocked — nothing arrived), so
        the planned-step count collapses from one per foreign cluster
        event to one per plan-changing event on this replica.
        """
        walk = self._walk
        if walk is not None:
            self._walk = None
            if horizon is not None and self._now < horizon and \
                    walk.epoch == self.scheduler.mutations and \
                    walk.clock == self._now:
                self._run_walk(walk, horizon)
                return True
        self._active_report()
        plan = self.scheduler.plan_step(self._now)
        if plan.batch == 0:
            return False
        walking = horizon is not None and self.leap and \
            self.seq_len_bucket > 1
        if walking and not (plan.prefill or plan.chunks or
                            plan.swap_seconds):
            self._start_walk(plan, horizon)
            return True
        released = self._commit(plan)
        if not walking or released:
            return True
        if plan.chunks:
            self._chunk_leap(plan, horizon)
        elif plan.prefill and self._now < horizon and (
                horizon == math.inf or
                not self.scheduler.arrivals_inert()):
            # An admission released nothing: its successor decodes the
            # whole running set.  (Admission just saturated the batch
            # under a finite horizon?  Then return: :meth:`run` widens
            # its horizon once arrivals turn inert.)
            self._start_walk(self.scheduler.decode_successor(), horizon)
        return True

    def _commit(self, plan: StepPlan) -> bool:
        """Commit one planned step stepwise; True if it released any
        sequence."""
        report = self._report
        report.peak_kv_bytes = max(report.peak_kv_bytes,
                                   self.scheduler.reserved_bytes)
        report.kv_utilization.append(self.scheduler.kv_utilization())
        slots = plan.decode_slots
        ctx0 = None
        if slots is not None and slots.size:
            # One context gather feeds the signature and the commit.
            ctx0 = plan.table.context_len[slots]
        cost = self._price(self._signature(plan, ctx0))
        duration = cost.step_seconds + plan.swap_seconds
        self._now += duration
        now = self._now
        report.energy_j += cost.dynamic_energy_j
        report.comm_seconds += cost.comm_seconds
        report.swap_seconds += plan.swap_seconds
        report.busy_seconds += duration
        report.steps += 1

        prefill = plan.prefill
        if len(prefill) > 2:
            # Admission cohorts commit with column writes (one engine
            # serves one scheduler, so every state shares one table).
            tab = prefill[0].table
            pslots = np.fromiter((s.slot for s in prefill),
                                 dtype=np.int64, count=len(prefill))
            tab.first_token_s[pslots] = now
            tab.generated[pslots] = 1
            tab.context_len[pslots] = tab.prompt_len[pslots] + 1
        else:
            for state in prefill:
                state.first_token_s = now
                state.generated = 1
                state.context_len = state.request.prompt_len + 1
        finished_chunks = []
        for task in plan.chunks:
            if not task.finishes:
                continue
            # The last chunk of a prefill (or of a post-preemption
            # KV rebuild) emits one token, like the one-shot
            # prefill step does.
            state = task.state
            if state.first_token_s is None:
                state.first_token_s = now
            state.generated += 1
            state.context_len = state.prefill_target + 1
            finished_chunks.append(state)
        remaining = None
        if slots is not None:
            table = plan.table
            if slots.size:
                # Slot plan: commit every decoder's token with column
                # ops — set first-token clocks where still NaN, then
                # bump the counters.  ``remaining`` feeds the
                # completion scan without re-gathering.
                first = table.first_token_s
                unset = np.isnan(first[slots])
                if unset.any():
                    first[slots[unset]] = now
                gen = table.generated[slots] + 1
                table.generated[slots] = gen
                table.context_len[slots] = ctx0 + 1
                remaining = table.output_len[slots] - gen
            n_decode = int(slots.size)
        else:
            for state in plan.decode:
                if state.first_token_s is None:
                    # KV-ready admissions (cluster disaggregation: the
                    # KV arrived over the interconnect) emit their first
                    # local token from a decode step, never a prefill.
                    state.first_token_s = now
                state.generated += 1
                state.context_len += 1
            n_decode = len(plan.decode)
        self.scheduler.note_generated(
            len(plan.prefill) + n_decode + len(finished_chunks))
        # Completion scan, in the stepwise order (prefills, decoders in
        # running order, finished chunks).  Finishers are collected
        # before any release: releasing mutates scheduler.running, which
        # plan.decode_index indexes into.
        # A prefill finisher emitted its whole output in the prefill
        # step: generated is exactly 1 after the commit above, so the
        # check reduces to a plain attribute read.
        finishers = [s for s in plan.prefill if s.request.output_len <= 1]
        if slots is not None:
            if slots.size and remaining.min() <= 0:
                index = plan.decode_index
                done = np.flatnonzero(remaining <= 0)
                if index is not None:
                    done = index[done]
                running = self.scheduler.running
                finishers.extend(running[i] for i in done.tolist())
        else:
            finishers.extend(s for s in plan.decode
                             if s.generated >= s.request.output_len)
        finishers.extend(s for s in finished_chunks
                         if s.generated >= s.request.output_len)
        if finishers:
            self._release(finishers, None, now)
        return bool(finishers)

    def _release(self, finishers: list, fslots: np.ndarray | None,
                 now: float) -> None:
        """Record and release a completion cohort finishing at ``now``.

        Records first (they only read state), then one cohort release —
        the record order and every release side effect match the
        interleaved per-state sequence.  The clock columns are gathered
        once at the finishers' table rows ``fslots`` (every state
        shares one table; None gathers the rows from the states).
        """
        records = self._report.records
        tab = finishers[0].table
        if fslots is None:
            fslots = np.fromiter((s.slot for s in finishers),
                                 dtype=np.int64, count=len(finishers))
        admitted = tab.admitted_s[fslots].tolist()
        firsts = tab.first_token_s[fslots].tolist()
        for state, adm, first in zip(finishers, admitted, firsts):
            records.append(RequestRecord(
                request=state.request,
                admitted_s=None if adm != adm else adm,
                first_token_s=None if first != first else first,
                finish_s=now))
        self.scheduler.release_many(finishers)

    def _start_walk(self, plan: StepPlan, horizon: float) -> None:
        """Walk a freshly planned pure-decode plan from its first step.

        Contexts and remaining tokens are gathered once.  From them the
        walk knows its completing step (the smallest remaining count),
        the scheduler certifies the plan through it, and every
        ``seq_len_bucket`` crossing up to there is scheduled at once: a
        decoder at context ``c`` crosses on steps ``(-c % b) + 1 + k*b``
        (only decoders whose first crossing falls inside the walk leave
        numpy).
        """
        slots = plan.decode_slots
        if slots is None:
            table = plan.decode[0].table  # One scheduler, one table.
            slots = np.fromiter((s.slot for s in plan.decode),
                                dtype=np.int64, count=len(plan.decode))
        else:
            table = plan.table
        ctx = table.context_len[slots]
        rem = table.output_len[slots] - table.generated[slots]
        span = int(rem.min())
        last = self.scheduler.leap_window(plan, span - 1) if span > 1 \
            else 0
        b = self.seq_len_bucket
        cross = (-ctx) % b + 1
        crossings = sorted({c + k for c in cross[cross <= last].tolist()
                            for k in range(0, last - c + 1, b)})
        self._run_walk(_Walk(plan, slots, table, ctx, rem, span, last,
                             crossings), horizon)

    def _run_walk(self, walk: _Walk, horizon: float) -> None:
        """Commit the walk's steps from its cursor until it completes,
        its certificate runs out, or the horizon cuts it.

        Step 0, each crossing step and the completing step are
        *planned* steps: each prices its signature through the step
        cache (one counted lookup, exactly as replanning there would);
        step 0 commits whatever the horizon, the others must start
        before it.  The steps between are leapt at their segment's
        cost.  Table columns, ``note_generated``, the KV series (one
        :meth:`Scheduler.commit_leap` over every step after the first)
        and the peak are written once at the end; a completed walk
        then records and releases its finishers.
        """
        report = self._report
        j0 = j = walk.j
        last, crossings = walk.last, walk.crossings
        stop = last if last == walk.span - 1 else last + 1
        b = self.seq_len_bucket
        planned = 0
        while j <= last:
            nxt = crossings[walk.ci] if walk.ci < len(crossings) \
                else last + 1
            if j == nxt or j == stop or not j:
                if j and self._now >= horizon:
                    break
                if j == nxt:
                    walk.ci += 1
                if j == nxt or not j:
                    walk.key = ((), tuple(sorted(
                        (-(-(walk.ctx + j) // b) * b).tolist())), ())
                walk.cost = cost = self._price(walk.key)
                self._now += cost.step_seconds
                report.energy_j += cost.dynamic_energy_j
                report.comm_seconds += cost.comm_seconds
                report.busy_seconds += cost.step_seconds
                if not j:
                    first_token_s = self._now
                planned += 1
                j += 1
                continue
            window = min(nxt, stop) - j
            leapt = self._advance(walk.cost, window, horizon)
            j += leapt
            if leapt < window:
                break
        steps = j - j0
        report.steps += steps
        report.leap_steps += steps - planned
        plan, slots, table = walk.plan, walk.slots, walk.table
        table.generated[slots] += steps
        table.context_len[slots] += steps
        scheduler = self.scheduler
        scheduler.note_generated(steps * int(slots.size))
        later = steps if j0 else steps - 1  # Steps after step 0.
        if not j0:
            # Step 0 ran in this call: KV-ready admissions emit their
            # first local token there, and its KV share is the one the
            # scheduler holds at plan time.
            first = table.first_token_s
            unset = np.isnan(first[slots])
            if unset.any():
                first[slots[unset]] = first_token_s
            report.kv_utilization.append(scheduler.kv_utilization())
        if later:
            report.kv_utilization.extend(
                scheduler.commit_leap(plan, later))
        report.peak_kv_bytes = max(report.peak_kv_bytes,
                                   scheduler.reserved_bytes)
        if j <= last:
            # Cut by the horizon, not by the plan's validity.
            walk.j = j
            walk.epoch = scheduler.mutations
            walk.clock = self._now
            self._walk = walk
        elif stop == last:
            # Finishers in the stepwise order: plan order, which for a
            # slot plan is running order.
            done = np.flatnonzero(walk.rem == walk.span)
            if plan.decode_slots is None:
                finishers = [plan.decode[i] for i in done.tolist()]
            else:
                index = done if plan.decode_index is None \
                    else plan.decode_index[done]
                running = scheduler.running
                finishers = [running[i] for i in index.tolist()]
            self._release(finishers, slots[done], self._now)

    def _advance(self, cost: SimulationResult, window: int,
                 horizon: float) -> int:
        """Commit up to ``window`` repeats of one step's cost; return how
        many started strictly before ``horizon``.

        The four running sums (clock, energy, communication, busy time)
        must advance with the *same sequential float additions* the
        stepwise loop performs — float addition does not associate, and
        the reports must match bit for bit.  ``np.cumsum`` accumulates
        left to right with exactly those semantics, so for long windows
        the whole chain is built as a ``(4, window+1)`` prefix-sum array
        — column 0 the current accumulators, the rest the per-step
        deltas — and ``searchsorted`` finds how many steps fit under the
        horizon (the clock column is non-decreasing; ``side="left"``
        mirrors the loop's strict ``now < horizon`` test).  A walk has
        no swap time, so a step's duration is its ``step_seconds``.
        """
        duration = cost.step_seconds
        energy = cost.dynamic_energy_j
        comm = cost.comm_seconds
        report = self._report
        if window < 8:  # The array setup only pays off past a few steps.
            leapt = 0
            while leapt < window and self._now < horizon:
                self._now += duration
                report.energy_j += energy
                report.comm_seconds += comm
                report.busy_seconds += duration
                leapt += 1
            return leapt
        series = np.empty((4, window + 1))
        series[:, 0] = (self._now, report.energy_j, report.comm_seconds,
                        report.busy_seconds)
        series[0, 1:] = duration
        series[1, 1:] = energy
        series[2, 1:] = comm
        series[3, 1:] = duration
        acc = np.cumsum(series, axis=1)
        leapt = int(np.searchsorted(acc[0, :window], horizon, side="left"))
        if leapt:
            self._now = float(acc[0, leapt])
            report.energy_j = float(acc[1, leapt])
            report.comm_seconds = float(acc[2, leapt])
            report.busy_seconds = float(acc[3, leapt])
        return leapt

    def _chunk_leap(self, plan: StepPlan, horizon: float) -> None:
        """Leap a lone mid-prompt prefill chunk's successor chunks.

        A long prompt prefilling alone produces a run of steps that are
        the same plan with ``past`` advanced by ``chunk_tokens`` — no
        admission, eviction, or decode event between them (the chunk
        consumes the whole step budget, so the scheduler's admission
        loop never runs; :meth:`PagedScheduler.chunk_leap_window` checks
        the rest).  Unlike a decode leap the cost *changes* every step
        (``past`` grows), so each leapt step is priced individually
        through the shared step cache — identical get/put traffic to
        the stepwise path — while planning and per-chunk block
        allocation collapse into one bulk commit mirroring
        :meth:`PagedScheduler.commit_leap`'s exact utilization-series
        reconstruction.
        """
        if not self.leap or self.seq_len_bucket == 1:
            return
        if plan.prefill or plan.decode or plan.swap_seconds or \
                len(plan.chunks) != 1:
            return
        task = plan.chunks[0]
        if task.finishes:
            return
        windower = getattr(self.scheduler, "chunk_leap_window", None)
        if windower is None:
            return
        window = windower(task)
        if window <= 0:
            return
        report = self._report
        state = task.state
        past0 = state.prefilled  # Already advanced past the anchor chunk.
        chunk = task.new
        b = self.seq_len_bucket
        leapt = 0
        while leapt < window and self._now < horizon:
            past = past0 + leapt * chunk
            cost = self._price(
                ((), (), (((-(-past // b) * b, chunk, False), 1),)))
            duration = cost.step_seconds
            self._now += duration
            report.energy_j += cost.dynamic_energy_j
            report.comm_seconds += cost.comm_seconds
            report.busy_seconds += duration
            leapt += 1
        if leapt == 0:
            return
        report.kv_utilization.extend(
            self.scheduler.commit_chunk_leap(task, leapt))
        report.peak_kv_bytes = max(report.peak_kv_bytes,
                                   self.scheduler.reserved_bytes)
        report.steps += leapt
        report.leap_steps += leapt

    def finish(self) -> ServingReport:
        """Close the session: stamp the makespan, fold scheduler stats."""
        report = self._active_report()
        report.makespan_s = self._now
        report.step_cache_hits = self._cache_hits
        report.step_cache_misses = self._cache_misses
        for key, value in self.scheduler.runtime_stats().items():
            if not hasattr(report, key):
                # A typo'd stats key must fail loudly, not create a
                # ghost attribute while the real metric stays 0.
                raise ConfigError(
                    f"scheduler {self.scheduler.name} reported unknown "
                    f"stat {key!r}; ServingReport has no such field")
            setattr(report, key, value)
        self._report = None
        self._walk = None
        return report

    # -- event loop -----------------------------------------------------
    def run(self, trace: list[Request]) -> ServingReport:
        """Serve a trace to completion and return the aggregate report."""
        if not trace:
            raise ConfigError("empty trace")
        pending = sorted(trace, key=attrgetter("arrival_s", "req_id"))
        # Fail before simulating anything, not mid-run at enqueue.
        error = self.scheduler.trace_error(pending)
        if error:
            raise ConfigError(f"unservable trace: {error}")
        self.start(offered_rps=offered_load_rps(trace))
        arrivals = np.fromiter((r.arrival_s for r in pending),
                               dtype=np.float64, count=len(pending))
        idx, n = 0, len(pending)
        while idx < n or self.scheduler.has_work():
            if idx < n and arrivals[idx] <= self._now:
                # Ingest every request that has arrived by the clock in
                # one slice (arrivals is sorted).
                upto = int(np.searchsorted(arrivals, self._now,
                                           side="right"))
                self.scheduler.enqueue_many(pending[idx:upto])
                idx = upto
            # The next un-ingested arrival bounds how far a committed
            # pure-decode step may leap (a leapt step must start
            # strictly before it, exactly as this loop would step) —
            # unless the scheduler is saturated, in which case the
            # arrival could only queue up and the leap sails through it
            # (:meth:`Scheduler.arrivals_inert`); the queue refills in
            # bulk at the next planned step.  Overloaded traces spend
            # most of their life saturated, so this collapses the
            # planned-step count from one-per-arrival to
            # one-per-completion-or-bucket-crossing.
            if idx < n and not self.scheduler.arrivals_inert():
                horizon = float(arrivals[idx])
            else:
                horizon = math.inf
            if self.step(horizon=horizon):
                continue
            if idx >= n:
                # Nothing runnable and nothing left to arrive: a
                # scheduler bug, not a state the loop can leave.
                raise ConfigError(
                    f"scheduler {self.scheduler.name} stalled with "
                    f"work queued but nothing planned")
            # Idle: jump to the next arrival.
            self.advance_to(float(arrivals[idx]))
        return self.finish()


def simulate_trace(design, config: ModelConfig, trace: list[Request],
                   policy: str = "continuous", max_batch: int = 16,
                   kv_capacity_bytes: float | None = None,
                   kvq_bits: int = 4, seq_len_bucket: int = 1,
                   scheduler_kwargs: dict | None = None,
                   **engine_kwargs) -> ServingReport:
    """One-call serving run: build scheduler + engine, serve the trace.

    ``simulate_trace(make_design("mugi", 256), LLAMA2_70B_GQA, trace)``

    ``scheduler_kwargs`` reach the scheduler constructor — e.g.
    ``policy="paged", scheduler_kwargs={"block_size": 32,
    "preemption": "swap"}``.
    """
    scheduler = make_scheduler(policy, config, max_batch=max_batch,
                               kv_capacity_bytes=kv_capacity_bytes,
                               kvq_bits=kvq_bits,
                               **(scheduler_kwargs or {}))
    engine = ServingEngine(design, config, scheduler, kvq_bits=kvq_bits,
                           seq_len_bucket=seq_len_bucket, **engine_kwargs)
    return engine.run(trace)
