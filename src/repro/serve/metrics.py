"""Serving metrics: TTFT, TPOT, latency percentiles, goodput.

The engine produces one :class:`RequestRecord` per completed request; a
:class:`ServingReport` aggregates them into the latency–throughput
numbers that serving papers plot (p50/p99 latency, goodput vs offered
load).  :class:`ClusterReport` aggregates a multi-replica
:class:`repro.serve.ServingCluster` run the same way — cluster-level
TTFT/TPOT/goodput over the merged request records — and adds the
per-replica utilization/balance view plus the disaggregated mode's
KV-migration accounting.  Both share the :class:`RecordStats` mixin so
a cluster report answers every latency question a single-engine report
does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..carbon.intensity import DEFAULT_CARBON, CarbonConstants
from ..carbon.model import embodied_carbon_kg, operational_carbon_kg
from ..errors import ConfigError
from .trace import Request


@dataclass(frozen=True)
class RequestRecord:
    """Completion record of one served request (all times in seconds)."""

    request: Request
    admitted_s: float
    first_token_s: float
    finish_s: float

    @property
    def queue_delay_s(self) -> float:
        """Arrival → admission wait."""
        return self.admitted_s - self.request.arrival_s

    @property
    def ttft_s(self) -> float:
        """Time to first token: arrival → end of the prefill step."""
        return self.first_token_s - self.request.arrival_s

    @property
    def tpot_s(self) -> float:
        """Time per output token after the first (0 for 1-token outputs)."""
        extra = self.request.output_len - 1
        if extra == 0:
            return 0.0
        return (self.finish_s - self.first_token_s) / extra

    @property
    def latency_s(self) -> float:
        """End-to-end request latency."""
        return self.finish_s - self.request.arrival_s


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0–100) of a non-empty sequence."""
    if not 0.0 <= q <= 100.0:  # Also rejects NaN.
        raise ConfigError(f"percentile q must be in [0, 100], got {q!r}")
    if isinstance(values, np.ndarray):
        arr = values.astype(np.float64, copy=False)
    else:
        arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ConfigError("percentile of empty sequence")
    return float(np.percentile(arr, q))


class RecordStats:
    """Latency/throughput aggregation over completed request records.

    Mixed into :class:`ServingReport` (one engine) and
    :class:`ClusterReport` (merged cluster records): anything with a
    ``records`` list and a ``makespan_s`` gets the full percentile /
    goodput surface.

    Aggregation is vectorized: the per-record timing columns are built
    once as numpy arrays (rebuilt only when ``records`` changes length)
    so every percentile/mean/goodput query over a 100k-request run is
    one array pass instead of a Python loop.
    """

    records: list
    makespan_s: float

    def _columns(self) -> dict:
        """Cached numpy timing columns over ``records``.

        Keyed on the record count — reports only ever append records,
        and :class:`RequestRecord` is frozen, so a same-length cache can
        never be stale.
        """
        cached = self.__dict__.get("_records_columns")
        n = len(self.records)
        if cached is not None and cached["n"] == n:
            return cached
        records = self.records
        arrival = np.fromiter((r.request.arrival_s for r in records),
                              np.float64, count=n)
        admitted = np.fromiter((r.admitted_s for r in records),
                               np.float64, count=n)
        first = np.fromiter((r.first_token_s for r in records),
                            np.float64, count=n)
        finish = np.fromiter((r.finish_s for r in records),
                             np.float64, count=n)
        output_len = np.fromiter((r.request.output_len for r in records),
                                 np.int64, count=n)
        tenant = np.fromiter((r.request.tenant for r in records),
                             np.int64, count=n)
        extra = output_len - 1
        cached = {
            "n": n,
            "latency": finish - arrival,
            "ttft": first - arrival,
            "queue_delay": admitted - arrival,
            # 0 for 1-token outputs, like RequestRecord.tpot_s.
            "tpot": np.where(extra > 0,
                             (finish - first) / np.maximum(extra, 1),
                             0.0),
            "output_len": output_len,
            "tenant": tenant,
        }
        self.__dict__["_records_columns"] = cached
        return cached

    @property
    def _label(self) -> str:
        return type(self).__name__

    @property
    def completed(self) -> int:
        return len(self.records)

    @property
    def generated_tokens(self) -> int:
        return int(self._columns()["output_len"].sum())

    @property
    def throughput_tokens_s(self) -> float:
        """Output tokens per second over the whole run."""
        return self.generated_tokens / max(self.makespan_s, 1e-12)

    @property
    def request_rate_rps(self) -> float:
        """Completed requests per second over the whole run."""
        return self.completed / max(self.makespan_s, 1e-12)

    def _good_mask(self, ttft_slo_s: float | None = None,
                   tpot_slo_s: float | None = None,
                   slos=None) -> np.ndarray:
        """Boolean mask of records meeting their latency SLOs.

        Boundary semantics are **inclusive**: a request exactly at the
        SLO (``ttft == ttft_slo_s``) counts as good — an SLO names the
        worst acceptable value, not the first bad one.  NaN TTFT/TPOT
        entries (possible for zero-token generations) are excluded
        explicitly: a request whose statistic is undefined never
        satisfies an SLO on that statistic, rather than falling out of
        a silent NaN comparison.

        ``slos`` is a sequence of :class:`repro.serve.TenantSLO` specs
        (or a prebuilt tenant → spec mapping; anything with
        ``ttft_slo_s`` / ``tpot_slo_s`` attributes works).  A tenant
        present in the map is judged solely by its own spec; absent
        tenants fall back to the global ``ttft_slo_s`` /
        ``tpot_slo_s`` arguments.
        """
        cols = self._columns()
        n = cols["n"]
        ttft_lim = np.full(n, np.inf if ttft_slo_s is None
                           else float(ttft_slo_s))
        tpot_lim = np.full(n, np.inf if tpot_slo_s is None
                           else float(tpot_slo_s))
        if slos:
            if not hasattr(slos, "items"):
                from .policy import tenant_slo_map
                slos = tenant_slo_map(slos)
            tenant = cols["tenant"]
            for tid, spec in slos.items():
                mine = tenant == tid
                t = getattr(spec, "ttft_slo_s", None)
                p = getattr(spec, "tpot_slo_s", None)
                ttft_lim[mine] = np.inf if t is None else t
                tpot_lim[mine] = np.inf if p is None else p
        good = np.ones(n, dtype=bool)
        for col, lim in ((cols["ttft"], ttft_lim),
                         (cols["tpot"], tpot_lim)):
            bounded = np.isfinite(lim)
            good &= ~bounded | (~np.isnan(col) & (col <= lim))
        return good

    def good_completions(self, ttft_slo_s: float | None = None,
                         tpot_slo_s: float | None = None,
                         slos=None) -> int:
        """Completed requests meeting the latency SLOs (a run total,
        robust to makespan differences between compared runs — see
        :meth:`_good_mask` for boundary, NaN, and per-tenant
        semantics)."""
        return int(self._good_mask(ttft_slo_s, tpot_slo_s, slos).sum())

    def goodput_rps(self, ttft_slo_s: float | None = None,
                    tpot_slo_s: float | None = None,
                    slos=None) -> float:
        """Completed requests per second meeting the latency SLOs.

        Without SLOs this equals :attr:`request_rate_rps` — every
        completion counts.  The SLO boundary is inclusive (``ttft ==
        ttft_slo_s`` is good) and NaN TTFT/TPOT records are excluded
        from the good set rather than silently compared; ``slos`` adds
        per-tenant SLOs (see :meth:`_good_mask`).
        """
        return self.good_completions(ttft_slo_s, tpot_slo_s, slos) \
            / max(self.makespan_s, 1e-12)

    def _require_completions(self) -> None:
        if not self.records:
            raise ConfigError(
                f"report for {self._label} has no "
                f"completed requests; latency statistics are undefined")

    # -- latency percentiles -------------------------------------------
    def latency_percentile(self, q: float) -> float:
        self._require_completions()
        return percentile(self._columns()["latency"], q)

    def ttft_percentile(self, q: float) -> float:
        self._require_completions()
        return percentile(self._columns()["ttft"], q)

    def tpot_percentile(self, q: float) -> float:
        self._require_completions()
        return percentile(self._columns()["tpot"], q)

    def queue_delay_percentile(self, q: float) -> float:
        """Arrival-to-admission wait percentile.

        Head-of-line blocking lives here (TTFT only folds it in), so
        p99 queue delay is the first metric to blow up when admission
        starves behind a monster request.
        """
        self._require_completions()
        return percentile(self._columns()["queue_delay"], q)

    @property
    def p50_latency_s(self) -> float:
        return self.latency_percentile(50)

    @property
    def p99_latency_s(self) -> float:
        return self.latency_percentile(99)

    @property
    def p50_queue_delay_s(self) -> float:
        return self.queue_delay_percentile(50)

    @property
    def p99_queue_delay_s(self) -> float:
        return self.queue_delay_percentile(99)

    @property
    def mean_queue_delay_s(self) -> float:
        self._require_completions()
        return float(np.mean(self._columns()["queue_delay"]))

    @property
    def mean_ttft_s(self) -> float:
        self._require_completions()
        return float(np.mean(self._columns()["ttft"]))

    @property
    def mean_tpot_s(self) -> float:
        self._require_completions()
        return float(np.mean(self._columns()["tpot"]))


@dataclass
class ServingReport(RecordStats):
    """Aggregate outcome of one trace on one design + scheduler."""

    design: str
    scheduler: str
    records: list = field(default_factory=list)
    makespan_s: float = 0.0
    energy_j: float = 0.0
    steps: int = 0
    peak_kv_bytes: float = 0.0
    kv_capacity_bytes: float | None = None
    offered_rps: float = 0.0
    #: Total inter-chip collective time across all steps (before
    #: overlap; 0 for single-chip designs).
    comm_seconds: float = 0.0
    #: Wall time the engine spent inside steps (swap time included);
    #: ``busy_seconds / makespan_s`` is the replica-utilization stat the
    #: cluster report builds on.  Idle gaps between arrivals are the
    #: difference to the makespan.
    busy_seconds: float = 0.0
    #: Per-step KV-budget occupancy series (reserved/capacity for the
    #: peak-reservation schedulers, live-block share for paged ones).
    kv_utilization: list = field(default_factory=list)
    #: Paged-scheduler counters (0 under the PR 1 schedulers).
    preemptions: int = 0
    prefix_hit_tokens: int = 0
    prefix_query_tokens: int = 0
    swap_bytes: float = 0.0
    swap_seconds: float = 0.0
    #: Step-cost cache locality of this session (the cache itself may
    #: be shared across replicas — see :mod:`repro.serve.costs`).
    #: Every *planned* step (every step not in ``leap_steps``) makes
    #: exactly one lookup, leapt decode steps make none, and each
    #: leapt prefill chunk makes one: hits + misses == ``steps`` -
    #: ``leap_steps`` + leapt chunks.
    step_cache_hits: int = 0
    step_cache_misses: int = 0
    #: Steps committed without pricing a new plan (a subset of
    #: ``steps``): the decode-walk steps between a walk's planned
    #: steps — its first step, each ``seq_len_bucket`` crossing, and
    #: its completing step — plus leapt prefill chunks.  0 when
    #: ``leap=False``, in exact mode (``seq_len_bucket=1``), or without
    #: a horizon.
    leap_steps: int = 0

    @property
    def _label(self) -> str:
        return f"{self.design}/{self.scheduler}"

    @property
    def comm_fraction(self) -> float:
        """Collective *wire-busy* time over the makespan.

        The numerator is pre-overlap communication time (how long the
        links carry traffic), so with compute/communication overlap this
        exceeds the exposed wall-clock share — it measures interconnect
        utilization pressure, not serving slowdown.
        """
        if self.makespan_s == 0:
            return 0.0
        return self.comm_seconds / self.makespan_s

    @property
    def busy_fraction(self) -> float:
        """Share of the makespan spent stepping (0 with no makespan).

        Guarded with the same epsilon floor as the sibling rate
        properties, so an empty/zero-completion report reads 0 instead
        of dividing by zero.
        """
        return self.busy_seconds / max(self.makespan_s, 1e-12)

    #: ``utilization`` is the name the cluster/autoscaling layer uses
    #: for the same stat (cf. ClusterReport.utilization_per_replica).
    utilization = busy_fraction

    @property
    def prefix_hit_rate(self) -> float:
        """Prompt tokens served from the paged prefix cache."""
        if self.prefix_query_tokens == 0:
            return 0.0
        return self.prefix_hit_tokens / self.prefix_query_tokens

    def _kv_utilization_array(self) -> np.ndarray:
        """Cached array view of the per-step series (length-keyed)."""
        cached = self.__dict__.get("_kv_columns")
        n = len(self.kv_utilization)
        if cached is None or cached[0] != n:
            cached = (n, np.fromiter(self.kv_utilization, np.float64,
                                     count=n))
            self._kv_columns = cached
        return cached[1]

    @property
    def mean_kv_utilization(self) -> float:
        """Average per-step KV-budget occupancy (0 with no steps)."""
        if not self.kv_utilization:
            return 0.0
        return float(np.mean(self._kv_utilization_array()))

    @property
    def peak_kv_utilization(self) -> float:
        if not self.kv_utilization:
            return 0.0
        return float(np.max(self._kv_utilization_array()))

    @property
    def energy_per_token_j(self) -> float:
        return self.energy_j / max(self.generated_tokens, 1)

    def summary(self) -> dict:
        """Flat dict of the headline numbers (for tables/plots).

        Latency statistics are ``None`` when no request completed —
        rates are 0 then, but percentiles have no defined value.
        """
        stats = dict.fromkeys(("p50_latency_s", "p99_latency_s",
                               "mean_ttft_s", "mean_tpot_s",
                               "p50_queue_delay_s", "p99_queue_delay_s"))
        if self.records:
            stats = {
                "p50_latency_s": self.p50_latency_s,
                "p99_latency_s": self.p99_latency_s,
                "mean_ttft_s": self.mean_ttft_s,
                "mean_tpot_s": self.mean_tpot_s,
                "p50_queue_delay_s": self.p50_queue_delay_s,
                "p99_queue_delay_s": self.p99_queue_delay_s,
            }
        return {
            "design": self.design,
            "scheduler": self.scheduler,
            "offered_rps": self.offered_rps,
            "completed": self.completed,
            "goodput_rps": self.goodput_rps(),
            "throughput_tokens_s": self.throughput_tokens_s,
            **stats,
            "energy_per_token_j": self.energy_per_token_j,
            "comm_seconds": self.comm_seconds,
            "steps": self.steps,
            "mean_kv_utilization": self.mean_kv_utilization,
            "preemptions": self.preemptions,
            "prefix_hit_rate": self.prefix_hit_rate,
        }


@dataclass
class ClusterReport(RecordStats):
    """Aggregate outcome of one trace on a multi-replica cluster.

    ``records`` holds one *cluster-level* :class:`RequestRecord` per
    original trace request — in disaggregated mode the prefill and
    decode halves are already merged, so TTFT comes from the prefill
    replica and the finish time from the decode replica, with the KV
    migration delay in between.  ``replicas`` keeps every engine's own
    :class:`ServingReport` for the per-replica view.
    """

    design: str
    router: str
    mode: str
    replicas: list = field(default_factory=list)
    records: list = field(default_factory=list)
    makespan_s: float = 0.0
    offered_rps: float = 0.0
    #: Requests the router assigned to each replica, by replica index.
    routed: list = field(default_factory=list)
    #: Disaggregated-mode KV migrations (0 in unified mode).
    migrations: int = 0
    kv_transfer_bytes: float = 0.0
    kv_transfer_seconds: float = 0.0

    @property
    def _label(self) -> str:
        return f"{self.design}/{self.router}"

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    # -- whole-cluster rollups ------------------------------------------
    @property
    def energy_j(self) -> float:
        return sum(r.energy_j for r in self.replicas)

    @property
    def energy_per_token_j(self) -> float:
        return self.energy_j / max(self.generated_tokens, 1)

    @property
    def steps(self) -> int:
        return sum(r.steps for r in self.replicas)

    @property
    def preemptions(self) -> int:
        return sum(r.preemptions for r in self.replicas)

    @property
    def step_cache_hits(self) -> int:
        """Step-cost cache hits across replicas (one shared cache when
        the replicas are identical — see :mod:`repro.serve.costs`)."""
        return sum(self.step_cache_hits_per_replica)

    @property
    def step_cache_misses(self) -> int:
        return sum(self.step_cache_misses_per_replica)

    @property
    def leap_steps(self) -> int:
        """Steps the replicas committed through the decode-leap path."""
        return sum(self.leap_steps_per_replica)

    # -- per-replica fast-path diagnostics ------------------------------
    @property
    def leap_steps_per_replica(self) -> list:
        """Leap-committed steps per replica, by replica index — a
        straggler here (one replica leaping far less than its peers)
        usually means its traffic mix keeps breaking pure-decode
        plans."""
        return [r.leap_steps for r in self.replicas]

    @property
    def step_cache_hits_per_replica(self) -> list:
        return [r.step_cache_hits for r in self.replicas]

    @property
    def step_cache_misses_per_replica(self) -> list:
        return [r.step_cache_misses for r in self.replicas]

    @property
    def comm_seconds(self) -> float:
        return sum(r.comm_seconds for r in self.replicas)

    @property
    def prefix_hit_rate(self) -> float:
        """Cluster-wide prompt tokens served from per-replica caches."""
        queried = sum(r.prefix_query_tokens for r in self.replicas)
        if queried == 0:
            return 0.0
        return sum(r.prefix_hit_tokens for r in self.replicas) / queried

    # -- per-replica balance --------------------------------------------
    @property
    def completed_per_replica(self) -> list:
        return [r.completed for r in self.replicas]

    @property
    def tokens_per_replica(self) -> list:
        """Output tokens each replica produced (halves count locally)."""
        return [r.generated_tokens for r in self.replicas]

    @property
    def utilization_per_replica(self) -> list:
        """Per-replica busy share of the *cluster* makespan."""
        span = max(self.makespan_s, 1e-12)
        return [r.busy_seconds / span for r in self.replicas]

    @property
    def token_balance(self) -> float:
        """Max-over-mean of per-replica token load (1.0 = perfectly
        balanced; large values mean the router piled work on one
        replica)."""
        tokens = self.tokens_per_replica
        if not tokens or sum(tokens) == 0:
            return 1.0
        return max(tokens) / (sum(tokens) / len(tokens))

    # -- per-tenant breakdown -------------------------------------------
    @property
    def tenants(self) -> list:
        """Sorted distinct tenant ids across completed requests."""
        if not self.records:
            return []
        return [int(t) for t in np.unique(self._columns()["tenant"])]

    def per_tenant_summary(self, slos=None) -> dict:
        """Tenant id → completion/latency/goodput breakdown.

        ``slos`` follows :meth:`RecordStats.good_completions`: a tenant
        present in the map is judged by its own SLO spec; absent
        tenants count every completion as good.
        """
        cols = self._columns()
        good = self._good_mask(slos=slos)
        span = max(self.makespan_s, 1e-12)
        out = {}
        for tid in self.tenants:
            mask = cols["tenant"] == tid
            ttft = cols["ttft"][mask]
            tpot = cols["tpot"][mask]
            n_good = int((good & mask).sum())
            out[tid] = {
                "completed": int(mask.sum()),
                "generated_tokens": int(cols["output_len"][mask].sum()),
                "good_completions": n_good,
                "goodput_rps": n_good / span,
                "mean_ttft_s": float(np.nanmean(ttft)),
                "p99_ttft_s": float(np.nanpercentile(ttft, 99)),
                "mean_tpot_s": float(np.nanmean(tpot)),
                "p99_latency_s": float(
                    np.percentile(cols["latency"][mask], 99)),
            }
        return out

    def summary(self) -> dict:
        """Flat dict of the headline numbers (for tables/plots)."""
        stats = dict.fromkeys(("p50_latency_s", "p99_latency_s",
                               "mean_ttft_s", "p99_ttft_s", "mean_tpot_s",
                               "p50_queue_delay_s", "p99_queue_delay_s"))
        if self.records:
            stats = {
                "p50_latency_s": self.p50_latency_s,
                "p99_latency_s": self.p99_latency_s,
                "mean_ttft_s": self.mean_ttft_s,
                "p99_ttft_s": self.ttft_percentile(99),
                "mean_tpot_s": self.mean_tpot_s,
                "p50_queue_delay_s": self.p50_queue_delay_s,
                "p99_queue_delay_s": self.p99_queue_delay_s,
            }
        return {
            "design": self.design,
            "router": self.router,
            "mode": self.mode,
            "n_replicas": self.n_replicas,
            "offered_rps": self.offered_rps,
            "completed": self.completed,
            "goodput_rps": self.goodput_rps(),
            "throughput_tokens_s": self.throughput_tokens_s,
            **stats,
            "energy_per_token_j": self.energy_per_token_j,
            "steps": self.steps,
            "preemptions": self.preemptions,
            "prefix_hit_rate": self.prefix_hit_rate,
            "token_balance": self.token_balance,
            "migrations": self.migrations,
            "kv_transfer_bytes": self.kv_transfer_bytes,
            "kv_transfer_seconds": self.kv_transfer_seconds,
        }


@dataclass
class FleetReport(ClusterReport):
    """A :class:`ClusterReport` over an *elastic* replica fleet.

    Produced by :class:`repro.serve.AutoscalingCluster`: ``replicas``
    holds one :class:`ServingReport` per replica **activation** (a slot
    retired and later relaunched contributes two entries), so the
    per-replica rollups stay exact across scale events.  On top of the
    cluster view it carries the scaling timeline and the silicon+energy
    cost the autoscaler trades against SLO attainment, priced through
    the :mod:`repro.carbon` model.
    """

    autoscaler: str = "static"
    #: ``(time_s, active_replicas)`` after every fleet-size change,
    #: starting with the initial ramp at t=0.
    scale_events: list = field(default_factory=list)
    cold_starts: int = 0
    #: Provisioning time summed over cold starts.  Already inside
    #: ``replica_seconds`` — silicon is paid for while it boots.
    cold_start_seconds: float = 0.0
    #: Replica-on time integral: Σ over activations of
    #: (retire − spin-up), provisioning included.
    replica_seconds: float = 0.0
    #: Per-replica silicon parameters (fleet replicas share one design).
    leakage_w: float = 0.0
    area_mm2: float = 0.0

    @property
    def peak_replicas(self) -> int:
        return max((n for _, n in self.scale_events),
                   default=self.n_replicas)

    @property
    def mean_replicas(self) -> float:
        """Time-averaged fleet size over the makespan."""
        return self.replica_seconds / max(self.makespan_s, 1e-12)

    @property
    def operational_energy_j(self) -> float:
        """Dynamic step energy plus leakage over every replica-on
        second — idle provisioned silicon leaks, which is exactly what
        scaling down saves."""
        return self.energy_j + self.leakage_w * self.replica_seconds

    def cost_kg(self,
                constants: CarbonConstants = DEFAULT_CARBON) -> float:
        """Carbon cost of the run: operational + amortized embodied.

        Embodied carbon is charged per replica-second against the
        constants' amortization lifetime, so holding silicon the load
        does not need costs even when it sits idle.
        """
        operational = operational_carbon_kg(self.operational_energy_j,
                                            constants)
        embodied = embodied_carbon_kg(self.area_mm2, constants) * (
            self.replica_seconds / constants.lifetime_seconds)
        return operational + embodied

    def cost_per_good_request_kg(
            self, ttft_slo_s: float | None = None,
            tpot_slo_s: float | None = None, slos=None,
            constants: CarbonConstants = DEFAULT_CARBON) -> float:
        """Cost-per-goodput: kg CO₂e per SLO-good completion.

        The headline autoscaling metric.  Both numerator and
        denominator are run totals, so it stays comparable between
        fleets whose makespans differ slightly (unlike a ratio of two
        rates).  ``inf`` when nothing met its SLO.
        """
        good = self.good_completions(ttft_slo_s, tpot_slo_s, slos)
        if good == 0:
            return float("inf")
        return self.cost_kg(constants) / good

    def summary(self) -> dict:
        base = super().summary()
        base.update({
            "autoscaler": self.autoscaler,
            "peak_replicas": self.peak_replicas,
            "mean_replicas": self.mean_replicas,
            "cold_starts": self.cold_starts,
            "cold_start_seconds": self.cold_start_seconds,
            "replica_seconds": self.replica_seconds,
            "operational_energy_j": self.operational_energy_j,
            "cost_kg": self.cost_kg(),
        })
        return base
