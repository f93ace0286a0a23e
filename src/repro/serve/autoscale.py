"""Elastic replica fleets: autoscaling serving on one global clock.

:class:`AutoscalingCluster` generalizes the fixed replica set of
:class:`repro.serve.ServingCluster` into a fleet that grows and shrinks
while it serves.  A pluggable :class:`Autoscaler` is consulted on a
fixed decision cadence (``tick_s`` of simulated time) with a
:class:`FleetSnapshot` of the fleet's state; its desired size is acted
on immediately:

* **scale-up** provisions fresh replicas, each paying a *cold start*
  priced over interconnect-style parameters
  (:class:`ColdStartConfig`: control-plane provisioning time plus
  streaming the quantized weights over a link) before it can take
  traffic;
* **scale-down** first cancels still-booting replicas, then marks the
  least-loaded active replicas **draining**: the router stops
  selecting them, their in-flight requests run to completion, and the
  replica retires the moment its engine goes idle.

The fleet runs the event loop every replica fleet shares (see
:mod:`repro.serve.cluster`): its decision ticks and cold-start
boot-ready instants are event kinds a fixed cluster never schedules,
and this module adds only the replica lifecycle behind them — spin-up,
activation, drain-and-retire, and the scaler consultation itself.

Three shipped scalers cover the comparison the autoscaling experiment
runs: ``static`` (provision for peak and hold — the baseline),
``reactive`` (outstanding-work thresholds with scale-down hysteresis),
and ``predictive`` (Holt-style EWMA level+trend forecast of the
arrival rate, sized in replica-capacity units and led by the cold-start
horizon so capacity lands *before* the diurnal ramp needs it).

Cost accounting is the point of scaling: the fleet tracks
replica-seconds (provisioning included — silicon is paid for while it
boots), and :class:`repro.serve.metrics.FleetReport` prices dynamic
energy + leakage over that on-time plus lifetime-amortized embodied
carbon through :mod:`repro.carbon`, yielding the cost-per-goodput
headline metric.

Everything stays deterministic: decisions happen at fixed simulated
ticks, tie-breaks are by replica index, and replicas are spun up with
fresh engines on the shared step-cost store — a fleet run is a pure
function of ``(trace, autoscaler, construction parameters)`` and is
bit-identical under ``run_sweep`` with any ``jobs`` value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..llm.config import ModelConfig
from .cluster import Replica, _engine_factory, _epilogue, _Fleet, _prologue
from .metrics import FleetReport
from .router import Router, make_router
from .trace import Request, offered_load_rps

__all__ = [
    "AUTOSCALERS",
    "Autoscaler",
    "AutoscalingCluster",
    "ColdStartConfig",
    "DEFAULT_COLD_START",
    "FleetSnapshot",
    "PredictiveAutoscaler",
    "ReactiveAutoscaler",
    "StaticAutoscaler",
    "make_autoscaler",
    "make_autoscaling_cluster",
]


@dataclass(frozen=True)
class ColdStartConfig:
    """Cost of bringing one replica online mid-run.

    A cold start is control-plane provisioning (allocate, boot, attach)
    plus streaming the model's quantized weights to the accelerator
    over a link — the same bandwidth/latency parameterization as
    :class:`repro.parallel.InterconnectConfig`, pointed at the
    weight-distribution path instead of collectives.
    """

    #: Allocate/boot/attach time before weights start flowing.
    provision_s: float = 30.0
    #: Weight-streaming link (defaults match DEFAULT_INTERCONNECT).
    link_bandwidth_bytes: float = 16e9
    link_latency_s: float = 1e-6
    #: Weight-only quantization width of the streamed checkpoint.
    woq_bits: int = 4

    def __post_init__(self):
        if not self.provision_s >= 0:
            raise ConfigError("provision_s must be non-negative")
        if not self.link_bandwidth_bytes > 0:
            raise ConfigError("link_bandwidth_bytes must be positive")
        if not self.link_latency_s >= 0:
            raise ConfigError("link_latency_s must be non-negative")
        if not self.woq_bits >= 1:
            raise ConfigError("woq_bits must be positive")

    def delay_s(self, config: ModelConfig) -> float:
        """Provisioning-to-ready delay for one replica of ``config``."""
        weight_bytes = config.param_count() * self.woq_bits / 8
        return self.provision_s + self.link_latency_s \
            + weight_bytes / self.link_bandwidth_bytes


#: Default cold start: ~30 s provisioning + 70B weights over a 16 GB/s
#: link.
DEFAULT_COLD_START = ColdStartConfig()


@dataclass(frozen=True)
class FleetSnapshot:
    """What an autoscaler sees at one decision tick."""

    now_s: float
    #: Decision cadence (forecast horizons are expressed in ticks).
    tick_s: float
    #: Routable replicas (draining ones are already excluded).
    active: int
    #: Replicas mid cold start.
    provisioning: int
    #: KV-footprint-weighted backlog across routable replicas.
    outstanding_tokens: int
    #: Routed-but-unfinished requests fleet-wide.
    inflight_requests: int
    #: Arrivals over the last tick window, as a rate.
    arrival_rate_rps: float


class Autoscaler:
    """Desired-fleet-size policy, consulted once per decision tick.

    ``desired`` returns the wanted number of routable-or-booting
    replicas given a :class:`FleetSnapshot`; implementations clamp to
    ``[min_replicas, max_replicas]`` via :meth:`_clamp` (the cluster
    clamps again defensively).  Scalers may keep mutable forecast
    state — one instance drives one run; ``reset`` is called at run
    start.
    """

    name = "autoscaler"

    def __init__(self, min_replicas: int = 1, max_replicas: int = 4):
        if not min_replicas >= 1:
            raise ConfigError("min_replicas must be positive")
        if not max_replicas >= min_replicas:
            raise ConfigError("max_replicas must be >= min_replicas")
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas

    def reset(self) -> None:
        """Forget per-run forecast state (called once per run)."""

    def _clamp(self, n: float) -> int:
        return max(self.min_replicas, min(self.max_replicas, int(n)))

    def desired(self, snapshot: FleetSnapshot) -> int:
        raise NotImplementedError


class StaticAutoscaler(Autoscaler):
    """Provision for peak and hold — the fixed-fleet baseline.

    ``StaticAutoscaler(max_replicas=N)`` is exactly the PR 4 cluster
    with N replicas, expressed as a (non-)scaling policy so the cost
    comparison runs through one code path.
    """

    name = "static"

    def desired(self, snapshot: FleetSnapshot) -> int:
        return self.max_replicas


class ReactiveAutoscaler(Autoscaler):
    """Outstanding-work thresholds with scale-down hysteresis.

    Sizes the fleet at ``ceil(outstanding_tokens /
    target_tokens_per_replica)``.  Scale-up is immediate; scale-down
    happens one replica per tick and only once the load would fit the
    smaller fleet with ``scale_down_fraction`` headroom to spare, so a
    noisy queue doesn't flap the fleet around the threshold.
    """

    name = "reactive"

    def __init__(self, target_tokens_per_replica: float = 100_000.0,
                 scale_down_fraction: float = 0.5,
                 min_replicas: int = 1, max_replicas: int = 4):
        super().__init__(min_replicas, max_replicas)
        if not target_tokens_per_replica > 0:
            raise ConfigError(
                "target_tokens_per_replica must be positive")
        if not 0.0 < scale_down_fraction <= 1.0:
            raise ConfigError("scale_down_fraction must be in (0, 1]")
        self.target_tokens_per_replica = target_tokens_per_replica
        self.scale_down_fraction = scale_down_fraction

    def desired(self, snapshot: FleetSnapshot) -> int:
        current = max(snapshot.active + snapshot.provisioning, 1)
        load = snapshot.outstanding_tokens \
            / self.target_tokens_per_replica
        if load > current:
            return self._clamp(math.ceil(load))
        if load < (current - 1) * self.scale_down_fraction:
            return self._clamp(current - 1)
        return self._clamp(current)


class PredictiveAutoscaler(Autoscaler):
    """Holt-style EWMA (level + trend) forecast of the arrival rate.

    Each tick folds the observed arrival rate into an exponentially
    weighted level and trend, projects the rate ``horizon_s`` ahead —
    set the horizon to the cold-start delay so capacity ordered now is
    ready when the forecast load arrives — and sizes the fleet at
    ``ceil(headroom · forecast / replica_rps)``.  A backlog floor
    (``ceil(outstanding / backlog_tokens_per_replica)``) keeps a bad
    forecast from stranding queued work.
    """

    name = "predictive"

    def __init__(self, replica_rps: float = 1.0, alpha: float = 0.35,
                 beta: float = 0.15, horizon_s: float = 0.0,
                 headroom: float = 1.2,
                 backlog_tokens_per_replica: float = 200_000.0,
                 min_replicas: int = 1, max_replicas: int = 4):
        super().__init__(min_replicas, max_replicas)
        if not replica_rps > 0:
            raise ConfigError("replica_rps must be positive")
        if not 0.0 < alpha <= 1.0 or not 0.0 <= beta <= 1.0:
            raise ConfigError("alpha must be in (0, 1], beta in [0, 1]")
        if not horizon_s >= 0:
            raise ConfigError("horizon_s must be non-negative")
        if not headroom > 0:
            raise ConfigError("headroom must be positive")
        if not backlog_tokens_per_replica > 0:
            raise ConfigError(
                "backlog_tokens_per_replica must be positive")
        self.replica_rps = replica_rps
        self.alpha = alpha
        self.beta = beta
        self.horizon_s = horizon_s
        self.headroom = headroom
        self.backlog_tokens_per_replica = backlog_tokens_per_replica
        self._level: float | None = None
        self._trend = 0.0

    def reset(self) -> None:
        self._level = None
        self._trend = 0.0

    def desired(self, snapshot: FleetSnapshot) -> int:
        rate = snapshot.arrival_rate_rps
        if self._level is None:
            self._level, self._trend = rate, 0.0
        else:
            previous = self._level
            self._level = self.alpha * rate \
                + (1.0 - self.alpha) * (self._level + self._trend)
            self._trend = self.beta * (self._level - previous) \
                + (1.0 - self.beta) * self._trend
        ticks_ahead = self.horizon_s / max(snapshot.tick_s, 1e-9)
        forecast = max(self._level + self._trend * ticks_ahead, 0.0)
        want = math.ceil(self.headroom * forecast / self.replica_rps)
        backlog = math.ceil(snapshot.outstanding_tokens
                            / self.backlog_tokens_per_replica)
        return self._clamp(max(want, backlog))


#: Autoscaler registry for string-based construction.
AUTOSCALERS = {cls.name: cls for cls in (
    StaticAutoscaler, ReactiveAutoscaler, PredictiveAutoscaler)}


def make_autoscaler(autoscaler, **kwargs) -> Autoscaler:
    """Build an autoscaler from a registry name (or pass one through).

    ``make_autoscaler("reactive", max_replicas=6)``
    """
    if isinstance(autoscaler, Autoscaler):
        if kwargs:
            raise ConfigError(
                "pass construction kwargs to the Autoscaler instance, "
                "not alongside it")
        return autoscaler
    try:
        return AUTOSCALERS[autoscaler](**kwargs)
    except KeyError:
        raise ConfigError(
            f"unknown autoscaler {autoscaler!r}; choose from "
            f"{sorted(AUTOSCALERS)}") from None


class AutoscalingCluster(_Fleet):
    """An elastic unified cluster: replicas spin up/down while serving.

    It drives its replicas with the shared fleet event loop and adds
    the lifecycle: :meth:`_spin_up` / :meth:`_activate` on scale-up,
    draining and :meth:`_retire` (or :meth:`_cancel` of a boot) on
    scale-down, and :meth:`_decide` at every tick.

    Construction mirrors :func:`repro.serve.make_cluster` (identical
    replicas of one design), with the replica *count* replaced by an
    :class:`Autoscaler` and its ``[min_replicas, max_replicas]`` band.
    The initial fleet is the scaler's decision on an empty snapshot and
    starts **warm** at t=0 — the fleet predates the trace, so a static
    baseline pays no artificial cold starts; every later scale-up pays
    :class:`ColdStartConfig` provisioning before taking traffic.

    Parameters beyond ``make_cluster``'s:

    autoscaler / autoscaler_kwargs:
        Registry name (or instance) and its construction kwargs;
        ``max_replicas`` defaults to ``n_replicas``.
    n_replicas:
        Fleet ceiling handed to the autoscaler factory (the band's
        upper edge, not a fixed size).
    tick_s:
        Decision cadence in simulated seconds.
    cold_start:
        :class:`ColdStartConfig` pricing scale-up delay.
    slos:
        :class:`repro.serve.TenantSLO` specs forwarded to the
        scheduler policy (fair-share / tenant-priority; needs a paged
        ``policy``).
    """

    def __init__(self, design, config: ModelConfig, n_replicas: int = 4,
                 autoscaler="static", router: Router | str =
                 "least-outstanding", policy: str = "continuous",
                 max_batch: int = 16,
                 kv_capacity_bytes: float | None = None,
                 kvq_bits: int = 4, scheduler_kwargs: dict | None = None,
                 seq_len_bucket: int = 1, slos: tuple = (),
                 tick_s: float = 60.0,
                 cold_start: ColdStartConfig = DEFAULT_COLD_START,
                 autoscaler_kwargs: dict | None = None,
                 name: str | None = None, **engine_kwargs):
        if n_replicas < 1:
            raise ConfigError("n_replicas must be positive")
        if not tick_s > 0:
            raise ConfigError("tick_s must be positive")
        if slos and policy in ("continuous", "static"):
            raise ConfigError(
                "tenant SLO scheduling needs a paged policy; the "
                "peak-reservation schedulers take no slos")
        if slos:
            scheduler_kwargs = {"slos": tuple(slos),
                                **(scheduler_kwargs or {})}
        self._new_engine = _engine_factory(
            design, config, policy, max_batch, kv_capacity_bytes, kvq_bits,
            scheduler_kwargs, seq_len_bucket, **engine_kwargs)
        self.design = design
        self.config = config
        self.router = make_router(router)
        kwargs = dict(autoscaler_kwargs or {})
        if not isinstance(autoscaler, Autoscaler):
            kwargs.setdefault("max_replicas", n_replicas)
        self.autoscaler = make_autoscaler(autoscaler, **kwargs)
        self.tick_s = tick_s
        self.cold_start = cold_start
        self._cold_delay = cold_start.delay_s(config)
        design_name = getattr(design, "name", type(design).__name__)
        self.name = name if name is not None else \
            f"elastic {design_name} x<= {self.autoscaler.max_replicas}"
        # Per-replica silicon parameters for the cost model: one probe
        # step on the shared surface (any signature carries the
        # design's area and leakage).
        probe_engine = self._new_engine()
        probe = probe_engine._surface.price_step((), (1,), ())
        self.leakage_w = probe.leakage_w
        self.area_mm2 = probe.area_mm2
        self.replicas: list[Replica] = []

    # -- replica lifecycle ----------------------------------------------
    def _note_scale(self, t: float) -> None:
        n = len(self._routable())
        if not self._scale_events or self._scale_events[-1][1] != n:
            self._scale_events.append((t, n))

    def _boot_changed(self) -> None:
        self._ready_t = min((rep.ready_s for rep in self._booting),
                            default=math.inf)

    def _spin_up(self, t: float, warm: bool = False) -> Replica:
        rep = Replica(index=len(self.replicas), engine=self._new_engine(),
                      state="provisioning", spun_up_s=t,
                      ready_s=t if warm else t + self._cold_delay)
        self.replicas.append(rep)
        if warm:
            self._activate(rep, t)
        else:
            self._cold_starts += 1
            self._booting.append(rep)
            self._boot_changed()
        return rep

    def _activate(self, rep: Replica, t: float) -> None:
        if rep.spun_up_s < rep.ready_s:
            self._cold_start_seconds += rep.ready_s - rep.spun_up_s
        if rep in self._booting:
            self._booting.remove(rep)
            self._boot_changed()
        rep.engine.start()
        rep.engine.advance_to(t)
        rep.state = "active"
        self._note_scale(t)

    def _retire(self, rep: Replica, t: float) -> None:
        """Close an active/draining replica's session at time ``t``."""
        report = rep.engine.finish()
        self._reports.append(report)
        self._retired_completed += report.completed
        rep.state = "retired"
        self._replica_deltas.append(t - rep.spun_up_s)
        self._makespan = max(self._makespan, t)
        self._note_scale(t)

    def _cancel(self, rep: Replica, t: float) -> None:
        """Abort a still-booting replica (its engine never started)."""
        rep.state = "retired"
        if rep in self._booting:
            self._booting.remove(rep)
            self._boot_changed()
        self._replica_deltas.append(t - rep.spun_up_s)
        self._cold_start_seconds += t - rep.spun_up_s

    # -- scaling decisions ----------------------------------------------
    def _decide(self, t: float, routed: int) -> None:
        """One autoscaler consultation at tick ``t``, after ``routed``
        trace arrivals have been routed."""
        active = self._routable()
        booting = [rep for rep in self.replicas
                   if rep.state == "provisioning"]
        # Completions so far: retired sessions plus live ones.
        completed = self._retired_completed + sum(
            rep.engine.report.completed for rep in self.replicas
            if rep.state in ("active", "draining"))
        snapshot = FleetSnapshot(
            now_s=t, tick_s=self.tick_s, active=len(active),
            provisioning=len(booting),
            outstanding_tokens=sum(rep.outstanding_tokens
                                   for rep in active),
            inflight_requests=routed - completed,
            arrival_rate_rps=(routed - self._routed_at_tick) / self.tick_s)
        self._routed_at_tick = routed
        scaler = self.autoscaler
        want = max(scaler.min_replicas,
                   min(scaler.max_replicas,
                       int(scaler.desired(snapshot))))
        current = len(active) + len(booting)
        if want > current:
            for _ in range(want - current):
                self._spin_up(t)
        elif want < current:
            excess = current - want
            # Cancel the newest boots first — least sunk cost, and it
            # can never strand routed work (booting replicas hold none).
            for rep in sorted(booting,
                              key=lambda r: (-r.ready_s, -r.index)):
                if excess == 0:
                    break
                self._cancel(rep, t)
                excess -= 1
            # Then drain the least-loaded active replicas; ``want >=
            # min_replicas >= 1`` keeps at least one routable replica.
            victims = sorted(
                (rep for rep in active),
                key=lambda r: (r.outstanding_tokens, r.index))[:excess]
            for rep in victims:
                rep.state = "draining"
                self._note_scale(t)
                if not rep.engine.has_work():
                    self._retire(rep, t)

    def run(self, trace: list[Request]) -> FleetReport:
        """Serve a trace on the elastic fleet; merge into one report."""
        pending, times = _prologue(trace)
        self._reset()
        self.autoscaler.reset()
        self.replicas = []
        self._reports: list = []
        self._scale_events: list = []
        self._cold_starts = 0
        self._cold_start_seconds = 0.0
        #: Per-retirement on-time spans, summed vectorized at teardown.
        self._replica_deltas: list = []
        self._makespan = 0.0
        self._routed_at_tick = 0
        self._retired_completed = 0

        # Initial ramp: the scaler's decision on an empty fleet, warm
        # at t=0 (the fleet predates the trace; only mid-run growth
        # pays cold starts).
        initial = FleetSnapshot(now_s=0.0, tick_s=self.tick_s, active=0,
                                provisioning=0, outstanding_tokens=0,
                                inflight_requests=0,
                                arrival_rate_rps=0.0)
        n0 = max(self.autoscaler.min_replicas,
                 min(self.autoscaler.max_replicas,
                     int(self.autoscaler.desired(initial))))
        for _ in range(n0):
            self._spin_up(0.0, warm=True)
        self._validate(pending)

        self._drive(pending, times)

        end_t = self._makespan
        for rep in self.replicas:
            if rep.state in ("active", "draining"):
                end_t = max(end_t, rep.engine.now)
        for rep in self.replicas:
            if rep.state in ("active", "draining"):
                self._retire(rep, end_t)
            elif rep.state == "provisioning":
                self._cancel(rep, end_t)
        # Replica on-time, summed with numpy's sequential-accumulation
        # semantics (bit-equal to the retired-order += chain).
        replica_seconds = float(np.cumsum(np.asarray(
            self._replica_deltas))[-1]) if self._replica_deltas else 0.0
        completions = _epilogue(self._reports, pending)
        return FleetReport(
            design=self.name, router=self.router.name, mode="elastic",
            replicas=self._reports, completions=completions,
            makespan_s=self._makespan,
            offered_rps=offered_load_rps(trace),
            routed=[report.completed for report in self._reports],
            autoscaler=self.autoscaler.name,
            scale_events=self._scale_events,
            cold_starts=self._cold_starts,
            cold_start_seconds=self._cold_start_seconds,
            replica_seconds=replica_seconds,
            leakage_w=self.leakage_w, area_mm2=self.area_mm2)


def make_autoscaling_cluster(design, config: ModelConfig,
                             n_replicas: int = 4, **kwargs
                             ) -> AutoscalingCluster:
    """Elastic fleet of up to ``n_replicas`` replicas of ``design``.

    ``make_autoscaling_cluster(make_design("mugi", 256), SERVE_MODEL,
    6, autoscaler="reactive", tick_s=30.0)``
    """
    return AutoscalingCluster(design, config, n_replicas=n_replicas,
                              **kwargs)
