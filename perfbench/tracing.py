"""Outside-in timing wrappers for the traced run.

The benchmark's traced run installs :class:`Tracer` wrappers around the
public callables of each ``repro`` layer before it starts the clock.
Nothing inside ``src/`` changes: a wrapper replaces the class attribute
(or module function) it times and delegates to the original.

Every wrapped call is one *frame* on a stack.  On return the frame's
duration is charged to its name and layer; its *self* time is the
duration minus the time of wrapped calls made inside it.  Hot callables
(``ServingEngine.step`` runs ~400k times on ``decode-cluster``) are
only aggregated in place; coarse ones (trace synthesis, the drive
loops, the metrics pass, the sweep and search sessions) also keep one
``(name, start, end, parent)`` span each, written out at the end.
"""

from __future__ import annotations

import functools
import time

import repro.search
import repro.search.driver
import repro.serve
import repro.serve.engine
import repro.serve.sweep
from repro.llm import StepCostSurface
from repro.serve import (
    Autoscaler,
    AutoscalingCluster,
    ClusterReport,
    FleetReport,
    PagedScheduler,
    Router,
    Scheduler,
    ServingCluster,
    ServingEngine,
    ServingReport,
    SweepExecutor,
    TraceSpec,
)


def _family(*roots) -> list:
    """Every class under ``roots`` (roots included), parents first."""
    seen, order, todo = set(), [], list(roots)
    while todo:
        cls = todo.pop(0)
        if cls not in seen:
            seen.add(cls)
            order.append(cls)
            todo.extend(cls.__subclasses__())
    return order


class Stat:
    """Aggregated frames of one wrapped name."""

    __slots__ = ("layer", "calls", "total_s", "self_s")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Frame stack, per-name aggregates, and coarse spans of one run."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        #: Open frames: ``[child_seconds, name]``.
        self.stack: list = []
        self.spans: list = []
        #: Values returned by wrappers installed with ``keep_result``.
        self.results: dict[str, list] = {}

    def wrap(self, name: str, layer: str, fn, keep_span: bool = False,
             keep_result: bool = False, within: tuple = ()):
        """``fn`` wrapped so each call is charged to ``name``.

        A call nested directly inside a call of the same name (a
        subclass delegating to ``super()``, a router delegating to its
        fallback), or of a name in ``within``, adds time but not
        another call.
        """
        stat = self.stats.setdefault(name, Stat(layer))
        uncounted = {name, *within}
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        results = self.results.setdefault(name, []) if keep_result else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                value = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is None or parent[1] not in uncounted:
                    stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if keep_span:
                    spans.append((name, start, end,
                                  None if parent is None else parent[1]))
            if results is not None:
                results.append(value)
            return value

        return traced

    def patch(self, cls: type, attr: str, name: str, layer: str,
              **kwargs) -> None:
        """Replace the method ``cls.attr`` with its traced wrapper."""
        setattr(cls, attr, self.wrap(name, layer, cls.__dict__[attr],
                                     **kwargs))

    def patch_select_batch(self, cls: type) -> None:
        """Wrap ``cls.select_batch`` and the ``commit`` callback it is
        handed.  The callback admits the request into the chosen engine,
        so it is charged to the fleet as ``fleet.dispatch`` rather than
        to routing; its calls count the requests a batch routed, whether
        or not the router's ``select_batch`` goes through ``select``."""
        dispatch = self.wrap(
            "fleet.dispatch", "fleet",
            lambda commit, request, replica: commit(request, replica))
        original = cls.__dict__["select_batch"]

        def select_batch(router, requests, replicas, commit):
            return original(router, requests, replicas,
                            lambda request, replica:
                            dispatch(commit, request, replica))

        cls.select_batch = self.wrap("router.select_batch", "router",
                                     functools.wraps(original)(select_batch))

    def install(self) -> None:
        """Wrap every layer's public callables (see the module doc)."""
        self.patch(TraceSpec, "realize", "trace.realize", "trace",
                   keep_span=True)
        self.patch(StepCostSurface, "price_step", "price.price_step",
                   "price")
        self.patch(ServingEngine, "step", "engine.step", "engine")
        for cls in _family(Scheduler, PagedScheduler):
            for attr in ("plan_step", "commit_leap"):
                if attr in cls.__dict__:
                    self.patch(cls, attr, f"sched.{attr}", "sched")
        for cls in _family(Router):
            if "select" in cls.__dict__:
                self.patch(cls, "select", "router.select", "router",
                           within=("router.select_batch",))
            if "select_batch" in cls.__dict__:
                self.patch_select_batch(cls)
        for cls in _family(Autoscaler):
            if "desired" in cls.__dict__:
                self.patch(cls, "desired", "autoscale.desired",
                           "autoscale")
        self.patch(ServingCluster, "run", "fleet.cluster_run", "fleet",
                   keep_span=True)
        self.patch(AutoscalingCluster, "run", "fleet.autoscaling_run",
                   "fleet", keep_span=True)
        original = repro.serve.engine.simulate_trace
        traced = self.wrap("fleet.simulate_trace", "fleet", original,
                           keep_span=True)
        for module in (repro.serve, repro.serve.engine, repro.serve.sweep):
            if module.simulate_trace is original:
                module.simulate_trace = traced
        for cls in (ServingReport, ClusterReport, FleetReport):
            self.patch(cls, "summary", "metrics.summary", "metrics",
                       keep_span=True)
        self.patch(SweepExecutor, "run", "sweep.run", "sweep",
                   keep_span=True, keep_result=True)
        original = repro.search.driver.search
        traced = self.wrap("search.search", "search", original,
                           keep_span=True)
        for module in (repro.search, repro.search.driver):
            if module.search is original:
                module.search = traced

    def dump(self) -> dict:
        return {
            "stats": {name: {"layer": s.layer, "calls": s.calls,
                             "total_s": s.total_s, "self_s": s.self_s}
                      for name, s in sorted(self.stats.items())},
            "spans": [{"name": n, "start": a, "end": b, "parent": p}
                      for n, a, b, p in self.spans],
        }
