"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this script once per sample so that every sample pays
interpreter start, ``import repro`` and cold step-cost pricing the way a
user's process does.  It prints one JSON object as its last line.

Modes:

* ``setup`` stops once the workload is ready (set-up timing only);
* ``run`` times trace synthesis, simulate, a forced metrics pass
  (``summary()``) and teardown, then checks the outputs;
* ``traced`` does the same with :class:`tracing.Tracer` wrappers
  installed and adds the per-layer numbers.

Set-up is timed as the CPU seconds the process has used when it is
ready; the run as wall and as CPU seconds, sweep workers' included.
The monotonic ends of both windows are printed too (set-up starts at
``--spawned-at``, the parent's ``time.monotonic()`` just before it
started this process; Linux's monotonic clock is system-wide), so
``run.py`` can read the host's pace over each.
"""

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _children_cpu_s() -> float:
    """CPU seconds of the ended child processes (sweep workers)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def check_records(report, n_requests: int) -> list:
    """Invariant problems of one report (empty when it is sound)."""
    problems = []
    if report.completed != n_requests:
        problems.append(f"{report.completed} of {n_requests} requests "
                        f"completed")
    disordered = sum(
        1 for r in report.records
        if not r.request.arrival_s <= r.first_token_s <= r.finish_s)
    if disordered:
        problems.append(f"{disordered} records break arrival <= first "
                        f"token <= finish")
    return problems


def trace_length(spec) -> int:
    return spec.n_requests if spec.kind != "multi-tenant" \
        else len(spec.realize())


def sim_values(report, slos) -> dict:
    from repro.serve import FleetReport
    values = {"sim_goodput_rps": report.goodput_rps(slos=slos),
              "sim_ttft_p99_s": report.ttft_percentile(99),
              "sim_energy_per_token_j": report.energy_per_token_j}
    if isinstance(report, FleetReport):
        values["sim_cost_per_good_kg"] = \
            report.cost_per_good_request_kg(slos=slos)
    return values


def kv_utilization(report) -> tuple:
    """Step-weighted mean and peak KV occupancy over all engines."""
    engines = getattr(report, "replicas", [report])
    steps = sum(len(e.kv_utilization) for e in engines)
    if steps == 0:
        return 0.0, 0.0
    mean = sum(e.mean_kv_utilization * len(e.kv_utilization)
               for e in engines) / steps
    return mean, max(e.peak_kv_utilization for e in engines)


def attributed_s(stats: dict) -> float:
    """Self time summed over every wrapped name: the part of the run
    some layer accounts for."""
    return sum(s["self_s"] for s in stats.values())


def layer_metrics(stats: dict, report, run: dict) -> dict:
    """The per-layer numbers of one traced run.

    ``stats`` is the tracer's per-name aggregate frozen when the clock
    stopped; ``report`` the run's (or, for the search session, the
    re-scored hand-picked config's) report; ``run`` the sweep/search
    counters shipped home by the search session.
    """
    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def total(name):
        return stats.get(name, {}).get("total_s", 0.0)

    def self_s(*names):
        return sum(stats.get(n, {}).get("self_s", 0.0) for n in names)

    def layer_self(layer):
        return sum(s["self_s"] for s in stats.values()
                   if s["layer"] == layer)

    from repro.serve import ClusterReport, FleetReport
    price_calls = calls("price.price_step")
    step_calls = calls("engine.step")
    hits = run.get("cache_hits", report.step_cache_hits)
    misses = run.get("cache_misses", report.step_cache_misses)
    steps = run.get("steps", report.steps)
    leap_steps = run.get("leap_steps", report.leap_steps)
    kv_mean, kv_peak = kv_utilization(report)
    is_cluster = isinstance(report, ClusterReport)
    is_fleet = isinstance(report, FleetReport)
    return {
        "trace.s": run.get("trace_s", total("trace.realize")),
        "trace.requests": run.get("trace_requests", run["requests"]),
        "price.calls": price_calls,
        "price.s": total("price.price_step"),
        "price.us_per_call": 1e6 * total("price.price_step")
        / max(price_calls, 1),
        "costs.hits": hits,
        "costs.misses": misses,
        "costs.hit_ratio": hits / max(hits + misses, 1),
        "engine.step_calls": step_calls,
        "engine.steps": steps,
        "engine.leap_steps": leap_steps,
        "engine.leap_ratio": leap_steps / max(steps, 1),
        "engine.step_self_s": self_s("engine.step"),
        "engine.us_per_step_call": 1e6 * total("engine.step")
        / max(step_calls, 1),
        "sched.plan_calls": calls("sched.plan_step"),
        "sched.plan_s": total("sched.plan_step"),
        "sched.commit_leap_s": total("sched.commit_leap"),
        "sim.queue_delay_p99_s": report.queue_delay_percentile(99),
        "sim.ttft_p99_s": run["sim"]["sim_ttft_p99_s"],
        "kv.prefix_hit_rate": report.prefix_hit_rate,
        "kv.mean_utilization": kv_mean,
        "kv.peak_utilization": kv_peak,
        "kv.preemptions": report.preemptions,
        "router.calls": calls("router.select") + calls("fleet.dispatch"),
        "router.s": layer_self("router"),
        "router.token_balance": report.token_balance if is_cluster
        else 1.0,
        "fleet.drive_self_s": layer_self("fleet"),
        "autoscale.calls": calls("autoscale.desired"),
        "autoscale.s": total("autoscale.desired"),
        "fleet.mean_replicas": report.mean_replicas if is_fleet
        else float(getattr(report, "n_replicas", 1)),
        "fleet.cold_starts": report.cold_starts if is_fleet else 0,
        "sim.cost_per_good_kg": run["sim"].get("sim_cost_per_good_kg",
                                               0.0),
        "metrics.s": layer_self("metrics"),
        "sweep.session_s": total("sweep.run"),
        "sweep.points": run.get("points", 0),
        "sweep.simulated": run.get("simulated", 0),
        "sweep.memo_hits": run.get("memo_hits", 0),
        "sweep.trace_cache_hits": run.get("trace_cache_hits", 0),
        "sweep.worker_busy_s": run.get("worker_busy_s", 0.0),
        "sweep.wait_s": run.get("jobs", 0) * total("sweep.run")
        - run.get("worker_busy_s", 0.0),
        "search.evaluated": run.get("evaluated", 0),
        "search.total_runs": run.get("total_runs", 0),
        "search.frontier_size": run.get("frontier_size", 0),
    }


def sweep_counters(sweeps: list, jobs: int) -> dict:
    """What the search session's workers shipped home, summed over its
    :class:`repro.serve.SweepReport` objects."""
    fresh = [o for s in sweeps for o in s.outcomes if not o.memo_hit]
    return {
        "jobs": jobs,
        "points": sum(len(s) for s in sweeps),
        "simulated": sum(s.memo_misses for s in sweeps),
        "memo_hits": sum(s.memo_hits for s in sweeps),
        "trace_cache_hits": sum(s.trace_cache_hits for s in sweeps),
        "worker_busy_s": sum(o.trace_s + o.wall_s + o.teardown_s
                             for o in fresh),
        "trace_s": sum(o.trace_s for o in fresh),
        "trace_requests": sum(o.report.completed for o in fresh),
        "cache_hits": sum(o.cache_hits for o in fresh),
        "cache_misses": sum(o.cache_misses for o in fresh),
        "steps": sum(o.report.steps for o in fresh),
        "leap_steps": sum(o.report.leap_steps for o in fresh),
    }


def run_search(recipe, jobs: int):
    """The search session: the search, then the hand-picked config
    re-scored on the same executor.  Returns the search result and the
    hand-picked report; the pool is shut down on return."""
    import repro.search
    import repro.serve
    from workloads import OBJECTIVES, SEARCH_STRATEGY
    with repro.serve.SweepExecutor(jobs=jobs) as executor:
        result = repro.search.search(
            recipe.space, recipe.workload, objectives=OBJECTIVES,
            strategy=SEARCH_STRATEGY, executor=executor)
        sweep = executor.run([recipe.hand_picked])
    return result, sweep.outcomes[0].report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", default="run",
                        choices=("setup", "run", "traced"))
    parser.add_argument("--spawned-at", type=float, default=STARTED)
    parser.add_argument("--spans", help="write the traced run's spans "
                        "to this JSON file")
    args = parser.parse_args(argv)

    start = time.process_time()
    sys.path.insert(0, str(SRC))
    import repro.serve
    import repro.serve.sweep
    from repro.arch import make_design
    import workloads
    imported = time.process_time()
    recipe = workloads.build(args.workload, args.seed, args.size)
    # Build the design through the per-process memo run_point resolves
    # it from, so the run serves on the instance built here; should the
    # memo be renamed, a plain build keeps set-up comparable.
    design_of = getattr(repro.serve.sweep, "_design_of", make_design)
    design_of(*workloads.DESIGN)
    ready, ready_cpu = time.monotonic(), time.process_time()
    out = {"setup_cpu_s": ready_cpu,
           "spawned_at": args.spawned_at, "ready_at": ready,
           "import_s": imported - start, "design_s": ready_cpu - imported}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    search = isinstance(recipe, workloads.Search)
    began = time.monotonic()
    cpu_start = time.process_time() + _children_cpu_s()
    clock = time.perf_counter()
    if search:
        result, report = run_search(recipe, workloads.SEARCH_JOBS)
    else:
        result = None
        report = repro.serve.run_point(recipe)
    report.summary()
    run_s = time.perf_counter() - clock
    run_cpu_s = time.process_time() + _children_cpu_s() - cpu_start
    stats = tracer.dump()["stats"] if tracer else None

    point = recipe.hand_picked if search else recipe
    n_requests = trace_length(point.trace)
    problems = check_records(report, n_requests)
    run = {"requests": n_requests,
           "sim": sim_values(report, point.slos or None),
           "counts": {"steps": report.steps,
                      "leap_steps": report.leap_steps,
                      "completed": report.completed}}
    if search:
        run["labels"] = sorted(result.frontier.labels())
        problems += [f"{c.label}: {p}" for c in result.frontier
                     for p in check_records(c.report, n_requests)]
        run.update(evaluated=result.evaluated,
                   total_runs=result.total_runs,
                   frontier_size=len(result.frontier))
        if tracer:
            sweeps = tracer.results["sweep.run"]
            run.update(sweep_counters(sweeps, workloads.SEARCH_JOBS))
            sweeps.clear()

    layers = layer_metrics(stats, report, run) if tracer else None
    clock, teardown_cpu = time.perf_counter(), time.process_time()
    del report, result
    teardown_s = time.perf_counter() - clock
    wall_s = run_s + teardown_s
    cpu_s = run_cpu_s + time.process_time() - teardown_cpu
    ended = time.monotonic()
    if tracer:
        attributed = attributed_s(stats)
        layers["tracing.wall_s"] = wall_s
        layers["tracing.attributed_s"] = attributed
        layers["tracing.unattributed_share"] = \
            max(wall_s - attributed, 0.0) / wall_s
        if args.spans:
            pathlib.Path(args.spans).write_text(json.dumps(tracer.dump()))
    out.update(wall_s=wall_s, cpu_s=cpu_s, run_s=run_s,
               teardown_s=teardown_s, began_at=began, ended_at=ended,
               rss_mb=_rss_mb(resource.RUSAGE_SELF),
               workers_rss_mb=_rss_mb(resource.RUSAGE_CHILDREN),
               problems=problems, layers=layers,
               **{k: v for k, v in run.items()
                  if k in ("sim", "counts", "labels", "requests")})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
