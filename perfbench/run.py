"""End-to-end and per-layer host benchmark of the serving stack.

Runs one named workload (see ``workloads.py`` and ``README.md``) for
about ``--seconds`` seconds.  Every sample is a fresh process
(``child.py``), so set-up time, peak memory and cold caches are per
sample, as in a user's process.  The run is pinned to one CPU and each
sample runs beside a pace kernel (``pace.py``), so host seconds
are reported as CPU seconds at a fixed reference pace.  Each sample's
outputs are checked: all requests complete, every record satisfies
arrival <= first token <= finish, and, at the workload's default seed,
the step counts, the simulated metrics and (for ``search-session``) the
frontier labels equal those committed in ``expected.json``.

Usage::

    python3 perfbench/run.py --workload decode-cluster
    python3 perfbench/run.py --workload prefix-elastic --seed 7 --trace 1

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` a traced sample follows the untraced ones and the result
carries the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every sample passed.  If the program cannot even be set
up, no result is printed and the exit code is 2.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
PACE = HERE / "pace.py"

WORKLOADS = ("decode-cluster", "cohort-400k", "prefix-elastic",
             "search-session")

#: name -> (unit, better).  Host metrics are seconds/MB of this
#: program (seconds at the reference pace, see ``pace.py``); ``sim_*``
#: are statistics of the modelled Mugi hardware.
END_TO_END = {
    "run_ref_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_goodput_rps": ("req/s", "higher"),
    "sim_energy_per_token_j": ("J/token", "lower"),
}

PER_LAYER = {
    "setup.import_s": ("s", "lower"),
    "setup.design_s": ("s", "lower"),
    "run.cpu_s": ("s", "lower"),
    "run.wall_s": ("s", "lower"),
    "host.pace": ("ratio", "higher"),
    "trace.s": ("s", "lower"),
    "trace.requests": ("count", "higher"),
    "price.calls": ("count", "lower"),
    "price.s": ("s", "lower"),
    "price.us_per_call": ("us", "lower"),
    "costs.hits": ("count", "higher"),
    "costs.misses": ("count", "lower"),
    "costs.hit_ratio": ("ratio", "higher"),
    "engine.step_calls": ("count", "lower"),
    "engine.steps": ("count", "lower"),
    "engine.leap_steps": ("count", "higher"),
    "engine.leap_ratio": ("ratio", "higher"),
    "engine.step_self_s": ("s", "lower"),
    "engine.us_per_step_call": ("us", "lower"),
    "sched.plan_calls": ("count", "lower"),
    "sched.plan_s": ("s", "lower"),
    "sched.commit_leap_s": ("s", "lower"),
    "sim.queue_delay_p99_s": ("s", "lower"),
    "sim.ttft_p99_s": ("s", "lower"),
    "kv.prefix_hit_rate": ("ratio", "higher"),
    "kv.mean_utilization": ("ratio", "higher"),
    "kv.peak_utilization": ("ratio", "lower"),
    "kv.preemptions": ("count", "lower"),
    "router.calls": ("count", "lower"),
    "router.s": ("s", "lower"),
    "router.token_balance": ("ratio", "lower"),
    "fleet.drive_self_s": ("s", "lower"),
    "autoscale.calls": ("count", "lower"),
    "autoscale.s": ("s", "lower"),
    "fleet.mean_replicas": ("count", "lower"),
    "fleet.cold_starts": ("count", "lower"),
    "sim.cost_per_good_kg": ("kgCO2e", "lower"),
    "metrics.s": ("s", "lower"),
    "sweep.session_s": ("s", "lower"),
    "sweep.points": ("count", "higher"),
    "sweep.simulated": ("count", "lower"),
    "sweep.memo_hits": ("count", "higher"),
    "sweep.trace_cache_hits": ("count", "higher"),
    "sweep.worker_busy_s": ("s", "lower"),
    "sweep.wait_s": ("s", "lower"),
    "search.evaluated": ("count", "lower"),
    "search.total_runs": ("count", "lower"),
    "search.frontier_size": ("count", "higher"),
    "tracing.overhead_s": ("s", "lower"),
    "tracing.unattributed_share": ("ratio", "lower"),
}

#: Set-up-only processes started before the measured samples, so the
#: set-up median rests on several samples even when a sample is long.
#: One more set-up sample comes from the golden probe: the tiny variant
#: at its default seed, whose outputs are checked against
#: ``expected.json`` whatever ``--seed`` the run was given.
SETUP_PROBES = 2
#: No sample may run longer than this; a run as a whole stops here.
SAMPLE_TIMEOUT_S = 150.0
RUN_DEADLINE_S = 170.0
#: Relative tolerance on committed floating-point expectations.
REL_TOL = 1e-9
#: The reference pace: ``pace.py`` chunks per CPU second that define one
#: reference second (about the pace of a quiet 2-vCPU host).
REF_PACE = 10000.0
#: How the simulator's CPU time follows the pace kernel's: it slows
#: less than the pure-interpreter kernel when the host is busy.  Fitted
#: on a shared 2-vCPU host: over 18 sets of 5-10 runs of the four
#: workloads, exponents 0.6-0.75 gave the steadiest results, 0.7 the
#: smallest mean spread.
PACE_EXPONENT = 0.7


class SetupFailed(RuntimeError):
    """The program could not even be imported and set up."""


def provenance(seed: int) -> dict:
    """Where a result came from: code version, seed, host, toolchain."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version}


def at_ref_pace(cpu_s: float, pace: float) -> float:
    """CPU seconds measured at ``pace``, in seconds at the reference."""
    return cpu_s * (pace / REF_PACE) ** PACE_EXPONENT


def pin_to_one_cpu() -> None:
    """Pin this process, and so every process it starts, to one CPU, so
    a sample and its pace kernel share it (no-op where unsupported)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def pace_over(timeline: list, start: float, end: float) -> float | None:
    """The pace kernel's chunks per CPU second between two monotonic
    times, widened to the timeline points around them, and further
    until the kernel made progress (at low priority it may get no slice
    in a short window)."""
    times = [point[0] for point in timeline]
    first = max(bisect.bisect_right(times, start) - 1, 0)
    last = min(bisect.bisect_left(times, end), len(timeline) - 1)
    while timeline[last][2] == timeline[first][2] and \
            (first > 0 or last < len(timeline) - 1):
        first, last = max(first - 1, 0), min(last + 1, len(timeline) - 1)
    (_, cpu0, chunks0), (_, cpu1, chunks1) = timeline[first], timeline[last]
    return (chunks1 - chunks0) / (cpu1 - cpu0) if chunks1 > chunks0 \
        else None


def start_pace() -> subprocess.Popen:
    proc = subprocess.Popen([sys.executable, str(PACE)], cwd=ROOT,
                            stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    proc.stdout.readline()
    return proc


def stop_pace(proc: subprocess.Popen) -> list:
    """Stop the pace kernel; return its timeline (empty if it failed)."""
    try:
        proc.terminate()
        stdout, _ = proc.communicate(timeout=10)
        return json.loads(stdout.strip().splitlines()[-1])
    except (subprocess.SubprocessError, json.JSONDecodeError, IndexError):
        return []
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def add_pace(sample: dict, timeline: list) -> dict:
    """Attach the host's pace over the sample's set-up and run."""
    if "error" in sample:
        return sample
    windows = {"setup_pace": ("spawned_at", "ready_at"),
               "run_pace": ("began_at", "ended_at")}
    for key, (start, end) in windows.items():
        if end in sample:
            pace = pace_over(timeline, sample[start], sample[end]) \
                if timeline else None
            if pace is None:
                return {"error": "no pace reading for the sample"}
            sample[key] = pace
    return sample


def run_child(args, mode: str, deadline: float, spans=None, seed=None,
              size=None) -> dict:
    """One fresh-process sample, beside the pace kernel.  Returns the
    child's JSON object, or ``{"error": ...}`` when it failed, hung or
    printed nothing."""
    pace = start_pace()
    try:
        sample = fresh_process(args, mode, deadline, spans, seed, size)
    finally:
        timeline = stop_pace(pace)
    return add_pace(sample, timeline)


def fresh_process(args, mode: str, deadline: float, spans, seed,
                  size) -> dict:
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", args.workload,
               "--seed", str(args.seed if seed is None else seed),
               "--size", size or args.size, "--mode", mode]
    if spans:
        command += ["--spans", str(spans)]
    timeout = min(SAMPLE_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        return {"error": "run deadline reached before the sample"}
    spawned = time.monotonic()
    proc = subprocess.Popen(command + ["--spawned-at", repr(spawned)],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"timed out after {timeout:.0f} s"}
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit code {proc.returncode}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": "no JSON result line"}


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
    return a == b


def mismatches(sample: dict, expected: dict | None) -> list:
    """Differences between a sample's outputs and the committed
    expectation (``None``: seed not the default, nothing to compare)."""
    if expected is None:
        return []
    found = []
    for group in ("counts", "sim"):
        for key, want in expected[group].items():
            got = sample.get(group, {}).get(key)
            if got is None or not _close(got, want):
                found.append(f"{key}: got {got!r}, expected {want!r}")
    if "labels" in expected and sample.get("labels") != expected["labels"]:
        found.append(f"frontier labels: got {sample.get('labels')!r}, "
                     f"expected {expected['labels']!r}")
    return found


def judge(sample: dict, expected: dict | None, first: dict | None) -> list:
    """Every reason this sample counts as failed (empty: it passed)."""
    if "error" in sample:
        return [sample["error"]]
    problems = list(sample["problems"]) + mismatches(sample, expected)
    if first is not None:
        for group in ("counts", "sim", "labels"):
            if sample.get(group) != first.get(group):
                problems.append(f"{group} differ between samples of "
                                f"one seed")
    return problems


def measure(args, expected: dict | None, golden: dict) -> dict:
    """Set-up probes, the golden probe, untraced samples for
    ``--seconds``, and with ``--trace 1`` one traced sample.  Returns
    the raw run record."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = []
    for _ in range(SETUP_PROBES):
        probe = run_child(args, "setup", deadline)
        if "error" in probe:
            raise SetupFailed(probe["error"])
        setups.append(probe)
    samples, failures = [], []
    probe = run_child(args, "run", deadline, seed=golden["seed"],
                      size="tiny")
    problems = judge(probe, golden, None)
    if problems:
        failures.append(["golden probe"] + problems)
    else:
        setups.append(probe)
    first = None
    start = time.monotonic()
    while True:
        began = time.monotonic()
        sample = run_child(args, "run", deadline)
        problems = judge(sample, expected, first)
        if problems:
            failures.append(problems)
        else:
            first = first or sample
        samples.append(sample)
        took = time.monotonic() - began
        if time.monotonic() - start + took > args.seconds or "error" in \
                sample:
            break
    traced = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-{args.seed}.json"
        traced = run_child(args, "traced", deadline, spans=spans)
        problems = judge(traced, expected, first)
        if problems:
            failures.append(problems)
    return {"setups": setups, "samples": samples, "traced": traced,
            "golden": probe, "failures": failures}


def summarize(args, record: dict) -> dict:
    """The metric values the run reports (end-to-end or per-layer).
    Host seconds are CPU seconds rescaled to the reference pace."""
    good = [s for s in record["samples"] if "error" not in s]
    setups = record["setups"] + good
    setup_s = statistics.median(
        at_ref_pace(s["setup_cpu_s"], s["setup_pace"]) for s in setups)
    if not good:
        return {}
    run_ref_s = statistics.median(
        at_ref_pace(s["cpu_s"], s["run_pace"]) for s in good)
    if not args.trace:
        sim = good[0]["sim"]
        return {
            "run_ref_s": run_ref_s,
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(
                max(s["rss_mb"], s["workers_rss_mb"]) for s in good),
            **{k: sim[k] for k in END_TO_END if k in sim},
        }
    traced = record["traced"]
    if traced is None or "error" in traced:
        return {}
    layers = {k: v for k, v in traced["layers"].items() if k in PER_LAYER}
    layers["setup.import_s"] = statistics.median(
        s["import_s"] for s in setups)
    layers["setup.design_s"] = statistics.median(
        s["design_s"] for s in setups)
    layers["run.cpu_s"] = statistics.median(s["cpu_s"] for s in good)
    layers["run.wall_s"] = statistics.median(s["wall_s"] for s in good)
    layers["host.pace"] = statistics.median(
        s["run_pace"] for s in good) / REF_PACE
    layers["tracing.overhead_s"] = \
        at_ref_pace(traced["cpu_s"], traced["run_pace"]) - run_ref_s
    return layers


def report(args, record: dict, metrics: dict, prov: dict) -> dict:
    """Print the human-readable account; return the JSON result."""
    attempted = len(record["samples"]) + (record["traced"] is not None) + 1
    failed = len(record["failures"])
    good = [s for s in record["samples"] if "error" not in s]
    table = PER_LAYER if args.trace else END_TO_END
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    for name, (unit, better) in table.items():
        if name in metrics:
            note = f"  (median of {len(good)})" if name == "run_ref_s" \
                else ""
            print(f"  {name:28s} {metrics[name]:>14.6g} {unit:8s} "
                  f"{better} is better{note}")
    print(f"  {'failed_share':28s} {failed / max(attempted, 1):>14.6g} "
          f"{'fraction':8s} lower is better  ({failed} of {attempted})")
    if not args.trace and good:
        for key, value in good[0]["sim"].items():
            if key not in END_TO_END:
                print(f"  {key:28s} {value:>14.6g}")
    for problems in record["failures"]:
        print("FAILED: " + "; ".join(problems))
    missing = sorted(set(table) - set(metrics))
    return {"correct": failed == 0 and not missing,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name],
                               "unit": table[name][0]}
                        for name in table if name in metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: the one recorded "
                        "in expected.json)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the untraced samples run")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny: a seconds-long variant for tests")
    args = parser.parse_args(argv)
    pin_to_one_cpu()

    committed = json.loads(EXPECTED.read_text())
    golden = committed["tiny"][args.workload]
    committed = committed[args.size][args.workload]
    if args.seed is None:
        args.seed = committed["seed"]
    expected = committed if args.seed == committed["seed"] else None
    try:
        record = measure(args, expected, golden)
    except SetupFailed as err:
        print(f"perfbench: cannot set up {args.workload}: {err}",
              file=sys.stderr)
        return 2
    prov = provenance(args.seed)
    metrics = summarize(args, record)
    result = report(args, record, metrics, prov)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"provenance": prov, "result": result,
                              "runs": record}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
