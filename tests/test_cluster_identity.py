"""The heap-scheduled fleet loop matches golden digests of the legacy loops.

The event-compressed fleet loop (min-heap replica clock, batched
cohort routing, cross-replica decode horizons, global quiescence
leaps) must reproduce the legacy earliest-busy-replica scan
loops they replaced *bit for bit* — every completion, every
accumulator, every per-replica report field — across unified,
disaggregated, and autoscaling fleets under every router.  The scan
loops are retired; ``tests/data/cluster_identity.json`` keeps their
output as one SHA-256 per configuration of the grid below, frozen
while they still ran (and matched by the heap loops then): each
digest covers every dataclass field of the fleet report and of each
per-replica :class:`repro.serve.ServingReport` (floats as exact hex),
and the completion stores bit for bit — every column plus the
completed requests.  Only the diagnostic step-cache / leap counters
are left out (the compressed loops plan fewer steps, so those
attribute differently).

Regenerate only after an *intended* change to the fleet semantics
with::

    PYTHONPATH=src python tests/test_cluster_identity.py

Also here: a property test that batched routing
(:meth:`repro.serve.router.Router.select_batch`) makes the same
per-request decisions as sequential ``select`` + commit, and the sweep
warm-start surface snapshot (:meth:`StepCostSurface.export_tables` /
``install_tables``).
"""

import hashlib
import json
import pathlib
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import make_design
from repro.llm import ModelConfig
from repro.serve import (
    CompletionStore,
    LengthSpec,
    PrefixSpec,
    Request,
    make_autoscaling_cluster,
    make_cluster,
    poisson_trace,
)
from repro.serve.costs import export_store_tables, step_cost_store
from repro.serve.router import ROUTERS as ROUTER_REGISTRY
from repro.serve.router import make_router

DATA = pathlib.Path(__file__).parent / "data" / "cluster_identity.json"

TINY_GQA = ModelConfig(name="Tiny-GQA", family="llama2", n_layers=2,
                       n_heads=16, n_kv_heads=2, hidden_dim=512,
                       ffn_dim=1024, max_seq_len=2048, vocab_size=1000)
SHORT = LengthSpec("uniform", low=4, high=48)
PREFIX = PrefixSpec(share=0.5, n_groups=4,
                    length=LengthSpec("fixed", value=32),
                    dup_share=0.3)
ROUTERS = tuple(sorted(ROUTER_REGISTRY))
SCALERS = ("static", "reactive", "predictive")
#: Every router runs every one of these; one extra configuration runs
#: the peak-reservation ``continuous`` policy on the default router.
MODES = ("unified-paged-3", "disaggregated-paged-2+2",
         *(f"fleet-{scaler}" for scaler in SCALERS))
CONTINUOUS = ("unified-continuous-3", "round-robin")
GRID = [(mode, router) for mode in MODES for router in ROUTERS] \
    + [CONTINUOUS]

#: Fields left out of the digests: the fleet loop plans fewer steps
#: (quiescence leaps, resumed windows), so cache probes and leap
#: counters attribute differently from the scan loops.
DIAGNOSTIC_FIELDS = {"step_cache_hits", "step_cache_misses",
                     "leap_steps"}


def tiny_design():
    return make_design("mugi", 64)


def _trace(n=80, seed=11, rate=12.0):
    return poisson_trace(n_requests=n, rate_rps=rate, prompt=SHORT,
                        output=SHORT, prefix=PREFIX, seed=seed)


def run(mode: str, router: str):
    """The report of one grid configuration, on a fresh design."""
    common = dict(router=router, seq_len_bucket=16, max_batch=8)
    if mode == "unified-paged-3":
        fleet = make_cluster(tiny_design(), TINY_GQA, 3, policy="paged",
                             **common)
        trace = _trace()
    elif mode == "disaggregated-paged-2+2":
        fleet = make_cluster(tiny_design(), TINY_GQA, 4, policy="paged",
                             mode="disaggregated", **common)
        trace = _trace(n=60, seed=7)
    elif mode == "unified-continuous-3":
        fleet = make_cluster(tiny_design(), TINY_GQA, 3,
                             policy="continuous", **common)
        trace = _trace(n=60, seed=3)
    else:
        fleet = make_autoscaling_cluster(
            tiny_design(), TINY_GQA, 3, policy="paged", tick_s=5.0,
            autoscaler=mode.removeprefix("fleet-"), **common)
        trace = _trace(n=70, seed=13, rate=6.0)
    return fleet.run(trace)


def _canonical(value):
    """``value`` as plain JSON data: dataclasses field by field (minus
    the diagnostic counters), completion stores column by column as raw
    bytes, every float as its exact hex form."""
    if isinstance(value, CompletionStore):
        return {"requests": _canonical(value.requests),
                **{name: [value[name].dtype.str, value[name].tobytes().hex()]
                   for name in CompletionStore.COLUMNS}}
    if is_dataclass(value):
        return {"type": type(value).__name__,
                **{f.name: _canonical(getattr(value, f.name))
                   for f in fields(value)
                   if f.name not in DIAGNOSTIC_FIELDS}}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    raise TypeError(f"no canonical form for {type(value).__name__}")


def report_digest(report) -> str:
    blob = json.dumps(_canonical(report), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def key(mode: str, router: str) -> str:
    return f"{mode}/{router}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


def assert_matches_golden(golden, mode, router):
    assert report_digest(run(mode, router)) == golden[key(mode, router)], \
        f"{key(mode, router)} no longer reproduces its frozen report"


class TestClusterIdentity:
    @pytest.mark.parametrize("router", ROUTERS)
    def test_unified_heap_matches_legacy(self, golden, router):
        assert_matches_golden(golden, "unified-paged-3", router)

    @pytest.mark.parametrize("router", ROUTERS)
    def test_disaggregated_heap_matches_legacy(self, golden, router):
        assert_matches_golden(golden, "disaggregated-paged-2+2", router)

    def test_unified_continuous_heap_matches_legacy(self, golden):
        assert_matches_golden(golden, *CONTINUOUS)

    def test_grid_covers_golden(self, golden):
        """A router or scaler added later fails here until its digests
        are frozen, instead of going unchecked."""
        assert sorted(golden) == sorted(key(*cfg) for cfg in GRID)


class TestFleetIdentity:
    @pytest.mark.parametrize("router", ROUTERS)
    @pytest.mark.parametrize("autoscaler", SCALERS)
    def test_fleet_heap_matches_legacy(self, golden, autoscaler, router):
        assert_matches_golden(golden, f"fleet-{autoscaler}", router)

    def test_per_replica_diagnostics_surface(self):
        report = make_cluster(tiny_design(), TINY_GQA, 3,
                              policy="paged", seq_len_bucket=16,
                              max_batch=8).run(_trace(n=40, seed=2))
        assert len(report.leap_steps_per_replica) == 3
        assert report.leap_steps == sum(report.leap_steps_per_replica)
        assert report.step_cache_hits == \
            sum(report.step_cache_hits_per_replica)
        assert report.step_cache_misses == \
            sum(report.step_cache_misses_per_replica)


class _StubReplica:
    """Just enough replica surface for router decision tests."""

    def __init__(self, index, outstanding):
        self.index = index
        self.outstanding_tokens = outstanding


def _cohort(groups):
    return [Request(req_id=i, arrival_s=float(i), prompt_len=16,
                    output_len=4, prefix_group=g,
                    prefix_len=0 if g is None else 8)
            for i, g in enumerate(groups)]


@given(
    router_name=st.sampled_from(
        ("round-robin", "least-outstanding", "prefix-affinity")),
    groups=st.lists(st.one_of(st.none(), st.integers(0, 5)),
                    min_size=1, max_size=12),
    loads=st.lists(st.integers(0, 200), min_size=2, max_size=5),
    stop_after=st.one_of(st.none(), st.integers(1, 12)),
)
@settings(max_examples=120, deadline=None)
def test_select_batch_matches_sequential_select(router_name, groups,
                                                loads, stop_after):
    """Batched routing must replay sequential select+commit decisions,
    including the load feedback each commit applies and an early stop
    mid-cohort."""
    requests = _cohort(groups)

    def run(batched):
        router = make_router(router_name)
        router.reset()
        replicas = [_StubReplica(i, load)
                    for i, load in enumerate(loads)]
        picks = []

        def commit(request, replica):
            picks.append((request.req_id, replica.index))
            # Submitting grows the replica's queue, as the cluster does.
            replica.outstanding_tokens += (request.prompt_len
                                           + request.output_len)
            return stop_after is None or len(picks) < stop_after

        if batched:
            routed = router.select_batch(requests, replicas, commit)
        else:
            routed = 0
            for request in requests:
                go_on = commit(request, router.select(request, replicas))
                routed += 1
                if not go_on:
                    break
        return routed, picks

    assert run(batched=True) == run(batched=False)


class TestWarmStartTables:
    def test_export_install_round_trip(self):
        design = tiny_design()
        store = step_cost_store(design, TINY_GQA, 4, 4, True)
        priced = store.surface.price_step((32,), (48, 64), ())
        entries = export_store_tables(design)
        assert entries, "pricing must populate the component tables"

        cold_design = tiny_design()
        cold = step_cost_store(cold_design, TINY_GQA, 4, 4, True)
        installed = sum(
            cold.surface.install_tables(tables)
            for *_spec, tables in entries)
        assert installed > 0
        repriced = cold.surface.price_step((32,), (48, 64), ())
        assert repriced.step_seconds == priced.step_seconds
        assert repriced.dynamic_energy_j == priced.dynamic_energy_j

    def test_install_is_idempotent(self):
        design = tiny_design()
        store = step_cost_store(design, TINY_GQA, 4, 4, True)
        store.surface.price_step((16,), (32,), ())
        entries = export_store_tables(design)
        again = sum(store.surface.install_tables(tables)
                    for *_spec, tables in entries)
        assert again == 0, "re-installing resident components is a no-op"


def main() -> None:
    table = {key(*cfg): report_digest(run(*cfg)) for cfg in GRID}
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} configurations to {DATA}")


if __name__ == "__main__":
    main()
