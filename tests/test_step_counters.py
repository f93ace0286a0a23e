"""Golden step counters: how each run splits its steps, pinned as data.

The decode walk (:meth:`repro.serve.ServingEngine.step`) commits steps
without replanning while the plan stays valid.  Its physics is checked
against ``leap=False`` elsewhere; this file pins the *diagnostic*
counters too — planned vs leapt steps and step-cost cache traffic — so
a change to how steps are committed cannot silently re-attribute them.
``tests/data/step_counters.json`` holds, for every configuration of the
grid below, ``steps``, ``leap_steps``, ``step_cache_hits``,
``step_cache_misses``, ``completed`` and a SHA-256 over the record
tuples (every float as its exact hex form).  The grid covers one
engine, unified and disaggregated clusters, and elastic fleets under
the static and reactive scalers.

Regenerate only after an *intended* change to the counting rules with::

    PYTHONPATH=src python tests/test_step_counters.py
"""

import hashlib
import json
import pathlib

import pytest

from repro.arch import make_design
from repro.llm import ModelConfig
from repro.serve import (
    ColdStartConfig,
    LengthSpec,
    PagedScheduler,
    PrefixSpec,
    make_autoscaling_cluster,
    make_cluster,
    poisson_trace,
    simulate_trace,
)

DATA = pathlib.Path(__file__).parent / "data" / "step_counters.json"

TINY_GQA = ModelConfig(name="Tiny-GQA", family="llama2", n_layers=2,
                       n_heads=16, n_kv_heads=2, hidden_dim=512,
                       ffn_dim=1024, max_seq_len=2048, vocab_size=1000)
PAGED_CAPACITY = TINY_GQA.kv_cache_bytes(seq_len=200, batch=1, bits=4) * 3

#: Scheduler family -> (policy, scheduler kwargs, per-replica KV bytes).
#: "paged" prefills every prompt in one chunk; "fair-share-chunked"
#: splits prompts into 16-token chunks, so lone chunks leap too.
POLICIES = {
    "continuous": ("continuous", {}, None),
    "static": ("static", {}, None),
    "paged": ("paged", {"block_size": 16, "chunk_tokens": 256},
              PAGED_CAPACITY),
    "fair-share-chunked": ("paged-fair-share",
                           {"block_size": 16, "chunk_tokens": 16},
                           PAGED_CAPACITY),
}
MODES = ("engine", "unified-3", "disaggregated-2+2", "fleet-static",
         "fleet-reactive")
#: Fleet scaler -> autoscaler kwargs.  The static fleet holds three
#: replicas; the reactive one grows from one to four on 1 s ticks (with
#: 0.5 s cold starts) as the queue builds, and shrinks as it drains.
SCALERS = {
    "static": {},
    "reactive": {"target_tokens_per_replica": 1500.0},
}
BUCKETS = (8, 64)
MAX_BATCH = 6


def trace():
    """600 requests at about the replicas' decode capacity: queues
    build and drain, outputs span many 8-token buckets, and half the
    prompts share a cached prefix."""
    return poisson_trace(
        n_requests=600, rate_rps=60.0,
        prompt=LengthSpec("uniform", low=4, high=80),
        output=LengthSpec("uniform", low=2, high=120),
        prefix=PrefixSpec(share=0.5, n_groups=3,
                          length=LengthSpec("fixed", value=48),
                          dup_share=0.3),
        priorities=(0, 0, 1), seed=1207)


def run(family: str, mode: str, bucket: int):
    """The configuration's report, on a fresh design so the shared
    step-cost cache starts empty."""
    policy, kwargs, capacity = POLICIES[family]
    design = make_design("mugi", 64)
    common = dict(policy=policy, max_batch=MAX_BATCH,
                  kv_capacity_bytes=capacity, scheduler_kwargs=kwargs,
                  seq_len_bucket=bucket)
    if mode == "engine":
        return simulate_trace(design, TINY_GQA, trace(), **common)
    if mode.startswith("fleet-"):
        scaler = mode.removeprefix("fleet-")
        fleet = make_autoscaling_cluster(
            design, TINY_GQA, 3 if scaler == "static" else 4,
            autoscaler=scaler, autoscaler_kwargs=SCALERS[scaler],
            tick_s=1.0, cold_start=ColdStartConfig(provision_s=0.5),
            **common)
        return fleet.run(trace())
    if mode == "unified-3":
        cluster = make_cluster(design, TINY_GQA, 3, router="round-robin",
                               **common)
    else:
        cluster = make_cluster(design, TINY_GQA, 4, mode="disaggregated",
                               prefill_replicas=2, **common)
    return cluster.run(trace())


def records_digest(report) -> str:
    digest = hashlib.sha256()
    for r in report.records:
        row = (r.request.req_id, r.request.arrival_s, r.admitted_s,
               r.first_token_s, r.finish_s)
        digest.update(repr(tuple(
            v.hex() if isinstance(v, float) else v for v in row)).encode())
    return digest.hexdigest()


def counters(report) -> dict:
    return {"steps": report.steps, "leap_steps": report.leap_steps,
            "step_cache_hits": report.step_cache_hits,
            "step_cache_misses": report.step_cache_misses,
            "completed": report.completed,
            "records_sha256": records_digest(report)}


def key(family: str, mode: str, bucket: int) -> str:
    return f"{family}/{mode}/bucket={bucket}"


GRID = [(f, m, b) for f in POLICIES for m in MODES for b in BUCKETS]


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("family,mode,bucket", GRID,
                         ids=[key(*cfg) for cfg in GRID])
def test_counters_match_golden(golden, monkeypatch, family, mode, bucket):
    leapt_chunks = []
    commit = PagedScheduler.commit_chunk_leap

    def counted(self, task, steps):
        leapt_chunks.append(steps)
        return commit(self, task, steps)

    monkeypatch.setattr(PagedScheduler, "commit_chunk_leap", counted)
    report = run(family, mode, bucket)
    assert counters(report) == golden[key(family, mode, bucket)]
    # One cache lookup per planned step — leapt decode steps reuse
    # their segment's cost — plus one per leapt prefill chunk (whose
    # cost changes every chunk); without chunk leaps, hits + misses ==
    # steps - leap_steps.
    assert report.step_cache_hits + report.step_cache_misses == \
        report.steps - report.leap_steps + sum(leapt_chunks)


def test_grid_covers_golden(golden):
    assert sorted(golden) == sorted(key(*cfg) for cfg in GRID)


def main() -> None:
    table = {key(*cfg): counters(run(*cfg)) for cfg in GRID}
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} configurations to {DATA}")


if __name__ == "__main__":
    main()
