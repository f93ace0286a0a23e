"""Columnar completion records: the store every report keeps, the lazy
``records`` list built from it, hand-built reports, and pickling."""

import math
import pickle
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from repro.arch import make_design
from repro.llm import ModelConfig
from repro.serve import (
    CompletionStore,
    LengthSpec,
    Request,
    RequestRecord,
    ServingEngine,
    ServingReport,
    TenantSLO,
    make_autoscaling_cluster,
    make_cluster,
    make_scheduler,
    poisson_trace,
    simulate_trace,
)

from test_step_counters import records_digest

TINY_GQA = ModelConfig(name="Tiny-GQA", family="llama2", n_layers=2,
                       n_heads=16, n_kv_heads=2, hidden_dim=512,
                       ffn_dim=1024, max_seq_len=2048, vocab_size=1000)
SLOS = (TenantSLO(tenant=0, ttft_slo_s=2.0, tpot_slo_s=0.05),
        TenantSLO(tenant=1, ttft_slo_s=20.0))
N_REQUESTS = 240
DISAGGREGATED_DIGEST = \
    "f48212fcc878fb735534277a3c76a0e5e3d0e143f21a203344ba1c668f68d0a2"


def cohort_trace(n=N_REQUESTS, seed=3):
    """Two tenants and one output length, so requests admitted together
    also finish together: releases come in cohorts."""
    trace = poisson_trace(n_requests=n, rate_rps=40.0,
                          prompt=LengthSpec("uniform", low=4, high=48),
                          output=LengthSpec("fixed", value=24), seed=seed)
    return [replace(r, tenant=r.req_id % 2) for r in trace]


def engine_report(trace=None):
    return simulate_trace(make_design("mugi", 64), TINY_GQA,
                          trace or cohort_trace(), max_batch=8,
                          seq_len_bucket=16)


def materialized(report) -> bool:
    return "_records" in report.__dict__


def clusters():
    design = make_design("mugi", 64)
    common = dict(policy="continuous", max_batch=8, seq_len_bucket=16)
    return {
        "unified": make_cluster(design, TINY_GQA, 3, **common),
        "disaggregated": make_cluster(design, TINY_GQA, 4,
                                      mode="disaggregated", **common),
        "fleet": make_autoscaling_cluster(
            design, TINY_GQA, 4, autoscaler="reactive",
            autoscaler_kwargs={"target_tokens_per_replica": 400.0},
            tick_s=0.5, **common),
    }


class TestLazyRecords:
    def test_statistics_never_materialize_records(self):
        report = engine_report()
        store = report.completions
        # Cohorts: some finish times are shared by several requests.
        assert np.unique(store["finish_s"]).size < report.completed
        assert report.completed == N_REQUESTS
        report.summary()
        report.goodput_rps(slos=SLOS)
        report.good_completions(ttft_slo_s=1.0, tpot_slo_s=0.1)
        report.ttft_percentile(99)
        assert not materialized(report)

    @pytest.mark.parametrize("kind", ["unified", "disaggregated", "fleet"])
    def test_merges_never_materialize_records(self, kind):
        report = clusters()[kind].run(cohort_trace())
        assert report.completed == N_REQUESTS
        report.summary()
        report.per_tenant_summary(slos=SLOS)
        report.goodput_rps(slos=SLOS)
        assert report.tenants == [0, 1]
        assert not any(materialized(r) for r in [report, *report.replicas])
        finish = report.completions["finish_s"]
        assert (np.diff(finish) >= 0).all()

    def test_records_mirror_the_columns(self):
        report = engine_report()
        records = report.records
        assert report.records is records  # Built once, then cached.
        store = report.completions
        assert [r.request for r in records] == store.requests
        assert [r.request.req_id for r in records] == \
            store["req_id"].tolist()
        assert [r.finish_s for r in records] == store["finish_s"].tolist()
        assert [r.ttft_s for r in records] == (
            store["first_token_s"] - store["arrival_s"]).tolist()
        # A release cohort's records share one finish-time float.
        assert len({id(r.finish_s) for r in records}) == \
            np.unique(store["finish_s"]).size

    def test_disaggregated_stitch_matches_the_record_path(self):
        # Every third request is one token long and so completes on its
        # prefill replica; the rest migrate.  The digest was taken from
        # the per-record stitching this store replaced.
        trace = [replace(r, output_len=1) if r.req_id % 3 == 0 else r
                 for r in cohort_trace()]
        report = clusters()["disaggregated"].run(trace)
        assert report.migrations == 160
        assert records_digest(report) == DISAGGREGATED_DIGEST
        assert not materialized(report.replicas[0])
        for record in report.records:
            assert record.request is trace[record.request.req_id]
        assert report.completions["output_len"].tolist() == \
            [r.request.output_len for r in report.records]

    def test_live_report_extends_its_records(self):
        engine = ServingEngine(
            make_design("mugi", 64), TINY_GQA,
            make_scheduler("continuous", TINY_GQA, max_batch=8),
            seq_len_bucket=16)
        report = engine.start()
        trace = cohort_trace(n=40)
        for request in trace:
            engine.submit(request)
        counts = []
        while engine.has_work():
            engine.step()
            counts.append(len(report.records))
        assert counts == sorted(counts) and counts[-1] == len(trace)
        assert report.records == report.completions.records()


class TestHandBuiltReports:
    def test_hand_built_report_gives_the_same_statistics(self):
        report = engine_report()
        rebuilt = ServingReport(
            design=report.design, scheduler=report.scheduler,
            records=list(report.records), makespan_s=report.makespan_s,
            energy_j=report.energy_j, steps=report.steps,
            offered_rps=report.offered_rps,
            kv_utilization=report.kv_utilization)
        assert rebuilt.completions == report.completions
        assert rebuilt.summary() == report.summary()
        assert rebuilt.goodput_rps(slos=SLOS) == report.goodput_rps(
            slos=SLOS)

    def test_none_clocks_round_trip_as_nan(self):
        request = Request(req_id=7, arrival_s=1.0, prompt_len=8,
                          output_len=1, tenant=3)
        record = RequestRecord(request=request, admitted_s=1.5,
                               first_token_s=None, finish_s=2.0)
        report = ServingReport(design="d", scheduler="s", records=[record],
                               makespan_s=2.0)
        assert math.isnan(report.completions["first_token_s"][0])
        assert report.completions["tenant"].tolist() == [3]
        assert report.records == [record]

    def test_empty_report(self):
        report = ServingReport(design="d", scheduler="s")
        assert report.completed == 0
        assert report.records == []
        assert report.summary()["p99_latency_s"] is None
        assert ServingReport(design="d", scheduler="s",
                             records=[]).completions == report.completions


class TestPickling:
    @pytest.mark.parametrize("materialize", [False, True])
    @pytest.mark.parametrize("kind", ["unified", "disaggregated", "fleet"])
    def test_report_round_trip(self, kind, materialize):
        # The replicas' stores and the cluster's (stitched, for
        # disaggregated) store all rebuild their non-clock columns.
        report = clusters()[kind].run(cohort_trace())
        if materialize:
            assert len(report.records) == N_REQUESTS
        clone = pickle.loads(pickle.dumps(report))
        assert not materialized(clone)
        assert clone == report
        assert clone.summary() == report.summary()
        assert clone.records == report.records

    def test_pickled_store_holds_only_its_rows(self):
        store = engine_report().completions
        # The other columns are fields of the stored requests.
        assert set(store.__getstate__()) == {
            "requests", "admitted_s", "first_token_s", "finish_s"}
        clone = pickle.loads(pickle.dumps(store))
        assert clone == store
        assert all(clone._cols[name].size == len(store)
                   for name in CompletionStore.COLUMNS)

    def test_request_record_is_slotted_and_pickles(self):
        request = Request(req_id=1, arrival_s=0.0, prompt_len=4,
                          output_len=2)
        record = RequestRecord(request=request, admitted_s=0.5,
                               first_token_s=None, finish_s=2.0)
        assert not hasattr(record, "__dict__")
        assert pickle.loads(pickle.dumps(record)) == record
        with pytest.raises(FrozenInstanceError):
            record.finish_s = 3.0


def test_premium_ttft_matches_the_records_walk(monkeypatch):
    from repro.analysis.experiments import paged_serving
    reports = []
    real = paged_serving.simulate_trace

    def spy(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(paged_serving, "simulate_trace", spy)
    points = paged_serving.run_policy_comparison(n_requests=24,
                                                 rate_rps=1.0)
    assert len(points) == len(reports)
    for point, report in zip(points, reports):
        premium = [r.ttft_s for r in report.records
                   if r.request.priority > 0]
        assert premium
        assert point.premium_ttft_s == sum(premium) / len(premium)
