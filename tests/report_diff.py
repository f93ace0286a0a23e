"""Bitwise comparison of two reports' completed requests, shared by the
report-identity tests (``test_serving_fastpath``, ``test_cluster_identity``
and ``test_sweep_executor``)."""

import numpy as np

from repro.serve import CompletionStore

RECORD_FIELDS = ("request", "admitted_s", "first_token_s", "finish_s")


def assert_completions_identical(a, b):
    """The completion stores of reports ``a`` and ``b`` match bit for
    bit (NaN clocks included), and so does every materialized record."""
    sa, sb = a.completions, b.completions
    assert len(sa) == len(sb), "completion counts differ"
    assert sa.requests == sb.requests, "completed requests differ"
    for name in CompletionStore.COLUMNS:
        ca, cb = sa[name], sb[name]
        assert ca.dtype == cb.dtype, name
        assert np.array_equal(ca.view(np.int64), cb.view(np.int64)), name
    assert len(a.records) == len(b.records), "record counts differ"
    for ra, rb in zip(a.records, b.records):
        for name in RECORD_FIELDS:
            assert getattr(ra, name) == getattr(rb, name), (name, ra, rb)
