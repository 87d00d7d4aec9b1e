"""Campaign output pinned byte for byte.

The trace-campaign digests were taken before the trace engine's hot path
was rewritten (one-pass robust selection, inlined priority lookup, slotted
jobs); any change to the trace engine or the trace policies must keep them.
The table1 digest with the oracle covers the analytic kernel, the
allocation search, the priority table, the CTMC engine and the DP oracle; it
was taken before the options and branches that no caller used were removed
from them. The table1 digests without the oracle pin the CTMC engine on one
row of every deadline class (E6, E9, E12, E15); they were taken before the
engine started caching each visited state's rates.
"""

import hashlib

import pytest

from revsched import presets


def _digest(rows):
    return hashlib.sha256(presets.report_text(rows).encode()).hexdigest()


@pytest.mark.parametrize("rule,digest", [
    ("exponential", "c77d28c1071397fd9fc0aec61f656be7547102ade8377c777253ff80df1b7c60"),
    ("proportional", "ea9ac11e373da95254210cff1d4db6124db9c37b3134477e136d0d9cb3496878"),
])
def test_robust_campaign_csv_is_pinned(rule, digest):
    rows = []
    for slack in (2.0, 4.0):
        for intensity in (1.5, 3.0):
            outcome = presets.run_robust_experiment(
                slack, intensity, seed=0, reps=2, horizon=2e4, deadline_rule=rule)
            rows.extend(presets.paired_rows(outcome, ("robust_exact", "robust_mean")))
    assert _digest(rows) == digest


def test_table1_campaign_with_oracle_csv_is_pinned():
    rows = []
    for eid in (1, 7, 13):
        outcome = presets.run_table1_experiment(eid, seed=0, reps=2, include_sdp=True)
        rows.extend(presets.table1_rows(outcome))
    assert _digest(rows) == (
        "8da81467bec4c0fffdee2d4e3d2362e2564cd784e90b46c34ec9caffcf32ba5f")


def test_redf_campaign_csv_is_pinned():
    rows = []
    for model in ("random", "linear"):
        for intensity in (1.5, 3.0):
            outcome = presets.run_redf_experiment(model, intensity, seed=0, reps=2,
                                                  horizon=2e4)
            rows.extend(presets.paired_rows(outcome, ("redf",)))
    assert _digest(rows) == (
        "6b921791efcdc054feb9fe011a163a7ac79ef2e0754cfcd1e03108fa2b1d578b")


@pytest.mark.parametrize("eid,digest", [
    (6, "c6db7e59c9850e17021d267db8f88074982c6eccbb79130b88bdb8d24f5912cf"),
    (9, "9ab19acbfef793bffe5236fe10e63ef637b7aea819dcf134be4b16ebd133bf5e"),
    (12, "f39d74ca088629edd7d1668109cd20dc4554588a1438a08ae8b21f2de11f0eeb"),
    (15, "0b3f42266ea5bbf7f81d9f5467c77a63e24fd3b6e7ab387f1a811f8584fc27cf"),
])
def test_table1_campaign_csv_is_pinned(eid, digest):
    outcome = presets.run_table1_experiment(eid, seed=0, reps=2)
    assert _digest(presets.table1_rows(outcome)) == digest
