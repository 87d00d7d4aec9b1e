"""Campaign output pinned byte for byte.

The digests were taken before the trace engine's hot path was rewritten
(one-pass robust selection, inlined priority lookup, slotted jobs); any
change to the trace engine or the trace policies must keep them.
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


def test_redf_campaign_csv_is_pinned():
    rows = []
    for model in ("random", "linear"):
        for intensity in (1.5, 3.0):
            outcome = presets.run_redf_experiment(model, intensity, seed=0, reps=2,
                                                  horizon=2e4)
            rows.extend(presets.paired_rows(outcome, ("redf",)))
    assert _digest(rows) == (
        "6b921791efcdc054feb9fe011a163a7ac79ef2e0754cfcd1e03108fa2b1d578b")
