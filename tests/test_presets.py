"""Campaign output pinned byte for byte.

The trace-campaign digests were taken before the trace engine's hot path
was rewritten (one-pass robust selection, inlined priority lookup, slotted
jobs); any change to the trace engine or the trace policies must keep them.
The table1 digest with the oracle covers the analytic kernel, the
allocation search, the priority table, the CTMC engine and the DP oracle; it
was taken before the options and branches that no caller used were removed
from them. The table1 digests without the oracle pin the CTMC engine on one
row of every deadline class (E6, E9, E12, E15); they were taken before the
engine started caching each visited state's rates. The ``ztable``, ``fap``
and ``simulate`` digests pin the CLI's other outputs; they were taken before
table rows moved from one scalar ``pi0`` call per entry to one ``pi0_many``
pass per row.

Every digest is checked twice: under the interpreter's own ``sum`` and
under ``helpers.compensated_sum``, the compensated float sum of CPython
3.12 and later. So CI on 3.10 and 3.11 fails if a CSV starts to depend on
the Python version.

The trace campaigns sample each replication's trace once and replay it
under every policy of the point, and the CTMC runner runs every policy of
the point at each replication's seed; the last tests count those calls and
watch each trace freed before the next is sampled.
"""

import builtins
import hashlib
import json
import weakref

import pytest

from revsched import allocation, presets, sim
from revsched.cli import main
from revsched.policies import (EdfPolicy, FapQueuePolicy, RedfPolicy, RobustPolicy,
                               ZQueuePolicy)
from revsched.zindex import build_table

from helpers import compensated_sum


@pytest.fixture
def float_sum(request, monkeypatch):
    monkeypatch.setattr(builtins, "sum", request.param)


# outermost, so that the rule is the last part of each test id
each_float_sum = pytest.mark.parametrize(
    "float_sum", [sum, compensated_sum], ids=["sum", "compensated_sum"], indirect=True)


def test_compensated_sum_gives_what_cpython_312_gives():
    # 3.11 gives 0.9999999999999999 and 0.0 for the first two
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1e100, 1.0, -1e100]) == 1.0
    assert compensated_sum([1, True, 0.5], 0.25) == 2.75
    assert compensated_sum([[1], [2]], []) == [1, 2]


def _digest(rows):
    return hashlib.sha256(presets.report_text(rows).encode()).hexdigest()


@each_float_sum
@pytest.mark.parametrize("rule,digest", [
    ("exponential", "c77d28c1071397fd9fc0aec61f656be7547102ade8377c777253ff80df1b7c60"),
    ("proportional", "ea9ac11e373da95254210cff1d4db6124db9c37b3134477e136d0d9cb3496878"),
])
def test_robust_campaign_csv_is_pinned(rule, digest, float_sum):
    rows = []
    for slack in (2.0, 4.0):
        for intensity in (1.5, 3.0):
            outcome = presets.run_robust_experiment(
                slack, intensity, seed=0, reps=2, horizon=2e4, deadline_rule=rule)
            rows.extend(presets.paired_rows(outcome, ("robust_exact", "robust_mean")))
    assert _digest(rows) == digest


@each_float_sum
def test_table1_campaign_with_oracle_csv_is_pinned(float_sum):
    rows = []
    for eid in (1, 7, 13):
        outcome = presets.run_table1_experiment(eid, seed=0, reps=2, include_sdp=True)
        rows.extend(presets.table1_rows(outcome))
    assert _digest(rows) == (
        "8da81467bec4c0fffdee2d4e3d2362e2564cd784e90b46c34ec9caffcf32ba5f")


@each_float_sum
def test_redf_campaign_csv_is_pinned(float_sum):
    rows = []
    for model in ("random", "linear"):
        for intensity in (1.5, 3.0):
            outcome = presets.run_redf_experiment(model, intensity, seed=0, reps=2,
                                                  horizon=2e4)
            rows.extend(presets.paired_rows(outcome, ("redf",)))
    assert _digest(rows) == (
        "6b921791efcdc054feb9fe011a163a7ac79ef2e0754cfcd1e03108fa2b1d578b")


@each_float_sum
@pytest.mark.parametrize("eid,digest", [
    (6, "c6db7e59c9850e17021d267db8f88074982c6eccbb79130b88bdb8d24f5912cf"),
    (9, "9ab19acbfef793bffe5236fe10e63ef637b7aea819dcf134be4b16ebd133bf5e"),
    (12, "f39d74ca088629edd7d1668109cd20dc4554588a1438a08ae8b21f2de11f0eeb"),
    (15, "0b3f42266ea5bbf7f81d9f5467c77a63e24fd3b6e7ab387f1a811f8584fc27cf"),
])
def test_table1_campaign_csv_is_pinned(eid, digest, float_sum):
    outcome = presets.run_table1_experiment(eid, seed=0, reps=2)
    assert _digest(presets.table1_rows(outcome)) == digest


def _workload_file(tmp_path, workload):
    """``workload`` as a workload file; each stream keeps its exact rate."""
    path = tmp_path / "workload.json"
    path.write_text(json.dumps({
        "streams": [{"rate": s.arrival_rate, "mean_exec": s.mean_exec,
                     "mean_deadline": s.mean_deadline, "value": s.reward}
                    for s in workload.streams],
        "horizon": workload.horizon, "seed": workload.seed}))
    return str(path)


def _cli_digest(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


_PIN_WORKLOADS = {"E7": presets.table1_workload(7),
                  "robust-s4-i3": presets.robust_workload(4.0, 3.0)}


@each_float_sum
@pytest.mark.parametrize("workload,extra,digest", [
    ("E7", ["--lmax", "5000"],
     "2ced346fae6d6209624b440d3d6b474421c5c098b584f6d649fd433ea9dc6ee4"),
    ("robust-s4-i3", [], "859e68567230004ac1f97a1a8f4eaa7f63306b4f3477a61d928d84244e348f5c"),
], ids=["E7-lmax5000", "robust-s4-i3"])
def test_ztable_csv_is_pinned(workload, extra, digest, tmp_path, float_sum):
    path = _workload_file(tmp_path, _PIN_WORKLOADS[workload])
    assert _cli_digest(tmp_path, ["ztable", path, *extra]) == digest


@each_float_sum
@pytest.mark.parametrize("workload,digest", [
    ("E7", "c94cdd5b076e2f3c280ac546268f00d7256a4a8c52989fc88f3636b3d639820d"),
    ("robust-s4-i3", "7d1f231c5ca622ef3157018c6d04574f7b6b2c3bfeb77b0cf653befc91dc1e21"),
], ids=["E7", "robust-s4-i3"])
def test_fap_csv_is_pinned(workload, digest, tmp_path, float_sum):
    path = _workload_file(tmp_path, _PIN_WORKLOADS[workload])
    assert _cli_digest(tmp_path, ["fap", path]) == digest


@each_float_sum
@pytest.mark.parametrize("policy,digest", [
    ({"name": "policyz"}, "0b524bd32df47891e4ecb4d912550c81caa78afba7c1169af26cb5a0bf909d47"),
    ({"name": "fap"}, "5b6f43a788b7efe15003a199db9744a69e765de84fcbf41bc0d20a515b8f71f1"),
    ({"name": "robust", "slack": 4.0},
     "90120d952c7b51a3e5a8a5dce52bc639d7e43fccfed0c5857597856e1570b7bc"),
    ({"name": "redf"}, "4b5c968bd727ee8b216d2e6bd83dfa43f7aec1a38ef5ec0625a07963f15b0b28"),
    ({"name": "edf"}, "47fa4d6b7051112406e45e1c2b687313611494d635eb37582d58477de3564beb"),
], ids=["policyz", "fap", "robust", "redf", "edf"])
def test_simulate_csv_is_pinned(policy, digest, tmp_path, float_sum):
    workload = presets.robust_workload(4.0, 3.0, horizon=2e4)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"workload_file": _workload_file(tmp_path, workload),
                                  "policy": policy, "replications": 2}))
    assert _cli_digest(tmp_path, ["simulate", str(config)]) == digest


def _paired_policies():
    return {"edf": EdfPolicy(), "robust": RobustPolicy(4.0), "redf": RedfPolicy()}


def test_one_sample_per_replication_and_one_run_per_policy(monkeypatch):
    calls = []
    sample, run = presets.sample_trace, sim.run_trace

    def counted_sample(spec):
        calls.append("sample")
        return sample(spec)

    def counted_run(specs, trace, policy, horizon):
        calls.append(names[id(policy)])
        return run(specs, trace, policy, horizon)

    monkeypatch.setattr(presets, "sample_trace", counted_sample)
    monkeypatch.setattr(sim, "run_trace", counted_run)
    named = _paired_policies()
    names = {id(policy): name for name, policy in named.items()}
    workload = presets.robust_workload(4.0, 3.0, seed=0, horizon=2e4)
    summaries = presets.run_trace_policy(workload, named, 3, "proportional", 4.0)
    assert list(summaries) == ["edf", "robust", "redf"]
    assert calls == ["sample", "edf", "robust", "redf"] * 3


def test_ctmc_runner_runs_every_policy_at_each_replication_seed(monkeypatch):
    calls = []
    run = sim.run_ctmc

    def logged_run(specs, policy, horizon, seed):
        calls.append((names[id(policy)], seed))
        return run(specs, policy, horizon, seed)

    monkeypatch.setattr(sim, "run_ctmc", logged_run)
    workload = presets.table1_workload(7, seed=4, horizon=5e4)
    f_star = allocation.optimize(list(workload.streams)).f_star
    named = {"fap": FapQueuePolicy(f_star),
             "policyz": ZQueuePolicy(build_table(workload.streams, f_star))}
    names = {id(policy): name for name, policy in named.items()}
    summaries = presets.run_ctmc_policy(workload, named, 3)
    assert list(summaries) == ["fap", "policyz"]
    assert calls == [(name, sim.derive_seed(4, k)) for k in range(3)
                     for name in ("fap", "policyz")]
    for name, policy in named.items():
        assert presets.run_ctmc_policy(workload, {name: policy}, 3) == {name: summaries[name]}


class _Jobs(list):
    """A job list that a weak reference can watch."""


def test_each_trace_is_freed_before_the_next_is_sampled(monkeypatch):
    sample = presets.sample_trace
    sampled = []

    def watched_sample(spec):
        assert [ref() for ref in sampled] == [None] * len(sampled)
        jobs = _Jobs(sample(spec))
        sampled.append(weakref.ref(jobs))
        return jobs

    monkeypatch.setattr(presets, "sample_trace", watched_sample)
    workload = presets.robust_workload(4.0, 3.0, seed=0, horizon=2e4)
    presets.run_trace_policy(workload, _paired_policies(), 3)
    assert len(sampled) == 3 and [ref() for ref in sampled] == [None] * 3
