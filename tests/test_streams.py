"""Workload specs and reproducible trace sampling."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revsched import streams
from revsched.errors import ConfigError
from revsched.streams import (MAX_TRACE_JOBS, Job, StreamSpec, WorkloadSpec,
                              is_overloaded, load_workload, sample_trace,
                              utilization, workload_from_dict)

from helpers import fresh_copy, sample_trace_reference


def two_stream_workload(horizon=100_000.0, seed=7):
    streams = (StreamSpec(0, 1 / 350, 600.0, 1000.0, 1.0),
               StreamSpec(1, 1 / 350, 600.0, 1000.0, 1.0))
    return WorkloadSpec(streams, horizon, seed)


def test_utilization_and_overload():
    wl = two_stream_workload()
    assert utilization(wl) == pytest.approx(1200 / 350)
    assert is_overloaded(wl)
    light = WorkloadSpec((StreamSpec(0, 0.001, 100.0, 500.0, 1.0),), 1000.0, 0)
    assert utilization(light) == pytest.approx(0.1)
    assert not is_overloaded(light)


def test_exact_unit_utilization_is_not_overload():
    wl = WorkloadSpec((StreamSpec(0, 0.01, 100.0, 500.0, 1.0),), 1000.0, 0)
    assert utilization(wl) == pytest.approx(1.0)
    assert not is_overloaded(wl)


def test_from_period_matches_rate():
    a = StreamSpec.from_period(0, 350, 600.0, 1000.0, 1.0)
    b = StreamSpec(0, 1 / 350, 600.0, 1000.0, 1.0)
    assert a.arrival_rate == pytest.approx(b.arrival_rate)
    assert a.service_rate == pytest.approx(1 / 600)
    assert a.deadline_rate == pytest.approx(1 / 1000)


def test_trace_is_deterministic_and_sorted():
    wl = two_stream_workload()
    t1 = sample_trace(wl)
    t2 = sample_trace(wl)
    assert len(t1) == len(t2) > 0
    for a, b in zip(t1, t2):
        assert (a.stream, a.arrival, a.exec_total, a.deadline_abs, a.reward) == \
               (b.stream, b.arrival, b.exec_total, b.deadline_abs, b.reward)
    arrivals = [(j.arrival, j.stream) for j in t1]
    assert arrivals == sorted(arrivals)
    assert all(j.arrival < wl.horizon for j in t1)
    assert all(j.deadline_abs > j.arrival for j in t1)
    assert all(j.exec_remaining == j.exec_total > 0 for j in t1)


def test_different_seed_changes_trace():
    wl = two_stream_workload()
    t1 = sample_trace(wl)
    t2 = sample_trace(wl.with_seed(8))
    assert [j.arrival for j in t1] != [j.arrival for j in t2]


def test_stream_substreams_are_independent_of_other_streams():
    # dropping stream 1 must not disturb stream 0's samples
    wl = two_stream_workload()
    solo = WorkloadSpec((wl.streams[0],), wl.horizon, wl.seed)
    both = [j for j in sample_trace(wl) if j.stream == 0]
    alone = sample_trace(solo)
    assert [j.arrival for j in both] == [j.arrival for j in alone]
    assert [j.exec_total for j in both] == [j.exec_total for j in alone]


def test_poisson_count_statistics():
    # r = 0.01 over horizon 1e6 -> ~10000 arrivals; thirty seeds should
    # keep every count within a generous +-5% band
    spec = WorkloadSpec((StreamSpec(0, 0.01, 100.0, 500.0, 1.0),), 1e6, 0)
    counts = [len(sample_trace(spec.with_seed(s))) for s in range(30)]
    assert all(9500 <= c <= 10500 for c in counts)
    assert np.mean(counts) == pytest.approx(10000, rel=0.01)


def test_gap_and_exec_means():
    spec = WorkloadSpec((StreamSpec(0, 0.02, 130.0, 700.0, 1.0),), 5e5, 3)
    trace = sample_trace(spec)
    arrivals = [j.arrival for j in trace]
    gaps = np.diff(arrivals)
    assert np.mean(gaps) == pytest.approx(50.0, rel=0.05)
    assert np.mean([j.exec_total for j in trace]) == pytest.approx(130.0, rel=0.05)
    offsets = [j.deadline_abs - j.arrival for j in trace]
    assert np.mean(offsets) == pytest.approx(700.0, rel=0.05)


def test_fresh_copy_restores_execution():
    job = Job(0, 1.0, 10.0, 3.0, 20.0, 2.0)
    copy = fresh_copy(job)
    assert copy.exec_remaining == copy.exec_total == 10.0
    assert (copy.stream, copy.arrival, copy.deadline_abs, copy.reward) == \
           (0, 1.0, 20.0, 2.0)


def test_jobs_compare_by_identity():
    a = Job(0, 1.0, 10.0, 10.0, 20.0, 2.0)
    b = Job(0, 1.0, 10.0, 10.0, 20.0, 2.0)
    assert a != b
    pending = [a, b]
    pending.remove(b)
    assert pending[0] is a and len(pending) == 1
    assert b not in pending
    assert "_live" not in repr(a)


def test_jobs_are_slotted():
    a = Job(0, 1.0, 10.0, 10.0, 20.0, 2.0)
    assert not hasattr(a, "__dict__")
    with pytest.raises(AttributeError):
        a.extra = 1
    a._live = True  # the declared engine flag is a slot
    assert a._live and a == a and a != fresh_copy(a)


def test_workload_from_dict_rate_xor_period():
    base = {"horizon": 1000.0, "seed": 1}
    ok = workload_from_dict({**base, "streams": [
        {"rate": 0.01, "mean_exec": 100, "mean_deadline": 500, "value": 1.0}]})
    assert ok.streams[0].arrival_rate == pytest.approx(0.01)
    ok2 = workload_from_dict({**base, "streams": [
        {"P": 100, "mean_exec": 100, "mean_deadline": 500, "value": 1.0}]})
    assert ok2.streams[0].arrival_rate == pytest.approx(0.01)
    with pytest.raises(ConfigError):
        workload_from_dict({**base, "streams": [
            {"rate": 0.01, "P": 100, "mean_exec": 100,
             "mean_deadline": 500, "value": 1.0}]})
    with pytest.raises(ConfigError):
        workload_from_dict({**base, "streams": [
            {"mean_exec": 100, "mean_deadline": 500, "value": 1.0}]})


def test_load_workload_roundtrip(tmp_path):
    path = tmp_path / "wl.json"
    path.write_text(json.dumps({
        "streams": [{"P": 350, "mean_exec": 600, "mean_deadline": 1000,
                     "value": 1.0}],
        "horizon": 900000, "seed": 42}))
    wl = load_workload(path)
    assert wl.horizon == 900000
    assert wl.seed == 42
    assert wl.streams[0].mean_deadline == 1000


def test_load_workload_missing_file():
    with pytest.raises(ConfigError):
        load_workload("/nonexistent/wl.json")


def test_invalid_specs_rejected():
    with pytest.raises(ConfigError):
        StreamSpec(0, 0.0, 100.0, 500.0, 1.0)
    with pytest.raises(ConfigError):
        StreamSpec(0, 0.01, -1.0, 500.0, 1.0)
    with pytest.raises(ConfigError):
        WorkloadSpec((), 1000.0, 0)
    with pytest.raises(ConfigError):  # ids must be 0..n-1
        WorkloadSpec((StreamSpec(1, 0.01, 100.0, 500.0, 1.0),), 1000.0, 0)


@pytest.mark.parametrize("field,value", [
    ("arrival_rate", "0.01"), ("arrival_rate", math.inf), ("mean_exec", math.nan),
    ("mean_deadline", None), ("reward", True), ("reward", -math.inf),
])
def test_stream_fields_must_be_finite_numbers(field, value):
    fields = {"id": 0, "arrival_rate": 0.01, "mean_exec": 100.0,
              "mean_deadline": 500.0, "reward": 1.0, field: value}
    with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
        StreamSpec(**fields)


@pytest.mark.parametrize("stream_id", [0.0, "0", True, None])
def test_stream_id_must_be_an_integer(stream_id):
    with pytest.raises(ConfigError, match="stream id must be an integer"):
        StreamSpec(stream_id, 0.01, 100.0, 500.0, 1.0)


@pytest.mark.parametrize("period", ["350", math.inf, math.nan, False])
def test_period_must_be_a_finite_number(period):
    with pytest.raises(ConfigError, match="period must be a finite number"):
        StreamSpec.from_period(0, period, 100.0, 500.0, 1.0)


@pytest.mark.parametrize("horizon", [math.inf, math.nan, "1000", True])
def test_workload_horizon_must_be_a_finite_number(horizon):
    with pytest.raises(ConfigError, match="horizon must be a finite number"):
        WorkloadSpec((StreamSpec(0, 0.01, 100.0, 500.0, 1.0),), horizon, 0)


@pytest.mark.parametrize("seed", [1.5, True, "0", None])
def test_workload_seed_must_be_an_integer(seed):
    with pytest.raises(ConfigError, match="seed must be an integer"):
        WorkloadSpec((StreamSpec(0, 0.01, 100.0, 500.0, 1.0),), 1000.0, seed)
    assert WorkloadSpec((StreamSpec(0, 0.01, 100.0, 500.0, 1.0),), 1000.0,
                        np.uint64(3)).seed == 3


@pytest.mark.parametrize("data,message", [
    ([], "workload must be a JSON object"),
    ({"streams": {"0": {}}, "horizon": 1.0, "seed": 0}, "'streams' must be a list"),
    ({"streams": [[0.01, 100, 500, 1]], "horizon": 1.0, "seed": 0},
     "stream 0 must be a JSON object"),
])
def test_workload_from_dict_checks_the_json_types(data, message):
    with pytest.raises(ConfigError, match=message):
        workload_from_dict(data)


def test_sample_trace_job_budget():
    # the budget is on the expected count, checked before any draw
    rate = 0.01
    spec = WorkloadSpec((StreamSpec(0, rate, 100.0, 500.0, 1.0),
                         StreamSpec(1, rate, 100.0, 500.0, 1.0)),
                        MAX_TRACE_JOBS / (2 * rate) * 1.001, 0)
    with mock.patch.object(streams, "_substream", side_effect=AssertionError("drew")):
        with pytest.raises(ConfigError, match="budget"):
            sample_trace(spec)


_FIELDS = ("stream", "arrival", "exec_total", "exec_remaining", "deadline_abs",
           "reward", "_live")

# a rate of 1e-9 gives a stream with no jobs over these horizons
_stream_params = st.tuples(
    st.sampled_from([1e-9, 0.002, 0.01, 0.05]), st.sampled_from([5.0, 60.0]),
    st.sampled_from([20.0, 300.0]), st.sampled_from([1, 2.5, 400]))


def _floored(rng, mean, n):
    # whole-number draws, so arrivals tie within and across streams
    return np.floor(-mean * np.log1p(-rng.random(n)))


@given(params=st.lists(_stream_params, min_size=1, max_size=4),
       horizon=st.sampled_from([1.0, 700.0, 3000.0]), seed=st.integers(0, 2**64 - 1),
       floored=st.booleans())
@settings(max_examples=150, deadline=None)
def test_sample_trace_matches_the_per_job_reference(params, horizon, seed, floored):
    spec = WorkloadSpec(tuple(StreamSpec(i, *p) for i, p in enumerate(params)),
                        horizon, seed)
    with mock.patch.object(streams, "_exponential",
                           _floored if floored else streams._exponential):
        got, want = sample_trace(spec), sample_trace_reference(spec)
    assert type(got) is list and len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is Job
        for name in _FIELDS:
            x, y = getattr(a, name), getattr(b, name)
            assert x == y and type(x) is type(y), (name, x, y)
