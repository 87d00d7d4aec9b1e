"""Engine behavior on hand-built traces and cross-engine consistency."""

import random

import pytest

from revsched import sim
from revsched.allocation import AllocationVector
from revsched.errors import ConfigError, InvariantError
from revsched.policies import EdfPolicy, FapQueuePolicy, RedfPolicy
from revsched.sim import (SimMetrics, TracePolicy, derive_seed, replicate, run_ctmc,
                          run_trace, summarize)
from revsched.streams import Job, StreamSpec, WorkloadSpec, sample_trace

from helpers import fresh_copy

SPEC1 = [StreamSpec(0, 0.001, 100.0, 500.0, 2.0)]


def job(stream, arrival, exec_time, deadline_abs, reward=1.0):
    return Job(stream, arrival, exec_time, exec_time, deadline_abs, reward)


def test_single_job_completes():
    trace = [job(0, 10.0, 5.0, 100.0, reward=2.0)]
    m = run_trace(SPEC1, trace, EdfPolicy(), 1000.0)
    assert m.completions == [1]
    assert m.expirations == [0]
    assert m.revenue == [2.0]
    assert m.busy_time == pytest.approx(5.0)
    assert m.useful_time == pytest.approx(5.0)
    assert m.epu == pytest.approx(5.0 / 1000.0)


def test_single_job_expires_when_too_tight():
    # needs 5 units but only 3 remain before the deadline
    trace = [job(0, 10.0, 5.0, 13.0)]
    m = run_trace(SPEC1, trace, EdfPolicy(), 1000.0)
    assert m.completions == [0]
    assert m.expirations == [1]
    assert m.revenue == [0.0]
    assert m.busy_time == pytest.approx(3.0)  # worked until the expiry
    assert m.useful_time == pytest.approx(0.0)


def test_completion_exactly_at_deadline_is_lost():
    trace = [job(0, 0.0, 5.0, 5.0)]
    m = run_trace(SPEC1, trace, EdfPolicy(), 1000.0)
    assert m.completions == [0]
    assert m.expirations == [1]


def test_job_pending_at_horizon_earns_nothing():
    trace = [job(0, 10.0, 50.0, 1000.0)]
    m = run_trace(SPEC1, trace, EdfPolicy(), 20.0)
    assert m.completions == [0]
    assert m.expirations == [0]
    assert m.still_pending == [1]
    assert m.busy_time == pytest.approx(10.0)


def test_preemption_resumes_without_losing_work():
    # a tight late job preempts the early loose one; both complete
    specs = [StreamSpec(0, 0.001, 100.0, 500.0, 1.0),
             StreamSpec(1, 0.001, 100.0, 500.0, 1.0)]
    trace = [job(0, 0.0, 10.0, 100.0), job(1, 2.0, 3.0, 8.0)]
    m = run_trace(specs, trace, EdfPolicy(), 1000.0)
    assert m.completions == [1, 1]
    assert m.busy_time == pytest.approx(13.0)
    assert m.useful_time == pytest.approx(13.0)


def test_conservation_on_sampled_trace():
    wl = WorkloadSpec((StreamSpec(0, 1 / 350, 600.0, 1000.0, 1.0),
                       StreamSpec(1, 1 / 350, 900.0, 1000.0, 1.0)), 2e5, 11)
    trace = sample_trace(wl)
    m = run_trace(wl.streams, trace, EdfPolicy(), wl.horizon)
    for i in range(2):
        assert m.arrivals[i] == m.completions[i] + m.expirations[i] + m.still_pending[i]
    assert 0 <= m.useful_time <= m.busy_time <= wl.horizon


def test_redf_equals_edf_when_never_overloaded():
    # when the feasibility scan never fires the reject queue stays empty
    # and clairvoyant-overload-detection REDF degenerates to plain EDF
    trace = [job(0, t, 10.0, t + 100.0) for t in range(0, 1000, 50)]
    m_edf = run_trace(SPEC1, [fresh_copy(j) for j in trace], EdfPolicy(), 2000.0)
    m_redf = run_trace(SPEC1, [fresh_copy(j) for j in trace],
                       RedfPolicy(knowledge="exact"), 2000.0)
    assert m_edf.revenue == m_redf.revenue == [20.0]
    assert m_edf.completions == m_redf.completions
    assert m_edf.busy_time == pytest.approx(m_redf.busy_time)


def test_ctmc_deterministic_per_seed():
    specs = [StreamSpec(0, 1 / 350, 600.0, 1000.0, 1.0),
             StreamSpec(1, 1 / 350, 900.0, 1000.0, 1.0)]
    policy = FapQueuePolicy(AllocationVector((0.5, 0.5)))
    a = run_ctmc(specs, policy, 1e5, seed=99)
    b = run_ctmc(specs, policy, 1e5, seed=99)
    assert a.revenue == b.revenue
    assert a.arrivals == b.arrivals
    c = run_ctmc(specs, policy, 1e5, seed=100)
    assert a.revenue != c.revenue


def test_ctmc_conservation_and_busy_bound():
    specs = [StreamSpec(0, 1 / 350, 600.0, 1000.0, 1.0)]
    m = run_ctmc(specs, FapQueuePolicy(AllocationVector((1.0,))), 1e5, seed=1)
    assert m.arrivals[0] == m.completions[0] + m.expirations[0] + m.still_pending[0]
    assert 0 <= m.busy_time <= 1e5
    assert m.useful_time is None and m.epu is None


class _TopOfWalk(random.Random):
    """Clock every event at dt = 1 and draw u = total, past every partial sum."""

    def expovariate(self, lambd):
        return 1.0

    def random(self):
        return 1.0


def test_ctmc_round_off_falls_back_to_the_last_stream(monkeypatch):
    # rates that are exact in binary, so the walk's last partial sum equals
    # the total and the round-off fallback picks the event: an arrival to the
    # last stream while it has no service rate, else a completion there
    monkeypatch.setattr(sim.random, "Random", _TopOfWalk)
    specs = [StreamSpec(i, 0.5, 4.0, 8.0, 3.0) for i in range(2)]
    m = run_ctmc(specs, FapQueuePolicy(AllocationVector((0.5, 0.5))), 4.5, seed=0)
    assert m.arrivals == m.completions == [0, 2]
    assert m.revenue == [0.0, 6.0] and m.expirations == [0, 0]


def test_trace_policy_callbacks_need_a_pending_job():
    policy = EdfPolicy()
    policy.bind(SPEC1)
    stranger = job(0, 0.0, 1.0, 10.0)
    with pytest.raises(ValueError):
        policy.on_expiry(stranger, 1.0)
    with pytest.raises(ValueError):
        policy.on_completion(stranger, 1.0)


class _FifoPolicy(EdfPolicy):
    """Serve in arrival order; deadline-blind, so the remaining deadline of
    every queued job stays memoryless like in the queue-length model."""

    def choose(self, now):
        return self.pending[0] if self.pending else None


def test_engines_agree_on_single_stream_fap():
    # same physical system, two engines: rate CIs must overlap (the trace
    # side must not peek at deadlines, hence FIFO rather than EDF)
    wl = WorkloadSpec((StreamSpec(0, 1 / 350, 600.0, 1000.0, 1.0),), 5e5, 0)
    policy = FapQueuePolicy(AllocationVector((1.0,)))
    ctmc = replicate(lambda s: run_ctmc(wl.streams, policy, wl.horizon, s), 10, 0)

    def run_one(seed):
        return run_trace(wl.streams, sample_trace(wl.with_seed(seed)),
                         _FifoPolicy(), wl.horizon)

    trace = replicate(run_one, 10, 0)
    assert ctmc.ci95_lo <= trace.ci95_hi and trace.ci95_lo <= ctmc.ci95_hi


def test_replicate_is_deterministic():
    wl = WorkloadSpec((StreamSpec(0, 1 / 350, 600.0, 1000.0, 1.0),), 1e5, 0)
    policy = FapQueuePolicy(AllocationVector((1.0,)))
    a = replicate(lambda s: run_ctmc(wl.streams, policy, wl.horizon, s), 5, 0)
    b = replicate(lambda s: run_ctmc(wl.streams, policy, wl.horizon, s), 5, 0)
    assert a.mean_revenue_rate == b.mean_revenue_rate
    assert a.std_revenue_rate == b.std_revenue_rate


def test_derive_seed_distinct_and_stable():
    seeds = [derive_seed(0, k) for k in range(100)]
    assert len(set(seeds)) == 100
    assert seeds == [derive_seed(0, k) for k in range(100)]
    assert derive_seed(1, 0) != derive_seed(0, 0)


def test_summarize_needs_two_runs():
    trace = [job(0, 10.0, 5.0, 100.0)]
    m = run_trace(SPEC1, trace, EdfPolicy(), 1000.0)
    with pytest.raises(ConfigError):
        summarize([m])


def test_unsorted_trace_rejected():
    trace = [job(0, 10.0, 5.0, 100.0), job(0, 5.0, 5.0, 100.0)]
    with pytest.raises(ConfigError):
        run_trace(SPEC1, trace, EdfPolicy(), 1000.0)


@pytest.mark.parametrize("horizon", [float("inf"), float("nan"), -1.0])
def test_bad_trace_horizon_rejected(horizon):
    with pytest.raises(ConfigError):
        run_trace(SPEC1, [job(0, 10.0, 5.0, 100.0)], EdfPolicy(), horizon)


def test_validate_raises_invariant_error():
    lost_job = SimMetrics(100.0, [3], [1], [1], [1.0], 10.0, 10.0, [0])
    with pytest.raises(InvariantError, match="arrivals"):
        lost_job.validate()
    overbusy = SimMetrics(100.0, [1], [1], [0], [1.0], 200.0, None, [0])
    with pytest.raises(InvariantError, match="busy_time"):
        overbusy.validate()


class _IdlePolicy(TracePolicy):
    def choose(self, now):
        return None


def test_idling_with_runnable_jobs_raises_invariant_error():
    trace = [job(0, 10.0, 5.0, 100.0)]
    with pytest.raises(InvariantError, match="idled"):
        run_trace(SPEC1, trace, _IdlePolicy(), 1000.0)
