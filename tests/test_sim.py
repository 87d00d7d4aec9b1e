"""Engine behavior on hand-built traces and cross-engine consistency."""

import random
from operator import attrgetter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from revsched import sim
from revsched.allocation import AllocationVector
from revsched.dp import SdpModel, SdpQueuePolicy, solve
from revsched.errors import ConfigError, InvariantError
from revsched.policies import (EdfPolicy, FapQueuePolicy, FapRoundRobinPolicy, RedfPolicy,
                               RobustPolicy, ZQueuePolicy, ZTracePolicy)
from revsched.sim import (SimMetrics, TracePolicy, derive_seed, replicate, run_ctmc,
                          run_trace, summarize)
from revsched.streams import Job, StreamSpec, WorkloadSpec, sample_trace
from revsched.zindex import build_table

from helpers import BoundedRandom, fresh_copy, run_ctmc_reference

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


_ctmc_stream = st.tuples(st.sampled_from([1 / 350, 1 / 200, 0.01]),
                         st.sampled_from([100.0, 600.0, 900.0]),
                         st.sampled_from([300.0, 1000.0]),
                         st.sampled_from([1.0, 1.3, 2.0]))


def _queue_policy(kind, specs, weights):
    f = AllocationVector.normalized(weights[:len(specs)])
    if kind == "fap":
        return FapQueuePolicy(f)
    if kind == "z":
        return ZQueuePolicy(build_table(specs, f, 16))
    return SdpQueuePolicy(solve(SdpModel(*specs, cap=12)))


@given(streams=st.lists(_ctmc_stream, min_size=1, max_size=3),
       kind=st.sampled_from(["fap", "z", "sdp"]),
       weights=st.lists(st.integers(0, 3), min_size=3, max_size=3),
       horizon=st.sampled_from([0.0, 5e3, 2e5]), seed=st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_ctmc_rate_cache_matches_the_uncached_reference(streams, kind, weights,
                                                        horizon, seed):
    # same random numbers, same floats: every metric must be equal, not close
    assume(kind != "sdp" or len(streams) == 2)
    assume(any(weights[:len(streams)]))
    specs = [StreamSpec(i, *s) for i, s in enumerate(streams)]
    policy = _queue_policy(kind, specs, weights)
    assert run_ctmc(specs, policy, horizon, seed) == \
        run_ctmc_reference(specs, policy, horizon, seed)


class _Recording(ZQueuePolicy):
    """Records the queue lengths of every ``service_rates`` call."""

    def bind(self, specs):
        super().bind(specs)
        self.asked = []

    def service_rates(self, lengths):
        self.asked.append(tuple(lengths))
        return super().service_rates(lengths)


def test_ctmc_asks_the_policy_once_per_visited_state():
    specs = [StreamSpec(0, 1 / 350, 600.0, 1000.0, 1.3),
             StreamSpec(1, 1 / 350, 900.0, 1000.0, 1.0)]
    table = build_table(specs, AllocationVector((0.5, 0.5)), 16)
    cached, uncached = _Recording(table), _Recording(table)
    assert run_ctmc(specs, cached, 2e5, seed=3) == \
        run_ctmc_reference(specs, uncached, 2e5, seed=3)
    # the reference asks on every event, so it lists every visited state
    assert len(uncached.asked) > 10 * len(set(uncached.asked))
    assert sorted(cached.asked) == sorted(set(uncached.asked))


def test_ctmc_round_off_fallback_through_a_cached_link(monkeypatch):
    # the same two rows alternate for 100 events, so from the third event on
    # the fallback index steps along a successor link built earlier
    monkeypatch.setattr(sim.random, "Random", _TopOfWalk)
    specs = [StreamSpec(i, 0.5, 4.0, 8.0, 3.0) for i in range(2)]
    table = build_table(specs, AllocationVector((0.5, 0.5)), 16)
    cached, uncached = _Recording(table), _Recording(table)
    m = run_ctmc(specs, cached, 100.5, seed=0)
    assert m == run_ctmc_reference(specs, uncached, 100.5, seed=0)
    assert m.arrivals == m.completions == [0, 50] and m.revenue == [0.0, 150.0]
    assert cached.asked == [(0, 0), (0, 1)] and len(uncached.asked) == 101


def test_ctmc_long_horizon_over_few_states_matches_the_reference():
    # fast deadlines keep both queues short: a few dozen states, tens of
    # thousands of events, so every successor link is followed many times
    # and each stream's revenue is a long fold of its reward
    specs = [StreamSpec(0, 0.01, 100.0, 50.0, 1.3), StreamSpec(1, 0.02, 40.0, 30.0, 1.0)]
    table = build_table(specs, AllocationVector((0.4, 0.6)), 16)
    cached, uncached = _Recording(table), _Recording(table)
    m = run_ctmc(specs, cached, 1e6, seed=5)
    assert m == run_ctmc_reference(specs, uncached, 1e6, seed=5)
    events = sum(m.arrivals) + sum(m.completions) + sum(m.expirations)
    assert len(cached.asked) < 50 and events > 1000 * len(cached.asked)


@pytest.mark.parametrize("horizon", [float("inf"), float("nan"), -1.0])
def test_bad_ctmc_horizon_rejected(horizon, monkeypatch):
    monkeypatch.setattr(sim.random, "Random", BoundedRandom)  # fail, not hang
    with pytest.raises(ConfigError, match="horizon must be finite"):
        run_ctmc(SPEC1, FapQueuePolicy(AllocationVector((1.0,))), horizon, seed=0)


def test_trace_policy_callbacks_need_a_pending_job():
    policy = EdfPolicy()
    policy.bind(SPEC1)
    stranger = job(0, 0.0, 1.0, 10.0)
    with pytest.raises(InvariantError):
        policy.on_expiry(stranger, 1.0)
    with pytest.raises(InvariantError):
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
    ctmc = replicate(lambda s: {"fap": run_ctmc(wl.streams, policy, wl.horizon, s)},
                     10, 0)["fap"]

    def run_one(seed):
        return {"fifo": run_trace(wl.streams, sample_trace(wl.with_seed(seed)),
                                  _FifoPolicy(), wl.horizon)}

    trace = replicate(run_one, 10, 0)["fifo"]
    assert ctmc.ci95_lo <= trace.ci95_hi and trace.ci95_lo <= ctmc.ci95_hi


def test_replicate_is_deterministic():
    wl = WorkloadSpec((StreamSpec(0, 1 / 350, 600.0, 1000.0, 1.0),), 1e5, 0)
    policy = FapQueuePolicy(AllocationVector((1.0,)))

    def run_one(seed):
        return {"fap": run_ctmc(wl.streams, policy, wl.horizon, seed)}

    a = replicate(run_one, 5, 0)["fap"]
    b = replicate(run_one, 5, 0)["fap"]
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


# one Trace replayed under several policies: the engine restores every job
# before each run, so each replay must equal a run on a fresh copy

_REPLAY_SPECS = [StreamSpec(i, 0.05, 8.0, 20.0, r) for i, r in enumerate((1.0, 2.5, 1.5))]
_REPLAY_F = AllocationVector((0.5, 0.3, 0.2))
_REPLAY_TABLE = build_table(_REPLAY_SPECS, _REPLAY_F, 16)
_REPLAY_POLICIES = {
    "edf": EdfPolicy,
    "redf_mean": lambda: RedfPolicy("mean"),
    "redf_exact": lambda: RedfPolicy("exact"),
    "robust_exact": lambda: RobustPolicy(2.0, "exact"),
    "robust_mean": lambda: RobustPolicy(3.0, "mean"),
    "policyz": lambda: ZTracePolicy(_REPLAY_TABLE),
    "fap": lambda: FapRoundRobinPolicy(_REPLAY_F, 2.0),
}
# (stream, arrival, execution, relative deadline); whole numbers, so
# arrivals, deadlines and completions tie often
_replay_job = st.tuples(st.integers(0, 2), st.integers(0, 60), st.integers(1, 12),
                        st.integers(1, 40))


@given(raw=st.lists(_replay_job, max_size=40),
       order=st.lists(st.sampled_from(sorted(_REPLAY_POLICIES)), min_size=1, max_size=5),
       horizon=st.sampled_from([0.0, 30.0, 200.0]))
@settings(max_examples=150, deadline=None)
def test_replayed_trace_matches_a_run_on_fresh_jobs(raw, order, horizon):
    jobs = sorted((job(i, float(a), float(e), float(a + d), _REPLAY_SPECS[i].reward)
                   for i, a, e, d in raw), key=attrgetter("arrival"))
    trace = sim.Trace(jobs)
    policies = {name: make() for name, make in _REPLAY_POLICIES.items()}
    for name in order:
        want = run_trace(_REPLAY_SPECS, [fresh_copy(j) for j in jobs],
                         _REPLAY_POLICIES[name](), horizon)
        for _ in range(2):  # twice in a row, then the next policy
            assert run_trace(_REPLAY_SPECS, trace, policies[name], horizon) == want


def test_replay_restores_the_full_work_and_a_served_list_is_refused():
    # EDF runs the long job until it expires at 30, then the short one,
    # which must finish at 34 on every replay of the same Trace
    jobs = [job(0, 0.0, 4.0, 100.0), job(0, 0.0, 50.0, 30.0)]
    trace = sim.Trace(jobs)
    for _ in range(2):
        m = run_trace(SPEC1, trace, EdfPolicy(), 1000.0)
        assert m.completions == m.expirations == [1]
        assert m.busy_time == 34.0
    # the plain list now holds served jobs, so it is no fresh trace
    with pytest.raises(ConfigError, match="malformed job"):
        run_trace(SPEC1, jobs, EdfPolicy(), 1000.0)


def test_unsorted_trace_rejected():
    trace = [job(0, 10.0, 5.0, 100.0), job(0, 5.0, 5.0, 100.0)]
    with pytest.raises(ConfigError):
        run_trace(SPEC1, trace, EdfPolicy(), 1000.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["arrival", "exec_total", "exec_remaining",
                                   "deadline_abs"])
def test_non_finite_job_field_rejected(field, value):
    # a NaN arrival never reaches the loop's arrival test, so the run would
    # never end; a NaN deadline would never expire
    bad = job(0, 10.0, 5.0, 100.0)
    setattr(bad, field, value)
    with pytest.raises(ConfigError, match="malformed job"):
        run_trace(SPEC1, [job(0, 1.0, 5.0, 100.0), bad], EdfPolicy(), 1000.0)


def test_job_with_more_work_left_than_total_rejected():
    # it would run for its remaining work but be credited only its total, so
    # useful_time would understate the processor's useful work
    bad = Job(0, 10.0, 5.0, 50.0, 200.0, 2.0)
    with pytest.raises(ConfigError, match="malformed job"):
        run_trace(SPEC1, [bad], EdfPolicy(), 1000.0)


@pytest.mark.parametrize("exec_remaining", [2.0, 0.0])
def test_partly_served_job_rejected(exec_remaining):
    # it would run for its remaining work but be credited its whole total,
    # so useful_time could exceed busy_time
    bad = Job(0, 10.0, 5.0, exec_remaining, 200.0, 2.0)
    with pytest.raises(ConfigError, match="malformed job"):
        run_trace(SPEC1, [bad], EdfPolicy(), 1000.0)


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
