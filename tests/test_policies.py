"""Policy-level behavior on hand-built job traces."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revsched import presets
from revsched.allocation import AllocationVector
from revsched.dp import SdpModel, SdpQueuePolicy, solve
from revsched.errors import ConfigError, InvariantError
from revsched.policies import (EdfPolicy, FapQueuePolicy, FapRoundRobinPolicy,
                               RedfPolicy, RobustPolicy, ZQueuePolicy,
                               ZTracePolicy, default_quantum, make_policy,
                               remaining_estimate, resolve_allocation)
from revsched.sim import run_trace
from revsched.streams import Job, StreamSpec, WorkloadSpec, sample_trace
from revsched.zindex import build_table

from helpers import (FapRoundRobinListPolicy, ZTraceListPolicy, fresh_copy, lookup,
                     run_trace_reference)


def job(stream, arrival, exec_time, deadline_abs, reward=1.0):
    return Job(stream, arrival, exec_time, exec_time, deadline_abs, reward)


def specs2(mean_exec0=10.0, mean_exec1=10.0):
    return [StreamSpec(0, 0.01, mean_exec0, 100.0, 1.0),
            StreamSpec(1, 0.01, mean_exec1, 100.0, 1.0)]


class _Recorder:
    """Mixin recording completion order for schedule assertions."""

    def bind(self, specs):
        super().bind(specs)
        self.completed = []

    def on_completion(self, j, now):
        super().on_completion(j, now)
        self.completed.append((j.stream, j.arrival, now))


# ---------------------------------------------------------------------------
# EDF

def test_edf_orders_by_deadline_then_arrival_then_stream():
    policy = EdfPolicy()
    policy.bind(specs2())
    a = job(1, 0.0, 5.0, 20.0)
    b = job(0, 1.0, 5.0, 10.0)   # earliest deadline wins
    c = job(0, 0.5, 5.0, 20.0)   # deadline tie with a -> later arrival loses
    for j in (a, b, c):
        policy.on_arrival(j, 1.0)
    assert policy.choose(1.0) is b
    policy.on_completion(b, 6.0)
    assert policy.choose(6.0) is a  # deadline tie, earlier arrival
    policy.on_completion(a, 11.0)
    # stream tie-break: identical deadline and arrival, lower stream id wins
    d = job(1, 0.5, 5.0, 20.0)
    policy.on_arrival(d, 11.0)
    assert policy.choose(11.0) is c


# ---------------------------------------------------------------------------
# REDF

def test_redf_rejects_lowest_reward_on_overload():
    # clairvoyant overload detection: B's arrival makes the pending set
    # infeasible and the reward-1 job moves to the reject queue
    sp = specs2()
    a = job(0, 0.0, 9.0, 12.0, reward=1.0)
    b = job(1, 1.0, 3.0, 6.0, reward=5.0)
    m = run_trace(sp, [a, b], RedfPolicy(knowledge="exact"), 50.0)
    # B completes at t=4; A cannot be resurrected (8 remaining, deadline 12)
    assert m.revenue == [0.0, 5.0]
    assert m.completions == [0, 1]
    assert m.expirations == [1, 0]


def test_redf_resurrects_when_estimates_were_pessimistic():
    # mean-knowledge scan believes B needs 10 units; B actually needs 4,
    # so after B completes the rejected job fits again and is re-admitted
    sp = specs2()
    a = job(0, 0.0, 10.0, 18.0, reward=1.0)
    b = job(1, 1.0, 4.0, 12.0, reward=5.0)
    policy = RedfPolicy(knowledge="mean")
    m = run_trace(sp, [a, b], policy, 50.0)
    assert m.completions == [1, 1]
    assert m.revenue == [1.0, 5.0]
    assert m.expirations == [0, 0]


def test_redf_victim_is_lowest_reward_with_latest_deadline_tiebreak():
    sp = specs2()
    policy = RedfPolicy(knowledge="exact")
    policy.bind(sp)
    a = job(0, 0.0, 5.0, 24.0, reward=1.0)
    b = job(1, 0.0, 5.0, 20.0, reward=1.0)
    policy.on_arrival(a, 0.0)
    policy.on_arrival(b, 0.0)
    assert policy.rejected == []
    # this arrival forces one rejection; among the reward-1 jobs the one
    # with the later deadline (a) goes first, and removing it suffices
    c = job(1, 0.0, 15.0, 21.0, reward=9.0)
    policy.on_arrival(c, 0.0)
    assert policy.rejected == [a]


def test_redf_expired_rejects_are_dropped():
    sp = specs2()
    a = job(0, 0.0, 9.0, 12.0, reward=1.0)
    b = job(1, 1.0, 3.0, 6.0, reward=5.0)
    m = run_trace(sp, [a, b], RedfPolicy(knowledge="exact"), 50.0)
    # the rejected job expires from the reject queue, not the pending set
    assert m.expirations == [1, 0]
    assert m.still_pending == [0, 0]


def test_redf_invalid_knowledge():
    with pytest.raises(ConfigError):
        RedfPolicy(knowledge="psychic")
    with pytest.raises(ConfigError):
        RedfPolicy(knowledge=["mean"])


# ---------------------------------------------------------------------------
# two-phase overload scheduler

class _RecRobust(_Recorder, RobustPolicy):
    def bind(self, specs):
        super().bind(specs)
        self.phases = []

    def _end_odd(self, now):
        odd_len = now - self.odd_start
        super()._end_odd(now)
        self.phases.append((odd_len, self.even_end - now))


def test_robust_phase_accounting_exact():
    sp = specs2()
    trace = [job(0, 0.0, 8.0, 100.0),   # J1: odd phase 1 (longest at t=0)
             job(0, 0.0, 5.0, 100.0),   # J2
             job(1, 2.0, 20.0, 100.0),  # J3: arrives during odd, no preemption
             job(1, 10.0, 25.0, 100.0)]  # J4: preempts J3 in the even phase
    policy = _RecRobust(slack=2.0, knowledge="exact")
    m = run_trace(sp, trace, policy, 200.0)
    assert m.completions == [2, 2]
    assert m.busy_time == pytest.approx(58.0)
    assert m.useful_time == pytest.approx(58.0)
    # completion order pins the schedule: J1 (odd), J4 (odd 2), J3, J2
    order = [(s, a) for s, a, _ in policy.completed]
    assert order == [(0, 0.0), (1, 10.0), (1, 2.0), (0, 0.0)]
    # every even budget is odd/(slack-1) = odd at slack 2
    for odd_len, even_len in policy.phases:
        assert even_len == pytest.approx(odd_len / (2.0 - 1.0), abs=1e-9)
    # first odd phase is exactly J1's remaining execution at phase start
    assert policy.phases[0][0] == pytest.approx(8.0, abs=1e-9)


def test_robust_odd_phase_is_nonpreemptive():
    sp = specs2()
    # the longer J2 arrives mid-odd; with slack high the even phase is tiny,
    # so a preemptive scheduler would have swapped to J2 before J1 finished
    trace = [job(0, 0.0, 8.0, 100.0), job(1, 1.0, 30.0, 100.0)]
    policy = _RecRobust(slack=2.0, knowledge="exact")
    run_trace(sp, trace, policy, 100.0)
    assert policy.completed[0][:2] == (0, 0.0)
    assert policy.completed[0][2] == pytest.approx(8.0)


def test_robust_expiry_ends_odd_phase():
    sp = specs2()
    trace = [job(0, 0.0, 10.0, 6.0)]  # hopeless job, expires mid-phase
    policy = _RecRobust(slack=2.0, knowledge="exact")
    m = run_trace(sp, trace, policy, 100.0)
    assert m.expirations == [1, 0]
    assert policy.phases == [(pytest.approx(6.0), pytest.approx(6.0))]


def test_robust_mean_even_budget_uses_estimate():
    sp = specs2(mean_exec0=10.0)
    # actual execution 4, stream mean 10: the even budget must come from
    # the estimate (10), not the observed phase length (4)
    trace = [job(0, 0.0, 4.0, 100.0)]
    policy = _RecRobust(slack=2.0, knowledge="mean")
    run_trace(sp, trace, policy, 100.0)
    (odd_len, even_len), = policy.phases
    assert odd_len == pytest.approx(4.0)
    assert even_len == pytest.approx(10.0)


def test_robust_mean_ranks_by_stream_mean():
    sp = specs2(mean_exec0=5.0, mean_exec1=50.0)
    # actual lengths invert the means; the mean variant must trust the means
    a = job(0, 0.0, 40.0, 1000.0)
    b = job(1, 0.0, 2.0, 1000.0)
    policy = _RecRobust(slack=2.0, knowledge="mean")
    run_trace(sp, [a, b], policy, 1000.0)
    assert policy.completed[0][0] == 1  # stream-1 job picked first


def test_robust_invalid_params():
    with pytest.raises(ConfigError):
        RobustPolicy(slack=1.0)
    with pytest.raises(ConfigError):
        RobustPolicy(slack=2.0, knowledge="guess")
    for slack in ("2", None, True, float("inf"), float("nan")):
        with pytest.raises(ConfigError):
            RobustPolicy(slack=slack)
    with pytest.raises(ConfigError):
        RobustPolicy(slack=2.0, knowledge=3)


def _longest_by_max(policy, now):
    """The two-pass selection `_longest` replaced, kept as its reference."""
    def est(j):
        return remaining_estimate(j, policy.knowledge, policy._mean_exec)
    eligible = [j for j in policy.pending if est(j) <= j.deadline_abs - now]
    return max(eligible or policy.pending,
               key=lambda j: (est(j), -j.deadline_abs, -j.arrival, -j.stream))


# few distinct values, so exact key ties and empty eligible sets are common
_pending_jobs = st.lists(
    st.builds(lambda stream, arrival, total, served, window:
              Job(stream, arrival, total, total - served * total, arrival + window, 1.0),
              st.integers(0, 1), st.sampled_from([0.0, 1.0, 2.0]),
              st.sampled_from([5.0, 10.0, 20.0]), st.sampled_from([0.0, 0.5, 1.0]),
              st.sampled_from([1.0, 10.0, 30.0])),
    min_size=1, max_size=8)


@given(pending=_pending_jobs, now=st.sampled_from([0.0, 2.0, 15.0, 40.0]),
       knowledge=st.sampled_from(["exact", "mean"]))
@settings(max_examples=300, deadline=None)
def test_robust_longest_matches_two_pass_max(pending, now, knowledge):
    policy = RobustPolicy(slack=2.0, knowledge=knowledge)
    policy.bind(specs2(mean_exec0=10.0, mean_exec1=20.0))
    policy.pending = pending
    assert policy._longest(now) is _longest_by_max(policy, now)


def test_robust_longest_ties_and_no_eligible_job():
    policy = RobustPolicy(slack=2.0, knowledge="exact")
    policy.bind(specs2())
    a, b = job(0, 0.0, 5.0, 50.0), job(0, 0.0, 5.0, 50.0)  # equal keys
    policy.pending = [a, b]
    assert policy._longest(0.0) is a  # the first of equal keys, as max() keeps
    # neither fits at t=48: the longest pending job runs anyway
    c = job(1, 0.0, 9.0, 50.0)
    policy.pending = [a, c, b]
    assert policy._longest(48.0) is c
    # at t=42 only the short ones fit, and they beat the longer c
    assert policy._longest(42.0) is a


def test_remaining_estimate_modes():
    j = job(1, 0.0, 30.0, 100.0)
    j.exec_remaining = 26.0  # 4 served
    assert remaining_estimate(j, "exact", [10.0, 20.0]) == 26.0
    assert remaining_estimate(j, "mean", [10.0, 20.0]) == 16.0
    assert remaining_estimate(j, "mean", [10.0, 3.0]) == 0.0  # past the mean


# ---------------------------------------------------------------------------
# round-robin FAP emulation

def test_fap_round_robin_matches_shares_under_backlog():
    sp = specs2()
    trace = sorted((job(s, 0.0, 1.0, 1e6) for s in (0, 1) for _ in range(40)),
                   key=lambda j: (j.arrival, j.stream))
    policy = FapRoundRobinPolicy(AllocationVector((0.25, 0.75)), quantum=1.0)
    m = run_trace(sp, trace, policy, 40.5)
    served = [m.completions[0] * 1.0, m.completions[1] * 1.0]
    assert served[0] / sum(served) == pytest.approx(0.25, abs=0.02)
    assert m.busy_time == pytest.approx(40.5)


def test_fap_round_robin_single_stream_is_continuous():
    sp = [StreamSpec(0, 1 / 350, 600.0, 1000.0, 1.0)]
    wl = WorkloadSpec(tuple(sp), 1e5, 5)
    trace = sample_trace(wl)
    rr = run_trace(sp, [fresh_copy(j) for j in trace],
                   FapRoundRobinPolicy(AllocationVector((1.0,)), 6.0), wl.horizon)
    edf = run_trace(sp, [fresh_copy(j) for j in trace], EdfPolicy(), wl.horizon)
    assert rr.revenue == edf.revenue
    assert rr.busy_time == pytest.approx(edf.busy_time)


def test_fap_round_robin_redistributes_idle_shares():
    sp = specs2()
    # only stream 1 is backlogged: it must get the whole processor
    trace = [job(1, 0.0, 10.0, 1e6) for _ in range(3)]
    policy = FapRoundRobinPolicy(AllocationVector((0.9, 0.1)), quantum=1.0)
    m = run_trace(sp, trace, policy, 30.0)
    assert m.completions == [0, 3]
    assert m.busy_time == pytest.approx(30.0)


def test_default_quantum_scale():
    assert default_quantum(specs2()) == pytest.approx(0.1)


@pytest.mark.parametrize("quantum", [0.0, "1", None, True, float("inf"), float("nan")])
def test_fap_round_robin_invalid_quantum(quantum):
    with pytest.raises(ConfigError):
        FapRoundRobinPolicy(AllocationVector((0.5, 0.5)), quantum=quantum)


# ---------------------------------------------------------------------------
# priority-index trace policy

def test_ztrace_serves_selected_stream_earliest_deadline():
    sp = specs2()
    table = build_table(sp, AllocationVector((0.5, 0.5)), 32)
    policy = ZTracePolicy(table)
    policy.bind(sp)
    a = job(0, 0.0, 5.0, 50.0)
    b = job(0, 1.0, 5.0, 40.0)
    policy.on_arrival(a, 1.0)
    policy.on_arrival(b, 1.0)
    chosen = policy.choose(1.0)
    assert chosen is b  # earliest deadline within the chosen stream
    assert policy.has_runnable()


def test_ztrace_rejects_a_table_for_another_stream_count():
    table = build_table(specs2(), AllocationVector((0.5, 0.5)), 8)
    with pytest.raises(ConfigError, match="2 streams for 1"):
        ZTracePolicy(table).bind(specs2()[:1])


def test_per_stream_store_removes_a_job_that_is_not_the_head():
    sp = specs2()
    policy = ZTracePolicy(build_table(sp, AllocationVector((0.5, 0.5)), 32))
    policy.bind(sp)
    a, b, c = job(0, 0.0, 5.0, 10.0), job(0, 1.0, 5.0, 20.0), job(0, 2.0, 5.0, 30.0)
    d = job(1, 2.0, 5.0, 15.0)
    for j in (a, b, c, d):
        policy.on_arrival(j, 2.0)
    assert policy.lengths == [3, 1]
    policy.on_expiry(c, 3.0)    # the last entry of stream 0's heap
    policy.on_completion(b, 3.0)  # an inner entry
    assert policy.lengths == [1, 1]
    assert [e[3] for e in policy.heaps[0]] == [a]
    policy.on_expiry(a, 10.0)
    assert policy.choose(10.0) is d
    policy.on_completion(d, 11.0)
    assert policy.lengths == [0, 0] and not policy.has_runnable()
    assert policy.choose(11.0) is None
    with pytest.raises(InvariantError):
        policy.on_expiry(a, 12.0)
    with pytest.raises(InvariantError):
        policy.on_completion(job(1, 0.0, 1.0, 5.0), 12.0)


def _check_index_state(policy):
    """``ZTracePolicy._z`` holds each stream's index at its length (-1.0 when
    empty), so ``choose`` picks the head of the stream ``select`` picks."""
    assert policy._z == [lookup(policy.table, i, l) if l else -1.0
                         for i, l in enumerate(policy.lengths)]
    j = policy.table.select(policy.lengths)
    assert policy.choose(0.0) is (None if j is None else policy.heaps[j][0][3])


@given(jobs=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 3), st.integers(1, 4)),
                    min_size=1, max_size=12),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_per_stream_store_serves_earliest_deadline_after_any_removals(jobs, data):
    # remove any subset in any order by direct callback, then drain: the
    # store must still hand out each stream's jobs by (deadline, arrival,
    # arrival order)
    sp = specs2()
    policy = ZTracePolicy(build_table(sp, AllocationVector((0.5, 0.5)), 32))
    policy.bind(sp)
    held = [job(s, float(a), 1.0, float(a + d)) for s, a, d in jobs]
    for j in held:
        policy.on_arrival(j, 0.0)
    gone = data.draw(st.lists(st.sampled_from(held), unique_by=id))
    for k, j in enumerate(gone):
        (policy.on_expiry if k % 2 else policy.on_completion)(j, 0.0)
        _check_index_state(policy)
    left = [j for j in held if all(j is not g for g in gone)]
    assert policy.lengths == [sum(j.stream == i for j in left) for i in (0, 1)]
    assert policy.has_runnable() == bool(left)
    served = []
    while (j := policy.choose(0.0)) is not None:
        served.append(j)
        policy.on_completion(j, 0.0)
    for i in (0, 1):
        want = sorted((j for j in left if j.stream == i),
                      key=lambda j: (j.deadline_abs, j.arrival))
        assert [j for j in served if j.stream == i] == want


class _CountingStore:
    """Mixin checking after every callback that each stream's heap holds
    exactly the jobs ``lengths`` counts, all of them still live, and before
    every removal that the job is its stream's heap head, as the engine's
    callback contract promises (expiries in deadline order, ties in arrival
    order; only a chosen head completes)."""

    def _check(self):
        assert [len(h) for h in self.heaps] == self.lengths
        assert all(e[3]._live and e[3].stream == i
                   for i, h in enumerate(self.heaps) for e in h)

    def on_arrival(self, job, now):
        super().on_arrival(job, now)
        self._check()

    def on_expiry(self, job, now):
        assert self.heaps[job.stream][0][3] is job
        super().on_expiry(job, now)
        self._check()

    def on_completion(self, job, now):
        assert self.heaps[job.stream][0][3] is job
        super().on_completion(job, now)
        self._check()


class _CountingZTrace(_CountingStore, ZTracePolicy):
    def _check(self):
        super()._check()
        _check_index_state(self)


class _CountingFapRoundRobin(_CountingStore, FapRoundRobinPolicy):
    def _check(self):
        # a stream's rank is its share while it is backlogged, -1.0 when empty
        super()._check()
        assert self._z == [self.f[i] if l else -1.0 for i, l in enumerate(self.lengths)]


# arrivals, executions and deadline windows on coarse grids, so that exact
# deadline and arrival ties within and across streams are common
_tied_jobs = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 12), st.sampled_from([0.5, 1.0, 3.0]),
              st.sampled_from([1.0, 2.0, 4.0, 8.0])),
    min_size=1, max_size=30)


_TIED_SPECS = [StreamSpec(i, 0.05, 1.0 + i, 4.0, 1.0 + i) for i in range(3)]


def _tied_trace(raw, rule):
    """Fresh jobs from ``_tied_jobs`` draws, sorted by arrival then stream;
    the deadline window is drawn, or twice the execution time."""
    jobs = [Job(s, float(a), e, e, a + (2.0 * e if rule == "proportional" else w), 1.0 + s)
            for s, a, e, w in raw]
    return sorted(jobs, key=lambda j: (j.arrival, j.stream))


@given(raw=_tied_jobs, rule=st.sampled_from(["window", "proportional"]),
       shares=st.sampled_from([(0.2, 0.3, 0.5), (0.0, 0.5, 0.5), (1.0, 0.0, 0.0)]),
       quantum=st.sampled_from([0.25, 1.0, 5.0]), l_max=st.sampled_from([2, 8]))
@settings(max_examples=200, deadline=None)
def test_heap_policies_match_the_list_references(raw, rule, shares, quantum, l_max):
    # l_max 2 puts queue lengths past the table's end, where the index is
    # the stream's limit value
    sp = _TIED_SPECS
    f = AllocationVector(shares)
    table = build_table(sp, AllocationVector.normalized([1.0, 1.0, 1.0]), l_max)
    for policy, reference in ((_CountingZTrace(table), ZTraceListPolicy(table)),
                              (_CountingFapRoundRobin(f, quantum),
                               FapRoundRobinListPolicy(f, quantum))):
        got = run_trace(sp, _tied_trace(raw, rule), policy, 30.0)
        assert got == run_trace(sp, _tied_trace(raw, rule), reference, 30.0)
        assert policy.lengths == got.still_pending


_TIED_TABLE = build_table(_TIED_SPECS, AllocationVector.normalized([1.0, 1.0, 1.0]), 2)
_ENGINE_POLICIES = {
    "edf": EdfPolicy,
    "redf_exact": lambda: RedfPolicy("exact"),
    "redf_mean": lambda: RedfPolicy("mean"),
    "robust2_exact": lambda: RobustPolicy(2.0, "exact"),
    "robust2_mean": lambda: RobustPolicy(2.0, "mean"),
    "robust4_exact": lambda: RobustPolicy(4.0, "exact"),
    "robust4_mean": lambda: RobustPolicy(4.0, "mean"),
    "policyz": lambda: _CountingZTrace(_TIED_TABLE),
    "fap": lambda: _CountingFapRoundRobin(AllocationVector((0.2, 0.3, 0.5)), 1.0),
}


@given(raw=_tied_jobs, rule=st.sampled_from(["window", "proportional"]))
@settings(max_examples=200, deadline=None)
def test_run_trace_matches_the_heap_engine_reference(raw, rule):
    # exact deadline ties within and across streams, and jobs that complete
    # before their deadline: the presorted expiry order and the skipping of
    # completed jobs must give the lazy-deletion heap's events, float for float
    for name, make in _ENGINE_POLICIES.items():
        got = run_trace(_TIED_SPECS, _tied_trace(raw, rule), make(), 30.0)
        want = run_trace_reference(_TIED_SPECS, _tied_trace(raw, rule), make(), 30.0)
        assert got == want, name


@pytest.mark.parametrize("rule", ["exponential", "proportional"])
def test_heap_policies_match_the_list_references_on_a_sampled_trace(rule):
    workload = presets.robust_workload(2.0, 3.0, seed=5, horizon=20_000.0)
    sp = workload.streams
    f = resolve_allocation(sp, [0.4, 0.3, 0.2, 0.1])
    table = build_table(sp, f, 64)
    trace = sample_trace(workload)
    if rule == "proportional":
        for j in trace:
            j.deadline_abs = j.arrival + 2.0 * j.exec_total
    quantum = default_quantum(sp)
    for policy, reference in ((ZTracePolicy(table), ZTraceListPolicy(table)),
                              (FapRoundRobinPolicy(f, quantum),
                               FapRoundRobinListPolicy(f, quantum))):
        got = run_trace(sp, [fresh_copy(j) for j in trace], policy, workload.horizon)
        want = run_trace(sp, [fresh_copy(j) for j in trace], reference, workload.horizon)
        assert got == want


# ---------------------------------------------------------------------------
# construction by name

def test_make_policy_types_and_errors():
    sp = specs2()
    assert isinstance(make_policy("edf", {}, sp, "trace"), EdfPolicy)
    assert isinstance(make_policy("redf", {}, sp, "trace"), RedfPolicy)
    robust = make_policy("robust", {"slack": 4.0, "knowledge": "mean"}, sp, "trace")
    assert isinstance(robust, RobustPolicy)
    assert robust.slack == 4.0
    fap_ctmc = make_policy("fap", {"f": [0.5, 0.5]}, sp, "ctmc")
    assert isinstance(fap_ctmc, FapQueuePolicy)
    fap_trace = make_policy("fap", {"f": [0.5, 0.5]}, sp, "trace")
    assert isinstance(fap_trace, FapRoundRobinPolicy)
    z_ctmc = make_policy("policyz", {"f": [0.5, 0.5], "l_max": 16}, sp, "ctmc")
    assert isinstance(z_ctmc, ZQueuePolicy)
    assert isinstance(make_policy("policyz", {"f": [0.5, 0.5]}, sp, "trace"),
                      ZTracePolicy)
    with pytest.raises(ConfigError):
        make_policy("edf", {}, sp, "ctmc")
    with pytest.raises(ConfigError):
        make_policy("nonsense", {}, sp, "trace")
    with pytest.raises(ConfigError):
        make_policy("edf", {}, sp, "quantum")


def test_resolve_allocation_auto_and_explicit():
    sp = specs2()
    explicit = resolve_allocation(sp, [1.0, 3.0])
    assert explicit.fractions == (0.25, 0.75)
    auto = resolve_allocation(sp, "auto")
    assert sum(auto.fractions) == pytest.approx(1.0, abs=1e-12)


@pytest.fixture(scope="module")
def queue_policies():
    specs = presets.table1_workload(7).streams
    f = resolve_allocation(specs, "auto")
    return specs, [FapQueuePolicy(f), ZQueuePolicy(build_table(specs, f, 16)),
                   SdpQueuePolicy(solve(SdpModel(*specs)))]


@given(a=st.lists(st.integers(0, 40), min_size=2, max_size=2),
       b=st.lists(st.integers(0, 40), min_size=2, max_size=2))
@settings(max_examples=100, deadline=None)
def test_queue_policy_rates_are_a_pure_function_of_the_lengths(queue_policies, a, b):
    # the QueuePolicy contract: equal lengths give equal rates, whatever was
    # asked in between, and the lengths list is left as it was
    specs, policies = queue_policies
    for policy in policies:
        policy.bind(specs)
        a_in, b_in = list(a), list(b)
        first = policy.service_rates(a_in)
        policy.service_rates(b_in)
        assert policy.service_rates(list(a)) == first
        assert a_in == a and b_in == b
