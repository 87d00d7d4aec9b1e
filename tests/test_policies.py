"""Policy-level behavior on hand-built job traces."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revsched.allocation import AllocationVector
from revsched.errors import ConfigError
from revsched.policies import (EdfPolicy, FapQueuePolicy, FapRoundRobinPolicy,
                               RedfPolicy, RobustPolicy, ZQueuePolicy,
                               ZTracePolicy, default_quantum, make_policy,
                               remaining_estimate, resolve_allocation)
from revsched.sim import run_trace
from revsched.streams import Job, StreamSpec, WorkloadSpec, sample_trace
from revsched.zindex import build_table


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
    rr = run_trace(sp, [j.fresh_copy() for j in trace],
                   FapRoundRobinPolicy(AllocationVector((1.0,)), 6.0), wl.horizon)
    edf = run_trace(sp, [j.fresh_copy() for j in trace], EdfPolicy(), wl.horizon)
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
