"""Average-reward value iteration oracle for two streams."""

import hashlib
import logging

import mpmath
import numpy as np
import pytest

from revsched import presets
from revsched.dp import (CAP_TAIL_TOL, DEFAULT_CAP, IDLE, SERVE_1, SERVE_2,
                         SdpModel, SdpQueuePolicy, gap_percent, solve, tail_mass)
from revsched.errors import ConfigError
from revsched.queueing import QueueParams, pi0, stationary
from revsched.streams import StreamSpec

E1 = (StreamSpec(0, 1 / 350, 600.0, 1000.0, 1.0),
      StreamSpec(1, 1 / 350, 600.0, 1000.0, 1.0))


@pytest.fixture(scope="module")
def e1_solution():
    return solve(SdpModel(*E1, cap=60), tol=1e-8)


def test_uniformization_rate_dominates_outflow():
    # every state's total outflow (including the service action) must fit
    # under the uniformization rate, or self-loop probabilities go negative
    model = SdpModel(*E1, cap=60)
    lam = model.uniformization_rate
    s1, s2 = model.stream1, model.stream2
    worst = (s1.arrival_rate + s2.arrival_rate
             + model.cap * (s1.deadline_rate + s2.deadline_rate)
             + max(s1.service_rate, s2.service_rate))
    assert lam >= worst - 1e-15


def test_transition_probabilities_sum_to_one():
    # reassemble one-step probabilities of the uniformized chain at a few
    # states under each action and check normalization
    model = SdpModel(*E1, cap=60)
    lam = model.uniformization_rate
    s1, s2 = model.stream1, model.stream2
    for (l1, l2, mu) in [(0, 0, 0.0), (5, 3, s1.service_rate),
                         (60, 60, s2.service_rate), (1, 0, s1.service_rate)]:
        out = (s1.arrival_rate * (l1 < 60) + s2.arrival_rate * (l2 < 60)
               + l1 * s1.deadline_rate + l2 * s2.deadline_rate + mu)
        self_loop = 1.0 - out / lam
        assert self_loop >= -1e-12
        total = self_loop + out / lam
        assert total == pytest.approx(1.0, abs=1e-12)


def test_single_queue_reduction_matches_analytic():
    # make stream 2 negligible: the optimal gain collapses to the analytic
    # full-service revenue rate of stream 1
    s1 = StreamSpec(0, 1 / 350, 600.0, 1000.0, 1.0)
    s2 = StreamSpec(1, 1e-9, 600.0, 1000.0, 1.0)
    sol = solve(SdpModel(s1, s2, cap=60), tol=1e-8)
    analytic = s1.reward * s1.service_rate * (
        1.0 - pi0(QueueParams(s1.arrival_rate, s1.service_rate, s1.deadline_rate)))
    assert sol.gain == pytest.approx(analytic, rel=0.01)


def test_symmetric_streams_give_symmetric_values(e1_solution):
    # identical streams: relative values are mirror-symmetric and the two
    # serve actions are exactly indifferent (so the action table itself is
    # only pinned by tie-breaking)
    V = e1_solution.bias
    assert np.abs(V - V.T).max() < 1e-6 * max(1.0, np.abs(V).max())
    mu = E1[0].service_rate
    for l1 in range(1, 61):
        for l2 in range(1, 61):
            q_diff = mu * (V[l1 - 1, l2] - V[l1, l2 - 1])
            assert abs(q_diff) < 1e-7  # indifferent up to the VI tolerance


def test_policy_is_greedy_in_the_bias(e1_solution):
    # the returned action must maximize the one-step lookahead in V
    V = e1_solution.bias
    mu1, mu2 = E1[0].service_rate, E1[1].service_rate
    rew1 = E1[0].reward * mu1
    rew2 = E1[1].reward * mu2
    for l1, l2 in [(1, 1), (2, 7), (7, 2), (30, 4), (4, 30), (60, 60)]:
        q1 = rew1 + mu1 * (V[l1 - 1, l2] - V[l1, l2]) if l1 > 0 else -np.inf
        q2 = rew2 + mu2 * (V[l1, l2 - 1] - V[l1, l2]) if l2 > 0 else -np.inf
        best = max(q1, q2)
        action = e1_solution.policy[l1, l2]
        got = q1 if action == SERVE_1 else q2
        assert got == pytest.approx(best, abs=1e-9)


def test_policy_is_work_conserving(e1_solution):
    policy = e1_solution.policy
    assert policy[0, 0] == IDLE
    assert (policy[1:, :] != IDLE).all()
    assert (policy[:, 1:] != IDLE).all()
    assert (policy[0, 1:] == SERVE_2).all()
    assert (policy[1:, 0] == SERVE_1).all()


@pytest.fixture(scope="module", params=[(eid, cap) for eid in (1, 7, 13) for cap in (None, 40)],
                ids=lambda p: f"E{p[0]}-cap{p[1] or 'sized'}")
def table1_solution(request):
    eid, cap = request.param
    specs = presets.table1_workload(eid).streams
    return specs, solve(SdpModel(*specs, cap=cap))


def test_solved_table_idles_only_when_both_queues_are_empty(table1_solution):
    policy = table1_solution[1].policy
    assert policy[0, 0] == IDLE
    assert (policy[1:, :] != IDLE).all() and (policy[:, 1:] != IDLE).all()
    # never serves an empty queue
    assert (policy[0, 1:] == SERVE_2).all()
    assert (policy[1:, 0] == SERVE_1).all()


def test_queue_policy_adapter_replays_the_clamped_table(table1_solution):
    specs, sol = table1_solution
    adapter = SdpQueuePolicy(sol)
    adapter.bind(list(specs))
    cap = sol.cap
    for l1 in (*range(cap + 3), 10 * cap):
        for l2 in (*range(cap + 3), 10 * cap):
            action = sol.policy[min(l1, cap), min(l2, cap)]
            expected = [specs[0].service_rate if action == SERVE_1 else 0.0,
                        specs[1].service_rate if action == SERVE_2 else 0.0]
            assert adapter.service_rates([l1, l2]) == expected


def test_gain_positive_and_bounded(e1_solution):
    # gain cannot exceed the perfect-revenue rate of serving the better
    # stream nonstop
    upper = max(s.reward * s.service_rate for s in E1)
    assert 0.0 < e1_solution.gain < upper


def test_tail_mass_shrinks_with_cap():
    s = E1[0]
    masses = [tail_mass(s, 0.5, cap) for cap in (10, 30, 60, 120)]
    assert masses == sorted(masses, reverse=True)
    assert masses[-1] < 1e-6


def test_queue_policy_adapter(e1_solution):
    adapter = SdpQueuePolicy(e1_solution)
    adapter.bind(list(E1))
    assert adapter.service_rates([0, 0]) == [0.0, 0.0]
    rates = adapter.service_rates([3, 5])
    assert sum(1 for r in rates if r > 0) == 1
    # beyond the cap the adapter still serves something
    rates = adapter.service_rates([500, 200])
    assert sum(rates) > 0


def test_gap_percent():
    assert gap_percent(1.0, 0.97) == pytest.approx(3.0)
    with pytest.raises(ConfigError):
        gap_percent(0.0, 1.0)


def test_invalid_model():
    with pytest.raises(ConfigError):
        SdpModel(*E1, cap=0)
    with pytest.raises(ConfigError):
        solve(SdpModel(*E1, cap=10), tol=0.0)


def test_tail_mass_matches_poisson_tail_at_1e12():
    # share 0: the queue drains only by deadlines, so its length is
    # Poisson(r/d); compare against the upper tail summed in high precision
    for s in (E1[0], StreamSpec(0, 0.5, 600.0, 10.0, 1.0),
              StreamSpec(0, 1.0, 600.0, 20.0, 1.0)):
        cap = next(c for c in range(200) if tail_mass(s, 0.0, c) < 1e-12)
        with mpmath.workdps(50):
            x = mpmath.mpf(s.arrival_rate) * mpmath.mpf(s.mean_deadline)
            exact = mpmath.nsum(lambda k: mpmath.exp(-x) * x**k / mpmath.factorial(k),
                                [cap + 1, mpmath.inf])
        assert 1e-13 < exact < 1e-12
        assert tail_mass(s, 0.0, cap) == pytest.approx(float(exact), rel=1e-9, abs=0)


def test_tail_mass_agrees_with_one_minus_head():
    # where the tail is large enough for 1 - head to be accurate, the two
    # formulas must agree
    for s in (E1[0], StreamSpec(0, 0.5, 600.0, 10.0, 1.0)):
        for share in (0.0, 0.3, 1.0):
            p = QueueParams(s.arrival_rate, s.service_rate * share, s.deadline_rate)
            for cap in range(0, 12):
                old = 1.0 - sum(stationary(p, l) for l in range(cap + 1))
                if old >= 1e-6:
                    assert tail_mass(s, share, cap) == pytest.approx(old, rel=1e-8, abs=0)


def test_tail_mass_of_a_very_long_queue_is_near_one():
    # r/d = 1e5: pi0 underflows, yet the tail beyond a small cap is ~1
    s = StreamSpec(0, 100.0, 1.0, 1000.0, 1.0)
    assert pi0(QueueParams(s.arrival_rate, 0.0, s.deadline_rate)) == 0.0
    assert tail_mass(s, 0.0, 150) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        tail_mass(s, 0.0, -1)


@pytest.mark.parametrize("eid", [1, 7, 13])
def test_sized_cap_is_the_smallest_meeting_the_tail_tolerance(eid):
    s1, s2 = presets.table1_workload(eid).streams
    model = SdpModel(s1, s2)
    cap = model.cap
    assert 1 < cap < DEFAULT_CAP
    assert model.tail_bound <= CAP_TAIL_TOL
    assert all(tail_mass(s, 0.0, cap - 1) <= CAP_TAIL_TOL for s in (s1, s2))
    assert any(tail_mass(s, 0.0, cap - 2) > CAP_TAIL_TOL for s in (s1, s2))


def test_sized_gain_matches_a_generous_cap():
    sized = solve(SdpModel(*E1))
    generous = solve(SdpModel(*E1, cap=60), tol=1e-10)
    assert sized.cap < 60
    assert sized.tail_bound <= CAP_TAIL_TOL
    assert sized.bias.shape == (sized.cap + 1, sized.cap + 1)
    assert sized.gain == pytest.approx(generous.gain, rel=1e-6)


def test_sized_cap_stops_at_the_ceiling_and_reports_the_bound(caplog):
    s = StreamSpec(0, 0.2, 600.0, 1000.0, 1.0)  # r/d = 200
    with caplog.at_level(logging.WARNING, logger="revsched.dp"):
        model = SdpModel(s, s)
    assert model.cap == DEFAULT_CAP
    assert model.tail_bound > CAP_TAIL_TOL
    assert "tail mass" in caplog.text


def test_explicit_cap_solution_is_unchanged(e1_solution):
    # bit-for-bit the solution of the fixed-cap solver
    assert e1_solution.gain == 0.0015990547291100186
    assert e1_solution.iterations == 1875
    assert hashlib.sha256(e1_solution.bias.tobytes()).hexdigest() == (
        "651b95557f4cba1e7eed195567412a975d50979a0e1f0b989da7ab2641a82aca")
    assert e1_solution.cap == 60
    assert e1_solution.tail_bound < 1e-50


def test_gain_err_brackets_a_tighter_solve():
    model = SdpModel(*E1)  # sized cap
    loose = solve(model, tol=1e-6)
    tight = solve(model, tol=1e-12)
    assert abs(tight.gain - loose.gain) <= loose.gain_err
    assert loose.gain_err < 10 * abs(tight.gain - loose.gain)  # not vacuous
    assert tight.gain_err < loose.gain_err
    assert solve(model).gain_err < 1e-5 * loose.gain  # the default tol
