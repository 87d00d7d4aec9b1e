"""Birth-death queue formulas against high-precision and closed-form oracles."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revsched import queueing
from revsched.errors import ConfigError, NumericalError
from revsched.queueing import QueueParams, pi0, pi0_many, stationary, stream_revenue
from revsched.streams import StreamSpec

# Frozen oracles, computed once with mpmath at 60 significant digits by
# summing the weight series until the terms fall below 1e-70 of the total.
PI0_ORACLES = [
    # (r, a, d, pi0)
    (1 / 350, (1 / 600) * 0.5, 1 / 1000, 0.15267977432340786046),
    (0.3, 0.2, 0.05, 0.1576970191355875262),
    (0.01, 0.0, 0.002, 0.0067379469990854670966),
]
PI3_ORACLE = (0.3, 0.2, 0.05, 0.1622026482537471698)  # stationary mass at l=3
REV_ORACLE = 0.00070610018806382678295  # v=1, s=1/600, f=0.5, r=1/350, d=1/1000


@pytest.mark.parametrize("r,a,d,expected", PI0_ORACLES)
def test_pi0_matches_high_precision_oracle(r, a, d, expected):
    assert pi0(QueueParams(r, a, d)) == pytest.approx(expected, rel=1e-10)


def test_pi0_zero_service_closed_form():
    # with no service the queue is an M/M/inf of deadline clocks and the
    # empty probability collapses to exp(-r/d)
    for r in (0.001, 0.01, 0.3, 2.0):
        for d in (0.01, 0.05, 0.5):
            p = QueueParams(r, 0.0, d)
            assert pi0(p) == pytest.approx(math.exp(-r / d), rel=1e-10)


def test_pi0_zero_arrivals_is_one():
    assert pi0(QueueParams(0.0, 0.1, 0.01)) == 1.0


def test_stationary_at_oracle_point():
    r, a, d, expected = PI3_ORACLE
    assert stationary(QueueParams(r, a, d), 3) == pytest.approx(expected, rel=1e-10)


def test_stationary_normalizes():
    p = QueueParams(1 / 350, (1 / 600) * 0.5, 1 / 1000)
    total = sum(stationary(p, l) for l in range(2000))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_detailed_balance():
    # birth-death chains balance flow across every cut:
    # r * pi(l) == (a + (l+1) d) * pi(l+1)
    p = QueueParams(0.3, 0.2, 0.05)
    for l in range(50):
        lhs = p.arrival_rate * stationary(p, l)
        rhs = (p.aggregate_service + (l + 1) * p.deadline_rate) * stationary(p, l + 1)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_stream_revenue_at_oracle_point():
    spec = StreamSpec(0, 1 / 350, 600.0, 1000.0, 1.0)
    assert stream_revenue(spec, 0.5) == pytest.approx(REV_ORACLE, rel=1e-10)


def test_pi0_monotone_in_service_rate():
    # faster service empties the queue more often
    r, d = 0.02, 0.001
    values = [pi0(QueueParams(r, a, d)) for a in (0.0, 0.001, 0.005, 0.02, 0.1)]
    assert values == sorted(values)


def test_pi0_monotone_in_arrival_rate():
    a, d = 0.005, 0.001
    values = [pi0(QueueParams(r, a, d)) for r in (0.0, 0.001, 0.01, 0.05)]
    assert values == sorted(values, reverse=True)


@given(r=st.floats(1e-3, 5.0), a=st.floats(0.0, 10.0), d=st.floats(1e-2, 10.0))
@settings(max_examples=200, deadline=None)
def test_pi0_is_a_probability(r, a, d):
    value = pi0(QueueParams(r, a, d))
    assert 0.0 < value <= 1.0


@given(r=st.floats(1e-3, 2.0), a=st.floats(0.0, 2.0), d=st.floats(1e-2, 1.0),
       l=st.integers(0, 200))
@settings(max_examples=200, deadline=None)
def test_stationary_terms_are_probabilities(r, a, d, l):
    value = stationary(QueueParams(r, a, d), l)
    assert 0.0 <= value <= 1.0


@given(r=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
       a=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20),
       d=st.floats(1e-3, 1.0))
@example(r=0.0, a=[0.0, 1.0], d=0.5)
@example(r=5.0, a=[0.0, 0.5, 5.0, 50.0], d=1e-3)  # r/d = 5000: the first sums overflow
@settings(max_examples=200, deadline=None)
def test_pi0_many_equals_scalar_pi0(r, a, d):
    # the row pass must give the scalar series' floats, not close ones
    assert pi0_many(r, a, d).tolist() == [pi0(QueueParams(r, x, d)) for x in a]


def test_pi0_many_stops_each_entry_at_its_own_term():
    # the first entry's sum overflows at term 161 (pi0 underflows to 0.0),
    # the second converges at term 14 and the third at term 1,529
    values = pi0_many(5.0, [0.0, 50.0, 4.0], 1e-3)
    assert values[0] == 0.0 and values[1] > values[2] > 0.0
    assert values.tolist() == [pi0(QueueParams(5.0, x, 1e-3)) for x in (0.0, 50.0, 4.0)]
    assert pi0_many(5.0, [], 1e-3).size == 0


def test_pi0_many_raises_when_an_entry_runs_out_of_terms(monkeypatch):
    # the first entry converges at term 1, the second needs dozens of terms
    monkeypatch.setattr(queueing, "MAX_TERMS", 3)
    series = queueing._pi0_cached.__wrapped__  # past the memo
    assert pi0_many(0.3, [1e14], 0.05).tolist() == [series(0.3, 1e14, 0.05)]
    with pytest.raises(NumericalError):
        series(0.3, 0.2, 0.05)
    with pytest.raises(NumericalError):
        pi0_many(0.3, [1e14, 0.2], 0.05)


def test_invalid_params_rejected():
    with pytest.raises(ConfigError):
        QueueParams(-1.0, 0.1, 0.1)
    with pytest.raises(ConfigError):
        QueueParams(0.1, -0.1, 0.1)
    with pytest.raises(ConfigError):
        QueueParams(0.1, 0.1, 0.0)
    for r, a, d in ((-1.0, 0.1, 0.1), (0.1, -0.1, 0.1), (0.1, 0.1, 0.0)):
        with pytest.raises(ConfigError):
            pi0_many(r, [0.5, a], d)
