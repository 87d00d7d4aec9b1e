"""Fractional-allocation optimizer behavior."""

import logging

import pytest

from revsched.allocation import AllocationVector, optimize
from revsched.errors import ConfigError
from revsched.queueing import total_revenue
from revsched.streams import StreamSpec


def spec(i, period, mean_exec, reward, mean_deadline=1000.0):
    return StreamSpec(i, 1.0 / period, mean_exec, mean_deadline, reward)


def test_single_stream_gets_everything():
    result = optimize([spec(0, 350, 600, 1.0)])
    assert result.f_star.fractions == (1.0,)
    assert result.v_star > 0


def test_two_stream_symmetry():
    # identical streams -> optimum at the midpoint (up to tolerance)
    streams = [spec(0, 350, 600, 1.0), spec(1, 350, 600, 1.0)]
    result = optimize(streams, tol=1e-4)
    assert result.f_star[0] == pytest.approx(0.5, abs=2e-3)
    assert sum(result.f_star.fractions) == pytest.approx(1.0, abs=1e-12)


def test_swap_invariance():
    a = [spec(0, 350, 530, 1.3), spec(1, 350, 900, 1.0)]
    b = [spec(0, 350, 900, 1.0), spec(1, 350, 530, 1.3)]
    ra, rb = optimize(a, tol=1e-4), optimize(b, tol=1e-4)
    assert ra.v_star == pytest.approx(rb.v_star, rel=1e-6)
    assert ra.f_star[0] == pytest.approx(rb.f_star[1], abs=2e-3)


def test_v_star_consistent_with_objective():
    streams = [spec(0, 350, 530, 1.3, 500), spec(1, 350, 900, 1.0, 500)]
    result = optimize(streams, tol=1e-4)
    assert result.v_star == pytest.approx(
        total_revenue(streams, result.f_star), rel=1e-12)
    assert result.evaluations > 100


def test_optimum_dominates_probe_grid():
    streams = [spec(0, 350, 530, 1.3, 500), spec(1, 350, 900, 1.0, 500)]
    result = optimize(streams, tol=1e-4)
    for k in range(0, 101, 5):
        f1 = k / 100.0
        assert result.v_star >= total_revenue(streams, (f1, 1.0 - f1)) - 1e-12


def test_three_streams_dominates_probes():
    streams = [spec(0, 350, 200, 2.0, 400),
               spec(1, 350, 600, 1.0, 800),
               spec(2, 350, 900, 1.5, 1200)]
    result = optimize(streams, tol=1e-3)
    assert sum(result.f_star.fractions) == pytest.approx(1.0, abs=1e-12)
    probes = [(1, 0, 0), (0, 1, 0), (0, 0, 1),
              (1 / 3, 1 / 3, 1 / 3), (0.5, 0.25, 0.25),
              (0.25, 0.5, 0.25), (0.25, 0.25, 0.5),
              (0.6, 0.2, 0.2), (0.2, 0.2, 0.6)]
    for p in probes:
        assert result.v_star >= total_revenue(streams, p) - 1e-9


def test_near_tied_optima_are_logged(caplog):
    # so overloaded that every queue stays busy: the revenue is nearly the
    # same at every allocation, and the starts end at distant optima
    streams = [spec(i, 10, 600, 1.0, 1e4) for i in range(3)]
    with caplog.at_level(logging.INFO, logger="revsched.allocation"):
        optimize(streams, tol=1e-2)
    assert "multiple near-optimal allocations" in caplog.text


def test_allocation_vector_validation():
    with pytest.raises(ConfigError):
        AllocationVector((0.5, 0.6))
    with pytest.raises(ConfigError):
        AllocationVector((-0.1, 1.1))
    norm = AllocationVector.normalized([2.0, 2.0])
    assert norm.fractions == (0.5, 0.5)
    with pytest.raises(ConfigError):
        AllocationVector.normalized([0.0, 0.0])


def test_optimize_rejects_bad_input():
    with pytest.raises(ConfigError):
        optimize([])
    with pytest.raises(ConfigError):
        optimize([spec(0, 350, 600, 1.0)], tol=0.0)
