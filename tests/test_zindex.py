"""Priority-index values, properties, and the lookup table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revsched import allocation, presets, queueing, zindex
from revsched.allocation import AllocationVector
from revsched.errors import ConfigError, NumericalError
from revsched.queueing import pi0
from revsched.streams import StreamSpec
from revsched.zindex import (PriorityTable, build_table, priority,
                             priority_via_value_difference)

from helpers import lookup

# Frozen oracles (mpmath, 60 digits): stream r=1/350, mean_exec=600,
# mean_deadline=1000, reward=1, share f=0.5.
Z_ORACLES = {1: 0.0012547748902961010433, 5: 0.0016070767778603488761}

S = StreamSpec(0, 1 / 350, 600.0, 1000.0, 1.0)


@pytest.mark.parametrize("l,expected", sorted(Z_ORACLES.items()))
def test_priority_matches_oracle(l, expected):
    assert priority(S, 0.5, l) == pytest.approx(expected, rel=1e-10)


def test_zero_share_index_is_peak_rate():
    # with no fractional share the stream loses nothing by waiting, so the
    # index equals the full peak revenue rate v*s at every length
    for l in (1, 2, 10, 100):
        assert priority(S, 0.0, l) == pytest.approx(S.reward * S.service_rate,
                                                    rel=1e-12)


def test_index_limit_at_huge_queue():
    bound = S.reward * S.service_rate
    z = priority(S, 0.5, 10**6)
    assert z <= bound
    assert z == pytest.approx(bound, rel=1e-4)


def test_two_evaluations_agree():
    for f in (0.0, 0.2, 0.5, 0.9, 1.0):
        for l in (1, 2, 7, 50, 400):
            a = priority(S, f, l)
            b = priority_via_value_difference(S, f, l)
            assert a == pytest.approx(b, rel=1e-12)


def test_index_monotone_and_bounded():
    values = [priority(S, 0.5, l) for l in range(1, 300)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    bound = S.reward * S.service_rate
    assert all(0.0 <= v <= bound for v in values)


def test_index_scales_with_reward():
    # the index is linear in the reward
    s2 = StreamSpec(0, 1 / 350, 600.0, 1000.0, 3.0)
    for l in (1, 4, 20):
        assert priority(s2, 0.5, l) == pytest.approx(3.0 * priority(S, 0.5, l),
                                                     rel=1e-12)


@given(f=st.floats(0.0, 1.0), l=st.integers(1, 500))
@settings(max_examples=100, deadline=None)
def test_index_stays_in_range(f, l):
    z = priority(S, f, l)
    assert 0.0 <= z <= S.reward * S.service_rate * (1 + 1e-12)


def make_table(l_max=64):
    specs = [StreamSpec(0, 1 / 350, 530.0, 500.0, 1.3),
             StreamSpec(1, 1 / 350, 900.0, 500.0, 1.0)]
    f = AllocationVector((0.4, 0.6))
    return specs, build_table(specs, f, l_max)


def test_table_lookup_matches_direct_eval():
    specs, table = make_table()
    for i, s in enumerate(specs):
        for l in (1, 2, 10, 64):
            assert lookup(table, i, l) == pytest.approx(
                priority(s, table.allocation[i], l), rel=1e-12)


def test_table_lookup_beyond_lmax_returns_limit():
    specs, table = make_table(l_max=16)
    for i, s in enumerate(specs):
        assert lookup(table, i, 17) == s.reward * s.service_rate
        assert lookup(table, i, 10**9) == s.reward * s.service_rate


def test_select_prefers_higher_index_and_skips_empty():
    specs, table = make_table()
    assert table.select([0, 0]) is None
    assert table.select([5, 0]) == 0
    assert table.select([0, 5]) == 1
    chosen = table.select([3, 3])
    by_hand = max((0, 1), key=lambda i: lookup(table, i, 3))
    assert chosen == by_hand


def test_select_breaks_ties_toward_low_id():
    specs = [StreamSpec(0, 1 / 350, 600.0, 1000.0, 1.0),
             StreamSpec(1, 1 / 350, 600.0, 1000.0, 1.0)]
    table = build_table(specs, AllocationVector((0.5, 0.5)), 32)
    assert table.select([4, 4]) == 0


def _select_by_lookup(table, lengths):
    """Reference for the inlined `select`: one `lookup` per nonempty stream."""
    best, best_z = None, -1.0
    for i, l in enumerate(lengths):
        if l > 0 and lookup(table, i, l) > best_z:
            best, best_z = i, lookup(table, i, l)
    return best


_TIE_TABLE = build_table([StreamSpec(0, 1 / 350, 600.0, 1000.0, 1.0),
                          StreamSpec(1, 1 / 350, 600.0, 1000.0, 1.0),
                          StreamSpec(2, 1 / 350, 900.0, 500.0, 1.3)],
                         AllocationVector((0.3, 0.3, 0.4)), 8)


@given(lengths=st.lists(st.integers(-1, 12), min_size=3, max_size=3))
@settings(max_examples=300, deadline=None)
def test_select_matches_lookup_reference(lengths):
    # l_max is 8, so lengths 9..12 take the limit value; streams 0 and 1 tie
    assert _TIE_TABLE.select(lengths) == _select_by_lookup(_TIE_TABLE, lengths)


def test_bad_arguments_rejected():
    specs, table = make_table()
    with pytest.raises(ConfigError):
        priority(S, 0.5, 0)
    with pytest.raises(ConfigError):
        priority(S, 1.5, 1)
    with pytest.raises(ConfigError):
        lookup(table, 0, 0)
    with pytest.raises(ConfigError):
        table.select([1, 2, 3])
    with pytest.raises(ConfigError):
        build_table(specs, AllocationVector((1.0,)), 8)


_F_STAR_WORKLOADS = (
    [pytest.param(presets.table1_workload(eid), id=f"E{eid}")
     for eid in sorted(presets.TABLE1_ROWS)]
    + [pytest.param(presets.robust_workload(slack, intensity),
                    id=f"robust-s{slack}-i{intensity}")
       for slack in (2, 4) for intensity in (1.5, 3)])


@pytest.mark.parametrize("workload", _F_STAR_WORKLOADS)
def test_table_rows_equal_the_direct_index(workload):
    # the table hoists each stream's constants out of its row; every entry
    # must still be the float that `priority` computes
    specs = list(workload.streams)
    f = allocation.optimize(specs).f_star
    table = build_table(specs, f)
    for s, f_i, row in zip(specs, f.fractions, table.z):
        assert list(row) == [priority(s, f_i, l) for l in range(1, table.l_max + 1)]


def test_decreasing_row_is_a_numerical_fault(monkeypatch):
    # queue lengths 1..4 with a drop between l=3 and l=4, beyond the slack
    monkeypatch.setattr(zindex, "_priority_row",
                        lambda s, f_i, first, last: np.array([0.1, 0.2, 0.3, 0.2]))
    specs = [StreamSpec(0, 1 / 350, 600.0, 1000.0, 1.0)]
    with pytest.raises(NumericalError, match=r"stream 0 decreased at l=4: 0.3 -> 0.2"):
        build_table(specs, AllocationVector((1.0,)), 4)


def test_build_table_calls_pi0_once_per_row(monkeypatch):
    # each row's base goes through the scalar pi0; its shifted values come
    # from one pi0_many pass
    calls = []

    def counting_pi0(p):
        calls.append(p)
        return pi0(p)

    monkeypatch.setattr(zindex, "pi0", counting_pi0)
    specs, table = make_table(l_max=64)
    assert calls == [queueing.QueueParams(s.arrival_rate, s.service_rate * f_i, s.deadline_rate)
                     for s, f_i in zip(specs, table.allocation.fractions)]


def _pi0_misses():
    return queueing._pi0_cached.cache_info().misses


def _preset_points():
    points = {f"E{eid}": presets.table1_workload(eid) for eid in sorted(presets.TABLE1_ROWS)}
    for intensity in presets.DEFAULT_INTENSITIES:
        for slack in (2, 4):
            points[f"robust-s{slack}-i{intensity:g}"] = presets.robust_workload(slack, intensity)
        for model in ("random", "linear"):
            points[f"redf-{model}-i{intensity:g}"] = presets.redf_workload(model, intensity)
    return points


@pytest.mark.parametrize("point", _preset_points().items(), ids=lambda item: item[0])
def test_pi0_memo_holds_a_preset_point_without_eviction(point):
    # what a campaign point asks of the memo: one allocation search's
    # revisits and its table rows' bases
    workload = point[1]

    def analyse():
        f_star = allocation.optimize(list(workload.streams)).f_star
        build_table(workload.streams, f_star)

    queueing._pi0_cached.cache_clear()
    analyse()
    cold = queueing._pi0_cached.cache_info()
    assert cold.misses <= queueing.PI0_CACHE_SIZE
    assert cold.currsize == cold.misses  # nothing evicted
    analyse()
    assert _pi0_misses() == cold.misses


def test_build_table_adds_at_most_one_memo_entry_per_row():
    # table rows used to fill the memo with one entry per table entry
    tables = []
    for slack in (2, 4):
        for intensity in (1.5, 3):
            specs = list(presets.robust_workload(slack, intensity).streams)
            tables.append((specs, allocation.optimize(specs).f_star))
    queueing._pi0_cached.cache_clear()
    for specs, f in tables:
        build_table(specs, f)
    rows = sum(len(specs) for specs, _ in tables)
    assert _pi0_misses() <= rows
    assert queueing._pi0_cached.cache_info().currsize <= rows


def test_identical_streams_give_equal_rows():
    # E1's two streams are identical and get equal shares
    specs = list(presets.table1_workload(1).streams)
    queueing._pi0_cached.cache_clear()
    table = build_table(specs, AllocationVector((0.5, 0.5)))
    assert table.z[0] == table.z[1]
    assert _pi0_misses() == 1  # the second row reads the first row's base


def test_cold_memo_builds_the_same_table():
    specs = list(presets.robust_workload(4, 3).streams)
    f = allocation.optimize(specs).f_star
    warm = build_table(specs, f)
    queueing._pi0_cached.cache_clear()
    cold = build_table(specs, f)
    assert _pi0_misses() == len(specs)  # one base per row
    assert cold == warm
