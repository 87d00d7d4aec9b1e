"""Birth-death queue formulas for a deadline-drained stream.

The queue length of a stream granted a fixed processor fraction is a
birth-death chain: births at the arrival rate, deaths at
``aggregate_service + l * deadline_rate`` in state ``l`` (service plus one
deadline clock per queued job). This module evaluates its empty
probability, the full stationary distribution, and the long-run revenue
rate of a fractional allocation.

All series are summed incrementally (each term is the previous one times a
ratio), so no factorials or large powers are ever materialized.

``pi0`` memoizes its series in a least-recently-used cache of
``PI0_CACHE_SIZE`` entries. It serves the allocation search, which
revisits its own points within one ``optimize``, and each priority-table
row's base value. The rest of a table row does not go through the memo:
``pi0_many`` runs the same series for all of the row's service rates in
one numpy pass, with the same float operations per entry, so every value
equals what ``pi0`` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericalError, require_int
from .streams import StreamSpec

#: Relative tail tolerance at which the normalizing series is truncated.
SERIES_TOL = 1e-14
#: Hard cap on series terms; exceeding it signals a numerical fault.
MAX_TERMS = 10**6
#: Entries kept by the ``pi0`` memo. Its keys are one ``optimize``'s
#: revisits and the table rows' bases; the rows themselves are computed by
#: ``pi0_many`` and never enter it. At 2,048 entries the memo stays near
#: 0.5 MB instead of growing with every allocation search of a campaign.
PI0_CACHE_SIZE = 2048


@dataclass(frozen=True)
class QueueParams:
    """Rates of one birth-death queue: arrivals, service share, deadline."""

    arrival_rate: float
    aggregate_service: float
    deadline_rate: float

    def __post_init__(self):
        if self.arrival_rate < 0:
            raise ConfigError(f"arrival_rate must be >= 0, got {self.arrival_rate}")
        if self.aggregate_service < 0:
            raise ConfigError(f"aggregate_service must be >= 0, got {self.aggregate_service}")
        if not (self.deadline_rate > 0):
            raise ConfigError(f"deadline_rate must be > 0, got {self.deadline_rate}")


def pi0(p: QueueParams) -> float:
    """Probability that the queue is empty.

    Inverse of sum_{l>=0} r^l / prod_{m=1..l}(a + m d); the l=0 term is 1.
    Truncated once terms are decreasing and the current term is below
    ``SERIES_TOL`` times the partial sum.
    """
    return _pi0_cached(p.arrival_rate, p.aggregate_service, p.deadline_rate)


@lru_cache(maxsize=PI0_CACHE_SIZE)
def _pi0_cached(r: float, a: float, d: float) -> float:
    total = 1.0
    term = 1.0
    for l in range(1, MAX_TERMS + 1):
        ratio = r / (a + l * d)
        term *= ratio
        total += term
        if ratio < 1.0 and term < SERIES_TOL * total:
            return 1.0 / total
        if math.isinf(total):
            # the weight sum exceeds float range, so the empty
            # probability is below float resolution
            return 0.0
    raise NumericalError(
        f"pi0 series did not converge within {MAX_TERMS} terms (r={r}, a={a}, d={d})")


def pi0_many(r: float, a_values, d: float) -> np.ndarray:
    """``pi0`` for each service rate in ``a_values`` at arrival rate ``r`` and
    deadline rate ``d``, equal bit for bit to one scalar call per entry.

    Every entry takes ``_pi0_cached``'s operations in its order and stops at
    its own term: converged entries leave the active set, an entry whose sum
    overflows gives 0.0, and one still running after ``MAX_TERMS`` terms
    raises NumericalError.
    """
    a = np.array(a_values, dtype=float)
    out = np.empty_like(a)
    if not a.size:
        return out
    QueueParams(r, float(a.min()), d)  # the scalar path's checks
    active = np.arange(a.size)
    total = np.ones_like(a)
    term = np.ones_like(a)
    with np.errstate(over="ignore"):  # an overflowing sum is the 0.0 case
        for l in range(1, MAX_TERMS + 1):
            ratio = r / (a + l * d)
            term *= ratio
            total += term
            done = ((ratio < 1.0) & (term < SERIES_TOL * total)) | np.isinf(total)
            if done.any():
                out[active[done]] = 1.0 / total[done]  # 1.0 / inf is the 0.0
                keep = ~done
                if not keep.any():
                    return out
                active, a, term, total = active[keep], a[keep], term[keep], total[keep]
    raise NumericalError(
        f"pi0 series did not converge within {MAX_TERMS} terms "
        f"(r={r}, a={a[0]}, d={d})")


def stationary(p: QueueParams, l: int) -> float:
    """Stationary probability of queue length ``l``."""
    require_int("queue length", l, 0)
    weight = 1.0
    for m in range(1, l + 1):
        weight *= p.arrival_rate / (p.aggregate_service + m * p.deadline_rate)
    return weight * pi0(p)


def stream_revenue(s: StreamSpec, f: float) -> float:
    """Long-run revenue rate of stream ``s`` under processor fraction ``f``."""
    if not (0.0 <= f <= 1.0):
        raise ConfigError(f"fraction must be in [0, 1], got {f}")
    if f == 0.0:
        return 0.0
    p = QueueParams(s.arrival_rate, s.service_rate * f, s.deadline_rate)
    return s.reward * s.service_rate * f * (1.0 - pi0(p))


def total_revenue(specs, fractions) -> float:
    """Revenue rate of a full fractional allocation (sum over streams)."""
    fs = getattr(fractions, "fractions", fractions)
    if len(fs) != len(specs):
        raise ConfigError(
            f"allocation has {len(fs)} entries for {len(specs)} streams")
    return sum(stream_revenue(s, f) for s, f in zip(specs, fs))
