"""Search for the revenue-maximizing fractional processor allocation.

For two streams the revenue curve is scanned on a coarse grid and the
bracketing interval refined by golden-section search, which pins the
global optimum of the 1-D restriction. For three or more streams a
derivative-free transfer search (move mass between coordinate pairs,
halve the step on failure) is run from several deterministic starting
points and the best local optimum kept. Gradient methods are avoided on
purpose: the truncated series behind the revenue function makes numeric
derivatives noisy.

A near-tie between distant optima is logged at INFO on the
``revsched.allocation`` logger; ``logging`` is imported only there, so a
campaign, which never logs, does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import queueing
from .errors import ConfigError
from .streams import StreamSpec

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SIMPLEX_EPS = 1e-12
#: Smallest ``optimize`` tolerance; golden section stalls at float spacing.
MIN_TOL = 1e-12


@dataclass(frozen=True)
class AllocationVector:
    """A point on the allocation simplex (one fraction per stream)."""

    fractions: tuple[float, ...]

    def __post_init__(self):
        if any(f < 0 for f in self.fractions):
            raise ConfigError(f"allocation fractions must be >= 0: {self.fractions}")
        if abs(sum(self.fractions) - 1.0) > _SIMPLEX_EPS:
            raise ConfigError(f"allocation must sum to 1: {self.fractions}")

    def __len__(self):
        return len(self.fractions)

    def __getitem__(self, i):
        return self.fractions[i]

    @classmethod
    def normalized(cls, values) -> "AllocationVector":
        vals = [max(0.0, v) for v in values]
        total = sum(vals)
        if total <= 0:
            raise ConfigError("allocation must have positive mass")
        fracs = [v / total for v in vals]
        # absorb residual rounding into the largest coordinate
        residual = 1.0 - sum(fracs)
        fracs[max(range(len(fracs)), key=fracs.__getitem__)] += residual
        return cls(tuple(fracs))


@dataclass(frozen=True)
class FapResult:
    f_star: AllocationVector
    v_star: float
    evaluations: int


class _Objective:
    """Counts revenue evaluations and remembers the best point seen."""

    def __init__(self, specs):
        self.specs = specs
        self.evaluations = 0
        self.best_value = -math.inf
        self.best_point: tuple[float, ...] | None = None

    def __call__(self, fractions) -> float:
        self.evaluations += 1
        value = queueing.total_revenue(self.specs, fractions)
        point = tuple(fractions)
        # ties broken toward the lexicographically smallest allocation
        if value > self.best_value or (
                value == self.best_value and self.best_point is not None
                and point < self.best_point):
            self.best_value = value
            self.best_point = point
        return value


def optimize(specs: list[StreamSpec], tol: float = 1e-3) -> FapResult:
    """Find the allocation maximizing the total revenue rate.

    ``tol`` bounds the uncertainty of each returned coordinate.
    """
    if not specs:
        raise ConfigError("need at least one stream")
    if not (MIN_TOL <= tol <= 0.1):
        raise ConfigError(f"tol must be in [{MIN_TOL:g}, 0.1], got {tol}")
    if len(specs) == 1:
        v = queueing.stream_revenue(specs[0], 1.0)
        return FapResult(AllocationVector((1.0,)), v, 1)
    obj = _Objective(specs)
    if len(specs) == 2:
        _optimize_two(obj, tol)
    else:
        _optimize_many(obj, len(specs), tol)
    f_star = AllocationVector.normalized(obj.best_point)
    return FapResult(f_star, queueing.total_revenue(specs, f_star), obj.evaluations)


def _optimize_two(obj: _Objective, tol: float) -> None:
    grid = [k / 100.0 for k in range(101)]
    values = [obj((f1, 1.0 - f1)) for f1 in grid]
    k = max(range(101), key=lambda i: (values[i], -i))
    lo = grid[max(0, k - 1)]
    hi = grid[min(100, k + 1)]
    # golden-section on the bracketing interval
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    v1 = obj((x1, 1.0 - x1))
    v2 = obj((x2, 1.0 - x2))
    while hi - lo > tol:
        if v1 >= v2:
            hi, x2, v2 = x2, x1, v1
            x1 = hi - _GOLDEN * (hi - lo)
            v1 = obj((x1, 1.0 - x1))
        else:
            lo, x1, v1 = x1, x2, v2
            x2 = lo + _GOLDEN * (hi - lo)
            v2 = obj((x2, 1.0 - x2))


def _starts(n: int) -> list[tuple[float, ...]]:
    points = [tuple(1.0 if j == i else 0.0 for j in range(n)) for i in range(n)]
    points.append(tuple(1.0 / n for _ in range(n)))
    return points


def _optimize_many(obj: _Objective, n: int, tol: float) -> None:
    rate_sum = sum(s.arrival_rate for s in obj.specs)
    load_sum = sum(s.arrival_rate * s.mean_exec for s in obj.specs)
    starts = _starts(n)
    starts.append(tuple(s.arrival_rate / rate_sum for s in obj.specs))
    starts.append(tuple(s.arrival_rate * s.mean_exec / load_sum for s in obj.specs))
    local_optima = []
    for start in dict.fromkeys(starts[:10]):
        point, value = _transfer_search(obj, list(start), tol)
        local_optima.append((value, point))
    local_optima.sort(key=lambda pv: (-pv[0], pv[1]))
    best_v = local_optima[0][0]
    distinct = {pv[1] for pv in local_optima
                if best_v - pv[0] < 1e-6 * max(1.0, abs(best_v))}
    if len(distinct) > 1 and any(
            max(abs(a - b) for a, b in zip(p, local_optima[0][1])) > 10 * tol
            for p in distinct):
        import logging  # lazily: see the module docstring
        logging.getLogger(__name__).info("multiple near-optimal allocations observed: %s",
                                         sorted(distinct))


def _transfer_search(obj: _Objective, point: list[float], tol: float):
    """Compass search over pairwise mass transfers on the simplex."""
    n = len(point)
    value = obj(point)
    step = 0.25
    while step >= tol / 2:
        best_move = None
        best_value = value
        for k in range(n):
            if point[k] <= 0:
                continue
            delta = min(step, point[k])
            for j in range(n):
                if j == k:
                    continue
                trial = list(point)
                trial[k] -= delta
                trial[j] += delta
                v = obj(trial)
                if v > best_value:
                    best_value = v
                    best_move = trial
        if best_move is None:
            step /= 2.0
        else:
            point = best_move
            value = best_value
    return tuple(point), value
