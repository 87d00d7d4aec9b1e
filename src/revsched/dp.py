"""Average-reward optimal policy for two streams via value iteration.

The two-queue continuous-time decision process (arrivals, per-job deadline
expiries, and a serve-one-queue action) is uniformized at a dominating
rate and solved by relative value iteration with the span seminorm as the
stopping rule. Queue lengths are truncated at a cap; arrivals into a full
queue are lost.

Unless a cap is given, the model sizes it from the analytic tail: the
smallest cap at which each stream's share-0 queue (drained only by
deadlines, so Poisson(r/d) long) holds at most ``CAP_TAIL_TOL`` of its
mass at or beyond the cap. Every policy's queue is stochastically smaller
than that one, so the bound covers the optimal policy too. The sized cap
never exceeds ``DEFAULT_CAP``; the solution reports the bound it reached
(``tail_bound``), which exceeds the tolerance only when that ceiling was
too small. The uniformization rate grows with the cap, and with it the
number of sweeps, so a tight cap is also a fast one. With the tail this
small, the gain's leftover error comes from the span stopping rule
(``tol``), not from the truncation. The last sweep brackets the gain
between ``lam * diff.min()`` and ``lam * diff.max()`` (``lam`` the
uniformization rate, ``diff`` the sweep's change in value); the solution
returns the midpoint as ``gain`` and the half-width as ``gain_err``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError
from .queueing import MAX_TERMS, SERIES_TOL, QueueParams
from .sim import QueuePolicy
from .streams import StreamSpec

logger = logging.getLogger(__name__)

#: Ceiling of the sized cap.
DEFAULT_CAP = 150
#: Largest share-0 tail mass at or beyond a sized cap.
CAP_TAIL_TOL = 1e-12
DEFAULT_TOL = 1e-8
#: Hard cap on sweeps; exceeding it signals a numerical fault.
MAX_ITERS = 10**6

IDLE, SERVE_1, SERVE_2 = 0, 1, 2


@dataclass(frozen=True)
class SdpModel:
    stream1: StreamSpec
    stream2: StreamSpec
    cap: int | None = None  # None: sized from the share-0 tail

    def __post_init__(self):
        if self.cap is None:
            object.__setattr__(self, "cap", self._sized_cap())
            if self.tail_bound > CAP_TAIL_TOL:
                logger.warning("queue cap %d leaves tail mass %.3g > %g",
                               self.cap, self.tail_bound, CAP_TAIL_TOL)
        elif self.cap < 1:
            raise ConfigError(f"cap must be >= 1, got {self.cap}")

    def _sized_cap(self) -> int:
        for cap in range(1, DEFAULT_CAP):
            if all(tail_mass(s, 0.0, cap - 1) <= CAP_TAIL_TOL
                   for s in (self.stream1, self.stream2)):
                return cap
        return DEFAULT_CAP

    @property
    def tail_bound(self) -> float:
        """Largest share-0 stationary mass at or beyond the cap."""
        return max(tail_mass(s, 0.0, self.cap - 1) for s in (self.stream1, self.stream2))

    @property
    def uniformization_rate(self) -> float:
        s1, s2 = self.stream1, self.stream2
        return (s1.arrival_rate + s2.arrival_rate
                + max(s1.service_rate, s2.service_rate)
                + self.cap * (s1.deadline_rate + s2.deadline_rate))


@dataclass
class SdpSolution:
    gain: float
    bias: np.ndarray = field(repr=False)
    policy: np.ndarray = field(repr=False)  # action per (l1, l2)
    iterations: int
    cap: int
    tail_bound: float  # SdpModel.tail_bound of the solved model
    gain_err: float  # stopping error: the capped model's gain is within gain ± gain_err


def tail_mass(stream: StreamSpec, share: float, cap: int) -> float:
    """Stationary probability mass beyond the cap under a fixed share.

    This is pi0 times the sum of the stationary weights beyond the cap,
    with pi0's normalizer summed in the same pass. Every weight is taken
    relative to the weight of state ``cap`` (the head summed down to 0, the
    tail up until its terms are negligible), so there is no ``1 - head``
    cancellation, and a queue whose pi0 underflows still gets a tail near 1.
    """
    if cap < 0:
        raise ConfigError(f"cap must be >= 0, got {cap}")
    p = QueueParams(stream.arrival_rate, stream.service_rate * share, stream.deadline_rate)
    r, a, d = p.arrival_rate, p.aggregate_service, p.deadline_rate
    head = term = 1.0
    for l in range(cap, 0, -1):
        term *= (a + l * d) / r
        head += term
    tail = 0.0
    term = 1.0
    for l in range(cap + 1, cap + MAX_TERMS):
        ratio = r / (a + l * d)
        term *= ratio
        tail += term
        if math.isinf(tail):
            return 1.0
        if ratio < 1.0 and term <= SERIES_TOL * tail:
            return tail / (head + tail)
    raise NumericalError(f"tail series did not converge within {MAX_TERMS} terms "
                         f"(r={r}, a={a}, d={d})")


def solve(model: SdpModel, tol: float = DEFAULT_TOL) -> SdpSolution:
    """Relative value iteration on the uniformized chain."""
    if not (tol > 0):
        raise ConfigError(f"tol must be > 0, got {tol}")
    s1, s2 = model.stream1, model.stream2
    L = model.cap
    lam = model.uniformization_rate
    l1 = np.arange(L + 1, dtype=float)[:, None]
    l2 = np.arange(L + 1, dtype=float)[None, :]
    r1, r2 = s1.arrival_rate, s2.arrival_rate
    mu1, mu2 = s1.service_rate, s2.service_rate
    exp1 = l1 * s1.deadline_rate  # per-state expiry rates
    exp2 = l2 * s2.deadline_rate
    reward1 = s1.reward * mu1
    reward2 = s2.reward * mu2
    can1 = np.broadcast_to(l1 > 0, (L + 1, L + 1))
    can2 = np.broadcast_to(l2 > 0, (L + 1, L + 1))
    base_out = r1 + r2 + exp1 + exp2  # blocked arrivals self-loop, kept in rates

    V = np.zeros((L + 1, L + 1))
    up1 = np.empty_like(V)
    up2 = np.empty_like(V)
    dn1 = np.empty_like(V)
    dn2 = np.empty_like(V)
    for it in range(1, MAX_ITERS + 1):
        up1[:-1, :] = V[1:, :]
        up1[-1, :] = V[-1, :]  # arrival lost at the cap
        up2[:, :-1] = V[:, 1:]
        up2[:, -1] = V[:, -1]
        dn1[1:, :] = V[:-1, :]
        dn1[0, :] = 0.0  # zero expiry rate there anyway
        dn2[:, 1:] = V[:, :-1]
        dn2[:, 0] = 0.0
        common = r1 * up1 + r2 * up2 + exp1 * dn1 + exp2 * dn2
        q1 = np.where(can1, common + reward1 + mu1 * dn1 + (lam - base_out - mu1) * V,
                      -np.inf)
        q2 = np.where(can2, common + reward2 + mu2 * dn2 + (lam - base_out - mu2) * V,
                      -np.inf)
        # idle is legal only when both queues are empty (work conservation)
        best = np.maximum(q1, q2)
        best[0, 0] = common[0, 0] + (lam - base_out[0, 0]) * V[0, 0]
        V_new = best / lam
        diff = V_new - V
        span = diff.max() - diff.min()
        V_new -= V_new[0, 0]
        V = V_new
        if span < tol:
            gain = float(lam * 0.5 * (diff.max() + diff.min()))
            gain_err = float(lam * span / 2)
            # an empty queue's q is -inf, so only (0, 0) needs fixing up
            policy = np.where(q1 >= q2, SERVE_1, SERVE_2).astype(np.int8)
            policy[0, 0] = IDLE
            return SdpSolution(gain, V, policy, it, L, model.tail_bound, gain_err)
    raise NumericalError(f"value iteration did not converge in {MAX_ITERS} iterations")


def gap_percent(gain: float, revenue_rate: float) -> float:
    """Percentage revenue loss of a policy relative to the optimal gain."""
    if gain <= 0:
        raise ConfigError(f"optimal gain must be > 0, got {gain}")
    return 100.0 * (gain - revenue_rate) / gain


class SdpQueuePolicy(QueuePolicy):
    """CTMC-engine adapter replaying a solved two-queue action table."""

    def __init__(self, solution: SdpSolution):
        self.solution = solution

    def bind(self, specs):
        if len(specs) != 2:
            raise ConfigError("the solved policy covers exactly two streams")
        self._full = [s.service_rate for s in specs]
        self._cap = self.solution.policy.shape[0] - 1

    def service_rates(self, lengths):
        # clamping keeps a nonempty queue's index >= 1, and a solved table
        # idles only at (0, 0) and serves only nonempty queues
        action = self.solution.policy[min(lengths[0], self._cap),
                                      min(lengths[1], self._cap)]
        rates = [0.0, 0.0]
        if action != IDLE:
            j = action - SERVE_1
            rates[j] = self._full[j]
        return rates
