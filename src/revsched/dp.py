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

A sweep works on preallocated arrays. Each of the two alternating value
buffers is flat and holds a zero row, V and a copy of V's last row, so the
values after one job more or less in queue 1 are contiguous views of it;
the queue-2 shifts are copied. An empty queue's serve reward is -inf, so
its action drops out of the maximum with no masking pass.

A sized cap that leaves more tail mass than ``CAP_TAIL_TOL`` is a warning
on the ``revsched.dp`` logger; ``logging`` is imported only there, so a
campaign, which never logs, does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError, require_finite, require_int
from .queueing import MAX_TERMS, SERIES_TOL, QueueParams
from .sim import QueuePolicy
from .streams import StreamSpec

#: Ceiling of the sized cap.
DEFAULT_CAP = 150
#: Largest explicit cap; a sweep's arrays hold (cap + 1)**2 values each.
MAX_CAP = 1000
#: Largest share-0 tail mass at or beyond a sized cap.
CAP_TAIL_TOL = 1e-12
DEFAULT_TOL = 1e-8
#: Smallest ``solve`` tolerance. The sweeps' span stalls at float round-off,
#: so a far smaller one runs all ``MAX_ITERS`` sweeps before failing.
MIN_TOL = 1e-12
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
                import logging  # lazily: see the module docstring
                logging.getLogger(__name__).warning(
                    "queue cap %d leaves tail mass %.3g > %g",
                    self.cap, self.tail_bound, CAP_TAIL_TOL)
        else:
            require_int("cap", self.cap, 1, MAX_CAP + 1)

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
    require_int("cap", cap, 0)
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
    require_finite("tol", tol)
    if tol < MIN_TOL:
        raise ConfigError(f"tol must be >= {MIN_TOL:g}, got {tol}")
    s1, s2 = model.stream1, model.stream2
    L = model.cap
    n = L + 1
    lam = model.uniformization_rate
    l1 = np.arange(n, dtype=float)[:, None]
    l2 = np.arange(n, dtype=float)[None, :]
    r1, r2 = s1.arrival_rate, s2.arrival_rate
    mu1, mu2 = s1.service_rate, s2.service_rate
    exp1 = np.repeat(l1 * s1.deadline_rate, n, axis=1)  # per-state expiry rates
    exp2 = np.repeat(l2 * s2.deadline_rate, n, axis=0)
    base_out = r1 + r2 + exp1 + exp2  # blocked arrivals self-loop, kept in rates
    stay1 = lam - base_out - mu1  # self-loop rate while serving queue 1
    stay2 = lam - base_out - mu2
    idle_stay = lam - base_out[0, 0]
    # reward rate of each serve action, -inf where its queue is empty; the
    # finite terms added to it keep it there
    reward1 = np.full((n, n), s1.reward * mu1)
    reward1[0, :] = -np.inf
    reward2 = np.full((n, n), s2.reward * mu2)
    reward2[:, 0] = -np.inf

    # Two flat value buffers alternate as old and new V. Each holds a zero
    # row, V, then a copy of V's last row, so that V after one more job in
    # queue 1 (lost at the cap) and after one less (none from empty) are
    # contiguous views of it; the queue-2 shifts are copied.
    size = n * n
    layouts = []
    for buf in (np.zeros(size + 2 * n), np.zeros(size + 2 * n)):
        layouts.append((buf[n:n + size].reshape(n, n),  # V
                        buf[2 * n:].reshape(n, n),  # up1
                        buf[:size].reshape(n, n),  # dn1
                        buf[size:size + n], buf[size + n:]))  # last row, its copy
    up2 = np.empty((n, n))
    dn2 = np.zeros((n, n))  # column 0 stays 0: zero expiry rate there anyway
    common = np.empty((n, n))
    term = np.empty((n, n))
    q1 = np.empty((n, n))
    q2 = np.empty((n, n))
    best = np.empty((n, n))
    diff = np.empty((n, n))
    cur = 0  # index of the buffer holding V
    for it in range(1, MAX_ITERS + 1):
        V, up1, dn1, _, _ = layouts[cur]
        up2[:, :-1] = V[:, 1:]
        up2[:, -1] = V[:, -1]  # arrival lost at the cap
        dn2[:, 1:] = V[:, :-1]
        np.multiply(r1, up1, out=common)
        np.multiply(r2, up2, out=term)
        common += term
        np.multiply(exp1, dn1, out=term)
        common += term
        np.multiply(exp2, dn2, out=term)
        common += term
        np.add(common, reward1, out=q1)
        np.multiply(mu1, dn1, out=term)
        q1 += term
        np.multiply(stay1, V, out=term)
        q1 += term
        np.add(common, reward2, out=q2)
        np.multiply(mu2, dn2, out=term)
        q2 += term
        np.multiply(stay2, V, out=term)
        q2 += term
        # idle is legal only when both queues are empty (work conservation)
        np.maximum(q1, q2, out=best)
        best[0, 0] = common[0, 0] + idle_stay * V[0, 0]
        cur = 1 - cur
        V_new, _, _, last, last_copy = layouts[cur]
        np.divide(best, lam, out=V_new)
        np.subtract(V_new, V, out=diff)
        span = diff.max() - diff.min()
        V_new -= V_new[0, 0]
        last_copy[:] = last
        if span < tol:
            gain = float(lam * 0.5 * (diff.max() + diff.min()))
            gain_err = float(lam * span / 2)
            # an empty queue's q is -inf, so only (0, 0) needs fixing up
            policy = np.where(q1 >= q2, SERVE_1, SERVE_2).astype(np.int8)
            policy[0, 0] = IDLE
            return SdpSolution(gain, V_new.copy(), policy, it, L, model.tail_bound, gain_err)
    raise NumericalError(f"value iteration did not converge in {MAX_ITERS} iterations")


def gap_percent(gain: float, revenue_rate: float) -> float:
    """Percentage revenue loss of a policy relative to the optimal gain."""
    require_finite("optimal gain", gain, above=0.0)
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
