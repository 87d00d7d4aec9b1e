"""Simulation engines: exact memoryless-event (CTMC) and trace-driven.

The CTMC engine simulates only the joint queue-length chain by competing
exponential clocks; it supports queue-length policies (fixed-share and
index-based) and is the fast path for the analytic comparisons. A run
visits few distinct queue-length vectors, so it builds each visited state's
total rate, busy fraction and cumulative event walk once and looks them up
on every later visit; this relies on ``QueuePolicy.service_rates`` being a
pure function of the queue lengths. The trace engine replays a sampled job
list job-by-job and supports every policy, including ones that inspect
individual deadlines and execution times.

Both engines expose the same metrics record and both let the deadline
clock of every queued job keep running while it is in service: a running
job whose deadline fires is aborted with zero revenue.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import ConfigError, InvariantError
from .streams import Job

#: Simultaneous events are processed expiry < completion < arrival.
_COMPLETION_EPS = 1e-9


@dataclass
class SimMetrics:
    """Outcome counters of one simulation run."""

    horizon: float
    arrivals: list[int]
    completions: list[int]
    expirations: list[int]
    revenue: list[float]
    busy_time: float
    useful_time: float | None  # None for the queue-length engine
    still_pending: list[int]

    @property
    def revenue_total(self) -> float:
        return sum(self.revenue)

    @property
    def revenue_rate(self) -> float:
        return self.revenue_total / self.horizon if self.horizon > 0 else 0.0

    @property
    def epu(self) -> float | None:
        if self.useful_time is None or self.horizon <= 0:
            return None
        return self.useful_time / self.horizon

    def validate(self) -> None:
        for i in range(len(self.arrivals)):
            flow = self.completions[i] + self.expirations[i] + self.still_pending[i]
            if flow != self.arrivals[i]:
                raise InvariantError(
                    f"stream {i}: arrivals {self.arrivals[i]} != "
                    f"completions+expirations+pending {flow}")
        if not (-1e-9 <= self.busy_time <= self.horizon + 1e-6):
            raise InvariantError(f"busy_time {self.busy_time} outside [0, horizon]")
        if self.useful_time is not None and not (
                -1e-9 <= self.useful_time <= self.busy_time + 1e-6):
            raise InvariantError(
                f"useful_time {self.useful_time} exceeds busy_time {self.busy_time}")


class QueuePolicy:
    """Interface of CTMC-engine policies: per-queue service rates.

    ``service_rates`` must be a pure function of the queue lengths: equal
    lengths give equal rates, and the argument is left unchanged.
    """

    def bind(self, specs):  # pragma: no cover - trivial default
        pass

    def service_rates(self, lengths) -> list[float]:
        raise NotImplementedError


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic child seed for replication ``index``."""
    state = np.random.SeedSequence(base_seed, spawn_key=(index,)).generate_state(1, np.uint64)
    return int(state[0])


def run_ctmc(specs, policy: QueuePolicy, horizon: float, seed: int) -> SimMetrics:
    """Simulate the joint queue-length chain under a queue-length policy."""
    if not (0 <= horizon < math.inf):  # an infinite horizon never ends
        raise ConfigError(f"horizon must be finite and >= 0, got {horizon}")
    n = len(specs)
    arr_rates = [s.arrival_rate for s in specs]
    dl_rates = [s.deadline_rate for s in specs]
    mean_execs = [s.mean_exec for s in specs]
    rewards = [s.reward for s in specs]
    arr_total = sum(arr_rates)
    policy.bind(specs)
    rng = random.Random(seed)
    expovariate, uniform = rng.expovariate, rng.random
    events = [divmod(k, n) for k in range(3 * n)]
    lengths = [0] * n
    arrivals = [0] * n
    completions = [0] * n
    expirations = [0] * n
    revenue = [0.0] * n
    busy_time = 0.0
    t = 0.0
    # per visited state: total rate, busy fraction, the cumulative walk over
    # arrivals, expiries, then completions, and the (kind, stream) of each
    # walk index; index 3n is the fallback when float round-off leaves u at
    # or above the walk's top
    rows: dict[tuple[int, ...],
               tuple[float, float, list[float], list[tuple[int, int]]]] = {}
    while True:
        state = tuple(lengths)
        row = rows.get(state)
        if row is None:
            srates = policy.service_rates(lengths)
            exp_rates = [lengths[i] * dl_rates[i] for i in range(n)]
            row = rows[state] = (
                arr_total + sum(exp_rates) + sum(srates),
                min(1.0, sum(srates[i] * mean_execs[i] for i in range(n))),
                list(accumulate(arr_rates + exp_rates + srates)),
                events + [events[3 * n - 1 if srates[n - 1] > 0 else n - 1]])
        total, busy_frac, walk, row_events = row
        dt = expovariate(total) if total > 0 else math.inf
        if t + dt >= horizon:
            busy_time += busy_frac * (horizon - t)
            break
        t += dt
        busy_time += busy_frac * dt
        # the first event whose partial sum exceeds u
        kind, i = row_events[bisect_right(walk, uniform() * total)]
        if kind == 0:
            arrivals[i] += 1
            lengths[i] += 1
        elif kind == 1:
            expirations[i] += 1
            lengths[i] -= 1
        else:
            completions[i] += 1
            lengths[i] -= 1
            revenue[i] += rewards[i]
    metrics = SimMetrics(horizon, arrivals, completions, expirations, revenue,
                         busy_time, None, list(lengths))
    metrics.validate()
    return metrics


class TracePolicy:
    """Interface of trace-engine policies.

    The engine owns job lifecycles (arrival, expiry, completion) and calls
    back into the policy, which owns eligibility and selection. ``choose``
    may return None only when the policy holds no runnable job.

    Callback contract, which the per-stream heaps of ``policies`` rely on:
    every job is passed to ``on_arrival`` once, in trace order, and then to
    exactly one of ``on_expiry`` or ``on_completion`` once, unless it is
    still held at the horizon. Expiries arrive in deadline order, ties in
    arrival order, and only a job that ``choose`` returned can complete.
    """

    def bind(self, specs) -> None:
        self.pending: list[Job] = []

    def on_arrival(self, job: Job, now: float) -> None:
        self.pending.append(job)

    def on_expiry(self, job: Job, now: float) -> None:
        self.pending.remove(job)

    def on_completion(self, job: Job, now: float) -> None:
        self.pending.remove(job)

    def has_runnable(self) -> bool:
        return bool(self.pending)

    def choose(self, now: float) -> Job | None:
        raise NotImplementedError

    def next_timer(self, now: float) -> float | None:
        return None

    def on_timer(self, now: float) -> None:  # pragma: no cover - default no-op
        pass


def run_trace(specs, trace: list[Job], policy: TracePolicy, horizon: float) -> SimMetrics:
    """Replay a job trace under a trace policy up to the horizon."""
    if not (0 <= horizon < math.inf):  # the arrival sentinel needs a finite horizon
        raise ConfigError(f"horizon must be finite and >= 0, got {horizon}")
    n = len(specs)
    last = -math.inf
    for job in trace:
        if job.arrival < last:
            raise ConfigError("trace is not sorted by arrival time")
        if job.exec_total <= 0 or job.exec_remaining < 0 or job.deadline_abs <= job.arrival:
            raise ConfigError(f"malformed job in trace: {job}")
        last = job.arrival
    arrival_times = [job.arrival for job in trace]
    arrival_times.append(math.inf)  # sentinel: no arrival after the last job
    policy.bind(specs)
    choose, next_timer = policy.choose, policy.next_timer
    heappush, heappop = heapq.heappush, heapq.heappop
    arrivals = [0] * n
    completions = [0] * n
    expirations = [0] * n
    revenue = [0.0] * n
    busy_time = 0.0
    useful_time = 0.0
    deadline_heap: list[tuple[float, int, Job]] = []  # lazy deletion via _live flag
    seq = 0
    idx = 0
    now = 0.0
    while True:
        running = choose(now)
        if running is None and policy.has_runnable():
            raise InvariantError("policy idled with runnable jobs pending")
        while deadline_heap and not deadline_heap[0][2]._live:
            heappop(deadline_heap)
        t_next = arrival_times[idx]
        if running is not None and now + running.exec_remaining < t_next:
            t_next = now + running.exec_remaining
        if deadline_heap and deadline_heap[0][0] < t_next:
            t_next = deadline_heap[0][0]
        timer = next_timer(now)
        if timer is not None and timer < t_next:
            t_next = timer
        if t_next > horizon:
            if running is not None:
                busy_time += horizon - now
            break
        dt = t_next - now
        if running is not None:
            running.exec_remaining -= dt
            busy_time += dt
        now = t_next
        # expiries first: a job completing exactly at its deadline is lost
        while deadline_heap and deadline_heap[0][0] <= now:
            job = heappop(deadline_heap)[2]
            if not job._live:
                continue
            job._live = False
            expirations[job.stream] += 1
            policy.on_expiry(job, now)
            if job is running:
                running = None
        if running is not None and running.exec_remaining <= _COMPLETION_EPS:
            running.exec_remaining = 0.0
            running._live = False
            completions[running.stream] += 1
            revenue[running.stream] += running.reward
            useful_time += running.exec_total
            policy.on_completion(running, now)
        while arrival_times[idx] <= now:
            job = trace[idx]
            idx += 1
            job._live = True
            arrivals[job.stream] += 1
            heappush(deadline_heap, (job.deadline_abs, seq, job))
            seq += 1
            policy.on_arrival(job, now)
        if timer is not None and timer <= now:
            policy.on_timer(now)
    still = [arrivals[i] - completions[i] - expirations[i] for i in range(n)]
    metrics = SimMetrics(horizon, arrivals, completions, expirations, revenue,
                         busy_time, useful_time, still)
    metrics.validate()
    return metrics


@dataclass
class ReplicationSummary:
    """Mean / spread of the revenue rate (and EPU) over replications."""

    n_reps: int
    mean_revenue_rate: float
    std_revenue_rate: float
    ci95_lo: float
    ci95_hi: float
    mean_epu: float | None
    runs: list[SimMetrics] = field(repr=False, default_factory=list)


def summarize(runs: list[SimMetrics]) -> ReplicationSummary:
    if len(runs) < 2:
        raise ConfigError("need at least 2 replications for a confidence interval")
    rates = [m.revenue_rate for m in runs]
    n = len(rates)
    mean = sum(rates) / n
    var = sum((x - mean) ** 2 for x in rates) / (n - 1)
    std = math.sqrt(var)
    half = 1.96 * std / math.sqrt(n)
    epus = [m.epu for m in runs]
    mean_epu = None if any(e is None for e in epus) else sum(epus) / n
    return ReplicationSummary(n, mean, std, mean - half, mean + half, mean_epu, runs)


def replicate(run_one, n_reps: int, base_seed: int) -> ReplicationSummary:
    """Run ``run_one(seed)`` for ``n_reps`` deterministically derived seeds.

    Using the same ``base_seed`` for two different policies pairs their
    replications on common random numbers.
    """
    runs = [run_one(derive_seed(base_seed, k)) for k in range(n_reps)]
    return summarize(runs)
