"""Simulation engines: exact memoryless-event (CTMC) and trace-driven.

The CTMC engine simulates only the joint queue-length chain by competing
exponential clocks; it supports queue-length policies (fixed-share and
index-based) and is the fast path for the analytic comparisons. A run
visits few distinct queue-length vectors, so it builds each visited state's
row once: total rate, busy fraction and cumulative event walk, plus one
successor link and one hit count per walk index. A link is filled the first
time its transition is taken, so an event is a clock draw, a bisection of
the walk, a hit and a step along the link. Arrivals, expiries, completions
and revenue are summed from the hits when the run ends. This relies on
``QueuePolicy.service_rates`` being a pure function of the queue lengths.
The trace engine replays a sampled job list job-by-job and supports every
policy, including ones that inspect individual deadlines and execution
times. It holds no deadline heap: a ``Trace`` sorts the whole job list by
deadline once (stably, so ties stay in arrival order), and the engine walks
that list with one pointer, stepping over jobs that completed before their
deadline came up. A ``Trace`` refuses a job list with a non-finite arrival,
deadline or execution time, or with a job already partly served. It is
built once and can be replayed under any number of policies: each run first
restores every job's remaining execution to its total.

Both engines expose the same metrics record and both let the deadline
clock of every queued job keep running while it is in service: a running
job whose deadline fires is aborted with zero revenue.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, repeat
from operator import add, attrgetter

import numpy as np

from .errors import ConfigError, InvariantError, NumericalError, require_int
from .streams import Job, require_budget

#: Simultaneous events are processed expiry < completion < arrival.
_COMPLETION_EPS = 1e-9
#: Most replications one ``run_replications`` call may run.
MAX_REPLICATIONS = 10**4


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
    def revenue_rate(self) -> float:
        return sum(self.revenue) / self.horizon if self.horizon > 0 else 0.0

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
    """Simulate the joint queue-length chain under a queue-length policy; a run
    expecting more than ``streams.MAX_TRACE_JOBS`` arrivals is a ConfigError."""
    if not (0 <= horizon < math.inf):  # an infinite horizon never ends
        raise ConfigError(f"horizon must be finite and >= 0, got {horizon}")
    n = len(specs)
    arr_rates = [s.arrival_rate for s in specs]
    dl_rates = [s.deadline_rate for s in specs]
    mean_execs = [s.mean_exec for s in specs]
    rewards = [s.reward for s in specs]
    arr_total = sum(arr_rates)
    require_budget(horizon * arr_total, "jobs")
    policy.bind(specs)
    rng = random.Random(seed)
    expovariate, uniform = rng.expovariate, rng.random
    events = [divmod(k, n) for k in range(3 * n)]
    # the walk's (kind, stream) per index, the fallback being a completion
    # at the last stream if it is served, else an arrival there
    served_events = events + [events[3 * n - 1]]
    unserved_events = events + [events[n - 1]]
    # a row per visited state: total rate, busy fraction, the cumulative walk
    # over arrivals, expiries, then completions; per walk index a successor
    # row (None until that transition is first taken) and a hit count; the
    # state; and the (kind, stream) of each walk index. Index 3n is the
    # fallback when float round-off leaves u at or above the walk's top.
    rows: dict[tuple[int, ...], tuple] = {}

    def visit(state):
        row = rows.get(state)
        if row is None:
            lengths = list(state)
            srates = policy.service_rates(lengths)
            exp_rates = [lengths[i] * dl_rates[i] for i in range(n)]
            row = rows[state] = (
                arr_total + sum(exp_rates) + sum(srates),
                min(1.0, sum(srates[i] * mean_execs[i] for i in range(n))),
                tuple(accumulate(arr_rates + exp_rates + srates)),
                [None] * (3 * n + 1), [0] * (3 * n + 1),
                state, served_events if srates[n - 1] > 0 else unserved_events)
        return row

    def successor(row, k):
        kind, i = row[6][k]
        lengths = list(row[5])
        lengths[i] += 1 if kind == 0 else -1
        return visit(tuple(lengths))

    row = visit((0,) * n)
    busy_time = 0.0
    t = 0.0
    while True:
        total, busy_frac, walk, succ, hits, _, _ = row
        dt = expovariate(total) if total > 0 else math.inf
        if t + dt >= horizon:
            busy_time += busy_frac * (horizon - t)
            break
        t += dt
        busy_time += busy_frac * dt
        # the first event whose partial sum exceeds u
        k = bisect_right(walk, uniform() * total)
        hits[k] += 1
        nxt = succ[k]
        if nxt is None:
            nxt = succ[k] = successor(row, k)
        row = nxt
    still_pending = list(row[5])
    arrivals = [0] * n
    expirations = [0] * n
    completions = [0] * n
    counts = (arrivals, expirations, completions)
    for *_, hits, _, row_events in rows.values():
        for (kind, i), hit in zip(row_events, hits):
            counts[kind][i] += hit
    # the same left fold of rewards as adding one per completion
    revenue = [reduce(add, repeat(rewards[i], completions[i]), 0.0) for i in range(n)]
    metrics = SimMetrics(horizon, arrivals, completions, expirations, revenue,
                         busy_time, None, still_pending)
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
    arrival order (the engine presorts the trace by deadline and holds no
    heap), and only a job that ``choose`` returned can complete. Expiries
    due at ``now`` come before the completion at ``now``, which REDF's
    resurrection relies on. ``has_runnable`` is asked only when ``choose``
    returns None. A policy never writes to a job: the next policy replays
    the same ``Trace``.
    """

    def bind(self, specs) -> None:
        self.pending: list[Job] = []

    def on_arrival(self, job: Job, now: float) -> None:
        self.pending.append(job)

    def on_completion(self, job: Job, now: float) -> None:
        try:
            self.pending.remove(job)
        except ValueError:
            raise InvariantError(f"job not held by the policy: {job}") from None

    on_expiry = on_completion

    def has_runnable(self) -> bool:
        return bool(self.pending)

    def choose(self, now: float) -> Job | None:
        raise NotImplementedError

    def next_timer(self, now: float) -> float | None:
        return None

    def on_timer(self, now: float) -> None:  # pragma: no cover - default no-op
        pass


class Trace:
    """An arrival-ordered list of unserved jobs, checked and presorted once.

    Holds the arrival times and the jobs in expiry order (a stable sort by
    deadline, so ties keep arrival order) with their deadlines. A job must
    arrive unserved (``exec_remaining == exec_total``): the engine credits
    a completion its whole ``exec_total`` as useful work. ``run_trace``
    restores every job's ``exec_remaining`` to its total before it runs, so
    a replay under another policy is a run on a fresh copy of the jobs.
    """

    __slots__ = ("jobs", "arrival_times", "exp_jobs", "exp_times")

    def __init__(self, jobs: list[Job]):
        inf = math.inf
        last = -inf
        for job in jobs:
            # chained so that a NaN or infinite field fails the test
            if not (-inf < job.arrival < job.deadline_abs < inf
                    and 0 < job.exec_remaining == job.exec_total < inf):
                raise ConfigError(f"malformed job in trace: {job}")
            if job.arrival < last:
                raise ConfigError("trace is not sorted by arrival time")
            last = job.arrival
        self.jobs = jobs
        self.arrival_times = [job.arrival for job in jobs]
        self.arrival_times.append(inf)  # sentinel: no arrival after the last job
        self.exp_jobs = sorted(jobs, key=attrgetter("deadline_abs"))
        self.exp_times = [job.deadline_abs for job in self.exp_jobs]
        self.exp_times.append(inf)  # sentinel: no expiry after the last deadline


def run_trace(specs, trace: Trace | list[Job], policy: TracePolicy,
              horizon: float) -> SimMetrics:
    """Replay a job trace under a trace policy up to the horizon.

    A plain job list is wrapped in a ``Trace`` (and so checked) first; to
    run one list more than once, replay its ``Trace``.
    """
    if not (0 <= horizon < math.inf):  # the arrival sentinel needs a finite horizon
        raise ConfigError(f"horizon must be finite and >= 0, got {horizon}")
    if not isinstance(trace, Trace):
        trace = Trace(trace)
    jobs, arrival_times = trace.jobs, trace.arrival_times
    exp_jobs, exp_times = trace.exp_jobs, trace.exp_times
    # the only job field a run reads before writing it; ``_live`` is set on
    # arrival and read only for jobs that have arrived in this run
    for job in jobs:
        job.exec_remaining = job.exec_total
    n = len(specs)
    policy.bind(specs)
    choose, next_timer, has_runnable = policy.choose, policy.next_timer, policy.has_runnable
    on_arrival, on_expiry, on_completion = (policy.on_arrival, policy.on_expiry,
                                            policy.on_completion)
    arrivals = [0] * n
    completions = [0] * n
    expirations = [0] * n
    revenue = [0.0] * n
    busy_time = 0.0
    useful_time = 0.0
    idx = 0  # jobs[:idx] have arrived
    e = 0  # exp_jobs[:e] have expired or completed
    now = 0.0
    while True:
        running = choose(now)
        t_next = arrival_times[idx]
        if running is None:
            if has_runnable():
                raise InvariantError("policy idled with runnable jobs pending")
        elif now + running.exec_remaining < t_next:
            t_next = now + running.exec_remaining
        # a deadline before t_next follows its job's arrival, so that job has
        # arrived, and if it is not live it has completed
        while exp_times[e] < t_next and not exp_jobs[e]._live:
            e += 1
        if exp_times[e] < t_next:
            t_next = exp_times[e]
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
        while exp_times[e] <= now:
            job = exp_jobs[e]
            e += 1
            if not job._live:
                continue
            job._live = False
            expirations[job.stream] += 1
            on_expiry(job, now)
            if job is running:
                running = None
        if running is not None and running.exec_remaining <= _COMPLETION_EPS:
            running.exec_remaining = 0.0
            running._live = False
            completions[running.stream] += 1
            revenue[running.stream] += running.reward
            useful_time += running.exec_total
            on_completion(running, now)
        while arrival_times[idx] <= now:
            job = jobs[idx]
            idx += 1
            job._live = True
            arrivals[job.stream] += 1
            on_arrival(job, now)
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


def summarize(runs: list[SimMetrics]) -> ReplicationSummary:
    if len(runs) < 2:
        raise ConfigError("need at least 2 replications for a confidence interval")
    rates = [m.revenue_rate for m in runs]
    n = len(rates)
    mean = sum(rates) / n
    if not math.isfinite(mean):  # a reward so large that the revenue overflows
        raise NumericalError(f"the mean of the revenue rates {rates} is not finite")
    try:
        var = sum((x - mean) ** 2 for x in rates) / (n - 1)
    except OverflowError as exc:  # float ** raises where * would give inf
        raise NumericalError(f"the variance of the revenue rates {rates} overflows") from exc
    std = math.sqrt(var)
    half = 1.96 * std / math.sqrt(n)
    epus = [m.epu for m in runs]
    mean_epu = None if any(e is None for e in epus) else sum(epus) / n
    return ReplicationSummary(n, mean, std, mean - half, mean + half, mean_epu)


def run_replications(run_one, n_reps: int, base_seed: int) -> list:
    """``run_one(seed)`` for ``n_reps`` deterministically derived seeds.

    Using the same ``base_seed`` for two different policies pairs their
    replications on common random numbers. At most ``MAX_REPLICATIONS``.
    """
    require_int("replications", n_reps, 2, MAX_REPLICATIONS + 1)
    return [run_one(derive_seed(base_seed, k)) for k in range(n_reps)]


def replicate(run_one, n_reps: int, base_seed: int) -> dict[str, ReplicationSummary]:
    """Each policy's summary, where ``run_one(seed)`` returns ``{name: SimMetrics}``."""
    runs = run_replications(run_one, n_reps, base_seed)
    return {name: summarize([run[name] for run in runs]) for name in runs[0]}
