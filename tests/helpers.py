"""Test-only helpers that the package itself does not need.

Import them as ``from helpers import ...``; pytest puts this directory on
``sys.path`` because ``tests/`` is not a package.
"""

import csv
import io
import math
import random

import numpy as np

from revsched import streams
from revsched.errors import ConfigError
from revsched.sim import SimMetrics, TracePolicy
from revsched.streams import Job


def fresh_copy(job: Job) -> Job:
    """Copy of ``job`` with its full execution requirement restored (for reruns)."""
    return Job(job.stream, job.arrival, job.exec_total,
               job.exec_total, job.deadline_abs, job.reward)


def parse_report(text: str) -> list[dict]:
    """Inverse of ``presets.write_report`` for the numeric columns (round-trip exact)."""
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for raw in reader:
        row = dict(raw)
        for col in ("mean_revenue_rate", "stddev", "ci95_lo", "ci95_hi",
                    "epu", "value"):
            if row[col] not in ("", "None"):
                row[col] = float(row[col])
        rows.append(row)
    return rows


def lookup(table, stream: int, l: int) -> float:
    """Index of ``stream`` at queue length ``l`` in a ``zindex.PriorityTable``.

    The reference that the inlined ``PriorityTable.select`` is tested against.
    """
    if l < 1:
        raise ConfigError(f"queue length must be >= 1, got {l}")
    row = table.z[stream]
    return row[l - 1] if l <= len(row) else table.limit_value[stream]


class BoundedRandom(random.Random):
    """A ``random.Random`` that raises after ``LIMIT`` draws, so that a CTMC
    run that would never reach its horizon fails a test instead of hanging
    it. Install it with ``monkeypatch.setattr(sim.random, "Random", ...)``."""

    LIMIT = 100_000
    draws = 0

    def random(self):
        self.draws += 1
        if self.draws > self.LIMIT:
            raise RuntimeError(f"no end after {self.LIMIT} random draws")
        return super().random()


def run_ctmc_reference(specs, policy, horizon: float, seed: int) -> SimMetrics:
    """``sim.run_ctmc`` without its per-state cache: every event asks the
    policy for its rates and rebuilds the walk, drawing the same random
    numbers in the same order. The reference the cached engine is tested
    against."""
    n = len(specs)
    arr_rates = [s.arrival_rate for s in specs]
    dl_rates = [s.deadline_rate for s in specs]
    mean_execs = [s.mean_exec for s in specs]
    rewards = [s.reward for s in specs]
    arr_total = sum(arr_rates)
    policy.bind(specs)
    rng = random.Random(seed)
    lengths = [0] * n
    arrivals = [0] * n
    completions = [0] * n
    expirations = [0] * n
    revenue = [0.0] * n
    busy_time = 0.0
    t = 0.0
    while True:
        srates = policy.service_rates(lengths)
        exp_rates = [lengths[i] * dl_rates[i] for i in range(n)]
        total = arr_total + sum(exp_rates) + sum(srates)
        busy_frac = min(1.0, sum(srates[i] * mean_execs[i] for i in range(n)))
        dt = rng.expovariate(total) if total > 0 else math.inf
        if t + dt >= horizon:
            busy_time += busy_frac * (horizon - t)
            break
        t += dt
        busy_time += busy_frac * dt
        u = rng.random() * total
        acc = 0.0
        for k, rate in enumerate(arr_rates + exp_rates + srates):
            acc += rate
            if u < acc:
                break
        else:  # float round-off at the top of the walk
            k = 3 * n - 1 if srates[n - 1] > 0 else n - 1
        kind, i = divmod(k, n)
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
    return SimMetrics(horizon, arrivals, completions, expirations, revenue,
                      busy_time, None, list(lengths))


def sample_trace_reference(spec) -> list[Job]:
    """``streams.sample_trace`` as a per-job loop with a key sort: the same
    draws, each job built one at a time. The reference the vectorized
    sampler is tested against. It draws through ``streams._exponential``, so
    a test that patches the draws patches both samplers."""
    exponential, substream = streams._exponential, streams._substream
    jobs: list[Job] = []
    for s in spec.streams:
        gap_rng = substream(spec.seed, s.id, streams._KIND_GAP)
        mean_gap = 1.0 / s.arrival_rate
        arrivals: list[float] = []
        t = 0.0
        chunk = max(16, int(spec.horizon * s.arrival_rate * 1.2) + 16)
        while True:
            gaps = exponential(gap_rng, mean_gap, chunk)
            times = t + np.cumsum(gaps)
            inside = times[times < spec.horizon]
            arrivals.extend(inside.tolist())
            if len(inside) < len(times):
                break
            t = times[-1]
            chunk = 1024
        n = len(arrivals)
        execs = exponential(substream(spec.seed, s.id, streams._KIND_EXEC), s.mean_exec, n)
        offsets = exponential(substream(spec.seed, s.id, streams._KIND_DEADLINE),
                              s.mean_deadline, n)
        for k in range(n):
            a = arrivals[k]
            jobs.append(Job(s.id, a, float(execs[k]), float(execs[k]),
                            a + float(offsets[k]), s.reward))
    jobs.sort(key=lambda j: (j.arrival, j.stream))
    return jobs


def _edf_key(job: Job):
    return (job.deadline_abs, job.arrival, job.stream)


class _ListPerStreamPolicy(TracePolicy):
    """One arrival-ordered list per stream, scanned by ``min`` on every
    ``choose``: the store that the per-stream heaps replaced."""

    def bind(self, specs):
        self.queues: list[list[Job]] = [[] for _ in specs]

    def on_arrival(self, job, now):
        self.queues[job.stream].append(job)

    def on_expiry(self, job, now):
        self.queues[job.stream].remove(job)

    def on_completion(self, job, now):
        self.queues[job.stream].remove(job)

    def has_runnable(self):
        return any(self.queues)


class ZTraceListPolicy(_ListPerStreamPolicy):
    """``policies.ZTracePolicy`` over per-stream lists (the reference)."""

    def __init__(self, table):
        self.table = table

    def choose(self, now):
        j = self.table.select([len(q) for q in self.queues])
        if j is None:
            return None
        return min(self.queues[j], key=_edf_key)


class FapRoundRobinListPolicy(_ListPerStreamPolicy):
    """``policies.FapRoundRobinPolicy`` over per-stream lists (the reference)."""

    def __init__(self, f, quantum: float):
        self.f = f
        self.quantum = quantum

    def bind(self, specs):
        super().bind(specs)
        self._slots: list[tuple[int, float]] = []
        self._slot_idx = 0
        self._slot_end = None

    def _start_cycle(self, now):
        active = [i for i, q in enumerate(self.queues) if q and self.f[i] > 0]
        if not active:
            active = [i for i, q in enumerate(self.queues) if q]
            weights = [1.0] * len(active)
        else:
            weights = [self.f[i] for i in active]
        total = sum(weights)
        self._slots = [(i, self.quantum * w / total) for i, w in zip(active, weights)]
        self._slot_idx = 0
        self._slot_end = None

    def choose(self, now):
        if not any(self.queues):
            self._slots = []
            self._slot_end = None
            return None
        while True:
            if self._slot_idx >= len(self._slots):
                self._start_cycle(now)
            i, budget = self._slots[self._slot_idx]
            if self.queues[i]:
                if self._slot_end is None:
                    self._slot_end = now + budget
                return min(self.queues[i], key=_edf_key)
            self._slot_idx += 1
            self._slot_end = None

    def next_timer(self, now):
        return self._slot_end

    def on_timer(self, now):
        if self._slot_end is not None and now >= self._slot_end:
            self._slot_idx += 1
            self._slot_end = None
