"""Test-only helpers that the package itself does not need.

Import them as ``from helpers import ...``; pytest puts this directory on
``sys.path`` because ``tests/`` is not a package.
"""

import csv
import heapq
import io
import math
import random

import numpy as np

from revsched import streams
from revsched.dp import DEFAULT_TOL, IDLE, MAX_ITERS, SERVE_1, SERVE_2, SdpSolution
from revsched.errors import ConfigError, InvariantError, NumericalError, require_int
from revsched.queueing import QueueParams, pi0
from revsched.sim import _COMPLETION_EPS, SimMetrics, TracePolicy
from revsched.streams import Job, StreamSpec


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


def compensated_sum(iterable, /, start=0):
    """``sum`` as CPython 3.12 and later compute it: exact ints, then floats
    with Neumaier's compensation, folded in where the float run ends.

    Older interpreters add floats left to right, so patching this in for
    ``builtins.sum`` shows whether an output depends on the Python version.
    Only exact ``int`` and ``float`` items take the fast paths, as in C.
    """
    it = iter(iterable)
    result = start
    if type(result) is int:
        for item in it:
            if type(item) is int or type(item) is bool:
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, comp = result, 0.0
        for item in it:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    comp += (total - t) + item
                else:
                    comp += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and -2**63 <= item < 2**63:
                total += float(item)
                continue
            if comp and math.isfinite(comp):
                total += comp
            result = total + item
            break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for item in it:
        result = result + item
    return result


def lookup(table, stream: int, l: int) -> float:
    """Index of ``stream`` at queue length ``l`` in a ``zindex.PriorityTable``.

    The reference that the inlined ``PriorityTable.select`` is tested against.
    """
    if l < 1:
        raise ConfigError(f"queue length must be >= 1, got {l}")
    row = table.z[stream]
    return row[l - 1] if l <= len(row) else table.limit_value[stream]


def priority_via_value_difference(s: StreamSpec, f_i: float, l: int) -> float:
    """``zindex.priority`` assembled from the marginal value drop; the
    cross-check of that evaluation.

    The drop is the expected revenue lost per service by pulling one job
    out of queue ``l``.
    """
    require_int("queue length", l, 1)
    sf = s.service_rate * f_i
    d = s.deadline_rate
    pi0_base = pi0(QueueParams(s.arrival_rate, sf, d))
    pi0_shifted = pi0(QueueParams(s.arrival_rate, sf + l * d, d))
    drop = (s.reward * sf * pi0_base) / ((sf + l * d) * pi0_shifted)
    return s.service_rate * (s.reward - drop)


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
    against. It draws each clock with ``rng.expovariate``, so the ``==``
    tests against it also check the engine's inlined clock draw."""
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


def run_trace_reference(specs, trace: list[Job], policy, horizon: float) -> SimMetrics:
    """``sim.run_trace`` with a lazy-deletion deadline heap: each arriving job
    is pushed as ``(deadline, arrival seq, job)``, and dead entries are popped
    when they reach the top. The engine that presorted expiries replaced,
    kept as the reference it is tested against with ``==``. It assumes a
    valid trace and does no input checks."""
    n = len(specs)
    arrival_times = [job.arrival for job in trace]
    arrival_times.append(math.inf)
    policy.bind(specs)
    arrivals = [0] * n
    completions = [0] * n
    expirations = [0] * n
    revenue = [0.0] * n
    busy_time = 0.0
    useful_time = 0.0
    deadline_heap: list[tuple[float, int, Job]] = []
    seq = 0
    idx = 0
    now = 0.0
    while True:
        running = policy.choose(now)
        if running is None and policy.has_runnable():
            raise InvariantError("policy idled with runnable jobs pending")
        while deadline_heap and not deadline_heap[0][2]._live:
            heapq.heappop(deadline_heap)
        t_next = arrival_times[idx]
        if running is not None and now + running.exec_remaining < t_next:
            t_next = now + running.exec_remaining
        if deadline_heap and deadline_heap[0][0] < t_next:
            t_next = deadline_heap[0][0]
        timer = policy.next_timer(now)
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
        while deadline_heap and deadline_heap[0][0] <= now:
            job = heapq.heappop(deadline_heap)[2]
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
            heapq.heappush(deadline_heap, (job.deadline_abs, seq, job))
            seq += 1
            policy.on_arrival(job, now)
        if timer is not None and timer <= now:
            policy.on_timer(now)
    still = [arrivals[i] - completions[i] - expirations[i] for i in range(n)]
    return SimMetrics(horizon, arrivals, completions, expirations, revenue,
                      busy_time, useful_time, still)


def solve_reference(model, tol: float = DEFAULT_TOL) -> SdpSolution:
    """``dp.solve`` with the sweep written out array by array: eight shifted
    slice copies, each serve action in its own ``np.where``, a fresh array per
    operation. The same float operations in the same order, so the
    preallocated sweep of ``dp.solve`` is tested against it with ``==``."""
    s1, s2 = model.stream1, model.stream2
    L = model.cap
    lam = model.uniformization_rate
    l1 = np.arange(L + 1, dtype=float)[:, None]
    l2 = np.arange(L + 1, dtype=float)[None, :]
    r1, r2 = s1.arrival_rate, s2.arrival_rate
    mu1, mu2 = s1.service_rate, s2.service_rate
    exp1 = l1 * s1.deadline_rate
    exp2 = l2 * s2.deadline_rate
    reward1 = s1.reward * mu1
    reward2 = s2.reward * mu2
    can1 = np.broadcast_to(l1 > 0, (L + 1, L + 1))
    can2 = np.broadcast_to(l2 > 0, (L + 1, L + 1))
    base_out = r1 + r2 + exp1 + exp2
    V = np.zeros((L + 1, L + 1))
    up1 = np.empty_like(V)
    up2 = np.empty_like(V)
    dn1 = np.empty_like(V)
    dn2 = np.empty_like(V)
    for it in range(1, MAX_ITERS + 1):
        up1[:-1, :] = V[1:, :]
        up1[-1, :] = V[-1, :]
        up2[:, :-1] = V[:, 1:]
        up2[:, -1] = V[:, -1]
        dn1[1:, :] = V[:-1, :]
        dn1[0, :] = 0.0
        dn2[:, 1:] = V[:, :-1]
        dn2[:, 0] = 0.0
        common = r1 * up1 + r2 * up2 + exp1 * dn1 + exp2 * dn2
        q1 = np.where(can1, common + reward1 + mu1 * dn1 + (lam - base_out - mu1) * V,
                      -np.inf)
        q2 = np.where(can2, common + reward2 + mu2 * dn2 + (lam - base_out - mu2) * V,
                      -np.inf)
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
            policy = np.where(q1 >= q2, SERVE_1, SERVE_2).astype(np.int8)
            policy[0, 0] = IDLE
            return SdpSolution(gain, V, policy, it, L, model.tail_bound, gain_err)
    raise NumericalError(f"value iteration did not converge in {MAX_ITERS} iterations")


def sample_trace_reference(spec) -> list[Job]:
    """``streams.sample_trace`` as a per-job loop with a key sort: the same
    draws, each job built one at a time. The reference the vectorized
    sampler is tested against. It draws through ``streams._exponential`` and
    ``streams._substream``, so a test that patches the draws patches both
    samplers; ``test_streams`` checks the substreams against numpy's."""
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
