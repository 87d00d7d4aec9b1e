"""Scheduling policies for both engines.

Queue-length policies (CTMC engine): fixed fractional sharing and the
priority-index rule. Trace policies: EDF, robust EDF with a reject queue,
the two-phase overload scheduler of Baruah and Haritsa (exact and
mean-only execution knowledge), weighted round-robin emulation of
fractional sharing, and the priority-index rule over sampled jobs.
"""

from __future__ import annotations

import heapq

from . import allocation, zindex
from .allocation import AllocationVector
from .errors import ConfigError, InvariantError, fields, require_finite
from .sim import QueuePolicy, TracePolicy
from .streams import Job


# ---------------------------------------------------------------------------
# queue-length policies (CTMC engine)

class FapQueuePolicy(QueuePolicy):
    """Each nonempty queue is served at its fractional share of the rate."""

    def __init__(self, f: AllocationVector):
        self.f = f

    def bind(self, specs):
        if len(self.f) != len(specs):
            raise ConfigError("allocation length does not match stream count")
        self._rates = [f_i * s.service_rate for f_i, s in zip(self.f.fractions, specs)]

    def service_rates(self, lengths):
        return [r if l > 0 else 0.0 for r, l in zip(self._rates, lengths)]


class ZQueuePolicy(QueuePolicy):
    """Serve the highest-index nonempty queue at the full service rate."""

    def __init__(self, table: zindex.PriorityTable):
        self.table = table

    def bind(self, specs):
        self._full = [s.service_rate for s in specs]

    def service_rates(self, lengths):
        rates = [0.0] * len(lengths)
        j = self.table.select(lengths)
        if j is not None:
            rates[j] = self._full[j]
        return rates


# ---------------------------------------------------------------------------
# trace policies

class EdfPolicy(TracePolicy):
    """Earliest absolute deadline first; ties by arrival, then stream id."""

    def choose(self, now):
        if not self.pending:
            return None
        return min(self.pending, key=_edf_key)


def _edf_key(job: Job):
    return (job.deadline_abs, job.arrival, job.stream)


def remaining_estimate(job: Job, knowledge: str, mean_exec) -> float:
    """Remaining demand of ``job`` as a scheduler with ``knowledge`` sees it.

    ``"exact"``: the true remaining execution. ``"mean"``: the stream's mean
    execution time (``mean_exec[job.stream]``) less the service received.
    """
    if knowledge == "exact":
        return job.exec_remaining
    served = job.exec_total - job.exec_remaining
    return max(mean_exec[job.stream] - served, 0.0)


class RedfPolicy(EdfPolicy):
    """EDF plus overload rejection of least-value jobs to a reject queue.

    On every arrival the pending set is checked for EDF feasibility (the
    cumulative remaining demand scanned in deadline order must meet every
    deadline); while it is infeasible the single lowest-reward pending job
    (ties: latest deadline) moves to the reject queue. Completions trigger
    resurrection: unexpired rejected jobs are re-admitted highest reward
    first for as long as the pending set stays feasible.

    By default the feasibility scan estimates each job's remaining demand
    from its stream's mean execution time less the service already
    received (the scheduler observes arrivals and deadlines but not
    execution lengths); ``knowledge="exact"`` switches to the true
    remaining execution, making the overload detector clairvoyant.
    """

    def __init__(self, knowledge: str = "mean"):
        _check_knowledge(knowledge)
        self.knowledge = knowledge

    def bind(self, specs):
        super().bind(specs)
        self._mean_exec = [s.mean_exec for s in specs]
        self.rejected: list[Job] = []

    def on_arrival(self, job, now):
        self.pending.append(job)
        self._enforce_feasible(now)

    def on_expiry(self, job, now):
        (self.pending if job in self.pending else self.rejected).remove(job)

    def on_completion(self, job, now):
        super().on_completion(job, now)
        self._resurrect(now)

    def _feasible(self, now) -> bool:
        demand = 0.0
        for job in sorted(self.pending, key=_edf_key):
            demand += remaining_estimate(job, self.knowledge, self._mean_exec)
            if now + demand > job.deadline_abs + 1e-9:
                return False
        return True

    def _enforce_feasible(self, now):
        while self.pending and not self._feasible(now):
            victim = min(self.pending, key=lambda j: (j.reward, -j.deadline_abs))
            self.pending.remove(victim)
            self.rejected.append(victim)

    def _resurrect(self, now):
        # all are live: the engine expires jobs due at now before this completion
        for job in sorted(self.rejected, key=lambda j: (-j.reward, j.deadline_abs)):
            self.pending.append(job)
            if self._feasible(now):
                self.rejected.remove(job)
            else:
                self.pending.remove(job)
                break


class RobustPolicy(TracePolicy):
    """Two-phase overload scheduler with a guaranteed slack factor.

    Odd phase: the longest eligible job runs non-preemptively until it
    terminates; the phase length is that job's remaining execution at
    phase start. Even phase: the maximum-length job runs, preempted by any
    longer arrival, for 1/(slack-1) of the preceding odd phase. With
    ``knowledge="mean"`` the stream's mean execution time stands in for
    the true requirement when ranking jobs, testing eligibility, and
    budgeting the even phase (the odd phase still ends when its job
    actually terminates).

    Interpretation choices (the source description leaves them open): a
    job is eligible while its estimated remaining work still fits before
    its deadline, falling back to all pending jobs so the processor never
    idles; an expiry of the odd-phase job ends the phase like a
    termination; when the pending set empties the phase machine resets and
    the next arrival starts a fresh odd phase.
    """

    def __init__(self, slack: float, knowledge: str = "exact"):
        require_finite("slack factor", slack, above=1.0)
        _check_knowledge(knowledge)
        self.slack = slack
        self.knowledge = knowledge

    def bind(self, specs):
        super().bind(specs)
        self._mean_exec = [s.mean_exec for s in specs]
        self.phase = "idle"
        self.odd_job: Job | None = None
        self.odd_start = 0.0
        self.odd_est = 0.0
        self.even_end: float | None = None

    def _longest(self, now) -> Job:
        """Longest eligible pending job, else the longest pending job.

        One pass keeps both maxima of the key (estimate, earliest deadline,
        earliest arrival, lowest stream); the first of equal keys wins, as
        with ``max``. Only equal estimates compare the rest of the key, which
        is ``_edf_key`` order. The estimate is ``remaining_estimate``
        inlined; ``if est < 0.0`` keeps ``max(est, 0.0)``'s result for -0.0.
        """
        exact, mean_exec = self.knowledge == "exact", self._mean_exec
        best = eligible = None
        best_est = eligible_est = 0.0
        for job in self.pending:
            if exact:
                est = job.exec_remaining
            else:
                est = mean_exec[job.stream] - (job.exec_total - job.exec_remaining)
                if est < 0.0:
                    est = 0.0
            if best is None or est > best_est or (
                    est == best_est and _edf_key(job) < _edf_key(best)):
                best, best_est = job, est
            if est <= job.deadline_abs - now and (
                    eligible is None or est > eligible_est or (
                        est == eligible_est and _edf_key(job) < _edf_key(eligible))):
                eligible, eligible_est = job, est
        return best if eligible is None else eligible

    def choose(self, now):
        if self.phase == "odd":
            return self.odd_job  # pending until it terminates, which ends the phase
        if not self.pending:
            self.phase = "idle"
            self.even_end = None
            return None
        if self.phase == "idle":
            self.odd_job = self._longest(now)
            self.odd_start = now
            self.odd_est = remaining_estimate(self.odd_job, self.knowledge,
                                              self._mean_exec)
            self.phase = "odd"
            return self.odd_job
        return self._longest(now)

    def _end_odd(self, now):
        # the even budget comes from the scheduler's view of the odd phase
        odd_len = self.odd_est if self.knowledge == "mean" else now - self.odd_start
        self.even_end = now + odd_len / (self.slack - 1.0)
        self.phase = "even"
        self.odd_job = None

    def on_completion(self, job, now):
        self.pending.remove(job)
        if self.phase == "odd" and job is self.odd_job:
            self._end_odd(now)

    on_expiry = on_completion  # an expiry of the odd job ends the phase too

    def next_timer(self, now):
        return self.even_end if self.phase == "even" else None

    def on_timer(self, now):
        if self.phase == "even" and now >= self.even_end:
            self.phase = "idle"
            self.even_end = None


class _PerStreamPolicy(TracePolicy):
    """Trace policy keeping one earliest-deadline heap and one rank per stream.

    Heap entries are ``(deadline_abs, arrival, arrival_seq, job)``, so the
    head of a stream's heap is the job ``min(key=(deadline, arrival))``
    would pick from its arrival-ordered queue, the first arrival winning a
    tie. ``lengths[i]`` counts the jobs held for stream ``i``. ``_z[i]`` is
    stream ``i``'s rank: -1.0 while it is empty, ``_zrows[i][l]`` while its
    length ``l`` is inside that row, and ``_limits[i]`` beyond the row. A
    subclass sets ``_zrows`` (with -1.0 at ``l = 0``) and ``_limits`` in
    ``bind``.

    Under the engine every removal is a head: an expiring job has its
    stream's earliest deadline (expiries arrive in deadline order), and a
    completing job is the head that ``choose`` returned. Any other job is
    found by identity and the heap rebuilt.

    The push, the head pop and the rank update are written out in the
    callbacks, with no helper or ``super()`` frame: behind those frames
    ``robust_trace`` ran about 6% fewer jobs per second, and the rank upkeep
    cost as much as the ``table.select`` it replaces (BENCH_trace_engine.json).
    """

    def bind(self, specs):
        self.heaps: list[list[tuple[float, float, int, Job]]] = [[] for _ in specs]
        self.lengths = [0] * len(specs)
        self._z = [-1.0] * len(specs)
        self._seq = 0

    def on_arrival(self, job, now):
        i = job.stream
        heapq.heappush(self.heaps[i], (job.deadline_abs, job.arrival, self._seq, job))
        self._seq += 1
        l = self.lengths[i] = self.lengths[i] + 1
        zrow = self._zrows[i]
        self._z[i] = zrow[l] if l < len(zrow) else self._limits[i]

    def on_completion(self, job, now):
        i = job.stream
        heap = self.heaps[i]
        if heap and heap[0][3] is job:
            heapq.heappop(heap)
        else:
            for k, entry in enumerate(heap):
                if entry[3] is job:
                    break
            else:
                raise InvariantError(f"job not held by the policy: {job}")
            del heap[k]
            heapq.heapify(heap)
        l = self.lengths[i] = self.lengths[i] - 1
        zrow = self._zrows[i]
        self._z[i] = zrow[l] if l < len(zrow) else self._limits[i]

    on_expiry = on_completion

    def has_runnable(self):
        return any(self.lengths)


class ZTracePolicy(_PerStreamPolicy):
    """Priority-index stream selection over sampled jobs.

    Within the selected stream the earliest-deadline job runs (the index
    only ranks streams; the intra-stream order is an implementation
    choice). A stream's rank ``_z[i]`` is its index at its current length,
    so ``choose`` is one scan of ``_z`` that picks what
    ``table.select(lengths)`` would.
    """

    def __init__(self, table: zindex.PriorityTable):
        self.table = table

    def bind(self, specs):
        super().bind(specs)
        if len(self.table.z) != len(specs):
            raise ConfigError(f"priority table has {len(self.table.z)} streams "
                              f"for {len(specs)}")
        self._zrows = [(-1.0,) + row for row in self.table.z]
        self._limits = self.table.limit_value

    def choose(self, now):
        # a strict > from -1.0: empty streams never win, the lowest id wins ties
        best = None
        best_z = -1.0
        for i, zi in enumerate(self._z):
            if zi > best_z:
                best, best_z = i, zi
        return None if best is None else self.heaps[best][0][3]


class FapRoundRobinPolicy(_PerStreamPolicy):
    """Weighted round-robin emulation of fractional sharing.

    Each cycle of length ``quantum`` is split among the streams that are
    backlogged at cycle start, proportionally to their fractions; a stream
    that empties mid-slot forfeits the rest of its slot (shares of idle
    streams are effectively redistributed, keeping the policy non-idling).
    """

    def __init__(self, f: AllocationVector, quantum: float):
        require_finite("quantum", quantum, above=0.0)
        self.f = f
        self.quantum = quantum

    def bind(self, specs):
        super().bind(specs)
        if len(self.f) != len(specs):
            raise ConfigError("allocation length does not match stream count")
        # a backlogged stream's rank is its share
        self._zrows = [(-1.0,)] * len(specs)
        self._limits = self.f.fractions
        self._slots: list[tuple[int, float]] = []
        self._slot_idx = 0
        self._slot_end: float | None = None

    def _start_cycle(self, now):
        active = [i for i, z in enumerate(self._z) if z > 0]
        if not active:  # only zero-share streams are backlogged
            active = [i for i, l in enumerate(self.lengths) if l]
            weights = [1.0] * len(active)
        else:
            weights = [self._z[i] for i in active]
        total = sum(weights)
        self._slots = [(i, self.quantum * w / total) for i, w in zip(active, weights)]
        self._slot_idx = 0
        self._slot_end = None

    def choose(self, now):
        if not any(self.lengths):
            self._slots = []
            self._slot_end = None
            return None
        while True:
            if self._slot_idx >= len(self._slots):
                self._start_cycle(now)
            i, budget = self._slots[self._slot_idx]
            if self.lengths[i]:
                if self._slot_end is None:
                    self._slot_end = now + budget
                return self.heaps[i][0][3]
            self._slot_idx += 1
            self._slot_end = None

    def next_timer(self, now):
        return self._slot_end

    def on_timer(self, now):
        if now >= self._slot_end:
            self._slot_idx += 1
            self._slot_end = None


# ---------------------------------------------------------------------------
# construction by name

#: Each policy's parameter names.
POLICY_PARAMS = {"edf": (), "redf": ("knowledge",), "robust": ("slack", "knowledge"),
                 "fap": ("f", "quantum"), "policyz": ("f", "l_max")}
#: The policies the CTMC engine runs; every policy runs on the trace engine.
CTMC_POLICIES = ("fap", "policyz")

def default_quantum(specs) -> float:
    return min(s.mean_exec for s in specs) / 100.0


def resolve_allocation(specs, f_param) -> AllocationVector:
    """Turn a policy parameter ("auto" or a list of fractions) into a vector."""
    if f_param is None or f_param == "auto":
        return allocation.optimize(specs).f_star
    if not isinstance(f_param, (list, tuple)):
        raise ConfigError(f"allocation must be 'auto' or a list of fractions, got {f_param!r}")
    for v in f_param:
        require_finite("allocation fraction", v)
    return AllocationVector.normalized(list(f_param))


def make_policy(name: str, params: dict, specs, engine: str):
    """Build a policy instance for the requested engine.

    Raises ConfigError for an unknown name, a parameter outside the policy's
    ``POLICY_PARAMS``, an invalid value, or a policy/engine mismatch.
    """
    if not isinstance(name, str) or name not in POLICY_PARAMS:
        raise ConfigError(f"unknown policy {name!r}")
    params = fields(params or {}, f"policy {name!r}", (), POLICY_PARAMS[name])
    if engine not in ("ctmc", "trace"):
        raise ConfigError(f"unknown engine {engine!r}")
    if engine == "ctmc" and name not in CTMC_POLICIES:
        raise ConfigError(f"policy {name!r} needs the trace engine, got {engine!r}")
    if name == "edf":
        return EdfPolicy()
    if name == "redf":
        return RedfPolicy(params.get("knowledge", "mean"))
    if name == "robust":
        return RobustPolicy(params.get("slack", 2.0), params.get("knowledge", "exact"))
    f = resolve_allocation(specs, params.get("f", "auto"))  # fap or policyz
    if name == "fap":
        if engine == "ctmc":
            return FapQueuePolicy(f)
        return FapRoundRobinPolicy(f, params.get("quantum", default_quantum(specs)))
    table = zindex.build_table(specs, f, params.get("l_max", zindex.DEFAULT_LMAX))
    if engine == "ctmc":
        return ZQueuePolicy(table)
    return ZTracePolicy(table)


def _check_knowledge(knowledge) -> None:
    if knowledge not in ("exact", "mean"):
        raise ConfigError(f"knowledge must be 'exact' or 'mean', got {knowledge!r}")
