"""Service-class definitions and reproducible job-trace sampling.

A workload is a set of job streams on a single processor. Stream ``i``
produces jobs by a Poisson process with rate ``arrival_rate``; each job
carries an exponentially distributed execution requirement (mean
``mean_exec``), an exponentially distributed relative deadline (mean
``mean_deadline``), and a fixed per-completion reward.

Sampling is reproducible: every (stream id, quantity kind) pair gets its
own RNG substream derived from the workload seed, so adding or removing a
stream never perturbs the samples of the others. A substream is
``rng.Pcg64(seed, (stream_id, kind))``: its uniform draws equal, bit for
bit, those of numpy's ``default_rng(SeedSequence(seed, spawn_key=(stream_id,
kind)))``, without loading ``numpy.random``. Exponential variates are drawn
by inverse CDF, ``-mean * log1p(-u)``.

``json`` is imported only inside ``load_json``: the campaigns read no file,
so they do not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import repeat
from operator import attrgetter

import numpy as np

from .errors import ConfigError, fields, require_finite, require_int
from .rng import Pcg64

#: Most jobs (or round-robin cycles) one simulated run may expect; the
#: campaigns sample about 16k jobs per trace.
MAX_TRACE_JOBS = 10**7

# Substream kinds for the per-stream RNGs.
_KIND_GAP = 0
_KIND_EXEC = 1
_KIND_DEADLINE = 2


@dataclass(frozen=True)
class StreamSpec:
    """Parameters of one service class."""

    id: int
    arrival_rate: float
    mean_exec: float
    mean_deadline: float
    reward: float

    def __post_init__(self):
        require_int("stream id", self.id, 0)
        for name in ("arrival_rate", "mean_exec", "mean_deadline", "reward",
                     "service_rate", "deadline_rate"):  # 1 / a subnormal mean is inf
            require_finite(f"stream {self.id}: {name}", getattr(self, name), above=0.0)

    @classmethod
    def from_period(cls, id, period, mean_exec, mean_deadline, reward):
        """Alternative constructor taking the mean inter-arrival time."""
        require_finite(f"stream {id}: period", period, above=0.0)
        return cls(id, 1.0 / period, mean_exec, mean_deadline, reward)

    @property
    def service_rate(self) -> float:
        return 1.0 / self.mean_exec

    @property
    def deadline_rate(self) -> float:
        return 1.0 / self.mean_deadline


@dataclass(frozen=True)
class WorkloadSpec:
    """An ordered set of streams plus simulation horizon and base seed."""

    streams: tuple[StreamSpec, ...]
    horizon: float
    seed: int

    def __post_init__(self):
        if not self.streams:
            raise ConfigError("workload needs at least one stream")
        ids = [s.id for s in self.streams]
        if ids != list(range(len(ids))):
            raise ConfigError(f"stream ids must be 0..n-1 without gaps, got {ids}")
        require_finite("horizon", self.horizon, above=0.0)
        require_int("seed", self.seed, 0, 2**64)

    def with_seed(self, seed: int) -> "WorkloadSpec":
        return replace(self, seed=seed)


@dataclass(eq=False, slots=True)
class Job:
    """One sampled request.

    Jobs compare by identity, so ``in`` and ``list.remove`` find the very
    object passed even when another job has equal fields. Slotted: no
    per-job ``__dict__``, and no attributes beyond the fields below.
    """

    stream: int
    arrival: float
    exec_total: float
    exec_remaining: float
    deadline_abs: float
    reward: float
    #: Set by the trace engine while the job is queued or running.
    _live: bool = field(default=False, init=False, repr=False)


def utilization(spec: WorkloadSpec) -> float:
    """Aggregate offered load sum(mean_exec * arrival_rate)."""
    return sum(s.mean_exec * s.arrival_rate for s in spec.streams)


def is_overloaded(spec: WorkloadSpec) -> bool:
    """Strict overload test; utilization exactly 1.0 counts as not overloaded."""
    return utilization(spec) > 1.0


def _substream(seed: int, stream_id: int, kind: int) -> Pcg64:
    return Pcg64(seed, (stream_id, kind))


def _exponential(rng: Pcg64, mean: float, n: int) -> np.ndarray:
    # inverse CDF; log1p keeps precision for small u
    return -mean * np.log1p(-rng.random(n))


def require_budget(expected: float, what: str) -> None:
    """ConfigError if a run expects more than ``MAX_TRACE_JOBS`` of ``what``."""
    if expected > MAX_TRACE_JOBS:
        raise ConfigError(f"run expects {expected:.3g} {what}; the budget is {MAX_TRACE_JOBS}")


def sample_trace(spec: WorkloadSpec) -> list[Job]:
    """Sample the merged, arrival-ordered job trace of a workload.

    Only jobs arriving strictly before the horizon are included. Identical
    (spec, seed) pairs always produce identical traces. A workload that
    expects more than ``MAX_TRACE_JOBS`` jobs is a ConfigError, raised
    before anything is drawn.
    """
    require_budget(spec.horizon * sum(s.arrival_rate for s in spec.streams), "jobs")
    jobs: list[Job] = []
    # an overflowing draw or sum becomes inf, which a Trace refuses
    with np.errstate(over="ignore"):
        for s in spec.streams:
            gap_rng = _substream(spec.seed, s.id, _KIND_GAP)
            mean_gap = 1.0 / s.arrival_rate
            chunks = []
            t = 0.0
            chunk = int(spec.horizon * s.arrival_rate * 1.2) + 16
            while True:
                gaps = _exponential(gap_rng, mean_gap, chunk)
                times = t + np.cumsum(gaps)
                inside = times[times < spec.horizon]
                chunks.append(inside)
                if len(inside) < len(times):
                    break
                t = times[-1]
                chunk = 1024
            arr = np.concatenate(chunks)
            n = len(arr)
            execs = _exponential(_substream(spec.seed, s.id, _KIND_EXEC), s.mean_exec, n).tolist()
            offsets = _exponential(_substream(spec.seed, s.id, _KIND_DEADLINE), s.mean_deadline, n)
            # repeat() keeps the Python types of id and reward (an int stays an int)
            jobs.extend(map(Job, repeat(s.id, n), arr.tolist(), execs, execs,
                            (arr + offsets).tolist(), repeat(s.reward, n)))
    # by arrival; the sort is stable and the jobs were built stream by stream
    # in id order, so equal arrivals stay by stream, then in sampled order
    jobs.sort(key=attrgetter("arrival"))
    return jobs


def workload_from_dict(data: dict) -> WorkloadSpec:
    """Build a WorkloadSpec from the JSON file schema.

    Schema: ``{"streams": [{"rate"|"P": ..., "mean_exec": ...,
    "mean_deadline": ..., "value": ...}], "horizon": ..., "seed": ...}``, with
    exactly one of ``rate`` / ``P`` (mean inter-arrival) per stream and no other key.
    """
    fields(data, "workload", ("streams", "horizon", "seed"))
    raw_streams = data["streams"]
    if not isinstance(raw_streams, list):
        raise ConfigError(f"'streams' must be a list, got {type(raw_streams).__name__}")
    streams = []
    for i, raw in enumerate(raw_streams):
        fields(raw, f"stream {i}", ("mean_exec", "mean_deadline", "value"), ("rate", "P"))
        has_rate = "rate" in raw
        if has_rate == ("P" in raw):
            raise ConfigError(f"stream {i}: give exactly one of 'rate' or 'P'")
        make = StreamSpec if has_rate else StreamSpec.from_period
        streams.append(make(i, raw["rate" if has_rate else "P"], raw["mean_exec"],
                            raw["mean_deadline"], raw["value"]))
    return WorkloadSpec(tuple(streams), data["horizon"], data["seed"])


def load_json(path, what: str):
    """Parse the JSON file ``path``; an unreadable or malformed file is a ConfigError."""
    import json  # lazily: see the module docstring

    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:  # missing, a directory, no permission
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_workload(path) -> WorkloadSpec:
    return workload_from_dict(load_json(path, "workload file"))
