"""Service-class definitions and reproducible job-trace sampling.

A workload is a set of job streams on a single processor. Stream ``i``
produces jobs by a Poisson process with rate ``arrival_rate``; each job
carries an exponentially distributed execution requirement (mean
``mean_exec``), an exponentially distributed relative deadline (mean
``mean_deadline``), and a fixed per-completion reward.

Sampling is reproducible: every (stream id, quantity kind) pair gets its
own RNG substream derived from the workload seed via
``numpy.random.SeedSequence(seed, spawn_key=(stream_id, kind))``, so adding
or removing a stream never perturbs the samples of the others. Exponential
variates are drawn by inverse CDF, ``-mean * log1p(-u)``.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import ConfigError, require_finite

#: Most jobs a sampled trace may expect (``horizon * sum of arrival rates``);
#: the campaigns sample about 16k per trace.
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
        if isinstance(self.id, bool) or not isinstance(self.id, numbers.Integral):
            raise ConfigError(f"stream id must be an integer, got {self.id!r}")
        if self.id < 0:
            raise ConfigError(f"stream id must be >= 0, got {self.id}")
        for name in ("arrival_rate", "mean_exec", "mean_deadline", "reward"):
            val = getattr(self, name)
            require_finite(f"stream {self.id}: {name}", val)
            if not (val > 0):
                raise ConfigError(f"stream {self.id}: {name} must be > 0, got {val}")

    @classmethod
    def from_period(cls, id, period, mean_exec, mean_deadline, reward):
        """Alternative constructor taking the mean inter-arrival time."""
        require_finite(f"stream {id}: period", period)
        if not (period > 0):
            raise ConfigError(f"stream {id}: period must be > 0, got {period}")
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
        require_finite("horizon", self.horizon)
        if not (self.horizon > 0):
            raise ConfigError(f"horizon must be > 0, got {self.horizon}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError(f"seed must fit in 64 unsigned bits, got {self.seed}")

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


def _substream(seed: int, stream_id: int, kind: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream_id, kind)))


def _exponential(rng: np.random.Generator, mean: float, n: int) -> np.ndarray:
    # inverse CDF; log1p keeps precision for small u
    return -mean * np.log1p(-rng.random(n))


def sample_trace(spec: WorkloadSpec) -> list[Job]:
    """Sample the merged, arrival-ordered job trace of a workload.

    Only jobs arriving strictly before the horizon are included. Identical
    (spec, seed) pairs always produce identical traces. A workload that
    expects more than ``MAX_TRACE_JOBS`` jobs is a ConfigError, raised
    before anything is drawn.
    """
    expected = spec.horizon * sum(s.arrival_rate for s in spec.streams)
    if expected > MAX_TRACE_JOBS:
        raise ConfigError(f"workload expects {expected:.3g} jobs per trace, "
                          f"more than the budget of {MAX_TRACE_JOBS}")
    jobs: list[Job] = []
    arrival_cols = []
    counts = []
    for s in spec.streams:
        gap_rng = _substream(spec.seed, s.id, _KIND_GAP)
        mean_gap = 1.0 / s.arrival_rate
        chunks = []
        t = 0.0
        chunk = max(16, int(spec.horizon * s.arrival_rate * 1.2) + 16)
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
        arrival_cols.append(arr)
        counts.append(n)
    # by arrival, then stream; stable, so equal keys keep their sampled order
    order = np.lexsort((np.repeat([s.id for s in spec.streams], counts),
                        np.concatenate(arrival_cols)))
    merged = np.empty(len(jobs), dtype=object)
    merged[:] = jobs
    return merged[order].tolist()


def workload_from_dict(data: dict) -> WorkloadSpec:
    """Build a WorkloadSpec from the JSON file schema.

    Schema: ``{"streams": [{"rate"|"P": ..., "mean_exec": ...,
    "mean_deadline": ..., "value": ...}], "horizon": ..., "seed": ...}``.
    Exactly one of ``rate`` / ``P`` (mean inter-arrival) per stream.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"workload must be a JSON object, got {type(data).__name__}")
    try:
        raw_streams = data["streams"]
        horizon = data["horizon"]
        seed = data["seed"]
    except KeyError as exc:
        raise ConfigError(f"workload file missing key: {exc}") from exc
    if not isinstance(raw_streams, list):
        raise ConfigError(f"'streams' must be a list, got {type(raw_streams).__name__}")
    streams = []
    for i, raw in enumerate(raw_streams):
        if not isinstance(raw, dict):
            raise ConfigError(f"stream {i} must be a JSON object, got {type(raw).__name__}")
        has_rate = "rate" in raw
        has_period = "P" in raw
        if has_rate == has_period:
            raise ConfigError(f"stream {i}: give exactly one of 'rate' or 'P'")
        make = StreamSpec if has_rate else StreamSpec.from_period
        try:
            streams.append(make(i, raw["rate" if has_rate else "P"], raw["mean_exec"],
                                raw["mean_deadline"], raw["value"]))
        except KeyError as exc:
            raise ConfigError(f"stream {i} missing key: {exc}") from exc
    return WorkloadSpec(tuple(streams), horizon, seed)


def load_json(path, what: str):
    """Parse the JSON file ``path``; a missing or malformed file is a ConfigError."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_workload(path) -> WorkloadSpec:
    return workload_from_dict(load_json(path, "workload file"))
