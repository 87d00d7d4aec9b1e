"""Queue-length priority index and its precomputed lookup table.

The index of stream ``i`` at queue length ``l`` measures the revenue-rate
gain of serving that stream now instead of leaving it to its fractional
share: it rises with the stream's peak revenue rate ``v * s``, with the
deadline-miss pressure of the queue, and with the queue length itself,
converging monotonically to ``v * s`` as the queue grows.

Two algebraically equivalent evaluations are provided; the second goes
through the explicit marginal-value difference and exists as an
independent cross-check of the first.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from .allocation import AllocationVector
from .errors import ConfigError, NumericalError
from .queueing import QueueParams, pi0
from .streams import StreamSpec

DEFAULT_LMAX = 1024
_MONOTONE_SLACK = 1e-9


def priority(s: StreamSpec, f_i: float, l: int) -> float:
    """Priority index of stream ``s`` with share ``f_i`` at queue length ``l``."""
    if l < 1:
        raise ConfigError(f"queue length must be >= 1, got {l}")
    if not (0.0 <= f_i <= 1.0):
        raise ConfigError(f"fraction must be in [0, 1], got {f_i}")
    sf = s.service_rate * f_i
    d = s.deadline_rate
    pi0_base = pi0(QueueParams(s.arrival_rate, sf, d))
    pi0_shifted = pi0(QueueParams(s.arrival_rate, sf + l * d, d))
    return s.reward * s.service_rate * (
        1.0 - (sf * pi0_base) / ((sf + l * d) * pi0_shifted))


def priority_via_value_difference(s: StreamSpec, f_i: float, l: int) -> float:
    """Same index assembled from the marginal value drop; cross-check path.

    The drop is the expected revenue lost per service by pulling one job
    out of queue ``l``.
    """
    if l < 1:
        raise ConfigError(f"queue length must be >= 1, got {l}")
    sf = s.service_rate * f_i
    d = s.deadline_rate
    pi0_base = pi0(QueueParams(s.arrival_rate, sf, d))
    pi0_shifted = pi0(QueueParams(s.arrival_rate, sf + l * d, d))
    drop = (s.reward * sf * pi0_base) / ((sf + l * d) * pi0_shifted)
    return s.service_rate * (s.reward - drop)


@dataclass(frozen=True)
class PriorityTable:
    """Per-stream priority values for queue lengths 1..l_max.

    Lookups beyond ``l_max`` return the stream's limit value ``v * s``
    (the index converges to it from below).
    """

    z: tuple[tuple[float, ...], ...]
    limit_value: tuple[float, ...]
    allocation: AllocationVector

    @property
    def l_max(self) -> int:
        return len(self.z[0])

    def select(self, queue_lengths) -> int | None:
        """Id of the nonempty queue with the highest index; None if all empty.

        Ties break toward the lowest stream id.
        """
        z, limits = self.z, self.limit_value
        if len(queue_lengths) != len(z):
            raise ConfigError(
                f"got {len(queue_lengths)} queue lengths for {len(z)} streams")
        best = None
        best_z = -1.0
        for i, l in enumerate(queue_lengths):
            if l <= 0:
                continue
            row = z[i]
            zi = row[l - 1] if l <= len(row) else limits[i]
            if zi > best_z:
                best = i
                best_z = zi
        return best


def build_table(specs, f: AllocationVector, l_max: int = DEFAULT_LMAX) -> PriorityTable:
    """Precompute the priority table for all streams up to ``l_max``.

    A non-monotone column would indicate a numerical fault (the index is
    provably nondecreasing in the queue length) and raises.
    """
    if isinstance(l_max, bool) or not isinstance(l_max, numbers.Integral):
        raise ConfigError(f"l_max must be an integer, got {l_max!r}")
    if l_max < 1:
        raise ConfigError(f"l_max must be >= 1, got {l_max}")
    if len(f) != len(specs):
        raise ConfigError(f"allocation has {len(f)} entries for {len(specs)} streams")
    rows = []
    limits = []
    for s, f_i in zip(specs, f.fractions):
        limit = s.reward * s.service_rate
        row = [priority(s, f_i, l) for l in range(1, l_max + 1)]
        for l in range(1, len(row)):
            if row[l] < row[l - 1] - _MONOTONE_SLACK * limit:
                raise NumericalError(
                    f"priority index of stream {s.id} decreased at l={l + 1}: "
                    f"{row[l - 1]} -> {row[l]}")
        rows.append(tuple(row))
        limits.append(limit)
    return PriorityTable(tuple(rows), tuple(limits), f)
