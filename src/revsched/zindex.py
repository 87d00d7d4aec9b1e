"""Queue-length priority index and its precomputed lookup table.

The index of stream ``i`` at queue length ``l`` measures the revenue-rate
gain of serving that stream now instead of leaving it to its fractional
share: it rises with the stream's peak revenue rate ``v * s``, with the
deadline-miss pressure of the queue, and with the queue length itself,
converging monotonically to ``v * s`` as the queue grows.

The tests cross-check it against an algebraically equivalent evaluation
through the explicit marginal-value difference, which lives in
``tests/helpers.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import AllocationVector
from .errors import ConfigError, NumericalError, require_int
from .queueing import QueueParams, pi0, pi0_many
from .streams import StreamSpec

DEFAULT_LMAX = 1024
#: Largest table length; a row runs one ``pi0`` series per entry, all of
#: them in one ``pi0_many`` pass (only the row's base goes through the memo).
MAX_LMAX = 10**5
_MONOTONE_SLACK = 1e-9


def priority(s: StreamSpec, f_i: float, l: int) -> float:
    """Priority index of stream ``s`` with share ``f_i`` at queue length ``l``."""
    require_int("queue length", l, 1)
    return float(_priority_row(s, f_i, l, l)[0])


def _priority_row(s: StreamSpec, f_i: float, first: int, last: int) -> np.ndarray:
    """Indices of stream ``s`` at queue lengths ``first..last``: the base
    empty probability from ``pi0``, every shifted one from a single
    ``pi0_many`` pass, and each entry's float operations as in the scalar
    formula. A base empty probability (the row's smallest) that underflows
    to 0.0 leaves the index undefined: NumericalError."""
    if not (0.0 <= f_i <= 1.0):
        raise ConfigError(f"fraction must be in [0, 1], got {f_i}")
    r = s.arrival_rate
    sf = s.service_rate * f_i
    d = s.deadline_rate
    peak = s.reward * s.service_rate
    base = pi0(QueueParams(r, sf, d))
    if base == 0.0:
        raise NumericalError(f"stream {s.id}: empty probability underflows (r/d {r / d:.3g})")
    shifted = sf + np.arange(first, last + 1) * d
    return peak * (1.0 - (sf * base) / (shifted * pi0_many(r, shifted, d)))


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
    require_int("l_max", l_max, 1, MAX_LMAX + 1)
    if len(f) != len(specs):
        raise ConfigError(f"allocation has {len(f)} entries for {len(specs)} streams")
    rows = []
    limits = []
    for s, f_i in zip(specs, f.fractions):
        limit = s.reward * s.service_rate
        row = _priority_row(s, f_i, 1, l_max)
        drops = np.flatnonzero(row[1:] < row[:-1] - _MONOTONE_SLACK * limit)
        if drops.size:
            l = int(drops[0]) + 1
            raise NumericalError(
                f"priority index of stream {s.id} decreased at l={l + 1}: "
                f"{row[l - 1]} -> {row[l]}")
        rows.append(tuple(row.tolist()))
        limits.append(limit)
    return PriorityTable(tuple(rows), tuple(limits), f)
