"""Test-only helpers that the package itself does not need.

Import them as ``from helpers import ...``; pytest puts this directory on
``sys.path`` because ``tests/`` is not a package.
"""

import csv
import io

from revsched.errors import ConfigError
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
