"""No campaign loads ``numpy.random``.

The CTMC engine draws from ``random.Random``; trace sampling draws from
``rng.Pcg64``, a port of numpy's PCG64 that equals its draws bit for bit;
both engines derive seeds with ``rng.seed_state``, a port of numpy's
``SeedSequence``. Each case runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _loads_numpy_random(code: str) -> bool:
    """Whether ``numpy.random`` is in ``sys.modules`` after ``code`` runs in
    a fresh interpreter that imports the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = f"{code}\nimport sys\nprint('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()[-1] == "True"


def _cli(*args: str) -> str:
    return f"from revsched.cli import main\nassert main({list(args)!r}) == 0"


@pytest.fixture(scope="module", autouse=True)
def _lazy_numpy_random():
    # numpy 1.x imports numpy.random with numpy itself, so nothing can avoid it
    if _loads_numpy_random("import numpy"):
        pytest.skip("this numpy loads numpy.random on import")


def _run_config(tmp_path, policy: str, engine: str) -> str:
    config = tmp_path / f"{policy}-{engine}.json"
    config.write_text(json.dumps({
        "workload": {"streams": [
            {"P": 350, "mean_exec": 600, "mean_deadline": 1000, "value": 1.3},
            {"P": 350, "mean_exec": 900, "mean_deadline": 1000, "value": 1.0}],
            "horizon": 20000, "seed": 0},
        "policy": {"name": policy}, "engine": engine, "replications": 2}))
    return str(config)


def test_ctmc_campaigns_never_load_numpy_random(tmp_path):
    out = str(tmp_path / "out.csv")
    assert not _loads_numpy_random(_cli("experiment", "table1", "--ids", "1",
                                        "--reps", "2", "--sdp", "--out", out))
    assert not _loads_numpy_random(_cli("simulate", _run_config(tmp_path, "policyz", "ctmc"),
                                        "--out", out))


def test_trace_campaigns_never_load_numpy_random(tmp_path):
    out = str(tmp_path / "out.csv")
    assert not _loads_numpy_random(_cli("experiment", "robust", "--slack", "2",
                                        "--intensity", "1.5", "--reps", "2", "--out", out))
    assert not _loads_numpy_random(_cli("experiment", "redf", "--intensity", "1.5",
                                        "--reps", "2", "--out", out))
    assert not _loads_numpy_random(_cli("simulate", _run_config(tmp_path, "edf", "trace"),
                                        "--out", out))


def test_the_probe_sees_a_load():
    # the checks above can fail: a direct use of numpy.random shows up
    assert _loads_numpy_random("import numpy\nnumpy.random.default_rng(0)")
