"""No campaign loads ``numpy.random``, ``logging`` or ``json``.

The CTMC engine draws from ``random.Random``; trace sampling draws from
``rng.Pcg64``, a port of numpy's PCG64 that equals its draws bit for bit;
both engines derive seeds with ``rng.seed_state``, a port of numpy's
``SeedSequence``. ``allocation`` and ``dp`` import ``logging`` only in the
branches that log, and ``streams`` imports ``json`` only to read a file,
which ``simulate`` does and the campaigns do not. Each case runs once, in a
fresh interpreter. The ``numpy.random`` checks are skipped on numpy 1.x,
which loads ``numpy.random`` with ``import numpy``; the others run on any
numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PROBED = ("numpy.random", "logging", "json")


def _loaded(code: str) -> set[str]:
    """Which of ``PROBED`` are in ``sys.modules`` after ``code`` runs in a
    fresh interpreter that imports the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = f"{code}\nimport sys\nprint(*(m for m in {PROBED!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.splitlines()[-1].split())


def _cli(*args: str) -> str:
    return f"from revsched.cli import main\nassert main({list(args)!r}) == 0"


def _run_config(tmp_path, policy: str, engine: str) -> str:
    config = tmp_path / f"{policy}-{engine}.json"
    config.write_text(json.dumps({
        "workload": {"streams": [
            {"P": 350, "mean_exec": 600, "mean_deadline": 1000, "value": 1.3},
            {"P": 350, "mean_exec": 900, "mean_deadline": 1000, "value": 1.0}],
            "horizon": 20000, "seed": 0},
        "policy": {"name": policy}, "engine": engine, "replications": 2}))
    return str(config)


@pytest.fixture(scope="module")
def loads(tmp_path_factory):
    """The probed modules each case loads, by case name."""
    tmp_path = tmp_path_factory.mktemp("footprint")
    out = str(tmp_path / "out.csv")
    cases = {
        "table1": _cli("experiment", "table1", "--ids", "1", "--reps", "2", "--sdp",
                       "--out", out),
        "robust": _cli("experiment", "robust", "--slack", "2", "--intensity", "1.5",
                       "--reps", "2", "--out", out),
        "redf": _cli("experiment", "redf", "--intensity", "1.5", "--reps", "2",
                     "--out", out),
        "simulate_ctmc": _cli("simulate", _run_config(tmp_path, "policyz", "ctmc"),
                              "--out", out),
        "simulate_trace": _cli("simulate", _run_config(tmp_path, "edf", "trace"),
                               "--out", out),
    }
    return {name: _loaded(code) for name, code in cases.items()}


@pytest.fixture(scope="module")
def lazy_numpy_random():
    # numpy 1.x imports numpy.random with numpy itself, so nothing can avoid it
    if "numpy.random" in _loaded("import numpy"):
        pytest.skip("this numpy loads numpy.random on import")


@pytest.mark.usefixtures("lazy_numpy_random")
def test_ctmc_campaigns_never_load_numpy_random(loads):
    for case in ("table1", "simulate_ctmc"):
        assert "numpy.random" not in loads[case], case


@pytest.mark.usefixtures("lazy_numpy_random")
def test_trace_campaigns_never_load_numpy_random(loads):
    for case in ("robust", "redf", "simulate_trace"):
        assert "numpy.random" not in loads[case], case


@pytest.mark.parametrize("case", ["table1", "robust", "redf"])
def test_campaigns_never_load_logging_or_json(loads, case):
    assert not loads[case] & {"logging", "json"}


@pytest.mark.usefixtures("lazy_numpy_random")
def test_the_probe_sees_a_load():
    # the checks above can fail: a direct use of numpy.random shows up
    assert "numpy.random" in _loaded("import numpy\nnumpy.random.default_rng(0)")


@pytest.mark.parametrize("case", ["simulate_ctmc", "simulate_trace"])
def test_simulate_loads_json_to_read_its_config(loads, case):
    assert "json" in loads[case]
