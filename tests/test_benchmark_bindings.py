"""The names the benchmark child binds exist in the package.

``perfbench/child.py`` wraps layer functions, policy methods and campaign
functions by name, so renaming one breaks the benchmark while every other
unit test stays green. These tests load the child's tables without running
it and look each name up.
"""

import importlib
import importlib.util
from pathlib import Path

from revsched import presets, queueing, sim

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


child = _load_child()
# the interfaces' stubs, which a policy inherits if its own method is renamed
STUBS = (sim.QueuePolicy.service_rates, sim.TracePolicy.choose)


def _module(name):
    return importlib.import_module(f"revsched.{name}")


def test_traced_functions_exist():
    missing = [f"{mod}.{fn}" for mod, fn in child.TRACED_FUNCTIONS
               if not callable(getattr(_module(mod), fn, None))]
    assert missing == []


def test_traced_methods_exist():
    missing = [f"{mod}.{cls}.{method}" for mod, cls, methods in child.TRACED_METHODS
               for method in methods
               if getattr(getattr(_module(mod), cls, None), method, None) in (None, *STUBS)]
    assert missing == []


def test_campaigns_exist():
    assert [name for name in child.CAMPAIGNS if not callable(getattr(presets, name, None))] == []


def test_the_memo_the_child_reads_exists():
    assert {"hits", "misses", "currsize"} <= set(queueing._pi0_cached.cache_info()._fields)
