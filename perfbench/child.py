"""One benchmark child: a single `revsched experiment` campaign in a fresh interpreter.

Started by ``run.py`` as ``python3 child.py SPEC_JSON``; writes one JSON result
file and exits. SPEC_JSON holds:

  argv     arguments for ``revsched.cli.main`` (an ``experiment`` invocation)
  mode     "setup"  stop at the first layer call (set-up time only)
           "run"    full campaign, untraced
           "trace"  full campaign with a span around every layer call
  result   path of the JSON result file
  spans    path of the span dump (trace mode only)

The campaign runs through ``revsched.cli.main`` unchanged. In every mode the
child wraps the three ``presets.run_*_experiment`` campaign functions (to stamp
the first layer call and attribute work to campaign points) and the two engines
(to read their ``SimMetrics``); these probes run once per point or per
replication. Trace mode additionally wraps every binding of each layer's public
functions and the policy callbacks. Times are ``time.perf_counter`` readings
(CLOCK_MONOTONIC on Linux), so the parent can subtract its spawn time.
"""

from __future__ import annotations

import array
import functools
import json
import resource
import sys
from time import perf_counter

CAMPAIGNS = ("run_table1_experiment", "run_robust_experiment", "run_redf_experiment")

# (module, function) spanned in trace mode; every module attribute bound to the
# same function object is replaced, so `from .x import f` callers are covered.
TRACED_FUNCTIONS = (
    ("presets", "run_table1_experiment"), ("presets", "run_robust_experiment"),
    ("presets", "run_redf_experiment"), ("presets", "run_ctmc_policy"),
    ("presets", "run_trace_policy"), ("presets", "report_text"),
    ("streams", "sample_trace"), ("queueing", "pi0"), ("allocation", "optimize"),
    ("zindex", "build_table"), ("dp", "solve"), ("sim", "run_ctmc"), ("sim", "run_trace"),
)

TRACE_CALLBACKS = ("choose", "on_arrival", "on_expiry", "on_completion")
TRACED_METHODS = (
    ("policies", "FapQueuePolicy", ("service_rates",)),
    ("policies", "ZQueuePolicy", ("service_rates",)),
    ("dp", "SdpQueuePolicy", ("service_rates",)),
    ("policies", "ZTracePolicy", TRACE_CALLBACKS),
    ("policies", "RobustPolicy", TRACE_CALLBACKS),
    ("policies", "RedfPolicy", TRACE_CALLBACKS),
)

# spans whose per-call duration percentiles are reported
PERCENTILE_SPANS = ("sim.run_ctmc", "sim.run_trace")


class SetupDone(BaseException):
    """Raised at the first layer call of a set-up-only child."""


class Tracer:
    """In-memory spans: name id, parent index, start, end (parallel arrays)."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]

    def wrap(self, span_name, fn):
        nid = len(self.names)
        self.names.append(span_name)
        name_a, parent_a, start_a, end_a, stack = (
            self.name, self.parent, self.start, self.end, self.stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_a)
            name_a.append(nid)
            parent_a.append(stack[-1])
            end_a.append(0.0)
            stack.append(idx)
            start_a.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end_a[idx] = perf_counter()
                stack.pop()
        return traced

    def layer_stats(self):
        """Per span name: calls, busy (sum of durations), self time, percentiles."""
        import numpy as np
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - children
        stats = {}
        for nid, span_name in enumerate(self.names):
            mask = name == nid
            entry = stats.setdefault(span_name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += int(mask.sum())
            entry["busy_s"] += float(dur[mask].sum())
            entry["self_s"] += float(self_time[mask].sum())
            if span_name in PERCENTILE_SPANS and mask.any():
                entry["call_s_p50"] = float(np.percentile(dur[mask], 50))
                entry["call_s_p90"] = float(np.percentile(dur[mask], 90))
        return stats

    def dump(self, path):
        import numpy as np
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def rebind(original, replacement) -> None:
    """Replace every revsched module attribute bound to ``original``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "revsched" or mod_name.startswith("revsched.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class Probe:
    """Campaign-point attribution, engine outcome capture and counters."""

    def __init__(self, mode, queueing):
        self.mode = mode
        self.queueing = queueing
        self.t_first = None
        self.cache_empty_at_start = None
        self.points: list[dict] = []
        self.counts = {"optimize_evaluations": 0, "table_entries": 0, "dp_sweeps": 0,
                       "dp_states": 0, "ctmc_events": 0, "trace_jobs": 0,
                       "trace_busy_time": 0.0, "trace_useful_time": 0.0, "sampled_jobs": 0}

    def campaign(self, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if self.t_first is None:
                self.t_first = perf_counter()
                self.cache_empty_at_start = self.queueing._pi0_cached.cache_info().currsize == 0
                if self.mode == "setup":
                    raise SetupDone
            point = {"name": point_name(fn.__name__, args), "runs": 0, "arrivals": 0,
                     "flow_violations": 0}
            self.points.append(point)
            return fn(*args, **kwargs)
        return probed

    def engine(self, fn, trace_engine):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            m = fn(*args, **kwargs)
            point = self.points[-1]
            point["runs"] += 1
            point["arrivals"] += sum(m.arrivals)
            point["flow_violations"] += sum(
                1 for a, c, e, p in zip(m.arrivals, m.completions, m.expirations, m.still_pending)
                if a != c + e + p or p < 0)
            if trace_engine:
                self.counts["trace_jobs"] += sum(m.arrivals)
                self.counts["trace_busy_time"] += m.busy_time
                self.counts["trace_useful_time"] += m.useful_time
            else:
                self.counts["ctmc_events"] += (sum(m.arrivals) + sum(m.completions)
                                               + sum(m.expirations))
            return m
        return probed

    def counter(self, fn, key, measure):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[key] += measure(result)
            return result
        return counted


def point_name(campaign: str, args) -> str:
    """The campaign point's label, as in the CSV `experiment` column."""
    if campaign == "run_table1_experiment":
        return f"E{args[0]}"
    if campaign == "run_robust_experiment":
        return f"robust_s{args[0]:g}_i{args[1]:g}"
    return f"redf_{args[0]}_i{args[1]:g}"


# counters read from a layer's return value in trace mode: (key, measure)
COUNTERS = {
    ("allocation", "optimize"): (("optimize_evaluations", lambda r: r.evaluations),),
    ("zindex", "build_table"): (("table_entries", lambda t: sum(len(row) for row in t.z)),),
    ("dp", "solve"): (("dp_sweeps", lambda s: s.iterations), ("dp_states", lambda s: s.bias.size)),
    ("streams", "sample_trace"): (("sampled_jobs", len),),
}


def install(modules, probe, tracer):
    """Wrap layer bindings: probes outside, spans inside, so probe work does not
    count as the layer's busy time. Without a tracer only the campaign and
    engine probes are installed."""
    for mod_name, fn_name in TRACED_FUNCTIONS:
        original = getattr(modules[mod_name], fn_name)
        replacement = original
        if tracer is not None:
            replacement = tracer.wrap(f"{mod_name}.{fn_name}", original)
            for key, measure in COUNTERS.get((mod_name, fn_name), ()):
                replacement = probe.counter(replacement, key, measure)
        if fn_name in CAMPAIGNS:
            replacement = probe.campaign(replacement)
        elif mod_name == "sim":
            replacement = probe.engine(replacement, trace_engine=fn_name == "run_trace")
        if replacement is not original:
            rebind(original, replacement)
    if tracer is not None:
        for mod_name, cls_name, methods in TRACED_METHODS:
            cls = getattr(modules[mod_name], cls_name)
            for method in methods:
                setattr(cls, method,
                        tracer.wrap(f"policies.{cls_name}.{method}", getattr(cls, method)))


def main() -> int:
    spec = json.loads(sys.argv[1])
    mode = spec["mode"]
    result = {"mode": mode, "exit_code": None, "error": None}
    try:
        from revsched import cli, queueing
        import revsched
        result["revsched_file"] = revsched.__file__
        modules = {name: sys.modules[f"revsched.{name}"] for name in
                   ("presets", "sim", "dp", "streams", "queueing", "allocation",
                    "zindex", "policies")}
        probe = Probe(mode, queueing)
        tracer = Tracer() if mode == "trace" else None
        install(modules, probe, tracer)
        entry = tracer.wrap("cli.main", cli.main) if tracer else cli.main
        try:
            result["exit_code"] = entry(spec["argv"])
        except SetupDone:
            result["exit_code"] = 0
        t_end = perf_counter()
        result.update(t_first=probe.t_first, t_end=t_end, points=probe.points,
                      cache_empty_at_start=probe.cache_empty_at_start)
        if mode != "setup":
            info = queueing._pi0_cached.cache_info()
            result.update(maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                          pi0_cache={"hits": info.hits, "misses": info.misses})
        if tracer is not None:
            result.update(layers=tracer.layer_stats(), counts=probe.counts,
                          spans=len(tracer.name))
            tracer.dump(spec["spans"])
    except Exception as exc:  # reported to the parent, which fails the child's points
        import traceback
        result["error"] = f"{type(exc).__name__}: {exc}"
        result["traceback"] = traceback.format_exc()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0 if result["error"] is None and result["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
