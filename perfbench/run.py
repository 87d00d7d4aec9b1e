"""Benchmark of the revsched lab: `revsched experiment` campaigns, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the checkout root is the parent of this file's
directory, and the program is imported from its ``src/``. Each campaign runs in
a fresh single-threaded child (``child.py``) through ``revsched.cli.main``,
one child at a time, with ``--seed N`` passed to the campaign. Children are
started until about ``--seconds`` have passed (at least two per run).

--trace 0  untraced campaign children, each after a set-up-only child; prints
           the end-to-end metrics of BENCHMARK.json.
--trace 1  untraced and traced children alternate; prints the per-layer
           metrics of BENCHMARK.json, from the traced children.

Every child's output is checked (see ``check_child``); a failed check fails
its campaign points, which are the operations counted in ``attempted`` and
``failed``. Results with provenance go to ``perfbench/results/``. The last
stdout line is the JSON result; the lines before it are a readable table.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
DEFAULT_REFERENCES = BENCH / "references.json"

SETUP_SPAWNS = 8        # least number of set-up-only children per untraced run
MIN_CHILDREN = 2        # campaign children per run, whatever --seconds says
RUN_DEADLINE_S = 170.0  # no child may run past this point of a run

# rows whose values come from the DP oracle; checked against the reference
# gains with a tolerance instead of by hash
ORACLE_ROWS = ("sdp_gain", "loss_policyz_vs_sdp_pct")


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]        # `revsched experiment` arguments, without --seed/--out
    points: tuple[str, ...]      # campaign points, as labelled in the CSV
    rows_per_point: int
    runs_per_point: int          # engine replications per point


def _table1(ids, sdp=False):
    args = ("table1", "--ids", ",".join(map(str, ids)), "--reps", "2") + (("--sdp",) if sdp else ())
    return Workload(args, tuple(f"E{i}" for i in ids), 7 if sdp else 5, 4)


def _robust(slacks, intensities):
    args = ("robust", "--slack", *slacks, "--intensity", *intensities, "--reps", "2")
    return Workload(args, tuple(f"robust_s{s}_i{i}" for s in slacks for i in intensities), 5, 6)


def _redf(intensities):
    args = ("redf", "--intensity", *intensities, "--reps", "2")
    return Workload(args, tuple(f"redf_{m}_i{i}" for m in ("random", "linear")
                                for i in intensities), 3, 4)


WORKLOADS = {
    "table1_ctmc": _table1((1, 6, 9, 12, 15)),
    "oracle_sdp": _table1((1, 7, 13), sdp=True),
    "robust_trace": _robust(("2", "4"), ("1.5", "3")),
    "redf_trace": _redf(("1.5", "3")),
}
# one point each, for the smoke test
TINY_WORKLOADS = {
    "table1_ctmc": _table1((1,)),
    "oracle_sdp": _table1((1,), sdp=True),
    "robust_trace": _robust(("2",), ("1.5",)),
    "redf_trace": _redf(("1.5",)),
}


# ---------------------------------------------------------------------------
# children

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(mode: str, wl: Workload, seed: int, tag: str, timeout: float) -> dict:
    """Run one child to completion; returns its result plus spawn bookkeeping.

    The child's CSV, result and span dump are results/<tag>.*, replaced by the
    next child with the same tag."""
    paths = {ext: RESULTS / f"{tag}.{ext}" for ext in ("csv", "json", "npz")}
    for path in paths.values():
        path.unlink(missing_ok=True)
    argv = ["experiment", *wl.args, "--seed", str(seed), "--out", str(paths["csv"])]
    spec = {"argv": argv, "mode": mode, "result": str(paths["json"]), "spans": str(paths["npz"])}
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
        returncode, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        returncode, stderr = None, f"timed out after {timeout:.0f} s"
    try:
        result = json.loads(paths["json"].read_text())
    except (OSError, json.JSONDecodeError):
        result = {"error": "no result file"}
    result.update(mode=mode, t_spawn=t_spawn, returncode=returncode, stderr=stderr[-2000:],
                  csv_path=str(paths["csv"]))
    return result


def setup_s(child: dict) -> float | None:
    return child["t_first"] - child["t_spawn"] if child.get("t_first") else None


def wall_s(child: dict) -> float | None:
    return child["t_end"] - child["t_first"] if child.get("t_first") and child.get("t_end") else None


# ---------------------------------------------------------------------------
# output checks

def oracle_digest(text: str) -> tuple[str, dict[str, float]]:
    """sha256 of the CSV without DP-derived rows, and the sdp gain per point."""
    kept, gains = [], {}
    for line in text.splitlines(keepends=True):
        cells = next(csv.reader([line]))
        if len(cells) > 7 and cells[7] in ORACLE_ROWS:
            if cells[7] == "sdp_gain":
                gains[cells[0]] = float(cells[8])
            continue
        kept.append(line)
    return hashlib.sha256("".join(kept).encode()).hexdigest(), gains


def check_child(wl: Workload, child: dict, seed: int, refs: dict, wl_name: str) -> dict:
    """Check one campaign child; returns failed points with reasons, digest, relerr."""
    failures: dict[str, str] = {}

    def fail_all(reason):
        for p in wl.points:
            failures.setdefault(p, reason)

    out = {"failures": failures, "csv_sha256": None, "oracle_relerr": None}
    if child.get("error") or child.get("returncode") != 0 or child.get("exit_code") != 0:
        fail_all(f"child failed: {child.get('error')} rc={child.get('returncode')} "
                 f"{child.get('stderr', '')[-300:]}")
        return out
    if not Path(child.get("revsched_file", "")).resolve().is_relative_to(ROOT / "src"):
        fail_all(f"revsched imported from {child.get('revsched_file')}, not this checkout")
    if child.get("cache_empty_at_start") is not True:
        fail_all("pi0 cache was not empty at the first layer call")
    try:
        text = Path(child["csv_path"]).read_text()
    except OSError as exc:
        fail_all(f"no CSV: {exc}")
        return out
    try:
        digest, gains = oracle_digest(text)
        rows: dict[str, list[dict]] = {}
        for row in csv.DictReader(io.StringIO(text)):
            cells = [row[col] for col in ("mean_revenue_rate", "stddev", "ci95_lo",
                                          "ci95_hi", "value")]
            if not all(math.isfinite(float(cell)) for cell in cells if cell):
                fail_all(f"non-finite value in {row}")
            rows.setdefault(row["experiment"], []).append(row)
    except (ValueError, KeyError) as exc:
        fail_all(f"malformed CSV: {exc!r}")
        return out
    out["csv_sha256"] = digest
    probed = {p["name"]: p for p in child.get("points", [])}
    for p in wl.points:
        if len(rows.get(p, [])) != wl.rows_per_point:
            failures.setdefault(p, f"{len(rows.get(p, []))} CSV rows, expected {wl.rows_per_point}")
        info = probed.get(p)
        if info is None or info["runs"] != wl.runs_per_point:
            failures.setdefault(p, f"engine runs {info and info['runs']}, "
                                   f"expected {wl.runs_per_point}")
        elif info["flow_violations"]:
            failures.setdefault(p, "arrivals != completions + expirations + pending")
    if set(rows) - set(wl.points):
        fail_all(f"unexpected CSV points {sorted(set(rows) - set(wl.points))}")
    oracle = refs.get("oracle", {})
    if gains:
        errors = {}
        for p, gain in gains.items():
            ref = oracle.get("gains", {}).get(p)
            if ref is None:
                failures.setdefault(p, "no reference gain")
                continue
            errors[p] = abs(gain - ref) / abs(ref)
            if errors[p] > oracle["relerr_max"]:
                failures.setdefault(p, f"sdp_gain relative error {errors[p]:.3g} "
                                       f"> {oracle['relerr_max']:g}")
        out["oracle_relerr"] = max(errors.values(), default=None)
    ref = refs.get("csv_sha256", {}).get(wl_name)
    if ref and ref["args"] == list(wl.args) and ref["seed"] == seed and ref["sha256"] != digest:
        fail_all(f"csv_sha256 {digest[:12]} != reference {ref['sha256'][:12]}")
    return out


# ---------------------------------------------------------------------------
# metrics

def median(values):
    values = [v for v in values if v is not None]
    return (statistics.median(values) if values else 0.0), len(values)


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(setup_children, runs):
    return {
        "wall_s": median([wall_s(c) for c in runs]),
        "setup_s": median([setup_s(c) for c in setup_children + runs]),
        "jobs_per_s": median([ratio(sum(p["arrivals"] for p in c["points"]), wall_s(c))
                              if wall_s(c) else None for c in runs]),
        "peak_rss_mb": median([c["maxrss_kb"] / 1024 if c.get("maxrss_kb") else None
                               for c in runs]),
    }


def layer_metrics(child: dict) -> dict[str, float]:
    """Per-layer metrics of one traced child."""
    layers, counts = child["layers"], child["counts"]

    def get(span, key="calls"):
        return layers.get(span, {}).get(key, 0)

    m = {}
    for span in ("queueing.pi0", "allocation.optimize", "zindex.build_table", "dp.solve",
                 "sim.run_ctmc", "streams.sample_trace", "sim.run_trace",
                 *(s for s in layers if s.startswith("policies."))):
        m[f"{span}.calls"] = get(span)
        m[f"{span}.busy_s"] = get(span, "busy_s")
    cache = child["pi0_cache"]
    m["queueing.pi0.cache_misses"] = cache["misses"]
    m["queueing.pi0.hit_ratio"] = ratio(cache["hits"], cache["hits"] + cache["misses"])
    m["allocation.optimize.evaluations"] = counts["optimize_evaluations"]
    m["zindex.build_table.entries"] = counts["table_entries"]
    m["dp.solve.sweeps"] = counts["dp_sweeps"]
    m["dp.solve.sweep_ms"] = 1000 * ratio(get("dp.solve", "busy_s"), counts["dp_sweeps"])
    m["dp.solve.states"] = ratio(counts["dp_states"], get("dp.solve"))
    for span, work, key in (("sim.run_ctmc", "events", "ctmc_events"),
                            ("sim.run_trace", "jobs", "trace_jobs")):
        m[f"{span}.self_s"] = get(span, "self_s")
        m[f"{span}.{work}"] = counts[key]
        m[f"{span}.{work}_per_s"] = ratio(counts[key], get(span, "busy_s"))
        m[f"{span}.call_s_p50"] = get(span, "call_s_p50")
        m[f"{span}.call_s_p90"] = get(span, "call_s_p90")
    m["sim.run_trace.useful_ratio"] = ratio(counts["trace_useful_time"], counts["trace_busy_time"])
    m["streams.sample_trace.jobs"] = counts["sampled_jobs"]
    m["streams.sample_trace.jobs_per_s"] = ratio(counts["sampled_jobs"],
                                                 get("streams.sample_trace", "busy_s"))
    m["presets.self_s"] = sum(v["self_s"] for k, v in layers.items() if k.startswith("presets."))
    m["presets.report.busy_s"] = get("presets.report_text", "busy_s")
    return m


# ---------------------------------------------------------------------------
# provenance

def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_state():
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], env=env, capture_output=True,
                              text=True, timeout=30).stdout.strip()
    try:
        return {"commit": git("rev-parse", "HEAD") or None,
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy"), "platform": platform.platform(),
            "git": _git_state(), "source_sha256": _source_sha256(), "seed": seed,
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", default=str(DEFAULT_REFERENCES),
                        help="reference hashes and oracle gains (JSON)")
    parser.add_argument("--tiny", action="store_true",
                        help="one campaign point per workload (smoke test)")
    return parser.parse_args(argv)


def measure(args, wl: Workload, refs: dict):
    """Spawn the run's children; returns set-up children, campaign children and
    the check of each campaign child.

    Set-up spawns are interleaved with the campaign children, so that both
    sample the whole run. Another round starts only if it is expected to end
    nearer to --seconds than the run would end without it."""
    t_run = time.perf_counter()

    def remaining():
        return RUN_DEADLINE_S - (time.perf_counter() - t_run)

    def spawn_setup():
        setup_children.append(spawn("setup", wl, args.seed, f"{args.workload}-setup",
                                    remaining()))

    modes = ("run", "trace") if args.trace else ("run",)
    setup_children, children, checks, rounds = [], [], [], []
    while remaining() > 0 and (len(children) < MIN_CHILDREN or time.perf_counter() - t_run
                               + statistics.median(rounds) / 2 < args.seconds):
        t_round = time.perf_counter()
        if not args.trace:
            spawn_setup()
        mode = modes[len(children) % len(modes)]
        children.append(spawn(mode, wl, args.seed, f"{args.workload}-{mode}", remaining()))
        # before the next child of this mode replaces the CSV
        checks.append(check_child(wl, children[-1], args.seed, refs, args.workload))
        rounds.append(time.perf_counter() - t_round)
    while not args.trace and len(setup_children) < SETUP_SPAWNS and remaining() > 0:
        spawn_setup()
    return setup_children, children, checks


def failed_points(wl: Workload, checks: list[dict]) -> dict[str, str]:
    """Failed (child, point) pairs with reasons; the same seed must give the
    same CSV in every child."""
    failures = {}
    first = next((chk["csv_sha256"] for chk in checks if chk["csv_sha256"]), None)
    for k, chk in enumerate(checks):
        for point, reason in chk["failures"].items():
            failures[f"child{k}:{point}"] = reason
        if chk["csv_sha256"] != first:
            for point in wl.points:
                failures.setdefault(f"child{k}:{point}", "CSV differs between children")
    return failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "revsched" / "cli.py").is_file():
        print(f"error: no revsched source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads(Path(args.references).read_text())
    wl = (TINY_WORKLOADS if args.tiny else WORKLOADS)[args.workload]
    RESULTS.mkdir(exist_ok=True)

    setup_children, children, checks = measure(args, wl, refs)
    failures = failed_points(wl, checks)
    attempted, failed = len(children) * len(wl.points), len(failures)
    relerrs = [chk["oracle_relerr"] for chk in checks if chk["oracle_relerr"] is not None]
    extra = {"failed_frac": (failed / attempted, attempted),
             "oracle_relerr": (max(relerrs, default=0.0), len(relerrs))}
    runs = [c for c in children if c["mode"] == "run"]
    if args.trace:
        per_child = [layer_metrics(c) for c in children if c["mode"] == "trace" and c.get("layers")]
        medians = {name: median([m[name] for m in per_child]) for name in
                   (per_child[0] if per_child else {})}
        traced_wall = median([wall_s(c) for c in children if c["mode"] == "trace"])[0]
        untraced_wall = median([wall_s(c) for c in runs])[0]
        medians["trace.overhead_frac"] = (ratio(traced_wall, untraced_wall) - 1
                                          if untraced_wall else 0.0, len(per_child))
        medians["oracle_relerr"] = extra["oracle_relerr"]
    else:
        medians = end_to_end(setup_children, runs)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": medians.get(m["name"], (0.0, 0))[0], "unit": m["unit"]}
               for m in wanted}
    csv_sha256 = checks[0]["csv_sha256"] if checks else None

    report = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "tiny": args.tiny, "cli_args": ["experiment", *wl.args, "--seed", str(args.seed)],
        "provenance": provenance(args.seed),
        "metrics": {name: {**metrics[name], "samples": medians.get(name, (0, 0))[1]}
                    for name in metrics},
        "failed_frac": extra["failed_frac"][0], "oracle_relerr": extra["oracle_relerr"][0],
        "csv_sha256": csv_sha256, "attempted": attempted, "failed": failed,
        "failures": failures,
        "children": [{k: c.get(k) for k in ("mode", "returncode", "error", "t_spawn",
                                             "t_first", "t_end", "maxrss_kb", "spans")}
                     for c in setup_children + children],
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{tag}.result.json").write_text(json.dumps(report, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"children {len(children)}  points {attempted}  failed {failed}")
    for name, (value, n) in {**{k: medians.get(k, (0.0, 0)) for k in metrics}, **extra}.items():
        unit = metrics[name]["unit"] if name in metrics else "ratio"
        print(f"  {name:48s} {value:>14.6g} {unit:8s} n={n}")
    print(f"  {'csv_sha256':48s} {csv_sha256}")
    for key, reason in list(failures.items())[:10]:
        print(f"  FAILED {key}: {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
