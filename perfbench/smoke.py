"""Smoke test of the benchmark itself, at one campaign point per workload.

    python3 perfbench/smoke.py

Not collected by pytest (the file name does not match test_*.py), so it adds
nothing to the unit-test time. It runs run.py --tiny on every workload in both
modes and checks that:
  * the last stdout line is the result JSON with exactly the keys correct,
    attempted, failed and metrics, and its metrics are exactly
    BENCHMARK.json's names with their units;
  * every metric name, plus failed_frac and oracle_relerr, is printed with its
    unit in the readable table;
  * each layer a workload is built to exercise reports calls, layers it must
    bypass report none, and the callers' own bindings are traced (presets'
    sample_trace, zindex's pi0);
  * a wrong reference hash fails every point (failed_frac = 1) and the right
    one fails none;
  * a directory holding only BENCHMARK.json and perfbench/ exits non-zero
    without a result.
Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# layers each workload must reach (non-zero calls) and must not reach (zero)
QUEUE_POLICIES = ("policies.FapQueuePolicy.service_rates", "policies.ZQueuePolicy.service_rates")
ANALYTIC = ("queueing.pi0", "allocation.optimize", "zindex.build_table")
TRACE_ENGINE = ("streams.sample_trace", "sim.run_trace",
                *(f"policies.ZTracePolicy.{cb}" for cb in ("choose", "on_arrival",
                                                           "on_completion")))
EXPECTED = {
    "table1_ctmc": (ANALYTIC + ("sim.run_ctmc",) + QUEUE_POLICIES,
                    ("dp.solve", "sim.run_trace", "streams.sample_trace")),
    "oracle_sdp": (ANALYTIC + ("sim.run_ctmc", "dp.solve") + QUEUE_POLICIES,
                   ("sim.run_trace", "streams.sample_trace")),
    "robust_trace": (ANALYTIC + TRACE_ENGINE + ("policies.RobustPolicy.choose",
                                                "policies.RobustPolicy.on_arrival"),
                     ("dp.solve", "sim.run_ctmc", "policies.RedfPolicy.choose")),
    "redf_trace": (ANALYTIC + TRACE_ENGINE + ("policies.RedfPolicy.choose",
                                              "policies.RedfPolicy.on_arrival"),
                   ("dp.solve", "sim.run_ctmc", "policies.RobustPolicy.choose")),
}

problems: list[str] = []


def check(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)
        print(f"FAIL {message}", flush=True)


def bench(workload, trace, extra=(), script=run.BENCH / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--workload", workload, "--seed", "0",
                           "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def check_run(workload, trace):
    proc, lines = bench(workload, trace)
    check(proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode} "
                                f"{proc.stderr[-500:]}")
    if proc.returncode != 0:
        return None
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} trace={trace}: not correct: {lines[-12:-1]}")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    check({m: v["unit"] for m, v in result["metrics"].items()}
          == {m["name"]: m["unit"] for m in wanted},
          f"{workload} trace={trace}: metric names or units differ from BENCHMARK.json")
    table = "\n".join(lines[:-1])
    for m in wanted + [{"name": "failed_frac", "unit": "ratio"},
                       {"name": "oracle_relerr", "unit": "ratio"}]:
        check(any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                  for line in table.splitlines()),
              f"{workload} trace={trace}: {m['name']} [{m['unit']}] not printed")
    if not trace:
        check(all(v["value"] > 0 for v in result["metrics"].values()),
              f"{workload}: an end-to-end metric is 0")
        return result
    metrics = {m: v["value"] for m, v in result["metrics"].items()}
    must, must_not = EXPECTED[workload]
    for layer in must:
        check(metrics[f"{layer}.calls"] > 0, f"{workload}: {layer} has no calls")
    for layer in must_not:
        check(metrics[f"{layer}.calls"] == 0, f"{workload}: {layer} was called")
    # the callers' own bindings are traced: presets' sample_trace, zindex's pi0
    check(metrics["streams.sample_trace.calls"] == metrics["sim.run_trace.calls"],
          f"{workload}: sample_trace calls != run_trace calls")
    check(metrics["queueing.pi0.calls"] >= 2 * metrics["zindex.build_table.entries"] > 0,
          f"{workload}: fewer than two pi0 calls per priority-table entry")
    if workload == "oracle_sdp":
        check(0 < metrics["oracle_relerr"] <= 1e-4, f"oracle_relerr {metrics['oracle_relerr']}")
    return result


def check_reference_hash():
    refs = json.loads(run.DEFAULT_REFERENCES.read_text())
    wl = run.TINY_WORKLOADS["table1_ctmc"]
    path = run.RESULTS / "smoke-references.json"
    for sha, expect_failed in (("0" * 64, True), (None, False)):
        if sha is None:  # the digest the program really produces
            report = json.loads((run.RESULTS / "table1_ctmc-seed0-trace0.result.json").read_text())
            sha = report["csv_sha256"]
        refs["csv_sha256"] = {"table1_ctmc": {"args": list(wl.args), "seed": 0, "sha256": sha}}
        path.write_text(json.dumps(refs))
        proc, lines = bench("table1_ctmc", 0, ("--references", str(path)))
        result = json.loads(lines[-1])
        report = json.loads((run.RESULTS / "table1_ctmc-seed0-trace0.result.json").read_text())
        if expect_failed:
            check(result["failed"] == result["attempted"] and report["failed_frac"] == 1.0
                  and not result["correct"], "a wrong reference hash did not fail every point")
        else:
            check(result["failed"] == 0 and report["failed_frac"] == 0.0,
                  "the recorded hash failed a point")


def check_bare_directory():
    bare = run.RESULTS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH.glob("*.*"):
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc, lines = bench("table1_ctmc", 0, script=bare / "perfbench" / "run.py")
    check(proc.returncode != 0, "a directory without the program exited 0")
    check(not lines or not lines[-1].startswith("{"), "a directory without the program "
                                                      "printed a result")
    shutil.rmtree(bare)


def main() -> int:
    run.RESULTS.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
            print(f"ran {workload} trace={trace}", flush=True)
    check_reference_hash()
    check_bare_directory()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
