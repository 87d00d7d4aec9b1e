"""Command-line front end.

Subcommands:
  fap <workload.json>          optimal fractional allocation as CSV
  ztable <workload.json>       priority table dump as CSV
  simulate <run.json>          replicated simulation of one configuration
  sdp <workload.json>          optimal two-stream gain via value iteration
  experiment <name>            packaged benchmark campaigns

All randomness flows from the configured seed; repeating any invocation
with the same seed yields byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import allocation, dp, policies, presets, zindex
from .errors import ConfigError, NumericalError, RevschedError, fields
from .streams import (WorkloadSpec, is_overloaded, load_json, load_workload,
                      require_budget, utilization, workload_from_dict)


def _write_output(text: str, out_path: str | None) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        Path(out_path).write_text(text)
    except (OSError, ValueError) as exc:  # a directory, a missing parent, a NUL byte
        raise ConfigError(f"cannot write {out_path}: {exc}") from exc


def cmd_fap(args) -> int:
    workload = load_workload(args.workload)
    result = allocation.optimize(list(workload.streams), tol=args.tol)
    lines = ["stream,f_star", *(f"{i},{repr(f)}" for i, f in
                                enumerate(result.f_star.fractions)),
             f"v_star,{repr(result.v_star)}",
             f"evaluations,{result.evaluations}"]
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_ztable(args) -> int:
    workload = load_workload(args.workload)
    alloc = args.allocation
    if alloc != "auto":
        try:
            alloc = [float(tok) for tok in alloc.split(",")]
        except ValueError as exc:
            raise ConfigError(f"cannot parse allocation {args.allocation!r}") from exc
    f = policies.resolve_allocation(workload.streams, alloc)
    table = zindex.build_table(workload.streams, f, args.lmax)
    lines = ["stream,l,z"]
    for i, row in enumerate(table.z):
        lines.extend(f"{i},{l + 1},{repr(z)}" for l, z in enumerate(row))
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_sdp(args) -> int:
    workload = load_workload(args.workload)
    if len(workload.streams) != 2:
        raise ConfigError("the dynamic-programming oracle handles exactly two streams")
    model = dp.SdpModel(workload.streams[0], workload.streams[1], args.cap)
    solution = dp.solve(model, tol=args.tol)
    lines = ["quantity,value",
             f"gain,{repr(solution.gain)}",
             f"iterations,{solution.iterations}",
             f"cap,{solution.cap}",
             f"tail_bound,{repr(solution.tail_bound)}",
             f"gain_err,{repr(solution.gain_err)}"]
    if args.policy_table:
        lines.append("l1,l2,action")
        cap = solution.cap
        lines.extend(f"{l1},{l2},{int(solution.policy[l1, l2])}"
                     for l1 in range(cap + 1) for l2 in range(cap + 1))
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_simulate(args) -> int:
    config = fields(load_json(args.config, "run config"), "run config", ("policy",),
                    ("workload", "workload_file", "horizon", "seed", "engine",
                     "replications", "label", "out"))
    # null stands for an absent path
    for key in ("workload_file", "out"):
        if config.get(key) is not None and not isinstance(config[key], str):
            raise ConfigError(f"run config {key!r} must be a path string, got {config[key]!r}")
    if config.get("workload_file") is not None:
        workload = load_workload(config["workload_file"])
    elif "workload" in config:
        workload = workload_from_dict(config["workload"])
    else:
        raise ConfigError("run config needs 'workload' or 'workload_file'")
    if "horizon" in config:
        workload = WorkloadSpec(workload.streams, config["horizon"], workload.seed)
    if "seed" in config:
        workload = workload.with_seed(config["seed"])
    # any key may sit beside the name: make_policy checks them against the policy
    params = dict(fields(config["policy"], "policy", ("name",), config["policy"]))
    name = params.pop("name")
    engine = config.get("engine", "ctmc" if name in policies.CTMC_POLICIES else "trace")
    if name == "policyz" and not is_overloaded(workload):
        print(f"warning: utilization {utilization(workload):.3f} <= 1; "
              "EDF is the prescribed policy for underloaded systems",
              file=sys.stderr)
    policy = policies.make_policy(name, params, workload.streams, engine)
    if isinstance(policy, policies.FapRoundRobinPolicy):
        require_budget(workload.horizon / policy.quantum, "round-robin cycles")
    reps = config.get("replications", 20)  # both runners check it, in sim.run_replications
    run = presets.run_ctmc_policy if engine == "ctmc" else presets.run_trace_policy
    summary = run(workload, {name: policy}, reps)[name]
    rows = [presets.summary_row(config.get("label", "run"), name, summary)]
    _write_output(presets.report_text(rows), config.get("out") or args.out)
    return 0


def _parse_ids(spec: str) -> list[int]:
    """Table1 ids from ``1,7,13`` or ``E1,E7,E13``; empty items are skipped,
    but at least one id must remain, and every id is checked before any row
    runs."""
    tokens = [tok.strip() for tok in spec.split(",")]
    try:
        ids = [int(tok.removeprefix("E")) for tok in tokens if tok]
    except ValueError as exc:
        raise ConfigError(f"cannot parse experiment ids {spec!r}") from exc
    if not ids:
        raise ConfigError(f"experiment ids {spec!r} name no experiment")
    for eid in ids:
        presets.table1_workload(eid)  # raises on an unknown id
    return ids


def cmd_experiment(args) -> int:
    rows: list[dict] = []
    # an absent --reps takes each campaign's default; any given count,
    # 0 included, goes to the runners' check, in sim.run_replications
    reps = {} if args.reps is None else {"reps": args.reps}
    if args.name == "table1":
        ids = sorted(presets.TABLE1_ROWS) if args.ids is None else _parse_ids(args.ids)
        for eid in ids:
            outcome = presets.run_table1_experiment(
                eid, seed=args.seed, include_sdp=args.sdp, **reps)
            rows.extend(presets.table1_rows(outcome))
    elif args.name == "robust":
        for slack in args.slack:
            for intensity in args.intensity:
                outcome = presets.run_robust_experiment(
                    slack, intensity, seed=args.seed,
                    deadline_rule=args.deadline_rule, **reps)
                rows.extend(presets.paired_rows(
                    outcome, ("robust_exact", "robust_mean")))
    else:  # redf
        for model in ("random", "linear"):
            for intensity in args.intensity:
                outcome = presets.run_redf_experiment(
                    model, intensity, seed=args.seed, **reps)
                rows.extend(presets.paired_rows(outcome, ("redf",)))
    _write_output(presets.report_text(rows), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revsched",
        description="Revenue-maximizing overload scheduling lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fap = sub.add_parser("fap", help="optimal fractional allocation")
    p_fap.add_argument("workload")
    p_fap.add_argument("--tol", type=float, default=1e-3)
    p_fap.add_argument("--out")
    p_fap.set_defaults(func=cmd_fap)

    p_zt = sub.add_parser("ztable", help="dump the priority table")
    p_zt.add_argument("workload")
    p_zt.add_argument("--lmax", type=int, default=zindex.DEFAULT_LMAX)
    p_zt.add_argument("--allocation", default="auto",
                      help="'auto' or comma-separated fractions")
    p_zt.add_argument("--out")
    p_zt.set_defaults(func=cmd_ztable)

    p_sim = sub.add_parser("simulate", help="replicated simulation from a run config")
    p_sim.add_argument("config")
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=cmd_simulate)

    p_sdp = sub.add_parser("sdp", help="two-stream optimal gain")
    p_sdp.add_argument("workload")
    p_sdp.add_argument("--cap", type=int, default=None,
                       help="queue-length cap (default: sized from the analytic tail)")
    p_sdp.add_argument("--tol", type=float, default=dp.DEFAULT_TOL)
    p_sdp.add_argument("--policy-table", action="store_true")
    p_sdp.add_argument("--out")
    p_sdp.set_defaults(func=cmd_sdp)

    p_exp = sub.add_parser("experiment", help="packaged benchmark campaigns")
    p_exp.add_argument("name", choices=["table1", "robust", "redf"])
    p_exp.add_argument("--ids", help="comma-separated experiment ids (table1)")
    p_exp.add_argument("--intensity", type=float, nargs="+",
                       default=list(presets.DEFAULT_INTENSITIES))
    p_exp.add_argument("--slack", type=float, nargs="+", default=[2.0, 4.0])
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--reps", type=int, default=None)
    p_exp.add_argument("--sdp", action="store_true",
                       help="include the dynamic-programming oracle (table1)")
    p_exp.add_argument("--deadline-rule", choices=["exponential", "proportional"],
                       default="exponential")
    p_exp.add_argument("--out", help="write CSV here instead of stdout")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except RevschedError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
