"""End-to-end acceptance gate.

Ten numbered criteria cover the analytic kernel, the fractional-allocation
reproduction, engine-versus-formula consistency, the priority policy's
improvement over its static baseline, its loss against the dynamic-programming
oracle, oracle self-consistency, the two benchmark campaign suites,
determinism of the command-line interface, and the structural properties of
the priority index. Each test prints one PASS/FAIL line (visible even under
output capture) and then asserts, so a red criterion is both visible in the
log and reflected in the exit status.

The expensive simulation campaigns are shared across criteria through
session-scoped fixtures; the full module takes tens of minutes.
"""

import itertools
import json
import math

import pytest

from revsched import allocation, dp, policies, presets, zindex
from revsched.cli import main
from revsched.queueing import QueueParams, pi0, stationary
from revsched.streams import StreamSpec


def verdict(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance] criterion {number:>2}: "
              f"{'PASS' if ok else 'FAIL'}  {detail}")


# ---------------------------------------------------------------------------
# shared campaigns

SDP_IDS = (1, 7, 13)


@pytest.fixture(scope="session")
def table1_outcomes():
    """All 15 two-stream rows: allocation, static and dynamic policy runs."""
    return {eid: presets.run_table1_experiment(
                eid, seed=0, reps=20, include_sdp=(eid in SDP_IDS[1:]))
            for eid in sorted(presets.TABLE1_ROWS)}


@pytest.fixture(scope="session")
def e1_sdp():
    """Oracle solutions for row E1 at two caps plus a replay simulation."""
    workload = presets.table1_workload(1)
    s1, s2 = workload.streams
    sol_base = dp.solve(dp.SdpModel(s1, s2, cap=150))
    sol_doubled = dp.solve(dp.SdpModel(s1, s2, cap=300))
    replay = presets.run_ctmc_policy(workload, {"sdp": dp.SdpQueuePolicy(sol_base)}, 20)["sdp"]
    return sol_base, sol_doubled, replay


@pytest.fixture(scope="session")
def robust_outcomes():
    return {(slack, intensity): presets.run_robust_experiment(
                slack, intensity, seed=0, reps=50)
            for slack in (2.0, 4.0) for intensity in (1.5, 2.0, 3.0)}


@pytest.fixture(scope="session")
def redf_outcomes():
    return {(model, intensity): presets.run_redf_experiment(
                model, intensity, seed=0, reps=50)
            for model in ("random", "linear") for intensity in (1.5, 2.0, 3.0)}


# ---------------------------------------------------------------------------
# 1. analytic kernel

def test_criterion_01_analytic_kernel(capsys):
    worst_pi0 = 0.0
    rs = [0.05 * (k + 1) for k in range(10)]
    ds = [0.02 * (k + 1) for k in range(10)]
    for r in rs:
        for d in ds:
            got = pi0(QueueParams(r, 0.0, d))
            want = math.exp(-r / d)
            worst_pi0 = max(worst_pi0, abs(got - want) / want)

    worst_sum = 0.0
    worst_balance = 0.0
    params = [QueueParams(1 / 350, 1 / 1200, 1 / 1000),
              QueueParams(1 / 350, 1 / 600, 1 / 250),
              QueueParams(1 / 165, 1 / 2000, 1 / 500),
              QueueParams(0.004, 1 / 400, 1 / 3200)]
    for p in params:
        probs = [stationary(p, l) for l in range(400)]
        worst_sum = max(worst_sum, abs(sum(probs) - 1.0))
        for l in range(60):
            inflow = p.arrival_rate * probs[l]
            outflow = (p.aggregate_service + (l + 1) * p.deadline_rate) * probs[l + 1]
            if inflow > 0:
                worst_balance = max(worst_balance, abs(inflow - outflow) / inflow)

    ok = worst_pi0 <= 1e-10 and worst_sum <= 1e-9 and worst_balance <= 1e-9
    verdict(capsys, 1, ok,
            f"closed-form rel err {worst_pi0:.2e} (<=1e-10), "
            f"normalization err {worst_sum:.2e} (<=1e-9), "
            f"detailed-balance rel err {worst_balance:.2e} (<=1e-9)")
    assert ok


# ---------------------------------------------------------------------------
# 2. fractional-allocation reproduction

def test_criterion_02_reference_allocations(table1_outcomes, capsys):
    misses = []
    for eid, outcome in table1_outcomes.items():
        ref = presets.table1_reference_f1(eid)
        got = outcome.f_star[0]
        if abs(got - ref) > 0.02:
            misses.append(f"E{eid}: {got:.3f} vs {ref:.2f}")
    ok = not misses
    verdict(capsys, 2, ok,
            f"{15 - len(misses)}/15 rows within +-0.02 of the reference "
            f"share" + (f"; off: {'; '.join(misses)}" if misses else ""))
    assert ok, misses


# ---------------------------------------------------------------------------
# 3. engine versus formula

def test_criterion_03_engine_matches_formula(capsys):
    details = []
    ok = True
    for eid in (1, 6, 15):
        workload = presets.table1_workload(eid, seed=0, horizon=1e6)
        result = allocation.optimize(list(workload.streams))
        summary = presets.run_ctmc_policy(
            workload, {"fap": policies.FapQueuePolicy(result.f_star)}, 20)["fap"]
        inside = summary.ci95_lo <= result.v_star <= summary.ci95_hi
        close = abs(summary.mean_revenue_rate - result.v_star) <= 0.02 * result.v_star
        ok = ok and (inside or close)
        details.append(f"E{eid} {'CI' if inside else ('2%' if close else 'MISS')}")
    verdict(capsys, 3, ok, "analytic rate vs simulated CI: " + ", ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 4. dynamic priority policy versus its static baseline

def test_criterion_04_priority_beats_static_allocation(table1_outcomes, capsys):
    gains = {eid: o.improvement for eid, o in table1_outcomes.items()}
    short = [f"E{eid}: {g:.1f}%" for eid, g in gains.items() if g < 10.0]
    ok = not short
    lo, hi = min(gains.values()), max(gains.values())
    verdict(capsys, 4, ok,
            f"paired improvement {lo:.2f}%..{hi:.2f}% over 15 rows "
            f"(need >=10% each)" + (f"; short: {'; '.join(short)}" if short else ""))
    assert ok, short


# ---------------------------------------------------------------------------
# 5. loss against the dynamic-programming oracle

def test_criterion_05_loss_vs_oracle(table1_outcomes, e1_sdp, capsys):
    gains = {1: e1_sdp[0].gain,
             7: table1_outcomes[7].sdp_gain,
             13: table1_outcomes[13].sdp_gain}
    losses = {eid: dp.gap_percent(gains[eid],
                                  table1_outcomes[eid].policyz.mean_revenue_rate)
              for eid in SDP_IDS}
    ok = all(loss <= 6.0 for loss in losses.values())
    verdict(capsys, 5, ok,
            "loss vs optimal gain: " + ", ".join(
                f"E{eid} {loss:.2f}%" for eid, loss in losses.items())
            + " (need <=6% each)")
    assert ok, losses


# ---------------------------------------------------------------------------
# 6. oracle self-consistency

def test_criterion_06_oracle_self_consistency(e1_sdp, capsys):
    sol_base, sol_doubled, replay = e1_sdp
    drift = 100.0 * abs(sol_doubled.gain - sol_base.gain) / sol_base.gain
    inside = replay.ci95_lo <= sol_base.gain <= replay.ci95_hi
    ok = drift < 0.5 and inside
    verdict(capsys, 6, ok,
            f"gain drift on cap doubling {drift:.2e}% (<0.5%); replayed-policy "
            f"CI [{replay.ci95_lo:.6f}, {replay.ci95_hi:.6f}] "
            f"{'contains' if inside else 'misses'} gain {sol_base.gain:.6f}")
    assert ok


# ---------------------------------------------------------------------------
# 7. two-phase overload scheduler suite

def test_criterion_07_two_phase_scheduler_suite(robust_outcomes, capsys):
    problems = []
    for intensity in (1.5, 2.0, 3.0):
        s2 = robust_outcomes[(2.0, intensity)].summaries
        s4 = robust_outcomes[(4.0, intensity)].summaries
        if s2["policyz"].mean_revenue_rate < s2["robust_exact"].mean_revenue_rate:
            problems.append(f"i={intensity:g}: priority policy below exact variant")
        if s2["robust_mean"].mean_revenue_rate > s2["robust_exact"].mean_revenue_rate:
            problems.append(f"i={intensity:g}: mean variant above exact variant")
        gap2 = robust_outcomes[(2.0, intensity)].improvement("policyz", "robust_exact")
        gap4 = robust_outcomes[(4.0, intensity)].improvement("policyz", "robust_exact")
        if s4["policyz"].mean_revenue_rate < s4["robust_exact"].mean_revenue_rate:
            problems.append(f"i={intensity:g}: priority policy below exact at slack 4")
        if gap4 > gap2:
            problems.append(
                f"i={intensity:g}: slack-4 gap {gap4:.2f}% > slack-2 gap {gap2:.2f}%")
    ok = not problems
    verdict(capsys, 7, ok, "all trends hold" if ok else "; ".join(problems))
    assert ok, problems


# ---------------------------------------------------------------------------
# 8. reject-queue scheduler suite

def test_criterion_08_reject_queue_suite(redf_outcomes, capsys):
    problems = []
    gaps = {}
    for model in ("random", "linear"):
        for intensity in (1.5, 2.0, 3.0):
            outcome = redf_outcomes[(model, intensity)]
            s = outcome.summaries
            if s["policyz"].mean_revenue_rate < s["redf"].mean_revenue_rate:
                problems.append(f"{model} i={intensity:g}: priority policy behind")
            gaps[(model, intensity)] = outcome.improvement("policyz", "redf")
    for intensity in (1.5, 2.0, 3.0):
        if gaps[("linear", intensity)] < gaps[("random", intensity)]:
            problems.append(
                f"i={intensity:g}: linear gap {gaps[('linear', intensity)]:.2f}% "
                f"< random gap {gaps[('random', intensity)]:.2f}%")
    ok = not problems
    verdict(capsys, 8, ok,
            "gaps " + ", ".join(f"{m[0]}/i{i:g} {g:.1f}%"
                                for (m, i), g in sorted(gaps.items()))
            + ("" if ok else "; " + "; ".join(problems)))
    assert ok, problems


# ---------------------------------------------------------------------------
# 9. byte-identical determinism of the command line

def test_criterion_09_cli_determinism(tmp_path, capsys):
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps({
        "workload": {"streams": [
            {"P": 350, "mean_exec": 600, "mean_deadline": 1000, "value": 1.0},
            {"P": 350, "mean_exec": 600, "mean_deadline": 1000, "value": 1.5}],
            "horizon": 100000, "seed": 3},
        "policy": {"name": "policyz"}, "replications": 4}))
    exp_args = ["experiment", "robust", "--intensity", "2", "--slack", "2",
                "--seed", "5", "--reps", "3"]
    pairs = []
    for label, args in (("simulate", ["simulate", str(run_cfg)]),
                        ("experiment", exp_args)):
        a, b = tmp_path / f"{label}_a.csv", tmp_path / f"{label}_b.csv"
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        pairs.append((label, a.read_bytes() == b.read_bytes()))
    ok = all(same for _, same in pairs)
    verdict(capsys, 9, ok, ", ".join(
        f"{label}: {'byte-identical' if same else 'DIFFERS'}"
        for label, same in pairs))
    assert ok, pairs


# ---------------------------------------------------------------------------
# 10. priority-index structure on a parameter grid

def test_criterion_10_priority_index_grid(capsys):
    configs = [(StreamSpec(0, 1.0 / p, e, dm, v), f)
               for p, e, dm, v, f in itertools.product(
                   (350.0, 165.0), (100.0, 400.0, 600.0, 1010.0, 2000.0),
                   (250.0, 1000.0), (1.0,), (0.15, 0.5, 0.85))][:50]
    assert len(configs) == 50
    problems = []
    worst_limit = 0.0
    worst_agree = 0.0
    for s, f in configs:
        bound = s.reward * s.service_rate
        row = [zindex.priority(s, f, l) for l in range(1, 41)]
        if any(b < a - 1e-12 * bound for a, b in zip(row, row[1:])):
            problems.append(f"(e={s.mean_exec:g}, f={f}): not nondecreasing")
        if any(z > bound * (1 + 1e-12) for z in row):
            problems.append(f"(e={s.mean_exec:g}, f={f}): exceeds limit value")
        worst_limit = max(worst_limit,
                          (bound - zindex.priority(s, f, 10**6)) / bound)
        for l in (1, 3, 10, 40):
            other = zindex.priority_via_value_difference(s, f, l)
            worst_agree = max(worst_agree, abs(row[l - 1] - other) / bound)
    if worst_limit > 1e-4:
        problems.append(f"limit approach {worst_limit:.2e} > 1e-4")
    if worst_agree > 1e-12:
        problems.append(f"evaluation paths disagree by {worst_agree:.2e} > 1e-12")
    ok = not problems
    verdict(capsys, 10, ok,
            f"50 configs: monotone, bounded, limit gap {worst_limit:.1e} "
            f"(<=1e-4), path agreement {worst_agree:.1e} (<=1e-12)"
            + ("" if ok else "; " + "; ".join(problems)))
    assert ok, problems
