"""Experiment presets and CSV reporting for the benchmark campaigns.

Three campaigns are packaged: the two-stream comparison grid (15 rows of
stream parameters, shared period 350, horizon 900k), the four-stream
slack-factor study against the two-phase overload scheduler (horizon 1e6,
50 replications), and the four-stream reject-queue study under random and
linear reward rankings. Every campaign derives all randomness from one
base seed. Both engines' runners run all of a point's named policies at
each replication seed, pairing them on common random numbers.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from . import allocation, dp, policies, sim, zindex
from .errors import ConfigError, require_finite
from .streams import StreamSpec, WorkloadSpec, sample_trace

TABLE1_PERIOD = 350.0
TABLE1_HORIZON = 900_000.0
TABLE1_V2 = 1.0

# experiment id -> (mean deadline, mean exec 1, mean exec 2, reward 1, reference f1*)
TABLE1_ROWS = {
    1: (1000, 600, 600, 1.0, 0.50),
    2: (1000, 620, 725, 1.1, 0.54),
    3: (1000, 580, 790, 1.2, 0.57),
    4: (1000, 545, 855, 1.3, 0.61),
    5: (1000, 520, 925, 1.4, 0.64),
    6: (1000, 500, 1010, 1.5, 0.67),
    7: (500, 610, 735, 1.1, 0.55),
    8: (500, 530, 900, 1.3, 0.63),
    9: (500, 475, 1110, 1.5, 0.70),
    10: (250, 590, 765, 1.1, 0.56),
    11: (250, 495, 1020, 1.3, 0.67),
    12: (250, 435, 1430, 1.5, 0.77),
    13: (165, 575, 785, 1.1, 0.58),
    14: (165, 465, 1170, 1.3, 0.72),
    15: (165, 400, 2000, 1.5, 0.84),
}

ROBUST_MEAN_EXECS = (50.0, 100.0, 200.0, 400.0)
ROBUST_HORIZON = 1_000_000.0
ROBUST_REPS = 50

REDF_MEAN_EXECS = (150.0, 100.0, 200.0, 400.0)
REDF_MEAN_DEADLINES = (600.0, 800.0, 1600.0, 3200.0)
REDF_REWARDS = {"random": (150.0, 300.0, 400.0, 200.0),
                "linear": (450.0, 300.0, 200.0, 100.0)}
REDF_HORIZON = 1_000_000.0
REDF_REPS = 50

DEFAULT_INTENSITIES = (1.2, 1.5, 2.0, 3.0, 4.0)

CSV_HEADER = ("experiment", "policy", "mean_revenue_rate", "stddev",
              "ci95_lo", "ci95_hi", "epu", "comparison", "value")


def table1_workload(experiment_id: int, seed: int = 0,
                    horizon: float = TABLE1_HORIZON) -> WorkloadSpec:
    if experiment_id not in TABLE1_ROWS:
        raise ConfigError(f"unknown experiment id E{experiment_id} (valid: 1..15)")
    d, e1, e2, v1, _ = TABLE1_ROWS[experiment_id]
    rate = 1.0 / TABLE1_PERIOD
    return WorkloadSpec((StreamSpec(0, rate, e1, d, v1),
                         StreamSpec(1, rate, e2, d, TABLE1_V2)), horizon, seed)


def table1_reference_f1(experiment_id: int) -> float:
    return TABLE1_ROWS[experiment_id][4]


def robust_workload(slack: float, intensity: float, seed: int = 0,
                    horizon: float = ROBUST_HORIZON) -> WorkloadSpec:
    """Four equal-rate streams; per-stream reward equals the mean execution.

    Deadline offsets default to exponential with mean slack * mean_exec,
    keeping the stream model fully memoryless. The hard proportional rule
    (deadline = slack * sampled execution) is applied as a trace transform
    by the campaign runner when requested.
    """
    require_finite("intensity", intensity, above=0.0)
    require_finite("slack", slack, above=1.0)
    rate = intensity / sum(ROBUST_MEAN_EXECS)
    streams = tuple(StreamSpec(i, rate, e, slack * e, e)
                    for i, e in enumerate(ROBUST_MEAN_EXECS))
    return WorkloadSpec(streams, horizon, seed)


def redf_workload(model: str, intensity: float, seed: int = 0,
                  horizon: float = REDF_HORIZON) -> WorkloadSpec:
    if model not in REDF_REWARDS:
        raise ConfigError(f"unknown reward model {model!r} (random|linear)")
    require_finite("intensity", intensity, above=0.0)
    rate = intensity / sum(REDF_MEAN_EXECS)
    rewards = REDF_REWARDS[model]
    streams = tuple(StreamSpec(i, rate, e, d, v) for i, (e, d, v) in
                    enumerate(zip(REDF_MEAN_EXECS, REDF_MEAN_DEADLINES, rewards)))
    return WorkloadSpec(streams, horizon, seed)


# ---------------------------------------------------------------------------
# campaign runners

def run_ctmc_policy(workload: WorkloadSpec, named_policies: dict[str, sim.QueuePolicy],
                    reps: int) -> dict[str, sim.ReplicationSummary]:
    """``run_trace_policy`` for the CTMC engine. The singular name stays because
    ``perfbench/child.py`` binds it; a rename waits for a benchmark-only change."""
    return sim.replicate(
        lambda seed: {name: sim.run_ctmc(workload.streams, policy, workload.horizon, seed)
                      for name, policy in named_policies.items()},
        reps, workload.seed)


def run_trace_policy(workload: WorkloadSpec, named_policies: dict[str, sim.TracePolicy],
                     reps: int, deadline_rule: str = "exponential",
                     slack: float | None = None) -> dict[str, sim.ReplicationSummary]:
    """Each policy's summary over ``reps`` replications on common random numbers.

    A replication samples its trace once, applies the deadline rule, checks
    and presorts it into one ``sim.Trace`` and replays that under every
    policy in turn. The trace is freed when the replication returns, before
    the next one is sampled.
    """
    if deadline_rule not in ("exponential", "proportional"):
        raise ConfigError(f"unknown deadline rule {deadline_rule!r}")
    if deadline_rule == "proportional" and slack is None:
        raise ConfigError("proportional deadline rule needs a slack factor")

    def run_one(seed):
        jobs = sample_trace(workload.with_seed(seed))
        if deadline_rule == "proportional":
            for job in jobs:
                job.deadline_abs = job.arrival + slack * job.exec_total
        trace = sim.Trace(jobs)
        return {name: sim.run_trace(workload.streams, trace, policy, workload.horizon)
                for name, policy in named_policies.items()}

    return sim.replicate(run_one, reps, workload.seed)


def improvement_pct(new: float, base: float) -> float:
    if base == 0:
        raise ConfigError("cannot compute improvement over a zero baseline")
    return 100.0 * (new - base) / base


def summary_row(experiment: str, policy: str, summ: sim.ReplicationSummary) -> dict:
    return {"experiment": experiment, "policy": policy,
            "mean_revenue_rate": summ.mean_revenue_rate,
            "stddev": summ.std_revenue_rate,
            "ci95_lo": summ.ci95_lo, "ci95_hi": summ.ci95_hi,
            "epu": summ.mean_epu, "comparison": "", "value": ""}


def comparison_row(experiment: str, label: str, value: float) -> dict:
    return {"experiment": experiment, "policy": "", "mean_revenue_rate": "",
            "stddev": "", "ci95_lo": "", "ci95_hi": "", "epu": "",
            "comparison": label, "value": value}


@dataclass
class Table1Outcome:
    experiment_id: int
    f_star: allocation.AllocationVector
    v_star_analytic: float
    fap: sim.ReplicationSummary
    policyz: sim.ReplicationSummary
    sdp_gain: float | None = None

    @property
    def improvement(self) -> float:
        return improvement_pct(self.policyz.mean_revenue_rate,
                               self.fap.mean_revenue_rate)

    @property
    def sdp_loss(self) -> float | None:
        if self.sdp_gain is None:
            return None
        return dp.gap_percent(self.sdp_gain, self.policyz.mean_revenue_rate)


def run_table1_experiment(experiment_id: int, seed: int = 0, reps: int = 20,
                          include_sdp: bool = False) -> Table1Outcome:
    workload = table1_workload(experiment_id, seed)
    fap_result = allocation.optimize(list(workload.streams))
    f_star = fap_result.f_star
    table = zindex.build_table(workload.streams, f_star)
    summaries = run_ctmc_policy(workload, {"fap": policies.FapQueuePolicy(f_star),
                                           "policyz": policies.ZQueuePolicy(table)}, reps)
    outcome = Table1Outcome(experiment_id, f_star, fap_result.v_star,
                            summaries["fap"], summaries["policyz"])
    if include_sdp:
        outcome.sdp_gain = dp.solve(dp.SdpModel(*workload.streams)).gain
    return outcome


def table1_rows(outcome: Table1Outcome) -> list[dict]:
    exp = f"E{outcome.experiment_id}"
    rows = [summary_row(exp, "fap", outcome.fap),
            summary_row(exp, "policyz", outcome.policyz),
            comparison_row(exp, "f1_star", outcome.f_star[0]),
            comparison_row(exp, "analytic_v_star", outcome.v_star_analytic),
            comparison_row(exp, "improvement_policyz_over_fap_pct", outcome.improvement)]
    if outcome.sdp_gain is not None:
        rows.append(comparison_row(exp, "sdp_gain", outcome.sdp_gain))
        rows.append(comparison_row(exp, "loss_policyz_vs_sdp_pct", outcome.sdp_loss))
    return rows


@dataclass
class PairedTraceOutcome:
    experiment: str
    summaries: dict[str, sim.ReplicationSummary]

    def improvement(self, policy: str, baseline: str) -> float:
        return improvement_pct(self.summaries[policy].mean_revenue_rate,
                               self.summaries[baseline].mean_revenue_rate)


def run_robust_experiment(slack: float, intensity: float, seed: int = 0,
                          reps: int = ROBUST_REPS, horizon: float = ROBUST_HORIZON,
                          deadline_rule: str = "exponential") -> PairedTraceOutcome:
    workload = robust_workload(slack, intensity, seed, horizon)
    specs = list(workload.streams)
    f_star = allocation.optimize(specs).f_star
    table = zindex.build_table(workload.streams, f_star)
    summaries = run_trace_policy(workload, {
        "policyz": policies.ZTracePolicy(table),
        "robust_exact": policies.RobustPolicy(slack, "exact"),
        "robust_mean": policies.RobustPolicy(slack, "mean"),
    }, reps, deadline_rule, slack)
    return PairedTraceOutcome(f"robust_s{slack:g}_i{intensity:g}", summaries)


def run_redf_experiment(model: str, intensity: float, seed: int = 0,
                        reps: int = REDF_REPS, horizon: float = REDF_HORIZON,
                        ) -> PairedTraceOutcome:
    workload = redf_workload(model, intensity, seed, horizon)
    specs = list(workload.streams)
    f_star = allocation.optimize(specs).f_star
    table = zindex.build_table(workload.streams, f_star)
    summaries = run_trace_policy(workload, {"policyz": policies.ZTracePolicy(table),
                                            "redf": policies.RedfPolicy()}, reps)
    return PairedTraceOutcome(f"redf_{model}_i{intensity:g}", summaries)


def paired_rows(outcome: PairedTraceOutcome, baselines: tuple[str, ...]) -> list[dict]:
    rows = [summary_row(outcome.experiment, name, summ)
            for name, summ in outcome.summaries.items()]
    for base in baselines:
        rows.append(comparison_row(
            outcome.experiment, f"improvement_policyz_over_{base}_pct",
            outcome.improvement("policyz", base)))
    return rows


# ---------------------------------------------------------------------------
# CSV reporting

def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report(rows: list[dict], fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([_cell(row.get(col, "")) for col in CSV_HEADER])


def report_text(rows: list[dict]) -> str:
    buf = io.StringIO()
    write_report(rows, buf)
    return buf.getvalue()

