"""Command-line interface: subcommands, exit codes, CSV determinism."""

import json

import pytest

from revsched import presets, sim
from revsched.cli import main

from helpers import BoundedRandom, parse_report


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def e1_workload(tmp_path):
    return write_json(tmp_path / "wl.json", {
        "streams": [
            {"P": 350, "mean_exec": 600, "mean_deadline": 1000, "value": 1.0},
            {"P": 350, "mean_exec": 600, "mean_deadline": 1000, "value": 1.0}],
        "horizon": 900000, "seed": 0})


def test_fap_subcommand(e1_workload, tmp_path, capsys):
    out = tmp_path / "fap.csv"
    assert main(["fap", e1_workload, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("stream,f_star")
    f1 = float(text.splitlines()[1].split(",")[1])
    assert 0.0 <= f1 <= 1.0


def test_ztable_subcommand(e1_workload, tmp_path):
    out = tmp_path / "zt.csv"
    assert main(["ztable", e1_workload, "--lmax", "8",
                 "--allocation", "0.5,0.5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "stream,l,z"
    assert len(lines) == 1 + 2 * 8
    values = [float(line.split(",")[2]) for line in lines[1:9]]
    assert values == sorted(values)  # per-stream monotone block


def test_ztable_bad_allocation(e1_workload, capsys):
    assert main(["ztable", e1_workload, "--allocation", "lots"]) == 1
    assert "error:" in capsys.readouterr().err


def test_sdp_subcommand(e1_workload, tmp_path):
    out = tmp_path / "sdp.csv"
    assert main(["sdp", e1_workload, "--cap", "40", "--tol", "1e-6",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "quantity,value"
    gain = float(lines[1].split(",")[1])
    assert gain > 0
    assert lines[2].startswith("iterations,")
    assert lines[3] == "cap,40"
    assert lines[4].startswith("tail_bound,")
    assert float(lines[4].split(",")[1]) < 1e-12
    assert lines[5].startswith("gain_err,")
    assert 0 < float(lines[5].split(",")[1]) < 1e-2 * gain


def test_sdp_subcommand_sizes_the_cap(e1_workload, tmp_path):
    out = tmp_path / "sdp.csv"
    assert main(["sdp", e1_workload, "--policy-table", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[3] == "cap,22"
    assert lines[6] == "l1,l2,action"
    assert len(lines) == 7 + 23 * 23


def test_sdp_rejects_wrong_stream_count(tmp_path, capsys):
    wl = write_json(tmp_path / "one.json", {
        "streams": [{"P": 350, "mean_exec": 600, "mean_deadline": 1000,
                     "value": 1.0}],
        "horizon": 1000, "seed": 0})
    assert main(["sdp", wl]) == 1


def test_simulate_subcommand(tmp_path):
    cfg = write_json(tmp_path / "run.json", {
        "workload": {
            "streams": [
                {"P": 350, "mean_exec": 600, "mean_deadline": 1000, "value": 1.0},
                {"P": 350, "mean_exec": 600, "mean_deadline": 1000, "value": 1.0}],
            "horizon": 50000, "seed": 0},
        "policy": {"name": "fap", "f": [0.5, 0.5]},
        "replications": 3})
    out = tmp_path / "sim.csv"
    assert main(["simulate", cfg, "--out", str(out)]) == 0
    rows = parse_report(out.read_text())
    assert rows[0]["policy"] == "fap"
    assert rows[0]["mean_revenue_rate"] > 0


def test_simulate_missing_policy(tmp_path, capsys):
    cfg = write_json(tmp_path / "run.json", {
        "workload": {"streams": [{"P": 350, "mean_exec": 600,
                                  "mean_deadline": 1000, "value": 1.0}],
                     "horizon": 1000, "seed": 0}})
    assert main(["simulate", cfg]) == 1
    assert "policy" in capsys.readouterr().err


def _assert_config_error(rc, capsys):
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_malformed_workload_json(tmp_path, capsys):
    path = tmp_path / "wl.json"
    path.write_text('{"streams": [')
    _assert_config_error(main(["fap", str(path)]), capsys)


@pytest.mark.parametrize("period", [0, -5])
def test_nonpositive_period_rejected(period, tmp_path, capsys):
    wl = write_json(tmp_path / "wl.json", {
        "streams": [{"P": period, "mean_exec": 600, "mean_deadline": 1000,
                     "value": 1.0}],
        "horizon": 1000, "seed": 0})
    rc = main(["fap", wl])
    err = capsys.readouterr().err
    assert rc == 1 and "Traceback" not in err
    assert err.startswith("error:") and "period must be > 0" in err


def test_malformed_run_config_json(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text("{'policy': 'edf'}")
    _assert_config_error(main(["simulate", str(path)]), capsys)


@pytest.mark.parametrize("policy", [
    {"name": "robust", "slack": "2"},
    {"name": "robust", "slack": float("inf")},
    {"name": "robust", "knowledge": 1},
    {"name": "redf", "knowledge": ["mean"]},
    {"name": "fap", "f": [0.5, 0.5], "quantum": "1"},
    {"name": "fap", "f": [0.5, 0.5], "quantum": float("nan")},
])
def test_bad_policy_parameters(policy, tmp_path, capsys):
    config = write_json(tmp_path / "run.json", {
        "workload": {"streams": [
            {"P": 350, "mean_exec": 600, "mean_deadline": 1000, "value": 1.0},
            {"P": 350, "mean_exec": 600, "mean_deadline": 1000, "value": 1.0}],
            "horizon": 2000, "seed": 0},
        "policy": policy, "engine": "trace", "replications": 2})
    _assert_config_error(main(["simulate", config]), capsys)


def test_missing_workload_file(capsys):
    assert main(["fap", "/nonexistent/wl.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_experiment_csv_is_byte_identical_per_seed(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    def args(seed):
        return ["experiment", "robust", "--intensity", "1.5", "--slack", "2",
                "--seed", seed, "--reps", "2"]

    assert main([*args("7"), "--out", str(a)]) == 0
    assert main([*args("7"), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    assert main([*args("9"), "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_experiment_table1_rows(tmp_path):
    out = tmp_path / "t1.csv"
    assert main(["experiment", "table1", "--ids", "1", "--reps", "2",
                 "--out", str(out)]) == 0
    rows = parse_report(out.read_text())
    policies_seen = {r["policy"] for r in rows if r["policy"]}
    assert policies_seen == {"fap", "policyz"}
    labels = {r["comparison"] for r in rows if r["comparison"]}
    assert "improvement_policyz_over_fap_pct" in labels


def test_report_roundtrip_exact():
    rows = [presets.summary_row("x", "edf",
                                _FakeSummary(0.1234567890123456789, 0.01)),
            presets.comparison_row("x", "gap_pct", 12.000000000000064)]
    text = presets.report_text(rows)
    parsed = parse_report(text)
    assert parsed[0]["mean_revenue_rate"] == rows[0]["mean_revenue_rate"]
    assert parsed[0]["stddev"] == rows[0]["stddev"]
    assert parsed[1]["value"] == rows[1]["value"]


class _FakeSummary:
    def __init__(self, mean, std):
        self.n_reps = 2
        self.mean_revenue_rate = mean
        self.std_revenue_rate = std
        self.ci95_lo = mean - std
        self.ci95_hi = mean + std
        self.mean_epu = None


def test_unknown_experiment_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["experiment", "mystery"])


_STREAM = '"mean_exec": 600, "mean_deadline": 1000'


@pytest.mark.parametrize("stream,horizon", [
    (f'{{"P": "350", {_STREAM}, "value": 1.0}}', "2000"),
    (f'{{"rate": 1e999, {_STREAM}, "value": 1.0}}', "2000"),
    (f'{{"P": 350, {_STREAM}, "value": true}}', "2000"),
    (f'{{"P": 350, {_STREAM}, "value": 1.0}}', "1e999"),
    (f'{{"P": 350, {_STREAM}, "value": 1.0}}', "NaN"),
])
def test_mistyped_or_infinite_workload_rejected(stream, horizon, tmp_path, capsys,
                                                monkeypatch):
    # an infinite rate or horizon used to keep the CTMC engine looping forever
    monkeypatch.setattr(sim.random, "Random", BoundedRandom)
    path = tmp_path / "run.json"
    path.write_text(f'{{"workload": {{"streams": [{stream}], "horizon": {horizon},'
                    f' "seed": 0}}, "policy": {{"name": "fap"}}, "replications": 2}}')
    _assert_config_error(main(["simulate", str(path)]), capsys)


@pytest.mark.parametrize("reps", ["3", 2.0, True, 1, None])
def test_replications_must_be_an_integer_of_at_least_two(reps, tmp_path, capsys):
    config = write_json(tmp_path / "run.json", {
        "workload": {"streams": [{"P": 350, "mean_exec": 600,
                                  "mean_deadline": 1000, "value": 1.0}],
                     "horizon": 2000, "seed": 0},
        "policy": {"name": "fap"}, "replications": reps})
    _assert_config_error(main(["simulate", config]), capsys)


_WORKLOAD = {"streams": [{"P": 350, "mean_exec": 600, "mean_deadline": 1000,
                          "value": 1.0}] * 2,
             "horizon": 2000, "seed": 0}


@pytest.mark.parametrize("change", [
    {"seed": 1.5},
    {"seed": True},
    {"workload": [_WORKLOAD]},
    {"workload": {**_WORKLOAD, "streams": [1, 2]}},
    {"workload": {**_WORKLOAD, "seed": 1.5}},
    {"workload": {**_WORKLOAD, "streams": {"0": _WORKLOAD["streams"][0]}}},
    {"policy": {"name": "policyz", "f": [0.5, 0.5], "l_max": "8"}},
    {"policy": {"name": "policyz", "f": [0.5, 0.5], "l_max": 8.0}},
    {"policy": {"name": "fap", "f": "0.5,0.5"}},
    {"policy": {"name": "fap", "f": [0.5, "0.5"]}},
])
def test_mistyped_run_config_rejected(change, tmp_path, capsys):
    # each of these used to end in a TypeError traceback, or, for streams
    # given as an object, in a misleading "give exactly one of 'rate' or 'P'"
    config = write_json(tmp_path / "run.json", {
        "workload": _WORKLOAD, "policy": {"name": "fap"}, "replications": 2,
        **change})
    _assert_config_error(main(["simulate", config]), capsys)


@pytest.mark.parametrize("config", [[{"policy": {"name": "edf"}}], "workload"])
def test_run_config_must_be_an_object(config, tmp_path, capsys):
    _assert_config_error(main(["simulate", write_json(tmp_path / "run.json", config)]),
                         capsys)


def test_trace_job_budget(tmp_path, capsys):
    # 1e12 time units at P = 350 used to ask numpy for 25.5 GiB of arrivals
    config = write_json(tmp_path / "run.json", {
        "workload": {**_WORKLOAD, "horizon": 1e12}, "policy": {"name": "edf"},
        "engine": "trace", "replications": 2})
    rc = main(["simulate", config])
    err = capsys.readouterr().err
    assert rc == 1 and "Traceback" not in err
    assert err.startswith("error:") and "budget" in err
