"""Command-line interface: subcommands, exit codes, CSV determinism."""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from revsched import dp, presets, sim, streams, zindex
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
    {"label": [1, 2]},
    {"label": 3},
])
def test_mistyped_run_config_rejected(change, tmp_path, capsys):
    # each of these used to end in a TypeError traceback, or, for streams
    # given as an object, in a misleading "give exactly one of 'rate' or 'P'";
    # a label that is not a string used to reach the CSV as its str()
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


@pytest.mark.parametrize("key", ["workload_file", "out"])
def test_run_config_paths_must_be_strings(key, tmp_path, capsys):
    # a number here used to end in "TypeError: expected str, bytes or
    # os.PathLike object, not int"
    config = write_json(tmp_path / "run.json", {
        "workload": _WORKLOAD, "policy": {"name": "fap"}, "replications": 2, key: 3})
    rc = main(["simulate", config])
    err = capsys.readouterr().err
    assert rc == 1 and "Traceback" not in err
    assert err.startswith("error:") and key in err


@pytest.mark.parametrize("name,extra", [
    ("table1", ["--ids", "13"]), ("robust", []), ("redf", [])])
def test_zero_replications_rejected(name, extra, capsys):
    # `--reps 0` used to fall back to the campaign's default count
    rc = main(["experiment", name, *extra, "--reps", "0"])
    assert "replications" in _assert_exit(rc, capsys)


@pytest.mark.parametrize("ids", ["", ",", ",,", "E"])
def test_ids_naming_no_experiment_rejected(ids, capsys):
    # these used to print a header-only CSV, or ("") run all 15 rows
    rc = main(["experiment", "table1", "--ids", ids, "--reps", "2"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == "" and captured.err.startswith("error:")


def test_unknown_id_rejected_before_any_row_runs(monkeypatch, capsys):
    # `--ids 1,99` used to simulate E1 before failing on E99
    rows_run = []
    monkeypatch.setattr(presets, "run_table1_experiment",
                        lambda eid, **kwargs: rows_run.append(eid))
    rc = main(["experiment", "table1", "--ids", "1,99", "--reps", "2"])
    assert "unknown experiment id E99" in _assert_exit(rc, capsys)
    assert rows_run == []


def _assert_exit(rc, capsys, code=1, prefix="error:"):
    err = capsys.readouterr().err
    assert rc == code and "Traceback" not in err
    assert err.startswith(prefix)
    return err


@pytest.mark.parametrize("change", [
    {"replication": 3},
    {"policy": {"name": "policyz", "lmax": 4}},
    {"policy": {"name": "edf", "knowledge": "mean"}},
    {"workload": {**_WORKLOAD, "horizn": 10}},
    {"workload": {**_WORKLOAD, "streams": [
        {"P": 350, "mean_exec": 600, "mean_deadline": 1000, "value": 1.0, "reward": 2}]}},
])
def test_unknown_keys_rejected(change, tmp_path, capsys):
    # each used to be ignored: a mistyped key ran with the default instead
    config = write_json(tmp_path / "run.json", {
        "workload": _WORKLOAD, "policy": {"name": "fap"}, "replications": 2, **change})
    assert "unknown keys" in _assert_exit(main(["simulate", config]), capsys)


def test_policy_name_must_be_a_string(tmp_path, capsys):
    config = write_json(tmp_path / "run.json", {
        "workload": _WORKLOAD, "policy": {"name": ["fap"]}, "replications": 2})
    assert "unknown policy" in _assert_exit(main(["simulate", config]), capsys)


def test_ctmc_job_budget(tmp_path, capsys, monkeypatch):
    # 2e10 expected events used to keep the CTMC engine busy for hours
    monkeypatch.setattr(sim.random, "Random", BoundedRandom)
    config = write_json(tmp_path / "run.json", {
        "workload": {**_WORKLOAD, "horizon": 2e4, "streams": [
            {"P": 1e-6, "mean_exec": 600, "mean_deadline": 1000, "value": 1.0}] * 2},
        "policy": {"name": "fap", "f": [0.5, 0.5]}, "replications": 2})
    assert "budget" in _assert_exit(main(["simulate", config]), capsys)


def test_round_robin_cycle_budget(tmp_path, capsys):
    # a 1e-12 quantum used to advance the clock by about 5e-13 per slot
    config = write_json(tmp_path / "run.json", {
        "workload": _WORKLOAD, "policy": {"name": "fap", "f": [0.5, 0.5], "quantum": 1e-12},
        "engine": "trace", "replications": 2})
    assert "budget" in _assert_exit(main(["simulate", config]), capsys)


def test_replications_ceiling(tmp_path, capsys):
    config = write_json(tmp_path / "run.json", {
        "workload": _WORKLOAD, "policy": {"name": "edf"},
        "replications": sim.MAX_REPLICATIONS + 1})
    assert "replications" in _assert_exit(main(["simulate", config]), capsys)


@pytest.mark.parametrize("argv", [
    ["ztable", "--lmax", str(zindex.MAX_LMAX + 1)],
    ["sdp", "--cap", "1001"],
    ["fap", "--tol", "3e-17"],
    ["sdp", "--tol", "1e-300"],
])
def test_work_sizing_flags_are_bounded(argv, e1_workload, capsys):
    # each used to hang, or to end in a numpy memory-error traceback
    _assert_exit(main([argv[0], e1_workload, *argv[1:]]), capsys)


@pytest.mark.parametrize("argv", [["ztable"], ["simulate"]])
def test_underflowing_empty_probability_is_a_numerical_failure(argv, tmp_path, capsys):
    # r/d = 1000: pi0 underflows to 0.0, and the index used to divide 0 by 0
    workload = {"streams": [
        {"P": 1, "mean_exec": 600, "mean_deadline": 1000, "value": 1.0},
        {"P": 350, "mean_exec": 600, "mean_deadline": 1000, "value": 1.0}],
        "horizon": 2000, "seed": 0}
    path = write_json(tmp_path / "wl.json", workload)
    if argv == ["simulate"]:
        path = write_json(tmp_path / "run.json", {
            "workload": workload, "policy": {"name": "policyz"}, "replications": 2})
    err = _assert_exit(main([*argv, path]), capsys, code=2, prefix="numerical failure:")
    assert "stream 0" in err


def test_overflowing_revenue_variance_is_a_numerical_failure(tmp_path, capsys):
    # a revenue rate near 1e297 used to end in an OverflowError traceback
    # when summarize squared its deviation from the mean
    config = write_json(tmp_path / "run.json", {
        "workload": {**_WORKLOAD, "streams": [
            {"P": 350, "mean_exec": 600, "mean_deadline": 1000, "value": 1e300}] * 2},
        "policy": {"name": "fap", "f": [0.5, 0.5]}, "replications": 2})
    err = _assert_exit(main(["simulate", config]), capsys, code=2, prefix="numerical failure:")
    assert "overflows" in err


def test_overflowing_revenue_is_a_numerical_failure(tmp_path, capsys):
    # the revenue sums overflow to inf, and the run used to exit 0 and print
    # inf for the mean and nan for the spread and the interval
    config = write_json(tmp_path / "run.json", {
        "workload": {**_WORKLOAD, "streams": [
            {"P": 350, "mean_exec": 600, "mean_deadline": 1000, "value": 1e308},
            {"P": 350, "mean_exec": 600, "mean_deadline": 1000, "value": 1.0}]},
        "policy": {"name": "policyz"}, "replications": 2})
    err = _assert_exit(main(["simulate", config]), capsys, code=2, prefix="numerical failure:")
    assert "not finite" in err


@pytest.mark.parametrize("key,path", [
    ("workload_file", "."), ("out", "."), ("out", "missing/x.csv")])
def test_unusable_paths_rejected(key, path, tmp_path, capsys, monkeypatch):
    # each used to end in an IsADirectoryError or FileNotFoundError traceback
    monkeypatch.chdir(tmp_path)
    config = write_json(tmp_path / "run.json", {
        "workload": _WORKLOAD, "policy": {"name": "edf"}, "replications": 2, key: path})
    assert path in _assert_exit(main(["simulate", config]), capsys)


# fuzzing: one value of a small valid run config replaced by an arbitrary JSON
# value, or one unknown key added to one of its objects

_FUZZ_POLICIES = (
    ({"name": "fap", "f": [0.6, 0.4], "quantum": 50.0}, "trace"),
    ({"name": "fap", "f": "auto"}, "ctmc"),
    ({"name": "policyz", "f": None, "l_max": 8}, "ctmc"),
    ({"name": "policyz", "f": [0.5, 0.5], "l_max": 8}, "trace"),
    ({"name": "robust", "slack": 2.0, "knowledge": "mean"}, "trace"),
    ({"name": "redf", "knowledge": "exact"}, "trace"),
    ({"name": "edf"}, "trace"),
)

_json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.text(max_size=6))
# scalars, and extreme numbers among them, often enough that the bounds on the
# work get exercised: st.recursive alone draws mostly lists and objects
_json_values = st.one_of(
    st.sampled_from([0, -1, 1, 5e-324, 1e-12, 1e9, 1e300, 2**64, float("inf")]),
    _json_scalars,
    st.recursive(_json_scalars, lambda children: (
        st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=6), children, max_size=3)), max_leaves=4))


def _fuzz_config(policy, engine):
    return {"workload": {"streams": [
        {"P": 350, "mean_exec": 600, "mean_deadline": 1000, "value": 1.0},
        {"rate": 0.002, "mean_exec": 400, "mean_deadline": 800, "value": 2.0}],
        "horizon": 3000.0, "seed": 0},
        "workload_file": None, "horizon": 2500.0, "seed": 1, "engine": engine,
        "policy": copy.deepcopy(policy), "replications": 2, "label": "fuzz", "out": None}


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, (*prefix, key))


def _at(config, path):
    for key in path:
        config = config[key]
    return config


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_run_config_exits_cleanly(data, tmp_path, capsys, monkeypatch):
    # every accepted example stays tiny: at most 1000 jobs or round-robin
    # cycles per run, 4 replications and 64 table rows; the bounded RNG turns
    # a CTMC run that would not end into a failure instead of a hang
    monkeypatch.setattr(streams, "MAX_TRACE_JOBS", 1000)
    monkeypatch.setattr(sim, "MAX_REPLICATIONS", 4)
    monkeypatch.setattr(zindex, "MAX_LMAX", 64)
    monkeypatch.setattr(sim.random, "Random", BoundedRandom)
    monkeypatch.chdir(tmp_path)  # a fuzzed "out" writes here
    config = _fuzz_config(*data.draw(st.sampled_from(_FUZZ_POLICIES)))
    value = data.draw(_json_values)
    if data.draw(st.sampled_from(("replace",) * 3 + ("add",))) == "replace":
        path = data.draw(st.sampled_from(list(_paths(config))))
        if path:
            _at(config, path[:-1])[path[-1]] = value
        else:
            config = value
    else:
        objects = [p for p in _paths(config) if isinstance(_at(config, p), dict)]
        _at(config, data.draw(st.sampled_from(objects)))[data.draw(st.text(max_size=6))] = value
    (tmp_path / "run.json").write_text(json.dumps(config))
    rc = main(["simulate", str(tmp_path / "run.json")])
    assert rc in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


# fuzzing the work-sizing flags: each value is a special string, any float
# or integer, arbitrary text, or a small valid value. Sizes that would do
# real work are drawn only up to cap 40 and l_max 200 (plus values past
# MAX_CAP and MAX_LMAX), so that the test stays fast;
# test_work_sizing_flags_are_bounded covers the large valid sizes

_ANY_VALUE = (
    st.sampled_from(["inf", "-inf", "nan", "-nan", "0", "-0", "-1", "0.0", "5e-324",
                     "2.2e-308", "1e-300", "1e-13", "1e-12", "1e999", "-1e999", "1e-3",
                     "1e3", "40", "41", "1001", "100001", "abc", "", " ", "1_0", "0x10"])
    | st.floats().map(repr)
    | st.integers().map(str)
    | st.text(max_size=8))

#: (subcommand, flag) -> ((the fuzzer's size limit, the largest valid size),
#: or None for a tolerance; small valid values drawn beside arbitrary ones)
_FLAGS = {
    ("fap", "--tol"): (None, st.floats(1e-13, 0.2)),
    ("ztable", "--lmax"): ((200, zindex.MAX_LMAX), st.integers(-2, 200)),
    ("sdp", "--cap"): ((40, dp.MAX_CAP), st.integers(-2, 40)),
    ("sdp", "--tol"): (None, st.floats(1e-13, 1.0)),
}


def _small_enough(sizes, text):
    """False for a size that is valid but above the fuzzer's limit."""
    if sizes is None:
        return True
    try:
        size = int(text)
    except ValueError:
        return True  # argparse refuses it
    return not sizes[0] < size <= sizes[1]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_flags_exit_cleanly(data, e1_workload, capsys):
    command, flags = data.draw(st.sampled_from([
        ("fap", ("--tol",)), ("ztable", ("--lmax",)), ("sdp", ("--cap",)),
        ("sdp", ("--tol",)), ("sdp", ("--cap", "--tol"))]))
    argv = [command, e1_workload]
    for flag in flags:
        sizes, valid = _FLAGS[command, flag]
        value = data.draw(_ANY_VALUE.filter(lambda v: _small_enough(sizes, v))
                          | valid.map(str))
        argv.append(f"{flag}={value}")  # = keeps a value such as "-1" off the flag list
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse refuses a value that does not parse
        rc = exc.code
    assert rc in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
