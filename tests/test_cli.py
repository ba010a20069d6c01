"""End-to-end checks of the argparse front end.

Everything goes through ``main(argv)`` so exit codes and printed output are
exercised exactly as a shell user would see them.
"""

import csv
import json

import pytest

import support
from hpcdispatch.cli import EXIT_OK, EXIT_RUNTIME, main
from hpcdispatch.sim import REPLAY_FIELDS
from hpcdispatch.workload import load_trace


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("traces") / "small.jsonl"
    assert main(["gen-trace", "--jobs", "20", "--seed", "7", "--out", str(out)]) == EXIT_OK
    return out


# -- gen-trace ------------------------------------------------------------------


def test_gen_trace_jsonl(trace_path, capsys):
    jobs = load_trace(trace_path).jobs
    assert len(jobs) == 20
    assert main(["validate", "--trace", str(trace_path)]) == EXIT_OK
    assert "20 jobs, 0 skipped" in capsys.readouterr().out


def test_gen_trace_swf_drops_accelerators(tmp_path, capsys):
    out = tmp_path / "scarce.swf"
    code = main(
        ["gen-trace", "--jobs", "40", "--seed", "2", "--mix", "gpu-scarce", "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "lose their" in captured.err  # half the mix asks for gpus
    parsed = load_trace(out)
    assert len(parsed.jobs) == 40 and parsed.skipped == 0
    assert all(j.demand.get("gpu", 0) == 0 for j in parsed.jobs)


def test_gen_trace_custom_mix_from_config(tmp_path):
    cfg = tmp_path / "mix.json"
    cfg.write_text(json.dumps({"node_counts": [[1, 1.0]], "gpu_fraction": 0.0}), encoding="utf-8")
    out = tmp_path / "custom.jsonl"
    code = main(
        ["gen-trace", "--jobs", "15", "--seed", "9", "--mix", "custom",
         "--config", str(cfg), "--out", str(out)]
    )
    assert code == EXIT_OK
    assert all(j.node_count == 1 for j in load_trace(out).jobs)


BAD_TRACE_CONFIGS = {
    "eurora-unknown-key": ("eurora", '{"bogus": 1}'),
    "gpu-scarce-unknown-key": ("gpu-scarce", '{"bogus": 1}'),
    "custom-unknown-key": ("custom", '{"bogus": 1}'),
    "not-an-object": ("eurora", "[1]"),
}


@pytest.mark.parametrize("case", sorted(BAD_TRACE_CONFIGS))
def test_gen_trace_bad_config_is_an_error_not_a_traceback(tmp_path, capsys, case):
    mix, text = BAD_TRACE_CONFIGS[case]
    cfg = tmp_path / "bad.json"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "x.jsonl"
    code = main(["gen-trace", "--jobs", "3", "--mix", mix, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_RUNTIME
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


# -- validate -------------------------------------------------------------------


def test_validate_system_preset(capsys):
    assert main(["validate", "--system", "eurora"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "64 nodes" in out


def test_validate_rejects_unknown_system(capsys):
    assert main(["validate", "--system", "summit"]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error:") and "eurora" in err


def test_validate_needs_a_target(capsys):
    assert main(["validate"]) == EXIT_RUNTIME
    assert "nothing to validate" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_trace_line_without_runtime_is_an_error(tmp_path, capsys, command):
    trace = tmp_path / "short.jsonl"
    trace.write_text('{"id": 1, "runtime": 60}\n{"id": 2, "submit": 5}\n', encoding="utf-8")
    argv = [command, "--trace", str(trace)]
    if command == "simulate":
        argv += ["--system", "eurora", "--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 2" in err and "'runtime'" in err


MALFORMED = {
    "trace-number": ("--trace", "t.jsonl", "5\n"),
    "trace-string": ("--trace", "t.jsonl", '"id runtime"\n'),
    "trace-req-list": ("--trace", "t.jsonl", '{"id": 1, "runtime": 5, "req": [1]}\n'),
    "trace-req-text": ("--trace", "t.jsonl", '{"id": 1, "runtime": 5, "req": {"core": "x"}}\n'),
    "snapshot-no-t": ("--instance", "s.json", '{"queued": [], "running": [], "system": "eurora"}'),
    "snapshot-no-rn": (
        "--instance", "s.json",
        '{"t": 5, "system": "eurora", "queued": [{"id": 1, "q": 0, "req": {"core": 1},'
        ' "d_expected": 5, "d_real": 5}]}',
    ),
    "snapshot-list": ("--instance", "s.json", "[1]"),
    "system-groups-text": ("--system", "sys.json", '{"groups": "x"}'),
    "system-unknown-keys": (
        "--system", "sys.json", '{"groups": [{"nodes": 2, "caps": {"core": 16}}]}'
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_an_error_not_a_traceback(tmp_path, capsys, case):
    flag, name, text = MALFORMED[case]
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert main(["validate", flag, str(path)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_validate_instance_good_and_bad(tmp_path, capsys):
    system = support.system_of((2, {"core": 4}))
    instance = support.instance_on(
        system, t=10,
        queued_jobs=[support.queued(1, submit=5, rn=1, unit_req={"core": 2}, d_expected=60)],
    )
    good = tmp_path / "ok.json"
    instance.dump(good)
    assert main(["validate", "--instance", str(good)]) == EXIT_OK
    assert "ok (t=10, 1 queued, 0 running)" in capsys.readouterr().out

    payload = json.loads(good.read_text(encoding="utf-8"))
    payload["queued"][0]["q"] = 999  # arrival after the snapshot time
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["validate", "--instance", str(bad)]) == EXIT_RUNTIME
    assert "INVALID" in capsys.readouterr().out


# -- simulate / replay ------------------------------------------------------------


def test_simulate_writes_artifacts(trace_path, tmp_path, capsys):
    out = tmp_path / "run"
    dumps = tmp_path / "dumps"
    code = main(
        ["simulate", "--trace", str(trace_path), "--system", "eurora",
         "--budget-ms", "500", "--out", str(out), "--dump-instances", str(dumps)]
    )
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "jobs completed" in captured.out
    assert "20/20" in captured.out
    for name in ("summary.csv", "jobs.csv", "invocations.csv", "events.log"):
        assert (out / name).exists()
    with (out / "jobs.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 22  # 20 jobs plus the avg and sd rows
    assert sorted(dumps.glob("instance_*.json"))


def test_simulate_max_jobs(trace_path, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["simulate", "--trace", str(trace_path), "--system", "eurora",
         "--budget-ms", "500", "--max-jobs", "4", "--out", str(out)]
    )
    assert code == EXIT_OK
    assert "4/4" in capsys.readouterr().out


def test_simulate_missing_trace(tmp_path, capsys):
    code = main(
        ["simulate", "--trace", str(tmp_path / "nope.jsonl"), "--system", "eurora",
         "--out", str(tmp_path / "run")]
    )
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("error:")


def test_replay_over_dumped_instances(trace_path, tmp_path, capsys):
    dumps = tmp_path / "dumps"
    assert main(
        ["simulate", "--trace", str(trace_path), "--system", "eurora",
         "--budget-ms", "500", "--max-jobs", "6",
         "--out", str(tmp_path / "run"), "--dump-instances", str(dumps)]
    ) == EXIT_OK
    capsys.readouterr()

    out_csv = tmp_path / "replay.csv"
    code = main(["replay", "--instances", str(dumps), "--budget-ms", "500", "--out", str(out_csv)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "replayed" in captured.out
    with out_csv.open() as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == REPLAY_FIELDS
        rows = list(reader)
    assert rows
    assert all(0 < float(r["var_ratio"]) <= 1.0 for r in rows if r["var_ratio"])


def test_replay_needs_instances(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["replay", "--instances", str(empty)]) == EXIT_RUNTIME
    assert "no instance files" in capsys.readouterr().err


# -- compare --------------------------------------------------------------------


def test_compare_two_dispatchers(trace_path, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(
        ["compare", "--trace", str(trace_path), "--system", "eurora",
         "--budget-ms", "500", "--max-jobs", "10",
         "--dispatchers", "pcp20,hcp19", "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "metric" in captured.out
    assert "avg_slowdown ratio" in captured.out
    with (out / "compare.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["dispatcher"] for r in rows] == ["pcp20", "hcp19"]
    assert all(r["dnf"] == "False" for r in rows)


def test_compare_renders_infinity_for_dnf(trace_path, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(
        ["compare", "--trace", str(trace_path), "--system", "eurora",
         "--max-jobs", "4", "--wall-cap-s", "0.000001",
         "--dispatchers", "pcp20", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == EXIT_OK
    text = (out / "compare.csv").read_text(encoding="utf-8")
    assert "∞" in text and "True" in text


def test_compare_unknown_dispatcher(trace_path, tmp_path, capsys):
    code = main(
        ["compare", "--trace", str(trace_path), "--system", "eurora",
         "--dispatchers", "pcp20,slurm", "--out", str(tmp_path)]
    )
    assert code == EXIT_RUNTIME
    assert "unknown dispatcher" in capsys.readouterr().err


# -- argparse plumbing ------------------------------------------------------------


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # --trace and --system are required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--trace", "t.jsonl", "--system", "eurora", "--element-literal"])
    assert exc.value.code == 2
    # A negative window would drop jobs from the end of the ranking, a zero
    # window or budget stalls every dispatch, a negative node limit, throttle
    # or wall cap would switch that option off, a negative job cap would run
    # the whole trace, and a zero core count cannot round SWF processors.
    for flag, value in (
        ("--window", "-3"), ("--window", "0"), ("--budget-ms", "-5"), ("--budget-ms", "0"),
        ("--budget-ms", "nan"), ("--node-limit", "-1"), ("--max-jobs", "-2"),
        ("--throttle-s", "-5"), ("--wall-cap-s", "-1"), ("--wall-cap-s", "nan"),
        ("--wall-cap-s", "inf"), ("--cores-per-node", "0"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--trace", "t.jsonl", "--system", "eurora", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--instances", "i", "--window", "-3"])
    assert exc.value.code == 2
    assert "argument --window: must be >= 1, got -3" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--trace", "t.jsonl", "--cores-per-node", "0"])
    assert exc.value.code == 2
    assert "argument --cores-per-node: must be >= 1, got 0" in capsys.readouterr().err
