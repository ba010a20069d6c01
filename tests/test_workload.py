"""Trace parsing, prediction, and synthetic trace generation."""

import pytest

from hpcdispatch.workload import (
    DurationPredictor,
    JobRecord,
    ParsedTrace,
    TraceSpec,
    eurora_mix,
    generate_trace,
    gpu_scarce_mix,
    jobs_from_jsonl,
    jobs_to_jsonl,
    load_trace,
    make_job,
    parse_swf,
    render_swf,
    spec_from_dict,
)


def swf_line(job_id, submit, run_time, procs, req_procs=-1, req_time=-1, user=7):
    cols = [-1] * 18
    cols[0] = job_id
    cols[1] = submit
    cols[3] = run_time
    cols[4] = procs
    cols[7] = req_procs
    cols[8] = req_time
    cols[11] = user
    return " ".join(str(c) for c in cols)


# -- records -------------------------------------------------------------------


def test_make_job_rounds_demand_up_to_unit_multiple():
    job = make_job(1, 2, 10, node_count=4, demand={"core": 10, "mem": 0}, runtime=60)
    assert job.demand == {"core": 12}  # ceil(10/4) = 3 per unit
    assert job.unit_demand("core") == 3
    assert job.unit_demand("mem") == 0
    assert job.resources() == ["core"]


def test_make_job_clamps_degenerate_fields():
    job = make_job(1, 1, -5, node_count=0, demand={"core": 1}, runtime=0, requested=0)
    assert job.submit == 0
    assert job.node_count == 1
    assert job.runtime == 1
    assert job.requested is None


# -- SWF ------------------------------------------------------------------------


def test_parse_swf_basic_fields():
    parsed = parse_swf(
        [
            "; Comment: synthetic header",
            "",
            swf_line(1, 0, 120, 16, user=3),
            swf_line(2, 30, 600, 20, req_procs=32, req_time=900, user=4),
        ]
    )
    assert parsed.skipped == 0
    first, second = parsed.jobs
    assert (first.job_id, first.submit, first.runtime) == (1, 0, 120)
    assert first.node_count == 1 and first.demand == {"core": 16}
    assert first.requested is None
    # requested processors win over allocated; nodes are ceil(32/16)
    assert second.node_count == 2 and second.demand == {"core": 32}
    assert second.requested == 900
    assert second.user_id == 4


def test_parse_swf_skips_bad_rows():
    parsed = parse_swf(
        [
            "1 2 3",  # too short
            swf_line(2, 0, 0, 16),  # zero run time
            swf_line(3, 0, 60, -1),  # no processor count at all
            "a b c d e f g h i j k l",  # non-numeric
            swf_line(4, 5, 60, 8),
        ]
    )
    assert parsed.skipped == 4
    assert [j.job_id for j in parsed.jobs] == [4]


def test_parse_swf_cores_per_node_validation():
    with pytest.raises(ValueError):
        parse_swf([], cores_per_node=0)


def test_swf_round_trip():
    jobs = [
        make_job(1, 3, 0, 1, {"core": 16}, 120),
        make_job(2, 4, 30, 2, {"core": 32}, 600, requested=900),
    ]
    again = parse_swf(render_swf(jobs).splitlines())
    assert again.skipped == 0
    assert again.jobs == jobs


def test_render_swf_empty_is_empty_string():
    assert render_swf([]) == ""


# -- JSON lines -------------------------------------------------------------------


def test_jsonl_round_trip_preserves_multi_resource_demands():
    jobs = [
        make_job(1, 2, 5, 2, {"core": 8, "mem": 4, "gpu": 2}, 300),
        make_job(2, 2, 9, 1, {"core": 1}, 60, requested=120),
    ]
    text = jobs_to_jsonl(jobs)
    assert jobs_from_jsonl(text) == jobs
    # stable rendering: one compact object per line
    assert text.count("\n") == 2
    assert jobs_to_jsonl(jobs) == text


def test_load_trace_dispatches_on_extension(tmp_path):
    jobs = [make_job(1, 1, 0, 1, {"core": 4}, 60)]
    jsonl = tmp_path / "trace.jsonl"
    jsonl.write_text(jobs_to_jsonl(jobs), encoding="utf-8")
    assert load_trace(str(jsonl)) == ParsedTrace(jobs, 0)

    swf = tmp_path / "trace.swf"
    swf.write_text(render_swf(jobs), encoding="utf-8")
    assert load_trace(str(swf)).jobs[0].demand == {"core": 4}


# -- prediction --------------------------------------------------------------------


def test_predictor_rejects_unknown_mode():
    with pytest.raises(ValueError):
        DurationPredictor(mode="psychic")


def test_oracle_predictor_returns_real_runtime():
    predictor = DurationPredictor(mode="oracle")
    job = make_job(1, 1, 0, 1, {"core": 1}, 777)
    assert predictor.predict(job) == 777


def test_last2_prediction_ladder():
    predictor = DurationPredictor(mode="last2")
    no_hint = make_job(1, 5, 0, 1, {"core": 1}, 100)
    hinted = make_job(2, 5, 0, 1, {"core": 1}, 100, requested=250)

    assert predictor.predict(no_hint) == 3600  # nothing known: default
    assert predictor.predict(hinted) == 250  # requested time beats default

    predictor.record_completion(5, 100)
    assert predictor.predict(hinted) == 100  # one completion

    predictor.record_completion(5, 201)
    assert predictor.predict(hinted) == 151  # ceil((100 + 201) / 2)

    predictor.record_completion(5, 11)
    assert predictor.predict(hinted) == 106  # only the last two are kept


def test_last2_histories_are_per_user():
    predictor = DurationPredictor(mode="last2")
    predictor.record_completion(1, 50)
    other = make_job(9, 2, 0, 1, {"core": 1}, 40)
    assert predictor.predict(other) == 3600


# -- synthetic traces -----------------------------------------------------------------


def test_trace_spec_validation():
    with pytest.raises(ValueError):
        TraceSpec(jobs=-1)
    with pytest.raises(ValueError):
        TraceSpec(mean_interarrival=0)
    with pytest.raises(ValueError):
        TraceSpec(short_fraction=1.5)
    with pytest.raises(ValueError):
        TraceSpec(users=0)


def test_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError) as err:
        spec_from_dict({"jobs": 10, "warp_factor": 9})
    assert "warp_factor" in str(err.value)


def test_spec_from_dict_coerces_json_lists():
    spec = spec_from_dict({"jobs": 5, "short_runtime": [10, 20], "node_counts": [[1, 1.0]]})
    assert spec.short_runtime == (10, 20)
    assert spec.node_counts == ((1, 1.0),)


def test_generate_trace_is_deterministic():
    spec = eurora_mix(jobs=50, seed=42)
    assert generate_trace(spec) == generate_trace(spec)
    assert generate_trace(spec) != generate_trace(eurora_mix(jobs=50, seed=43))


def test_generated_jobs_are_well_formed():
    jobs = generate_trace(eurora_mix(jobs=200, seed=3))
    assert len(jobs) == 200
    assert [j.job_id for j in jobs] == list(range(1, 201))
    submits = [j.submit for j in jobs]
    assert submits == sorted(submits)
    for job in jobs:
        assert job.runtime >= 30
        assert job.demand["core"] % job.node_count == 0
        assert "mem" in job.demand


def test_eurora_mix_is_short_dominated():
    jobs = generate_trace(eurora_mix(jobs=2000, seed=11))
    short = sum(1 for j in jobs if j.runtime <= 3600)
    assert short / len(jobs) > 0.88  # nominal 93%, loose for sampling noise
    gpu = sum(1 for j in jobs if "gpu" in j.demand)
    assert 0.05 < gpu / len(jobs) < 0.16


def test_gpu_scarce_mix_hits_half_gpu_demand():
    jobs = generate_trace(gpu_scarce_mix(jobs=2000, seed=11))
    gpu = sum(1 for j in jobs if "gpu" in j.demand)
    assert 0.44 < gpu / len(jobs) < 0.56
    assert all(j.node_count <= 2 for j in jobs)


def test_job_record_equality_is_field_wise():
    a = JobRecord(1, 1, 0, 1, {"core": 1}, 10)
    b = make_job(1, 1, 0, 1, {"core": 1}, 10)
    assert a == b
