"""Release gate: nine structural and property checks at desk scale.

Headline throughput numbers from production-scale deployments need days of
simulation and native solver cores, so this gate pins the relationships that
must hold at any scale instead: model-size laws, exact optimality on small
instances, propagator soundness, violation-free simulation, deterministic
artifacts, agreement between the two joint formulations, and the tight-budget
failure mode that separates them on a large system.

Each test prints exactly one PASS/FAIL line (capture is bypassed so the lines
always reach the terminal), with the measured numbers and the pinned bounds.
"""

import itertools
import random
import time

import pytest

import oracles
import prop_harness
import support
from hpcdispatch.dispatch import DispatchConfig
from hpcdispatch.dispatch.instance import DispatchInstance
from hpcdispatch.dispatch.pcp19 import count_presence_vars
from hpcdispatch.dispatch.pcp20 import build_pcp20, solve_pcp20
from hpcdispatch.kernel import STATUS_OPTIMAL
from hpcdispatch.sim import SimConfig, run_simulation, write_artifacts
from hpcdispatch.system import preset
from hpcdispatch.workload import eurora_mix, generate_trace, gpu_scarce_mix, make_job

EURORA = preset("eurora")

# Shared by the trace-scale runs: generous budget, deterministic search cap.
TRACE_CONFIG = DispatchConfig(budget_ms=10_000, node_limit=1500)

UNLIMITED = DispatchConfig(budget_ms=60_000, node_limit=None)

CELLS = tuple(
    (dispatcher, predictor)
    for dispatcher in ("pcp20", "pcp19", "hcp19")
    for predictor in ("oracle", "last2")
)


def verdict(capsys, number: int, ok: bool, label: str, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} [{number}/9] {label}: {detail}"
    with capsys.disabled():
        print(f"\n{line}", flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def eurora_trace():
    return generate_trace(eurora_mix(jobs=1000, seed=42))


@pytest.fixture(scope="module")
def cell_runs(eurora_trace):
    """All six dispatcher x predictor cells on the shared trace."""
    started = time.perf_counter()
    results = {}
    for dispatcher, predictor in CELLS:
        config = SimConfig(
            dispatcher=dispatcher,
            predictor=predictor,
            dispatch=TRACE_CONFIG,
        )
        results[dispatcher, predictor] = run_simulation(eurora_trace, EURORA, config)
    elapsed = time.perf_counter() - started
    return results, elapsed


def test_variable_count_law(capsys):
    started = time.perf_counter()
    rng = random.Random(777)
    config = DispatchConfig()
    worst = 0.0
    problems = []
    sizes = itertools.islice(itertools.cycle(range(1, 51)), 200)
    for count, size in enumerate(sizes, start=1):
        instance = support.instance_on(EURORA, 1000, support.eurora_style_queue(rng, size))
        window = support.window_of(instance, config)
        n20 = len(build_pcp20(instance, window).solver.vars)
        closed_form = oracles.expected_vars_pcp20(instance)
        n19 = sum(count_presence_vars(instance, window))
        if n20 != closed_form:
            problems.append(f"#{count} joint count {n20} != closed form {closed_form}")
        ratio = n20 / n19
        worst = max(worst, ratio)
        if ratio >= 0.1:
            problems.append(f"#{count} ratio {ratio:.4f}")
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 10.0
    verdict(
        capsys, 1, ok, "variable-count law",
        f"200 queues of size 1-50, worst joint/replicated ratio {worst:.4f} < 0.1, "
        f"closed form exact, {elapsed:.1f}s < 10s"
        + (f"; problems: {problems[:3]}" if problems else ""),
    )


def test_system_size_independence(capsys):
    started = time.perf_counter()
    caps = {"core": 16, "mem": 16, "gpu": 2, "mic": 2}
    queue = [
        support.queued(1, 440, 1, {"core": 4}, 300),
        support.queued(2, 450, 1, {"core": 2, "mem": 8}, 1200),
        support.queued(3, 460, 1, {"core": 1, "gpu": 2}, 600),
        support.queued(4, 470, 1, {"core": 8, "mem": 16}, 900),
        support.queued(5, 480, 1, {"core": 2, "mic": 2}, 450),
        support.queued(6, 490, 2, {"core": 8}, 3600),
        support.queued(7, 495, 2, {"core": 4, "gpu": 1}, 150),
        support.queued(8, 500, 2, {"core": 2, "mem": 4}, 800),
        support.queued(9, 505, 1, {"core": 16}, 60),
        support.queued(10, 510, 2, {"core": 1, "mem": 1}, 2400),
    ]
    joint, replicated = [], []
    for nodes in (2, 64, 1173):
        system = support.system_of((nodes, caps), name=f"synth{nodes}")
        instance = support.instance_on(system, 600, queue)
        window = support.window_of(instance)
        joint.append(len(build_pcp20(instance, window).solver.vars))
        replicated.append(sum(count_presence_vars(instance, window)))
    elapsed = time.perf_counter() - started
    ok = (
        len(set(joint)) == 1
        and replicated[0] < replicated[1] < replicated[2]
        and elapsed < 5.0
    )
    verdict(
        capsys, 2, ok, "system-size independence",
        f"same 10-job queue on 2/64/1173 nodes: joint vars {joint} identical, "
        f"replicated vars {replicated} strictly increasing, {elapsed:.1f}s < 5s",
    )


def test_small_instance_optimality(capsys):
    started = time.perf_counter()
    problems = []
    for seed in range(500):
        rng = random.Random(10_000 + seed)
        instance = support.tiny_instance(rng)
        decision = solve_pcp20(instance, UNLIMITED)
        expected, _ = oracles.best_schedule_positions(instance)
        if decision.stats.status != STATUS_OPTIMAL:
            problems.append(f"seed {seed}: status {decision.stats.status}")
        elif decision.stats.objective != expected:
            problems.append(
                f"seed {seed}: objective {decision.stats.objective} != optimum {expected}"
            )
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 300.0
    verdict(
        capsys, 3, ok, "small-instance optimality",
        f"500 brute-forced instances (<=4 jobs, <=3 nodes, <=2 resources, horizon <=30), "
        f"objectives match exactly, {elapsed:.1f}s < 300s"
        + (f"; first problems: {problems[:3]}" if problems else ""),
    )


def test_propagator_soundness(capsys):
    started = time.perf_counter()
    problems = []
    summary = []
    for offset, kind in enumerate(prop_harness.KINDS):
        try:
            tally = prop_harness.run_many(kind, 10_000, seed=30_000 + offset)
        except AssertionError as exc:
            problems.append(f"{kind}: {exc}")
            continue
        if not tally.get("fail-ok"):
            problems.append(f"{kind}: no infeasible case was ever generated")
        summary.append(f"{kind}={tally.get('fail-ok', 0)} fails")
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 300.0
    verdict(
        capsys, 4, ok, "propagator soundness",
        f"10000 randomized cases per propagator kind, no supported value dropped, "
        f"failures only on brute-force-infeasible states ({', '.join(summary)}), "
        f"{elapsed:.1f}s < 300s"
        + (f"; problems: {problems[:2]}" if problems else ""),
    )


def test_zero_violations_at_trace_scale(cell_runs, tmp_path, capsys):
    results, elapsed = cell_runs
    problems = []
    for (dispatcher, predictor), result in results.items():
        if result.dnf:
            problems.append(f"{dispatcher}/{predictor}: dnf {result.dnf_reason}")
        unfinished = sum(1 for o in result.outcomes if not o.completed)
        if unfinished:
            problems.append(f"{dispatcher}/{predictor}: {unfinished} jobs unfinished")

    # The shared trace never saturates the machine, so requeue behaviour needs
    # its own probe: a burst of the same mix arriving within minutes
    # oversubscribes the cores and provably parks jobs in the queue across
    # invocations.  Requeued jobs must keep their original arrival stamp (the
    # waiting-time objective depends on it).
    probe_started = time.perf_counter()
    burst = generate_trace(eurora_mix(
        jobs=160, seed=11, mean_interarrival=1.0,
        node_counts=((1, 0.55), (2, 0.30), (4, 0.15)),
    ))
    burst_dir = tmp_path / "burst"
    burst_run = run_simulation(burst, EURORA, SimConfig(
        dispatch=DispatchConfig(budget_ms=300.0, node_limit=1500, window=25),
        dump_dir=burst_dir,
    ))
    if burst_run.dnf:
        problems.append(f"burst probe: dnf {burst_run.dnf_reason}")
    unfinished = sum(1 for o in burst_run.outcomes if not o.completed)
    if unfinished:
        problems.append(f"burst probe: {unfinished} jobs unfinished")
    seen: dict[int, int] = {}
    requeues = 0
    for path in sorted(burst_dir.glob("instance_*.json")):
        snapshot = DispatchInstance.load(path)
        for entry in snapshot.queued:
            if entry.job_id in seen:
                requeues += 1
                if entry.arrival != seen[entry.job_id]:
                    problems.append(f"job {entry.job_id} arrival drifted on requeue")
            seen[entry.job_id] = entry.arrival
    if requeues == 0:
        problems.append("burst probe produced no requeue; the arrival check is vacuous")
    total = elapsed + (time.perf_counter() - probe_started)

    ok = not problems and total < 900.0
    verdict(
        capsys, 5, ok, "zero violations at trace scale",
        f"1000-job short-dominated trace, 6 dispatcher/predictor cells, in-loop "
        f"allocation check clean, all jobs completed; oversubscribed 160-job burst: "
        f"{requeues} requeues, every one kept its arrival, {total:.1f}s < 900s"
        + (f"; problems: {problems[:3]}" if problems else ""),
    )


def test_heterogeneity_stress(capsys):
    started = time.perf_counter()
    system = support.system_of(
        (48, {"core": 16, "mem": 16}),
        (16, {"core": 16, "mem": 16, "gpu": 2}),
        name="gpu-scarce-64",
    )
    trace = generate_trace(gpu_scarce_mix(jobs=250, seed=7, mean_interarrival=45.0))
    # The greedy relief valve keeps a 500 ms budget from starving dispatch
    # outright at full gpu saturation; re-iteration counts are unaffected.
    config = DispatchConfig(
        budget_ms=500.0, node_limit=500, window=40, emergency_first_fit=True
    )
    runs = {}
    for dispatcher in ("hcp19", "pcp20"):
        runs[dispatcher] = run_simulation(
            trace, system, SimConfig(dispatcher=dispatcher, dispatch=config)
        )
    hcp_iters = sum(s.realloc_iterations for s in runs["hcp19"].invocations)
    pcp_iters = sum(s.realloc_iterations for s in runs["pcp20"].invocations)
    problems = []
    if hcp_iters < 1:
        problems.append("hcp19 never re-iterated")
    if pcp_iters != 0:
        problems.append(f"pcp20 reported {pcp_iters} re-iterations")
    for dispatcher, result in runs.items():
        if result.dnf:
            problems.append(f"{dispatcher}: dnf {result.dnf_reason}")
        unfinished = sum(1 for o in result.outcomes if not o.completed)
        if unfinished:
            problems.append(f"{dispatcher}: {unfinished} jobs unfinished")
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 600.0
    verdict(
        capsys, 6, ok, "heterogeneity stress",
        f"250-job trace with half the jobs wanting gpus on a quarter of the nodes: "
        f"hcp19 schedule/allocate re-iterations {hcp_iters} >= 1, pcp20 {pcp_iters} == 0, "
        f"both runs violation-free and complete, {elapsed:.1f}s < 600s"
        + (f"; problems: {problems[:3]}" if problems else ""),
    )


def test_deterministic_artifacts(eurora_trace, cell_runs, tmp_path, capsys):
    results, _ = cell_runs
    first = write_artifacts(results["pcp20", "oracle"], tmp_path / "a")
    rerun = run_simulation(eurora_trace, EURORA, SimConfig(dispatch=TRACE_CONFIG))
    second = write_artifacts(rerun, tmp_path / "b")
    same_jobs = first["jobs"].read_bytes() == second["jobs"].read_bytes()
    same_events = first["events"].read_bytes() == second["events"].read_bytes()
    ok = same_jobs and same_events
    verdict(
        capsys, 7, ok, "deterministic artifacts",
        f"two pcp20/oracle runs of the 1000-job trace: jobs.csv byte-identical "
        f"{same_jobs}, events.log byte-identical {same_events}",
    )


def test_dispatch_equivalence(capsys):
    started = time.perf_counter()
    problems = []
    for seed in range(500):
        rng = random.Random(10_000 + seed)
        instance = support.tiny_instance(rng)
        try:
            obj20, plan20 = support.full_pcp20(instance)
            obj19, plan19 = support.full_pcp19(instance)
        except AssertionError as exc:
            problems.append(f"seed {seed}: {exc}")
            continue
        if obj20 != obj19:
            problems.append(f"seed {seed}: objectives {obj20} != {obj19}")
            continue
        projected = {
            job_id: (start, tuple(sorted(node for node, _spots in placements)))
            for job_id, (start, placements) in plan20.items()
        }
        if oracles.capacity_violations(instance, projected):
            problems.append(f"seed {seed}: projected plan infeasible")
        if oracles.positions_for_nodes(instance, plan19) is None:
            problems.append(f"seed {seed}: node plan has no position lift")
    elapsed = time.perf_counter() - started
    ok = not problems
    verdict(
        capsys, 8, ok, "dispatch equivalence",
        f"500 instances: position plans project to feasible node plans, node plans "
        f"lift back to positions, objectives equal both ways, {elapsed:.1f}s"
        + (f"; first problems: {problems[:3]}" if problems else ""),
    )


def test_tight_budget_failure_mode(capsys):
    started = time.perf_counter()
    system = support.system_of((1173, {"core": 8}), name="big-1173")
    rng = random.Random(2024)
    clock = 0.0
    trace = []
    for job_id in range(1, 121):
        clock += rng.expovariate(1.0 / 25.0)
        trace.append(
            make_job(job_id, rng.randint(1, 20), int(clock), 8, {"core": 8}, rng.randint(30, 300))
        )
    # 8-unit jobs keep the replicated model at ~9400 variables per queued job
    # on 1173 nodes while the joint model carries 9.
    tight = DispatchConfig(budget_ms=50.0, node_limit=None)
    r20 = run_simulation(trace, system, SimConfig(dispatch=tight))
    r19 = run_simulation(trace, system, SimConfig(dispatcher="pcp19", dispatch=tight))

    timeout_fallbacks = sum(1 for s in r19.invocations if s.status == "timeout" and s.fallback)
    with_incumbent = sum(1 for s in r20.invocations if s.objective is not None and not s.fallback)
    incumbent_frac = with_incumbent / len(r20.invocations)
    elapsed = time.perf_counter() - started
    problems = []
    if timeout_fallbacks < 1:
        problems.append("pcp19 never hit a timeout fallback")
    if not r19.dnf:
        problems.append("pcp19 finished the trace despite the 50ms budget")
    if incumbent_frac <= 0.9:
        problems.append(f"pcp20 incumbent fraction {incumbent_frac:.3f}")
    if r20.dnf:
        problems.append(f"pcp20 dnf {r20.dnf_reason}")
    ok = not problems and elapsed < 900.0
    verdict(
        capsys, 9, ok, "tight-budget failure mode",
        f"1173-node system at 50ms: pcp19 {timeout_fallbacks}/{len(r19.invocations)} "
        f"timeout fallbacks and run DNF ({r19.dnf_reason or 'finished'}), pcp20 incumbent on "
        f"{incumbent_frac:.1%} of {len(r20.invocations)} invocations > 90%, "
        f"{elapsed:.1f}s < 900s"
        + (f"; problems: {problems[:3]}" if problems else ""),
    )
