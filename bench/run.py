#!/usr/bin/env python3
"""Trace-replay benchmark for hpcdispatch.

Each run generates one workload's trace from ``--seed`` and replays it
through ``sim.run_simulation`` in this process, repeatedly, for about
``--seconds`` seconds (never fewer than two replays, so the determinism
check has something to compare).  The program receives only the trace, the
system and a ``DispatchConfig``.

    python3 bench/run.py --workload steady-pcp20 --seed 42 --seconds 60 --trace 0
    python3 bench/run.py --workload all            # every workload, both modes

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced replays and reports the per-layer metrics derived from
the spans (see bench/README.md).  Replay times are best cases: each
dispatcher invocation counts at its fastest across the run's replays,
because on a shared virtual machine the processor switches between a fast
and a slower state many times while a run lasts.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.  A failed output check
prints ``"correct": false`` and exits with status 1.  Everything the run
writes goes under ``.bench_out/`` in the current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = Path(".bench_out")
# Untraced rounds a run always makes after its warm-up replay, so the
# digest check and the medians have at least two timed replays to use.
MIN_ROUNDS = 2
# Fresh-process set-up timings per untraced run, spread evenly over it.
SETUP_PROBES = 9

# name, unit, better — the order the table prints in.
END_TO_END = (
    ("sim_wall_s", "s", "lower"),
    ("dispatch_p50_ms", "ms", "lower"),
    ("dispatch_p90_ms", "ms", "lower"),
    ("avg_slowdown", "ratio", "lower"),
    ("completed_frac", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

KERNEL_KINDS = ("Diffn", "Cumulative", "ElementEqual", "AllDifferent", "Objective")
DISPATCH_SPANS = ("call", "select_window", "build", "violations", "fits_system", "freeruns", "emergency")

PER_LAYER = (
    ("kernel.solve_s", "s", "lower"),
    ("kernel.root_s", "s", "lower"),
    ("kernel.search_s", "s", "lower"),
    *(
        item
        for kind in KERNEL_KINDS
        for item in ((f"kernel.{kind}.calls", "count", "lower"), (f"kernel.{kind}.self_s", "s", "lower"))
    ),
    ("kernel.decisions", "count", "lower"),
    ("kernel.fails", "count", "lower"),
    ("kernel.fail_ratio", "ratio", "lower"),
    ("kernel.propagations", "count", "lower"),
    *((f"dispatch.{name}_s", "s", "lower") for name in DISPATCH_SPANS),
    ("dispatch.place_s", "s", "lower"),
    ("dispatch.place_calls", "count", "lower"),
    ("dispatch.place_ok_ratio", "ratio", "higher"),
    ("dispatch.window_mean", "jobs", "lower"),
    ("dispatch.realloc_iterations", "count", "lower"),
    ("dispatch.deferred", "count", "lower"),
    ("dispatch.fallbacks", "count", "lower"),
    ("dispatch.fallback_frac", "ratio", "lower"),
    ("system.validate_allocation_s", "s", "lower"),
    ("system.validate_allocation_calls", "count", "lower"),
    ("system.validate_mutual_s", "s", "lower"),
    ("system.validate_mutual_calls", "count", "lower"),
    ("sim.snapshot_s", "s", "lower"),
    ("sim.loop_self_s", "s", "lower"),
    ("sim.invocations", "count", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.avg_wait_s", "s", "lower"),
    ("workload.generate_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def _import_program() -> None:
    """Put the checkout's sources and the benchmark's modules on the path."""
    for path in (ROOT / "src", BENCH_DIR):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


# -- set-up -------------------------------------------------------------------


def setup_probe(workload_name: str, seed: int) -> float:
    """Imports, trace generation and system build, timed in a fresh process."""
    started = time.perf_counter()
    _import_program()
    import hpcdispatch.sim  # noqa: F401  (the import is what is timed)
    from hpcdispatch.system import preset
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    workload.trace(seed)
    preset(workload.system)
    return time.perf_counter() - started


def measure_setup(workload_name: str, seed: int) -> float:
    """One ``setup_probe`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
         "--workload", workload_name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


# -- one replay ----------------------------------------------------------------


def check_result(result, trace) -> list[str]:
    """Output checks beyond the simulator's own validators."""
    problems = []
    unfinished = [o.job.job_id for o in result.outcomes if not o.completed]
    if result.dnf or unfinished:
        problems.append(
            f"unexpected DNF ({result.dnf_reason or 'incomplete'}): "
            f"{len(unfinished)} of {len(trace)} jobs unfinished"
        )
    if len(result.outcomes) != len(trace):
        problems.append(f"{len(result.outcomes)} outcomes for {len(trace)} jobs")
    for o in result.outcomes:
        if o.completed and (o.start < o.job.submit or o.end != o.start + o.job.runtime):
            problems.append(f"job {o.job.job_id}: start {o.start}, end {o.end} inconsistent")
            break
    if not result.invocations:
        problems.append("the dispatcher was never invoked")
    return problems


def artifact_digest(result, out_dir: Path) -> str:
    """sha256 over jobs.csv and events.log as write_artifacts produces them."""
    from hpcdispatch.sim import write_artifacts

    paths = write_artifacts(result, out_dir)
    digest = hashlib.sha256()
    for key in ("jobs", "events"):
        digest.update(paths[key].read_bytes())
    return digest.hexdigest()


class Replayer:
    """Replays one workload's trace and keeps what the metrics need."""

    def __init__(self, workload, seed: int, artifacts: Path):
        from hpcdispatch.sim import SimConfig
        from hpcdispatch.system import preset

        self.artifacts = artifacts
        started = time.perf_counter()
        self.trace = workload.trace(seed)
        self.generate_s = time.perf_counter() - started
        self.system = preset(workload.system)
        self.config = SimConfig(
            dispatcher=workload.dispatcher, predictor="oracle", dispatch=workload.dispatch
        )
        self.walls: list[float] = []
        self.digests: list[str] = []
        self.invocation_ms: list[list[float]] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.last = None

    def replay(self, tracer=None, timed: bool = True) -> float | None:
        """One replay; returns its wall time, or None if an output check failed.

        Untraced timed replays feed ``walls`` and ``invocation_ms``; every
        replay is checked and must reproduce the first replay's digest.
        """
        from hpcdispatch import sim

        run = sim.run_simulation if tracer is None else tracer.wrap("sim.run", sim.run_simulation)
        self.last = None  # one result alive at a time keeps peak_rss_mb comparable
        self.attempted += len(self.trace)
        started = time.perf_counter()
        try:
            result = run(self.trace, self.system, self.config)
        except sim.SimulationError as exc:
            self.failed += len(self.trace)
            self.problems.append(f"SimulationError: {exc}")
            return None
        wall = time.perf_counter() - started
        self.failed += sum(1 for o in result.outcomes if not o.completed)
        problems = check_result(result, self.trace)
        digest = artifact_digest(result, self.artifacts)
        if self.digests and digest != self.digests[0]:
            problems.append(f"artifact digest {digest[:12]} differs from {self.digests[0][:12]}")
        self.problems.extend(problems)
        if problems:
            return None
        self.digests.append(digest)
        if timed and tracer is None:
            self.walls.append(wall)
            self.invocation_ms.append([s.wall_ms for s in result.invocations])
        self.last = result
        return wall


def quality(result) -> dict[str, float]:
    stats = result.invocations
    done = result.completed()
    fallbacks = sum(1 for s in stats if s.fallback)
    return {
        "avg_slowdown": statistics.fmean(o.slowdown for o in done),
        "avg_wait_s": statistics.fmean(o.wait for o in done),
        "completed_frac": len(done) / len(result.outcomes),
        "invocations": len(stats),
        "fallbacks": fallbacks,
        "fallback_frac": fallbacks / len(stats),
        "window_mean": statistics.fmean(s.window_size for s in stats),
        "realloc_iterations": sum(s.realloc_iterations for s in stats),
        "deferred": sum(s.deferred for s in stats),
        "decisions": sum(s.decisions for s in stats),
        "events": len(result.events),
    }


def best_case(walls: list[float], invocation_ms: list[list[float]]) -> tuple[float, list[float]]:
    """The replay's wall time with every step at its fastest across replays.

    Returns each invocation's fastest dispatcher time (ms) and the replay
    time rebuilt from them: the fastest replay's time outside the
    dispatcher plus the sum of those fastest invocation times.
    """
    per_invocation = [min(samples) for samples in zip(*invocation_ms)]
    outside = min(wall - sum(ms) / 1000.0 for wall, ms in zip(walls, invocation_ms))
    return outside + sum(per_invocation) / 1000.0, per_invocation


# -- tracing -------------------------------------------------------------------


def install_spans(tracer, dispatcher: str) -> None:
    """Wrap the program's layer entry points where their callers look them up."""
    from hpcdispatch import sim
    from hpcdispatch.dispatch import common, hcp19, instance, pcp19, pcp20
    from hpcdispatch.kernel import core, propagators

    def next_invocation():
        tracer.current_invocation += 1

    def count_solve(result):
        tracer.counts["decisions"] += result.stats.decisions
        tracer.counts["fails"] += result.stats.fails
        tracer.counts["propagations"] += result.stats.propagations

    def count_place(allocation):
        tracer.counts["place_ok"] += allocation is not None

    tracer.patch(sim, "snapshot_instance", "sim.snapshot", before=next_invocation)
    tracer.patch(sim.DISPATCHERS, dispatcher, "dispatch.call")
    for module in (pcp20, pcp19, hcp19):
        tracer.patch(module, "select_window", "dispatch.select_window")
        tracer.patch(module, "emergency_dispatch", "dispatch.emergency")
    tracer.patch(pcp20, "build_pcp20", "dispatch.build")
    tracer.patch(pcp19, "build_pcp19", "dispatch.build")
    tracer.patch(hcp19, "_build_schedule_model", "dispatch.build")
    tracer.patch(instance.DispatchDecision, "violations", "dispatch.violations")
    tracer.patch(common, "fits_system", "dispatch.fits_system")
    tracer.patch(sim, "fits_system", "dispatch.fits_system")
    tracer.patch(common.FreeRuns, "__init__", "dispatch.freeruns")
    tracer.patch(common, "place_job", "dispatch.place", after=count_place)
    tracer.patch(hcp19, "place_job", "dispatch.place", after=count_place)
    tracer.patch(pcp19, "place_units_on_nodes", "dispatch.place", after=count_place)
    tracer.patch(sim, "validate_allocation", "system.validate_allocation")
    tracer.patch(instance, "validate_allocation", "system.validate_allocation")
    tracer.patch(sim, "validate_mutual", "system.validate_mutual")
    tracer.patch(core.Solver, "solve", "kernel.solve", after=count_solve)
    tracer.patch(core.Solver, "propagate_all", "kernel.root")
    tracer.patch(core._ObjectiveBound, "propagate", "kernel.Objective")
    for kind in KERNEL_KINDS[:-1]:
        tracer.patch(getattr(propagators, kind), "propagate", f"kernel.{kind}")


def layer_metrics(tracer, result) -> dict[str, float]:
    totals = tracer.totals()

    def span(name: str, field: str = "self_s") -> float:
        row = totals.get(name)
        return row[field] if row else 0

    q = quality(result)
    counts = tracer.counts
    out: dict[str, float] = {
        "kernel.solve_s": span("kernel.solve", "total_s"),
        "kernel.root_s": span("kernel.root", "total_s"),
    }
    out["kernel.search_s"] = out["kernel.solve_s"] - out["kernel.root_s"]
    for kind in KERNEL_KINDS:
        out[f"kernel.{kind}.calls"] = span(f"kernel.{kind}", "calls")
        out[f"kernel.{kind}.self_s"] = span(f"kernel.{kind}")
    out["kernel.decisions"] = counts["decisions"]
    out["kernel.fails"] = counts["fails"]
    out["kernel.fail_ratio"] = counts["fails"] / counts["decisions"] if counts["decisions"] else 0.0
    out["kernel.propagations"] = counts["propagations"]
    for name in DISPATCH_SPANS:
        out[f"dispatch.{name}_s"] = span(f"dispatch.{name}")
    place_calls = span("dispatch.place", "calls")
    out["dispatch.place_s"] = span("dispatch.place")
    out["dispatch.place_calls"] = place_calls
    out["dispatch.place_ok_ratio"] = counts["place_ok"] / place_calls if place_calls else 0.0
    out["dispatch.window_mean"] = q["window_mean"]
    out["dispatch.realloc_iterations"] = q["realloc_iterations"]
    out["dispatch.deferred"] = q["deferred"]
    out["dispatch.fallbacks"] = q["fallbacks"]
    out["dispatch.fallback_frac"] = q["fallback_frac"]
    for name in ("validate_allocation", "validate_mutual"):
        out[f"system.{name}_s"] = span(f"system.{name}")
        out[f"system.{name}_calls"] = span(f"system.{name}", "calls")
    out["sim.snapshot_s"] = span("sim.snapshot")
    out["sim.loop_self_s"] = span("sim.run")
    out["sim.invocations"] = q["invocations"]
    out["sim.events"] = q["events"]
    out["sim.avg_wait_s"] = q["avg_wait_s"]
    out["trace.spans"] = len(tracer)
    # Self times partition the replay: their sum is the traced replay's wall.
    out["_self_sum_s"] = sum(row["self_s"] for row in totals.values())
    out["_traced_wall_s"] = span("sim.run", "total_s")
    return out


# -- a whole run -----------------------------------------------------------------


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "loadavg_start": os.getloadavg(),
        "commit": read_commit(Path(".git")),
    }


def read_commit(git_dir: Path) -> str:
    """HEAD of a git checkout in the current directory, read without git."""
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git_dir / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload, seed: int, seconds: float, traced: bool, out_dir: Path) -> dict:
    """One benchmark run; returns the full record (metrics, checks, environment)."""
    from spans import Tracer

    env = environment()
    setup_samples: list[float] = []

    def probe_setup(share: float) -> None:
        """Time fresh-process set-ups until ``share`` of them are done."""
        if not traced:
            while len(setup_samples) < 1 + (SETUP_PROBES - 1) * min(share, 1.0):
                setup_samples.append(measure_setup(workload.name, seed))

    probe_setup(0.0)
    replayer = Replayer(workload, seed, out_dir / "artifacts" / f"{workload.name}-s{seed}")
    generate_samples = [replayer.generate_s]
    for _ in range(4):
        started = time.perf_counter()
        workload.trace(seed)
        generate_samples.append(time.perf_counter() - started)

    tracer = Tracer() if traced else None
    traced_walls: list[float] = []
    layers: list[dict[str, float]] = []
    # The first replay fills lazy caches (owner indexes, allocator pools) and
    # is slower; it is checked like the others but not timed.
    started = time.perf_counter()
    replayer.replay(timed=False)
    rounds_started = time.perf_counter()
    rounds = 0
    while not replayer.problems:
        if replayer.replay() is None:
            break
        if traced:
            tracer.clear()
            install_spans(tracer, workload.dispatcher)
            try:
                wall = replayer.replay(tracer)
            finally:
                tracer.unpatch()
            if wall is None:
                break
            traced_walls.append(wall)
            layers.append(layer_metrics(tracer, replayer.last))
        rounds += 1
        probe_setup((time.perf_counter() - started) / seconds if seconds else 1.0)
        now = time.perf_counter()
        next_end = now - started + (now - rounds_started) / rounds
        if rounds >= (1 if traced else MIN_ROUNDS) and next_end > seconds:
            break
    probe_setup(1.0)

    record = {
        "workload": workload.name,
        "seed": seed,
        "default_seed": workload.default_seed,
        "held_out_seed": workload.held_out_seed,
        "trace": int(traced),
        "seconds": seconds,
        "environment": env,
        "replays": len(replayer.digests),
        "replay_walls_s": replayer.walls,
        "digest": replayer.digests[0] if replayer.digests else None,
        "problems": replayer.problems,
        "correct": not replayer.problems,
        "attempted": replayer.attempted,
        "failed": replayer.failed,
    }
    if replayer.problems:
        record["metrics"] = {}
        return record

    q = quality(replayer.last)
    record["quality"] = q
    if traced:
        merged = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        merged["workload.generate_s"] = statistics.median(generate_samples)
        merged["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(replayer.walls)
        record["self_time_check"] = {
            "sum_of_self_s": merged.pop("_self_sum_s"),
            "traced_wall_s": merged.pop("_traced_wall_s"),
        }
        record["metrics"] = {name: (merged[name], unit) for name, unit, _ in PER_LAYER}
        spans_path = out_dir / f"{workload.name}-s{seed}.spans.csv.gz"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path)
    else:
        sim_wall_s, per_invocation = best_case(replayer.walls, replayer.invocation_ms)
        record["dispatch_samples"] = len(per_invocation)
        record["setup_samples_s"] = setup_samples
        values = {
            "sim_wall_s": sim_wall_s,
            "dispatch_p50_ms": statistics.median(per_invocation),
            "dispatch_p90_ms": statistics.quantiles(per_invocation, n=10)[8],
            "avg_slowdown": q["avg_slowdown"],
            "completed_frac": q["completed_frac"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_samples),
        }
        record["metrics"] = {name: (values[name], unit) for name, unit, _ in END_TO_END}
    return record


def report(record: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    env = record["environment"]
    print(
        f"# workload {record['workload']}  seed {record['seed']} "
        f"(default {record['default_seed']}, held-out {record['held_out_seed']})  "
        f"trace {record['trace']}  replays {record['replays']}"
    )
    print(
        f"# env: nproc {env['nproc']}  python {env['python']}  "
        f"loadavg {' '.join(f'{x:.2f}' for x in env['loadavg_start'])}  commit {env['commit']}"
    )
    for problem in record["problems"]:
        print(f"# CHECK FAILED: {problem}")
    if record["correct"]:
        q = record["quality"]
        print(
            f"# outputs: digest {record['digest'][:16]} identical over {record['replays']} replays; "
            f"completed {q['completed_frac']:.4f}; fallbacks {q['fallbacks']}/{q['invocations']} "
            f"invocations (fallback_frac {q['fallback_frac']:.4f}); avg_wait_s {q['avg_wait_s']:.3f}"
        )
        if "dispatch_samples" in record:
            print(f"# dispatch latency samples: {record['dispatch_samples']} invocations")
        if "self_time_check" in record:
            check = record["self_time_check"]
            print(
                f"# self times sum to {check['sum_of_self_s']:.4f} s of a "
                f"{check['traced_wall_s']:.4f} s traced replay; spans in {record['spans_file']}"
            )
        table = END_TO_END if record["trace"] == 0 else PER_LAYER
        for name, unit, better in table:
            value, _ = record["metrics"][name]
            print(f"{name:36s} {value:>16.6f} {unit:6s} ({better} is better)")
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in record["metrics"].items()},
    }
    print(json.dumps(result), flush=True)


def run_all(seconds: int, seed: int | None) -> int:
    """Every workload in its own process, untraced then traced."""
    from workloads import WORKLOADS

    status = 0
    for name, workload in WORKLOADS.items():
        for traced in (0, 1):
            args = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                    "--seed", str(workload.default_seed if seed is None else seed),
                    "--seconds", str(seconds), "--trace", str(traced)]
            proc = subprocess.run(args, timeout=600)
            if proc.returncode != 0:
                print(f"# {name} trace={traced}: exit status {proc.returncode}")
                status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, help="trace seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=int, default=60, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(f"{setup_probe(args.workload, args.seed):.9f}")
        return 0
    _import_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seconds, args.seed)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)}, all)")
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    record = measure(workload, seed, args.seconds, bool(args.trace), OUT_DIR)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{workload.name}-s{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    report(record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
