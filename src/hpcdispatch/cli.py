"""Command-line front end.

Subcommands: simulate (one trace, one dispatcher, full artifact set),
compare (several dispatchers on identical input, side-by-side table),
replay (saved dispatch instances re-solved offline), gen-trace (synthetic
workload generation), validate (sanity checks on traces, systems, and
saved instances).

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from hpcdispatch.dispatch import DISPATCHERS, DispatchConfig, DispatchInstance
from hpcdispatch.sim import (
    REPLAY_FIELDS,
    SimConfig,
    SimulationError,
    replay_instances,
    run_simulation,
    write_artifacts,
)
from hpcdispatch.system import PRESET_CONFIGS, SystemModel, build_system, preset
from hpcdispatch.workload import (
    MIXES,
    PREDICTOR_MODES,
    generate_trace,
    index_jobs,
    jobs_to_jsonl,
    load_trace,
    render_swf,
    spec_from_dict,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

_INFINITY = "∞"


def _load_json(path: Path, what: str) -> object:
    """Parse a JSON file; a syntax error or too deep a nesting names the file."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # deep nesting exhausts the decoder
        raise ValueError(f"{what} {path}: {exc}") from None


def _resolve_system(text: str) -> SystemModel:
    """A preset name, or a path to a JSON config file."""
    if text in PRESET_CONFIGS:
        return preset(text)
    path = Path(text)
    if path.exists():
        return build_system(_load_json(path, "system config"))
    known = ", ".join(sorted(PRESET_CONFIGS))
    raise ValueError(f"system {text!r} is neither a preset ({known}) nor a config file")


def _dispatch_config(args: argparse.Namespace) -> DispatchConfig:
    return DispatchConfig(
        budget_ms=args.budget_ms,
        node_limit=args.node_limit if args.node_limit > 0 else None,
        window=args.window,
        emergency_first_fit=getattr(args, "emergency_first_fit", False),
    )


def _checked(kind, valid, rule: str):
    """An argparse type: a ``kind`` value for which ``valid`` holds."""

    def parse(text: str):
        value = kind(text)
        if not valid(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid <name> value"
    return parse


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--budget-ms", type=_checked(float, lambda v: v > 0, "> 0"), default=2000.0,
        help="per-dispatch budget",
    )
    sub.add_argument(
        "--window", type=_checked(int, lambda v: v >= 1, ">= 1"), default=100,
        help="max queued jobs per model",
    )
    sub.add_argument(
        "--node-limit",
        type=_checked(int, lambda v: v >= 0, ">= 0"),
        default=1500,
        help="deterministic search-node cap per solve (0 disables)",
    )


def _add_cores_per_node(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--cores-per-node", type=_checked(int, lambda v: v >= 1, ">= 1"), default=16,
        help="SWF node rounding",
    )


def _add_sim_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--trace", required=True, help="SWF or JSONL workload file")
    sub.add_argument("--system", required=True, help="preset name or JSON config path")
    sub.add_argument("--predictor", choices=sorted(PREDICTOR_MODES), default="oracle")
    sub.add_argument(
        "--max-jobs", type=_checked(int, lambda v: v >= 0, ">= 0"), default=0,
        help="use only the first N jobs (0 = all)",
    )
    _add_cores_per_node(sub)
    sub.add_argument(
        "--throttle-s", type=_checked(int, lambda v: v >= 0, ">= 0"), default=0,
        help="min seconds between dispatches",
    )
    sub.add_argument("--strict-kill", action="store_true", help="kill jobs at expected duration")
    sub.add_argument(
        "--wall-cap-s",
        type=_checked(float, lambda v: math.isfinite(v) and v >= 0, "finite and >= 0"),
        default=0.0,
        help="abort after this much wall time (0 = off)",
    )
    sub.add_argument("--emergency-first-fit", action="store_true")
    _add_solver_flags(sub)


def _load_jobs(args: argparse.Namespace):
    parsed = load_trace(args.trace, args.cores_per_node)
    jobs = parsed.jobs
    if args.max_jobs > 0:
        jobs = jobs[: args.max_jobs]
    if not jobs:
        raise ValueError(f"trace {args.trace} contains no usable jobs")
    return jobs, parsed.skipped


def _sim_config(args: argparse.Namespace, dispatcher: str, dump_dir=None) -> SimConfig:
    return SimConfig(
        dispatcher=dispatcher,
        predictor=args.predictor,
        dispatch=_dispatch_config(args),
        throttle_s=args.throttle_s,
        strict_kill=args.strict_kill,
        wall_cap_s=args.wall_cap_s if args.wall_cap_s > 0 else None,
        dump_dir=dump_dir,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    system = _resolve_system(args.system)
    jobs, skipped = _load_jobs(args)
    if skipped:
        print(f"note: skipped {skipped} unusable trace records", file=sys.stderr)
    config = _sim_config(args, args.dispatcher, dump_dir=args.dump_instances)
    result = run_simulation(jobs, system, config)
    paths = write_artifacts(result, args.out)
    row = result.summary_row()
    print(
        f"{result.dispatcher}/{result.predictor}: {len(result.completed())}/{len(result.outcomes)}"
        f" jobs completed, avg dispatch {row['avg_dispatch_ms']} ms,"
        f" avg slowdown {row['avg_slowdown']}, avg wait {row['avg_wait_s']} s"
    )
    if result.dnf:
        print(f"note: run did not fully finish ({result.dnf_reason})", file=sys.stderr)
    print(f"artifacts in {Path(args.out).resolve()}")
    for name in ("summary", "jobs", "invocations", "events"):
        print(f"  {paths[name]}")
    return EXIT_OK


_COMPARE_METRICS = (
    "avg_dispatch_ms",
    "total_sim_s",
    "avg_slowdown",
    "sd_slowdown",
    "avg_wait_s",
    "sd_wait_s",
)


def cmd_compare(args: argparse.Namespace) -> int:
    names = [n.strip() for n in args.dispatchers.split(",") if n.strip()]
    unknown = [n for n in names if n not in DISPATCHERS]
    if unknown:
        raise ValueError(f"unknown dispatcher(s): {', '.join(unknown)}")
    if not names:
        raise ValueError("no dispatchers given")
    system = _resolve_system(args.system)
    jobs, _ = _load_jobs(args)

    rows = []
    for name in names:
        config = _sim_config(args, name)
        result = run_simulation(jobs, system, config)
        row = {"dispatcher": name, "predictor": args.predictor, "dnf": result.dnf}
        if result.dnf:
            # Table-style rendering: a dispatcher that cannot finish the
            # run gets infinity for every metric.
            row.update({m: _INFINITY for m in _COMPARE_METRICS})
        else:
            summary = result.summary_row()
            row.update({m: summary[m] for m in _COMPARE_METRICS})
        rows.append(row)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "compare.csv"
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["dispatcher", "predictor", "dnf", *_COMPARE_METRICS])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)

    header = ["metric"] + [row["dispatcher"] for row in rows]
    widths = [max(len(h), 16) for h in header]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for metric in _COMPARE_METRICS:
        cells = [metric] + [str(row[metric]) for row in rows]
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    base = rows[0]
    if len(rows) > 1 and not base["dnf"]:
        for metric in _COMPARE_METRICS:
            cells = [f"{metric} ratio"]
            for row in rows:
                if row["dnf"]:
                    cells.append(_INFINITY)
                else:
                    denom = float(base[metric])
                    cells.append(f"{float(row[metric]) / denom:.3f}" if denom else "-")
            print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    print(f"csv: {csv_path}")
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    root = Path(args.instances)
    if not root.is_dir():
        raise ValueError(f"{root} is not a directory")
    paths = sorted(root.glob("*.json"))
    if not paths:
        raise ValueError(f"no instance files in {root}")
    rows, notes = replay_instances(paths, _dispatch_config(args))
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(REPLAY_FIELDS))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    print(f"replayed {len(rows)} instances -> {out}")
    return EXIT_OK


def cmd_gen_trace(args: argparse.Namespace) -> int:
    overrides = {}
    if args.config:
        overrides = _load_json(Path(args.config), "trace config")
    spec = spec_from_dict(overrides, dict(MIXES[args.mix], jobs=args.jobs, seed=args.seed))
    jobs = generate_trace(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.suffix.lower() == ".swf":
        gpu_jobs = sum(1 for j in jobs if j.demand.get("gpu", 0) > 0)
        if gpu_jobs:
            print(
                f"note: SWF keeps only core counts; {gpu_jobs} jobs lose their"
                " gpu/mem demands (use .jsonl to keep them)",
                file=sys.stderr,
            )
        out.write_text(render_swf(jobs), encoding="utf-8")
    else:
        out.write_text(jobs_to_jsonl(jobs), encoding="utf-8")
    print(f"wrote {len(jobs)} jobs -> {out}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    checked = False
    failures = 0
    if args.system:
        checked = True
        system = _resolve_system(args.system)
        print(
            f"system {system.name}: {system.node_count} nodes,"
            f" capacities {dict(system.total_capacity)}"
        )
    if args.trace:
        checked = True
        parsed = load_trace(args.trace, args.cores_per_node)
        index_jobs(parsed.jobs)
        print(f"trace {args.trace}: {len(parsed.jobs)} jobs, {parsed.skipped} skipped")
        if not parsed.jobs:
            failures += 1
    if args.instance:
        checked = True
        instance = DispatchInstance.load(args.instance)
        problems = instance.validate()
        label = f"instance {args.instance}"
        if problems:
            failures += 1
            print(f"{label}: INVALID")
            for p in problems:
                print(f"  {p}")
        else:
            print(
                f"{label}: ok (t={instance.t}, {len(instance.queued)} queued,"
                f" {len(instance.running)} running)"
            )
    if not checked:
        raise ValueError("nothing to validate: pass --trace, --system, or --instance")
    return EXIT_RUNTIME if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpcdispatch",
        description="Constraint-based on-line job dispatching for HPC clusters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="replay a trace under one dispatcher")
    _add_sim_flags(p_sim)
    p_sim.add_argument("--dispatcher", choices=sorted(DISPATCHERS), default="pcp20")
    p_sim.add_argument("--out", default="out", help="artifact directory")
    p_sim.add_argument("--dump-instances", default=None, help="save one JSON per invocation")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="run several dispatchers on identical input")
    _add_sim_flags(p_cmp)
    p_cmp.add_argument(
        "--dispatchers",
        default="pcp20,pcp19,hcp19",
        help="comma-separated dispatcher names",
    )
    p_cmp.add_argument("--out", default="out", help="artifact directory")
    p_cmp.set_defaults(func=cmd_compare)

    p_rep = sub.add_parser("replay", help="re-solve saved dispatch instances offline")
    p_rep.add_argument("--instances", required=True, help="directory of instance JSON files")
    p_rep.add_argument("--out", default="replay.csv")
    _add_solver_flags(p_rep)
    p_rep.set_defaults(func=cmd_replay)

    p_gen = sub.add_parser("gen-trace", help="generate a synthetic workload")
    p_gen.add_argument("--jobs", type=_checked(int, lambda v: v >= 0, ">= 0"), default=1000)
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--mix", choices=list(MIXES), default="eurora")
    p_gen.add_argument("--config", default=None, help="JSON overrides for the mix")
    p_gen.add_argument("--out", required=True, help=".jsonl (full demands) or .swf")
    p_gen.set_defaults(func=cmd_gen_trace)

    p_val = sub.add_parser("validate", help="check traces, systems, or saved instances")
    p_val.add_argument("--trace", default=None)
    p_val.add_argument("--system", default=None)
    p_val.add_argument("--instance", default=None)
    _add_cores_per_node(p_val)
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
